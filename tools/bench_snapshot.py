#!/usr/bin/env python
"""Machine-readable perf snapshot of the T2 hot-path operations.

Runs the T2-style micro-benchmarks (Share-Sign, Share-Verify, optimistic
and robust Combine, Verify, cross-message batch Verify, GT
exponentiation and the final exponentiation on BN254 with t=2, n=5)
twice: once through the current fast paths (prepared pairings with a
shared Miller-loop squaring chain, mixed-coordinate MSM, cyclotomic GT
arithmetic, batch verification, hash memoization) and once through the
retained seed-equivalent naive implementations (inline Miller loops,
blind final exponentiation, per-term double-and-add, per-share and
per-message verification).  Because both sides run in the same process on
the same machine, the resulting speedups are hardware-independent and can
be asserted by future PRs.

The ``svc_*`` ops additionally measure the async signing service
end to end: the same closed-loop workload through the same pipeline,
batched (window = BATCH_K) versus single-request mode (window = 1), so
their speedups isolate the batch-window amortization of the serving
layer.  The ``svc_tcp_*`` ops measure the remote-worker tier
(TCP_WORKERS standalone worker processes on the loopback vs the same
batched pipeline on one process, same offered load) — the multi-core
scaling knob, framing/socket overhead of the transport included.
``svc_wal_throughput`` measures the
durability overhead: the same sign-only pipeline with the write-ahead
log on versus off (fsync batched per closed window), so its ratio is
the cost of crash safety — expected slightly below 1.0x.
``svc_epoch_pause`` measures the key-lifecycle overhead the same way:
the identical sign-only workload with one live epoch transition
(``begin_epoch`` barrier: drain in-flight windows, swap shares, resume)
fired mid-run versus none — the cost of zero-downtime share refresh.
The ``svc_http_*`` ops measure the HTTP front door: the identical
sign-only workload entering through the asyncio gateway (HTTP/1.1
keep-alive, JSON bodies, API-key tenant admission, a loopback socket
round trip per request) versus calling ``service.sign`` directly — the
cost of serving over the wire, also expected below 1.0x.
``svc_robust_batch_shareverify`` measures the combiner's window-level
Share-Verify: one window of BATCH_K partial signatures across BATCH_K
distinct messages checked under ONE cross-message multi-pairing versus
one seed-equivalent naive Share-Verify per share.  See
``benchmarks/README.md`` for the methodology.

Writes ``BENCH_t2_ops.json`` at the repository root (the perf trajectory
record) and regenerates ``benchmarks/results/t2_ops.txt``.

``--check`` re-runs the micro-benchmarks and fails (exit 1) when any
tracked op's same-process speedup regresses more than the tolerance
below the committed ``BENCH_t2_ops.json`` — the CI guard that a fast
path has not silently fallen back to a naive implementation.  The
tolerance defaults to 15% and is overridable via the
``BENCH_TOLERANCE`` environment variable (a percentage), so noisy
shared runners can widen it without editing code.  See
``benchmarks/README.md`` for the snapshot format and how to add an op.

Usage::

    PYTHONPATH=src python tools/bench_snapshot.py [--rounds N]
        [--skip-naive] [--check]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import random
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.tables import Table                       # noqa: E402
from repro.core.keys import PartialSignature, ThresholdParams  # noqa: E402
from repro.core.scheme import (                            # noqa: E402
    LJYThresholdScheme, ServiceHandle, reconstruct_master_key,
)
from repro.service import (                                # noqa: E402
    GatewayClient, HttpGateway, LoadGenerator, ServiceConfig,
    SigningService, TenantConfig,
)
from repro.curves.g1 import FP_OPS, G1Point                # noqa: E402
from repro.curves.pairing import (                         # noqa: E402
    final_exponentiation, final_exponentiation_naive,
    multi_pairing_naive, prepare_g2, _miller_loop_prepared_multi,
)
from repro.curves.weierstrass import jac_scalar_mul        # noqa: E402
from repro.groups import get_group                         # noqa: E402
from repro.math.lagrange import lagrange_coefficients      # noqa: E402
from repro.math.tower import f12_cyclotomic_pow            # noqa: E402

T, N = 2, 5
MESSAGE = b"benchmark message"
#: Cross-message batch size for the amortized server-side verification op.
BATCH_K = 16
#: Requests per service measurement (3 full windows, so the pipeline is
#: warm and p50 reflects steady state rather than the first window).
SVC_TOTAL = 3 * BATCH_K
#: Closed-loop client concurrency driving the service ops.
SVC_CONCURRENCY = BATCH_K
#: Service passes per ``svc_*``/``svc_tcp_*`` side.  Each
#: op's value is the **median** across passes (see
#: ``interleaved_best``) — the service ops are single-pass aggregates,
#: so variance is tamed by repeating the whole pass, and an odd pass
#: count gives the median a true middle sample.
SVC_PASSES = 3
TCP_PASSES = 3
#: Remote TCP workers for the ``svc_tcp_*`` ops (the worker tier,
#: measured over the loopback — real sockets, framing and handshake,
#: no real network latency).
TCP_WORKERS = 2
#: Shards for the ``svc_tcp_*`` ops — at least TCP_WORKERS, so that
#: many window jobs can be in flight at once (one per shard).
TCP_SHARDS = 4
#: Requests per ``svc_tcp_*`` workload — larger than SVC_TOTAL so every
#: shard sees several full windows (4 shards split the traffic; a small
#: total would make the window-fill dynamics, and thus the measured
#: ratio, noisy).
TCP_TOTAL = 2 * SVC_TOTAL

#: Seed-commit T2 numbers (benchmarks/results/t2_ops.txt at PR 0), kept for
#: context only — cross-machine comparisons are apples to oranges, which is
#: why the JSON also records same-process naive timings.  Ops introduced
#: after the seed (batch_verify_msg, gt_exp, final_exp) have no entry.
SEED_REFERENCE_MS = {
    "share_sign": 8.897,
    "share_verify": 60.183,
    "combine_optimistic": 5.223,
    "combine_robust": 212.7,
    "verify": 70.336,
}

#: Tolerated fractional slack before ``--check`` flags a speedup
#: regression against the committed snapshot.  Overridable through the
#: ``BENCH_TOLERANCE`` environment variable (a percentage: ``15`` means
#: 15%), so noisy shared CI runners can widen the gate without a code
#: edit.
CHECK_TOLERANCE = 0.15
#: Ops whose committed speedup sits below this are *overhead-bound*:
#: the worker-tier ratios (``svc_tcp_*``) hover near
#: 1.0x on a single-core recorder, where their run-to-run scheduling
#: noise (±10-15%) rivals the default tolerance.  For them the check's
#: documented purpose is catching the tier *collapsing* (a reconnect
#: storm, per-job re-dials, per-job handshakes — 0.3-0.5x events),
#: so the floor widens to ``OVERHEAD_TOLERANCE`` instead of flaking on
#: scheduler jitter.  Ops with real committed speedups keep the strict
#: band (the threshold sits just under ``gt_exp``'s ~1.23x so a
#: genuine fast path falling back to naive, a ~1.0x event, stays
#: caught by the strict floor).
OVERHEAD_REFERENCE = 1.2
OVERHEAD_TOLERANCE = 0.40


def check_tolerance() -> float:
    """The active --check tolerance as a fraction (env-overridable)."""
    raw = os.environ.get("BENCH_TOLERANCE")
    if raw is None:
        return CHECK_TOLERANCE
    try:
        percent = float(raw)
    except ValueError:
        raise SystemExit(
            f"BENCH_TOLERANCE must be a percentage, got {raw!r}")
    if percent < 0:
        raise SystemExit(
            f"BENCH_TOLERANCE must be non-negative, got {raw!r}")
    return percent / 100.0


def timed(fn, rounds, min_total_s=0.25):
    """Best-of timing with a minimum measurement budget.

    Runs at least ``rounds`` samples, then keeps sampling until
    ``min_total_s`` of wall clock has been spent (capped at 10x rounds).
    Sub-millisecond-scale ops would otherwise hand their best-of-3 to
    scheduler noise, which turns into speedup-ratio flake in --check on
    shared runners; expensive ops hit the budget after ``rounds`` and
    pay nothing extra.
    """
    best = None
    spent = 0.0
    samples = 0
    while samples < rounds or (spent < min_total_s
                               and samples < 10 * rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        spent += elapsed
        samples += 1
    return best * 1000.0


def interleaved_best(drive_fast, drive_naive, passes: int,
                     include_naive: bool):
    """Median-of-``passes`` per side, with the sides interleaved.

    Service-level ratios are noisier than micro-ops, and running all
    fast passes before all naive passes would put slow machine-load
    drift inside the speedup ratio; alternating
    (fast, naive, fast, naive, ...) lands it on both sides instead.

    Per-op values are the **median** across passes, not the minimum:
    a minimum is right for micro-op cost (the true cost plus
    never-negative noise), but the worker-tier ops track *ratios* that
    sit near 1.0x on a single core, and a ratio of two minima inherits
    a high-side bias from either side's one lucky pass — which then
    becomes an unreproducible committed floor for ``--check``.  The
    median is symmetric, so committed and fresh runs agree to within
    the tolerance.  Returns ``(fast, naive-or-None)`` dicts.
    """
    from statistics import median
    fast_reports, naive_reports = [], []
    for _ in range(passes):
        fast_reports.append(drive_fast())
        if include_naive:
            naive_reports.append(drive_naive())

    def representative(reports) -> dict:
        return {op: median(report[op] for report in reports)
                for op in reports[0]}

    return representative(fast_reports), \
        (representative(naive_reports) if include_naive else None)


class NaiveReference:
    """The seed implementations of the five T2 operations.

    Reconstructed from the retained naive primitives: fresh hash-to-curve
    on every call, double-and-add exponentiation, inline Miller loops with
    full F_p12 multiplications and a blind final exponentiation, and
    per-share verification in robust Combine.
    """

    def __init__(self, scheme):
        self.scheme = scheme
        self.params = scheme.params
        self.group = scheme.group

    def _hash(self, message=MESSAGE):
        # Bypass the module-scope hash memo: the seed hashed from scratch
        # on every call, so the naive baseline must too.
        from repro.curves.hash_to_curve import hash_to_g1_uncached
        from repro.groups.bn254_backend import BNG1
        return [
            BNG1(hash_to_g1_uncached(
                message, domain=f"repro:{self.params.hash_domain}:{k}"))
            for k in range(2)
        ]

    def _exp(self, element, scalar):
        # Seed-style double-and-add on the underlying point.
        return type(element)(G1Point(_jac=jac_scalar_mul(
            FP_OPS, element.point._jac, scalar, self.group.order)))

    def share_sign(self, share):
        h_1, h_2 = self._hash()
        z = self._exp(h_1, -share.a_1 % self.group.order) * \
            self._exp(h_2, -share.a_2 % self.group.order)
        r = self._exp(h_1, -share.b_1 % self.group.order) * \
            self._exp(h_2, -share.b_2 % self.group.order)
        return PartialSignature(index=share.index, z=z, r=r)

    def share_verify(self, public_key, vk, partial, message=MESSAGE):
        if partial.index != vk.index:
            return False
        h_1, h_2 = self._hash(message)
        p = self.params
        return multi_pairing_naive([
            (partial.z.point, p.g_z.point),
            (partial.r.point, p.g_r.point),
            (h_1.point, vk.v_1.point),
            (h_2.point, vk.v_2.point),
        ]).is_one()

    def combine(self, public_key, vks, partials, verify_shares):
        t = self.params.t
        usable = {}
        for partial in partials:
            if partial.index in usable:
                continue
            if verify_shares:
                vk = vks.get(partial.index)
                if vk is None or not self.share_verify(
                        public_key, vk, partial):
                    continue
            usable[partial.index] = partial
            if len(usable) == t + 1:
                break
        coefficients = lagrange_coefficients(
            usable.keys(), self.group.order)
        z = r = None
        for index, partial in usable.items():
            weight = coefficients[index]
            z_term = self._exp(partial.z, weight)
            r_term = self._exp(partial.r, weight)
            z = z_term if z is None else z * z_term
            r = r_term if r is None else r * r_term
        return z, r

    def verify(self, public_key, signature, message=MESSAGE):
        h_1, h_2 = self._hash(message)
        p = self.params
        return multi_pairing_naive([
            (signature.z.point, p.g_z.point),
            (signature.r.point, p.g_r.point),
            (h_1.point, public_key.g_1.point),
            (h_2.point, public_key.g_2.point),
        ]).is_one()


def _drive_service(handle: ServiceHandle, max_batch: int,
                   sign_messages, verify_pairs, num_shards: int = 1,
                   remote_workers=()) -> dict:
    """Push one closed-loop workload through the signing service.

    ``max_batch=BATCH_K`` is the batched serving mode; ``max_batch=1``
    is single-request mode (every window degenerates to one request) —
    the baseline the batch-window amortization is measured against.
    ``remote_workers=[...]`` additionally dispatches the windows to
    standalone TCP workers (the ``svc_tcp_*`` ops).
    Returns per-request sign/verify/mixed costs and the sign p50.
    """
    total = len(sign_messages)
    config = ServiceConfig(
        num_shards=num_shards, max_batch=max_batch,
        max_wait_ms=25.0 if max_batch > 1 else 0.0,
        queue_depth=4 * total, remote_workers=remote_workers,
        rng=random.Random(77))

    async def scenario():
        async with SigningService(handle, config) as service:
            sign_report = await LoadGenerator(
                lambda i: service.sign(sign_messages[i])).run_closed(
                    len(sign_messages), SVC_CONCURRENCY)
            verify_report = await LoadGenerator(
                lambda i: service.verify(*verify_pairs[i])).run_closed(
                    len(verify_pairs), SVC_CONCURRENCY)

            def mixed(ordinal):
                if ordinal % 2:
                    return service.verify(*verify_pairs[ordinal // 2])
                return service.sign(sign_messages[ordinal // 2])

            mixed_report = await LoadGenerator(mixed).run_closed(
                2 * (total // 2), SVC_CONCURRENCY)
        return sign_report, verify_report, mixed_report

    sign_report, verify_report, mixed_report = asyncio.run(scenario())
    assert sign_report.completed == len(sign_messages)
    assert verify_report.completed == len(verify_pairs)
    assert verify_report.invalid == 0
    return {
        "svc_sign_p50": sign_report.p50_ms,
        "svc_verify_req": (verify_report.duration_s * 1000.0
                           / verify_report.completed),
        "svc_throughput": (mixed_report.duration_s * 1000.0
                           / mixed_report.completed),
    }


def run_service_ops(scheme: LJYThresholdScheme, pk, shares, vks, master,
                    include_naive: bool = True) -> "tuple[dict, dict | None]":
    """The ``svc_*`` ops: service-measured request costs.

    Both sides run the *same* service code path; only the batch-window
    size differs (BATCH_K vs 1), so the speedups isolate exactly the
    batch-window amortization the serving layer exists for.  Hashes are
    pre-warmed for every message so neither mode pays the one-time
    hash-to-curve seeding inside the timed section.  The single-request
    baseline is skipped under ``--skip-naive`` (it is the slowest
    configuration of the whole snapshot).
    """
    handle = ServiceHandle(scheme, pk, shares, vks)
    sign_messages = [b"svc sign %d" % i for i in range(SVC_TOTAL)]
    verify_messages = [b"svc verify %d" % i for i in range(SVC_TOTAL)]
    verify_pairs = [
        (message, scheme.sign_with_master(master, message))
        for message in verify_messages
    ]
    for message in sign_messages + verify_messages:
        scheme.params.hash_message(message)
    return interleaved_best(
        lambda: _drive_service(handle, BATCH_K, sign_messages,
                               verify_pairs),
        lambda: _drive_service(handle, 1, sign_messages, verify_pairs),
        SVC_PASSES, include_naive)


def run_tcp_service_ops(scheme: LJYThresholdScheme, pk, shares, vks,
                        master, include_naive: bool = True
                        ) -> "tuple[dict, dict | None]":
    """The ``svc_tcp_*`` ops: the TCP remote-worker tier vs one process.

    Both sides run the batched pipeline over ``TCP_SHARDS`` shards at
    the same offered load (closed loop, ``SVC_CONCURRENCY`` clients);
    the fast side dispatches windows to ``TCP_WORKERS`` standalone
    worker processes over loopback sockets (framed wire jobs, HELLO
    handshake, warm per-process caches), the baseline runs them on the
    event loop.  The speedup is therefore the multi-core scaling of the
    worker tier net of its framing/socket overhead — it approaches
    min(TCP_WORKERS, cores) on idle multi-core hardware and ~1x on a
    single core, where process parallelism cannot add CPU time
    (``meta.cpu_count`` keeps the committed ratio interpretable;
    ``--check`` only guards against *regressions* from that baseline).
    The worker processes are spawned once and reused by every fast
    pass, mirroring a deployment's long-lived workers.
    """
    from repro.serialization import encode_service_context
    from repro.service.transport import start_worker_process

    handle = ServiceHandle(scheme, pk, shares, vks)
    sign_messages = [b"svc tcp sign %d" % i for i in range(TCP_TOTAL)]
    verify_messages = [b"svc tcp verify %d" % i for i in range(TCP_TOTAL)]
    verify_pairs = [
        (message, scheme.sign_with_master(master, message))
        for message in verify_messages
    ]
    for message in sign_messages + verify_messages:
        scheme.params.hash_message(message)

    def rekey(report: dict) -> dict:
        return {
            "svc_tcp_verify_req": report["svc_verify_req"],
            "svc_tcp_throughput": report["svc_throughput"],
        }

    with tempfile.TemporaryDirectory() as tcp_dir:
        context_path = pathlib.Path(tcp_dir) / "ctx.bin"
        context_path.write_bytes(encode_service_context(handle))
        processes, addresses = [], []
        try:
            for _ in range(TCP_WORKERS):
                process, address = start_worker_process(context_path)
                processes.append(process)
                addresses.append(address)

            def drive(remote: bool) -> dict:
                return rekey(_drive_service(
                    handle, BATCH_K, sign_messages, verify_pairs,
                    num_shards=TCP_SHARDS,
                    remote_workers=tuple(addresses) if remote else ()))

            return interleaved_best(
                lambda: drive(True), lambda: drive(False),
                TCP_PASSES, include_naive)
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.wait(timeout=10)


def _drive_wal_service(handle: ServiceHandle, sign_messages,
                       wal_path) -> dict:
    """One sign-only closed-loop pass, with or without the WAL.

    Sign-only because the write-ahead log records sign requests only
    (verify is a stateless read); mixing verifies in would dilute the
    measured overhead.  Returns the per-request wall-clock cost.
    """
    total = len(sign_messages)
    config = ServiceConfig(
        num_shards=1, max_batch=BATCH_K, max_wait_ms=25.0,
        queue_depth=4 * total, wal_path=wal_path, rng=random.Random(77))

    async def scenario():
        async with SigningService(handle, config) as service:
            return await LoadGenerator(
                lambda i: service.sign(sign_messages[i])).run_closed(
                    total, SVC_CONCURRENCY)

    report = asyncio.run(scenario())
    assert report.completed == total
    return {"svc_wal_throughput": report.duration_s * 1000.0 / total}


def run_wal_service_ops(scheme: LJYThresholdScheme, pk, shares, vks,
                        include_naive: bool = True
                        ) -> "tuple[dict, dict | None]":
    """The ``svc_wal_throughput`` op: the cost of crash-safe durability.

    Both sides run the identical batched sign-only pipeline; the fast
    side appends every admitted request to a write-ahead log and fsyncs
    once per closed batch window (``meta.wal_sync`` records the
    batching), the baseline runs with the WAL off.  The committed ratio
    is therefore the durability overhead — expected slightly *below*
    1.0x, landing in the overhead-bound ``--check`` band — and the gate
    exists to catch the overhead blowing up (an fsync per request
    instead of per window is a 0.2x-scale event on real disks).  Each
    WAL pass writes a fresh log file so no pass pays replay for the
    previous one.
    """
    handle = ServiceHandle(scheme, pk, shares, vks)
    sign_messages = [b"svc wal sign %d" % i for i in range(SVC_TOTAL)]
    for message in sign_messages:
        scheme.params.hash_message(message)

    with tempfile.TemporaryDirectory() as wal_dir:
        passes = iter(range(SVC_PASSES))

        def drive(with_wal: bool) -> dict:
            path = (pathlib.Path(wal_dir) / f"pass-{next(passes)}.wal"
                    if with_wal else None)
            return _drive_wal_service(handle, sign_messages, path)

        return interleaved_best(
            lambda: drive(True), lambda: drive(False),
            SVC_PASSES, include_naive)


def _drive_epoch_service(handle: ServiceHandle, next_handle,
                         sign_messages) -> dict:
    """One sign-only closed-loop pass, with or without a live epoch
    transition fired mid-run.

    ``next_handle`` is a pre-computed refresh of ``handle`` (epoch 1);
    passing it fires ``begin_epoch`` — the drain/swap/resume barrier —
    once half the workload has been admitted.  The DKG math itself is
    computed *outside* the timed section (a deployment overlaps it with
    serving; only the barrier pause is unavoidable), so the measured
    delta is exactly the zero-downtime transition cost.  Returns the
    per-request wall-clock cost.
    """
    total = len(sign_messages)
    config = ServiceConfig(
        num_shards=1, max_batch=BATCH_K, max_wait_ms=25.0,
        queue_depth=4 * total, rng=random.Random(77))

    async def scenario():
        async with SigningService(handle, config) as service:
            load = asyncio.ensure_future(LoadGenerator(
                lambda i: service.sign(sign_messages[i])).run_closed(
                    total, SVC_CONCURRENCY))
            if next_handle is not None:
                while service.stats.accepted < total // 2:
                    await asyncio.sleep(0)
                await service.begin_epoch(next_handle)
            return await load

    report = asyncio.run(scenario())
    assert report.completed == total and report.failed == 0
    return {"svc_epoch_pause": report.duration_s * 1000.0 / total}


def run_epoch_service_ops(scheme: LJYThresholdScheme, pk, shares, vks,
                          include_naive: bool = True
                          ) -> "tuple[dict, dict | None]":
    """The ``svc_epoch_pause`` op: the cost of a live epoch transition.

    Both sides run the identical batched sign-only pipeline; the fast
    side performs one proactive share refresh mid-run through the
    ``begin_epoch`` barrier (drain in-flight windows behind per-shard
    locks, swap shares/quorums, resume — no request is rejected), the
    baseline never transitions.  The committed ratio is therefore the
    pause overhead amortized over the workload — expected slightly
    *below* 1.0x, landing in the overhead-bound ``--check`` band — and
    the gate exists to catch the barrier blowing up (a transition that
    drops the queues and forces client retries, or a swap that holds
    the barrier across the DKG math, is a 0.2x-scale event).  The
    post-refresh handle is computed once, outside every timed pass.
    """
    handle = ServiceHandle(scheme, pk, shares, vks)
    next_handle = handle.refreshed(rng=random.Random(99))
    sign_messages = [b"svc epoch sign %d" % i for i in range(SVC_TOTAL)]
    for message in sign_messages:
        scheme.params.hash_message(message)
    return interleaved_best(
        lambda: _drive_epoch_service(handle, next_handle, sign_messages),
        lambda: _drive_epoch_service(handle, None, sign_messages),
        SVC_PASSES, include_naive)


def _drive_http_service(handle: ServiceHandle, sign_messages,
                        over_http: bool) -> dict:
    """One sign-only closed-loop pass, over the HTTP gateway or direct.

    The HTTP side boots the gateway on an ephemeral loopback port and
    drives the workload through ``GatewayClient`` (keep-alive connection
    pool, hex-encoded JSON bodies, API-key auth on every request); the
    direct side awaits ``service.sign`` on the same event loop.  Both
    sides run the identical batched service configuration, so the delta
    is exactly the front-door cost: HTTP/1.1 framing, JSON
    encode/decode, tenant admission and the loopback round trip.
    Returns the per-request wall-clock cost and the sign p50.
    """
    total = len(sign_messages)
    config = ServiceConfig(
        num_shards=1, max_batch=BATCH_K, max_wait_ms=25.0,
        queue_depth=4 * total, rng=random.Random(77))

    async def scenario():
        async with SigningService(handle, config) as service:
            gateway = client = None
            if over_http:
                gateway = HttpGateway(service, tenants=[
                    TenantConfig(name="bench", api_key="bench-key")])
                await gateway.start()
                client = GatewayClient(
                    gateway.host, gateway.port, "bench-key")
            try:
                workload = (
                    (lambda i: client.sign(sign_messages[i]))
                    if over_http else
                    (lambda i: service.sign(sign_messages[i])))
                return await LoadGenerator(workload).run_closed(
                    total, SVC_CONCURRENCY)
            finally:
                if client is not None:
                    await client.close()
                if gateway is not None:
                    await gateway.stop()

    report = asyncio.run(scenario())
    assert report.completed == total and report.failed == 0
    return {
        "svc_http_sign_p50": report.p50_ms,
        "svc_http_throughput": report.duration_s * 1000.0 / total,
    }


def run_http_service_ops(scheme: LJYThresholdScheme, pk, shares, vks,
                         include_naive: bool = True
                         ) -> "tuple[dict, dict | None]":
    """The ``svc_http_*`` ops: the cost of the HTTP front door.

    Both sides run the identical batched sign-only pipeline at the same
    offered load; the fast side enters through the asyncio HTTP gateway
    (request parsing, tenant auth, JSON bodies, a loopback socket round
    trip per request), the baseline calls ``service.sign`` directly.
    The committed ratio is therefore the gateway overhead — expected
    below 1.0x, landing in the overhead-bound ``--check`` band — and
    the gate exists to catch the front door becoming the bottleneck
    (per-request reconnects instead of keep-alive, or head-of-line
    blocking in the connection handler, is a 0.2x-scale event).
    """
    handle = ServiceHandle(scheme, pk, shares, vks)
    sign_messages = [b"svc http sign %d" % i for i in range(SVC_TOTAL)]
    for message in sign_messages:
        scheme.params.hash_message(message)
    return interleaved_best(
        lambda: _drive_http_service(handle, sign_messages, True),
        lambda: _drive_http_service(handle, sign_messages, False),
        SVC_PASSES, include_naive)


def run_snapshot(rounds: int, include_naive: bool = True) -> dict:
    group = get_group("bn254")
    rng = random.Random(3)
    params = ThresholdParams.generate(group, T, N)
    scheme = LJYThresholdScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=rng)
    partials = [scheme.share_sign(shares[i], MESSAGE) for i in (1, 2, 3)]
    signature = scheme.combine(pk, vks, MESSAGE, partials)
    assert scheme.verify(pk, MESSAGE, signature)

    # Cross-message batch: K distinct messages signed by the master key.
    master = reconstruct_master_key(
        list(shares.values()), group.order, T)
    batch_messages = [b"batch message %d" % i for i in range(BATCH_K)]
    batch_signatures = [
        scheme.sign_with_master(master, message)
        for message in batch_messages
    ]
    assert scheme.batch_verify(pk, batch_messages, batch_signatures)

    # One worker-side window of K partial signatures across K distinct
    # messages (signers rotate through a quorum) for the window-level
    # Share-Verify op.
    window_items = [
        (batch_messages[i],
         scheme.share_sign(shares[(i % (T + 1)) + 1], batch_messages[i]))
        for i in range(BATCH_K)
    ]
    assert scheme.batch_share_verify_window(pk, vks, window_items)

    # GT / final-exponentiation micro-ops share one Miller-loop value.
    gt_element = group.pair(group.g1_generator(), group.g2_generator())
    gt_exponent = random.Random(11).randrange(group.order)
    miller_value = _miller_loop_prepared_multi([
        (signature.z.point.affine(), prepare_g2(params.g_z.point)),
        (signature.r.point.affine(), prepare_g2(params.g_r.point)),
    ])

    naive = NaiveReference(scheme) if include_naive else None
    if naive is not None:
        assert naive.share_verify(pk, vks[1], partials[0])
        assert naive.verify(pk, signature)
        assert all(
            naive.verify(pk, sig, msg)
            for msg, sig in zip(batch_messages, batch_signatures))
        naive_gt = f12_cyclotomic_pow(gt_element.element.value, gt_exponent)
        assert naive_gt == (gt_element.element ** gt_exponent).value

    # (op, scale, fast fn, seed-equivalent naive fn).  Amortized ops
    # divide by their batch size via ``scale``.
    micro_ops = [
        ("share_sign", 1,
         lambda: scheme.share_sign(shares[1], MESSAGE),
         lambda: naive.share_sign(shares[1])),
        ("share_verify", 1,
         lambda: scheme.share_verify(pk, vks[1], MESSAGE, partials[0]),
         lambda: naive.share_verify(pk, vks[1], partials[0])),
        ("combine_optimistic", 1,
         lambda: scheme.combine(pk, vks, MESSAGE, partials,
                                verify_shares=False),
         lambda: naive.combine(pk, vks, partials, verify_shares=False)),
        ("combine_robust", 1,
         lambda: scheme.combine(pk, vks, MESSAGE, partials),
         lambda: naive.combine(pk, vks, partials, verify_shares=True)),
        ("verify", 1,
         lambda: scheme.verify(pk, MESSAGE, signature),
         lambda: naive.verify(pk, signature)),
        # Seed-equivalent server: one full naive Verify per message.
        ("batch_verify_msg", BATCH_K,
         lambda: scheme.batch_verify(pk, batch_messages, batch_signatures),
         lambda: all(naive.verify(pk, sig, msg)
                     for msg, sig in zip(batch_messages,
                                         batch_signatures))),
        # The combiner's window-level Share-Verify: K shares across K
        # messages under ONE multi-pairing, vs one full naive
        # Share-Verify (4 inline pairings) per share.
        ("svc_robust_batch_shareverify", BATCH_K,
         lambda: scheme.batch_share_verify_window(pk, vks, window_items),
         lambda: all(
             naive.share_verify(pk, vks[partial.index], partial, msg)
             for msg, partial in window_items)),
        # Seed GT ladder: generic-squaring NAF exponentiation.
        ("gt_exp", 1,
         lambda: gt_element.element ** gt_exponent,
         lambda: f12_cyclotomic_pow(gt_element.element.value,
                                    gt_exponent)),
        # Seed final exponentiation: blind 2540-bit hard part.
        ("final_exp", 1,
         lambda: final_exponentiation(miller_value),
         lambda: final_exponentiation_naive(miller_value)),
    ]
    # Each op's two sides are timed back to back (not all-fast then
    # all-naive): on a shared machine, load drift between two distant
    # phases would land in the speedup ratio instead of cancelling out.
    fast_ms, naive_ms = {}, {}
    for op, scale, fast_fn, naive_fn in micro_ops:
        fast_ms[op] = timed(fast_fn, rounds) / scale
        if naive is not None:
            naive_ms[op] = timed(naive_fn, rounds) / scale

    # Service ops: passes, not rounds (the workloads already aggregate
    # whole request populations; see run_service_ops).
    svc_fast, svc_naive = run_service_ops(
        scheme, pk, shares, vks, master, include_naive=include_naive)
    fast_ms.update(svc_fast)
    tcp_fast, tcp_naive = run_tcp_service_ops(
        scheme, pk, shares, vks, master, include_naive=include_naive)
    fast_ms.update(tcp_fast)
    wal_fast, wal_naive = run_wal_service_ops(
        scheme, pk, shares, vks, include_naive=include_naive)
    fast_ms.update(wal_fast)
    epoch_fast, epoch_naive = run_epoch_service_ops(
        scheme, pk, shares, vks, include_naive=include_naive)
    fast_ms.update(epoch_fast)
    http_fast, http_naive = run_http_service_ops(
        scheme, pk, shares, vks, include_naive=include_naive)
    fast_ms.update(http_fast)

    snapshot = {
        "meta": {
            "backend": group.name,
            "t": T,
            "n": N,
            "rounds": rounds,
            "batch_k": BATCH_K,
            "svc_total": SVC_TOTAL,
            "svc_concurrency": SVC_CONCURRENCY,
            "tcp_workers": TCP_WORKERS,
            "tcp_shards": TCP_SHARDS,
            "wal_sync": "fsync batched per closed window, not per request",
            "cpu_count": os.cpu_count(),
            "message": MESSAGE.decode(),
            "python": sys.version.split()[0],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "fast_ms": fast_ms,
        "seed_reference_ms": SEED_REFERENCE_MS,
    }

    if include_naive:
        # Service baselines: the same pipeline in single-request mode
        # (max_batch=1), i.e. what a caller driving the scheme one
        # request at a time pays.
        naive_ms.update(svc_naive)
        # TCP baselines: the same batched pipeline, same shard count
        # and offered load, windows run on the event loop
        # (remote_workers=()).
        naive_ms.update(tcp_naive)
        # WAL baseline: the same sign-only pipeline with the WAL off —
        # the ratio is the durability overhead (expected < 1.0x).
        naive_ms.update(wal_naive)
        # Epoch baseline: the same sign-only pipeline with no mid-run
        # transition — the ratio is the live-refresh pause overhead.
        naive_ms.update(epoch_naive)
        # HTTP baseline: the same sign-only pipeline called directly
        # (no gateway) — the ratio is the front-door overhead.
        naive_ms.update(http_naive)
        snapshot["naive_ms"] = naive_ms
        snapshot["speedup"] = {
            op: round(naive_ms[op] / fast_ms[op], 2) for op in fast_ms
        }
    return snapshot


def render_table(snapshot: dict) -> Table:
    labels = {
        "share_sign": "Share-Sign (2 multi-exps + 2 hash-on-curve)",
        "share_verify": "Share-Verify (product of 4 pairings)",
        "combine_optimistic": f"Combine (t+1 = {T + 1}, optimistic)",
        "combine_robust": "Combine (robust, share-verifying)",
        "verify": "Verify (product of 4 pairings)",
        "batch_verify_msg": f"Batch-Verify, per message (k = {BATCH_K})",
        "svc_robust_batch_shareverify": (
            f"Window Share-Verify, per share (k = {BATCH_K})"),
        "gt_exp": "GT exponentiation (254-bit)",
        "final_exp": "Final exponentiation",
        "svc_sign_p50": f"Service sign p50 (window {BATCH_K} vs 1)",
        "svc_verify_req": f"Service verify, per request (window {BATCH_K})",
        "svc_throughput": "Service mixed load, per request",
        "svc_tcp_verify_req": (
            f"Service verify/request ({TCP_WORKERS} TCP workers vs 1)"),
        "svc_tcp_throughput": (
            f"Service mixed load/request ({TCP_WORKERS} TCP workers vs 1)"),
        "svc_wal_throughput": "Service sign/request (WAL on vs off)",
        "svc_epoch_pause": "Service sign/request (live refresh vs none)",
        "svc_http_sign_p50": "Service sign p50 (HTTP gateway vs direct)",
        "svc_http_throughput": (
            "Service sign/request (HTTP gateway vs direct)"),
    }
    has_naive = "naive_ms" in snapshot
    columns = ["operation", "ms"]
    if has_naive:
        columns += ["naive ms", "speedup"]
    table = Table(
        "T2: operation costs on BN254, pure Python (ms)", columns)
    for op, label in labels.items():
        if op not in snapshot["fast_ms"]:
            continue
        row = {"operation": label, "ms": snapshot["fast_ms"][op]}
        if has_naive:
            row["naive ms"] = snapshot["naive_ms"][op]
            row["speedup"] = f"{snapshot['speedup'][op]:.2f}x"
        table.add_row(**row)
    return table


def run_check(snapshot: dict, committed_path: pathlib.Path) -> int:
    """Compare fresh speedups against the committed snapshot.

    Speedups (naive_ms / fast_ms measured in the same process) are the
    hardware-independent quantity, so the check ports across machines;
    raw milliseconds do not.  Fails (returns 1 — every caller must
    propagate this as the process exit code, CI depends on it) when any
    tracked op's fresh speedup drops more than the tolerance below the
    committed one.  The tolerance defaults to ``CHECK_TOLERANCE`` and
    can be widened on noisy shared runners via ``BENCH_TOLERANCE`` (a
    percentage); overhead-bound ops (committed speedup below
    ``OVERHEAD_REFERENCE``) use at least ``OVERHEAD_TOLERANCE`` — their
    near-1.0x ratios carry scheduler noise comparable to the strict
    band, and their gate exists to catch collapse, not jitter.
    """
    tolerance = check_tolerance()
    if not committed_path.exists():
        print(f"check: no committed snapshot at {committed_path}")
        return 1
    committed = json.loads(committed_path.read_text())
    tracked = committed.get("speedup", {})
    if not tracked:
        print("check: committed snapshot has no speedup section")
        return 1
    regressions = []
    worst = None   # (shortfall fraction, op, fresh, floor)
    for op, reference in sorted(tracked.items()):
        fresh = snapshot.get("speedup", {}).get(op)
        if fresh is None:
            regressions.append(f"{op}: missing from fresh run")
            continue
        op_tolerance = (max(tolerance, OVERHEAD_TOLERANCE)
                        if reference < OVERHEAD_REFERENCE else tolerance)
        floor = reference * (1.0 - op_tolerance)
        status = "ok" if fresh >= floor else "REGRESSED"
        print(f"check: {op:20s} committed {reference:6.2f}x  "
              f"fresh {fresh:6.2f}x  floor {floor:6.2f}x  {status}")
        if fresh < floor:
            regressions.append(
                f"{op}: {fresh:.2f}x < floor {floor:.2f}x "
                f"(committed {reference:.2f}x)")
            shortfall = (floor - fresh) / floor if floor > 0 else 1.0
            if worst is None or shortfall > worst[0]:
                worst = (shortfall, op, fresh, floor)
    if regressions:
        print("\ncheck FAILED:")
        for line in regressions:
            print(f"  - {line}")
        if worst is not None:
            print(f"worst regressing op: {worst[1]} "
                  f"({worst[2]:.2f}x, {worst[0]:.0%} below its "
                  f"{worst[3]:.2f}x floor)")
        return 1
    print("\ncheck passed: no tracked op regressed "
          f">{tolerance:.0%} vs {committed_path.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per operation (best-of)")
    parser.add_argument("--skip-naive", action="store_true",
                        help="skip the seed-equivalent baseline timings")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed snapshot and "
                        "exit 1 on any speedup regression beyond the "
                        "tolerance (default 15%%, override with the "
                        "BENCH_TOLERANCE env var; does not overwrite the "
                        "snapshot)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_t2_ops.json")
    parser.add_argument("--table", type=pathlib.Path,
                        default=REPO_ROOT / "benchmarks" / "results"
                        / "t2_ops.txt")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.check and args.skip_naive:
        parser.error("--check needs the naive baselines (drop --skip-naive)")

    snapshot = run_snapshot(args.rounds, include_naive=not args.skip_naive)
    table = render_table(snapshot)
    print(table.render())
    if args.check:
        print()
        return run_check(snapshot, args.output)
    args.output.write_text(json.dumps(snapshot, indent=2) + "\n")
    args.table.parent.mkdir(parents=True, exist_ok=True)
    args.table.write_text(table.render() + "\n")
    print(f"\nwrote {args.output} and {args.table}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
