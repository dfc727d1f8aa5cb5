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

``svc_robust_batch_shareverify`` is the combiner's window-level
Share-Verify: one window of BATCH_K partial signatures across BATCH_K
distinct messages checked under ONE cross-message multi-pairing versus
one seed-equivalent naive Share-Verify per share.

Everything service-level (latency budget, WAL, gateway, window
amortisation) is measured by ``perf/`` and regressions are judged by
``perf/compare.py`` on parent vs change; this tool only renders the
paper-facing T2 ratios.  The one exception is the ``svc_tcp_*`` pair
``main`` records beside them: the remote-worker tier (TCP_WORKERS
standalone worker processes on the loopback vs the same batched
pipeline on one process, same offered load), the only recorded
multi-core ratio of that tier until ``perf/`` has a remote-signer
workload.  See ``benchmarks/README.md`` for the methodology.

Writes ``BENCH_t2_ops.json`` at the repository root and regenerates
``benchmarks/results/t2_ops.txt``.

Usage::

    PYTHONPATH=src python tools/bench_snapshot.py [--rounds N]
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
    LoadGenerator, ServiceConfig, SigningService,
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
#: Whole-workload passes per ``svc_tcp_*`` side; each op's value is the
#: **median** across passes, and an odd count gives it a true middle
#: sample.
TCP_PASSES = 3
#: Remote TCP workers for the ``svc_tcp_*`` ops (the worker tier,
#: measured over the loopback — real sockets, framing and handshake,
#: no real network latency).
TCP_WORKERS = 2
#: Shards for the ``svc_tcp_*`` ops — at least TCP_WORKERS, so that
#: many window jobs can be in flight at once (one per shard).
TCP_SHARDS = 4
#: Requests per ``svc_tcp_*`` workload — six full windows, so every
#: shard sees several (4 shards split the traffic; a small total would
#: make the window-fill dynamics, and thus the measured ratio, noisy).
TCP_TOTAL = 6 * BATCH_K
#: Closed-loop client concurrency driving the ``svc_tcp_*`` ops.
TCP_CONCURRENCY = BATCH_K

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


def timed(fn, rounds, min_total_s=0.25):
    """Best-of timing with a minimum measurement budget.

    Runs at least ``rounds`` samples, then keeps sampling until
    ``min_total_s`` of wall clock has been spent (capped at 10x rounds).
    Sub-millisecond-scale ops would otherwise hand their best-of-3 to
    scheduler noise on shared machines; expensive ops hit the budget
    after ``rounds`` and pay nothing extra.
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


def deploy():
    """The T2 deployment: BN254, t=2, n=5, dealer keys at a fixed seed."""
    group = get_group("bn254")
    params = ThresholdParams.generate(group, T, N)
    scheme = LJYThresholdScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=random.Random(3))
    master = reconstruct_master_key(
        list(shares.values()), group.order, T)
    return scheme, pk, shares, vks, master


def run_tcp_service_ops() -> "tuple[dict, dict]":
    """The ``svc_tcp_*`` ops: the TCP remote-worker tier vs one process.

    Both sides run the batched pipeline over ``TCP_SHARDS`` shards at
    the same offered load (closed loop, ``TCP_CONCURRENCY`` clients);
    the fast side dispatches windows to ``TCP_WORKERS`` standalone
    worker processes over loopback sockets (framed wire jobs, HELLO
    handshake, warm per-process caches), the baseline runs them on the
    event loop.  The speedup is therefore the multi-core scaling of the
    worker tier net of its framing/socket overhead — it approaches
    min(TCP_WORKERS, cores) on idle multi-core hardware and ~1x on a
    single core, where process parallelism cannot add CPU time
    (``meta.cpu_count`` keeps the committed ratio interpretable).
    The worker processes are spawned once and reused by every fast
    pass, mirroring a deployment's long-lived workers.

    Each op is the **median** of ``TCP_PASSES`` whole-workload passes
    per side with the sides interleaved (fast, naive, fast, ...), so
    slow machine-load drift lands on both sides of the ratio instead of
    inside it.  Median, not minimum: the ratio sits near 1.0x on a
    single core, and a ratio of two minima inherits a high-side bias
    from either side's one lucky pass.  Returns ``(fast, naive)``.
    """
    from statistics import median

    from repro.serialization import encode_service_context
    from repro.service.transport import start_worker_process

    scheme, pk, shares, vks, master = deploy()
    handle = ServiceHandle(scheme, pk, shares, vks)
    sign_messages = [b"svc tcp sign %d" % i for i in range(TCP_TOTAL)]
    verify_pairs = [
        (message, scheme.sign_with_master(master, message))
        for message in (b"svc tcp verify %d" % i for i in range(TCP_TOTAL))
    ]
    # Pre-warm every hash so neither side pays the one-time
    # hash-to-curve seeding inside a timed pass.
    for message in sign_messages + [m for m, _sig in verify_pairs]:
        scheme.params.hash_message(message)

    def drive(remote_workers) -> dict:
        config = ServiceConfig(
            num_shards=TCP_SHARDS, max_batch=BATCH_K, max_wait_ms=25.0,
            queue_depth=4 * TCP_TOTAL, remote_workers=remote_workers)

        async def scenario():
            async with SigningService(handle, config) as service:
                # Untimed sign-only pass first: it warms the worker
                # processes' own hash memos for the mixed pass.
                sign_report = await LoadGenerator(
                    lambda i: service.sign(sign_messages[i])).run_closed(
                        TCP_TOTAL, TCP_CONCURRENCY)
                verify_report = await LoadGenerator(
                    lambda i: service.verify(*verify_pairs[i])).run_closed(
                        TCP_TOTAL, TCP_CONCURRENCY)

                def mixed(ordinal):
                    if ordinal % 2:
                        return service.verify(*verify_pairs[ordinal // 2])
                    return service.sign(sign_messages[ordinal // 2])

                mixed_report = await LoadGenerator(mixed).run_closed(
                    TCP_TOTAL, TCP_CONCURRENCY)
            return sign_report, verify_report, mixed_report

        sign_report, verify_report, mixed_report = asyncio.run(scenario())
        assert sign_report.completed == TCP_TOTAL
        assert verify_report.completed == TCP_TOTAL
        assert verify_report.invalid == 0
        return {
            "svc_tcp_verify_req": (verify_report.duration_s * 1000.0
                                   / verify_report.completed),
            "svc_tcp_throughput": (mixed_report.duration_s * 1000.0
                                   / mixed_report.completed),
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
            fast_reports, naive_reports = [], []
            for _ in range(TCP_PASSES):
                fast_reports.append(drive(tuple(addresses)))
                naive_reports.append(drive(()))
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.wait(timeout=10)

    def representative(reports) -> dict:
        return {op: median(report[op] for report in reports)
                for op in reports[0]}

    return representative(fast_reports), representative(naive_reports)


def run_snapshot(rounds: int) -> dict:
    """The nine naive-vs-fast micro-ops of the T2 table."""
    scheme, pk, shares, vks, master = deploy()
    group, params = scheme.group, scheme.params
    partials = [scheme.share_sign(shares[i], MESSAGE) for i in (1, 2, 3)]
    signature = scheme.combine(pk, vks, MESSAGE, partials)
    assert scheme.verify(pk, MESSAGE, signature)

    # Cross-message batch: K distinct messages signed by the master key.
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

    naive = NaiveReference(scheme)
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
        # The multi-signer Share-Verify batch: K shares across K
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
        naive_ms[op] = timed(naive_fn, rounds) / scale

    return {
        "meta": {
            "backend": group.name,
            "t": T,
            "n": N,
            "rounds": rounds,
            "batch_k": BATCH_K,
            "cpu_count": os.cpu_count(),
            "message": MESSAGE.decode(),
            "python": sys.version.split()[0],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "fast_ms": fast_ms,
        "seed_reference_ms": SEED_REFERENCE_MS,
        "naive_ms": naive_ms,
        "speedup": {
            op: round(naive_ms[op] / fast_ms[op], 2) for op in fast_ms
        },
    }


def render_table(snapshot: dict) -> Table:
    labels = {
        "share_sign": "Share-Sign (2 multi-exps + 2 hash-on-curve)",
        "share_verify": "Share-Verify (product of 4 pairings)",
        "combine_optimistic": f"Combine (t+1 = {T + 1}, optimistic)",
        "combine_robust": "Combine (robust, one Verify if honest)",
        "verify": "Verify (product of 4 pairings)",
        "batch_verify_msg": f"Batch-Verify, per message (k = {BATCH_K})",
        "svc_robust_batch_shareverify": (
            f"Window Share-Verify, per share (k = {BATCH_K})"),
        "gt_exp": "GT exponentiation (254-bit)",
        "final_exp": "Final exponentiation",
        "svc_tcp_verify_req": (
            f"Service verify/request ({TCP_WORKERS} TCP workers vs 1)"),
        "svc_tcp_throughput": (
            f"Service mixed load/request ({TCP_WORKERS} TCP workers vs 1)"),
    }
    table = Table(
        "T2: operation costs on BN254, pure Python (ms)",
        ["operation", "ms", "naive ms", "speedup"])
    for op, ms in snapshot["fast_ms"].items():
        table.add_row(**{
            "operation": labels[op], "ms": ms,
            "naive ms": snapshot["naive_ms"][op],
            "speedup": f"{snapshot['speedup'][op]:.2f}x"})
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per operation (best-of)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_t2_ops.json")
    parser.add_argument("--table", type=pathlib.Path,
                        default=REPO_ROOT / "benchmarks" / "results"
                        / "t2_ops.txt")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    snapshot = run_snapshot(args.rounds)
    tcp_fast, tcp_naive = run_tcp_service_ops()
    snapshot["meta"].update(tcp_workers=TCP_WORKERS, tcp_shards=TCP_SHARDS)
    snapshot["fast_ms"].update(tcp_fast)
    snapshot["naive_ms"].update(tcp_naive)
    snapshot["speedup"].update(
        {op: round(tcp_naive[op] / tcp_fast[op], 2) for op in tcp_fast})
    table = render_table(snapshot)
    print(table.render())
    args.output.write_text(json.dumps(snapshot, indent=2) + "\n")
    args.table.parent.mkdir(parents=True, exist_ok=True)
    args.table.write_text(table.render() + "\n")
    print(f"\nwrote {args.output} and {args.table}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
