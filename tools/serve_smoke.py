#!/usr/bin/env python
"""CI smoke test for the async signing service.

Boots the service in-process, pushes requests through the load generator
(half closed-loop signs, half open-loop verifies, one fault-injected
window) and asserts the service contract:

* **zero rejected-valid requests** — the queues are provisioned for the
  offered load, so nothing is shed and nothing fails;
* every signature produced is valid under the public key;
* verify traffic returns the right verdicts (including for the one
  deliberately forged signature);
* the forged-partial window is localized and still completes, at no
  more Miller loops per window than the robust path costs (window
  check, one round over the forging signer's partials, top-up,
  recombine, re-check), and the JSON conviction records the scheme
  logs name the forging signer;
* the worker tier (``remote_workers=[...]``) serves the same contract
  over the wire format and loopback sockets: signatures produced in a
  standalone remote worker process verify in the parent, nothing is
  rejected or failed, a pre-shared key on both ends authenticates the
  handshake, a live refresh pushes the new epoch's context to the
  worker (one rewarm) which then serves the verifies, and with two
  shards
  over two workers, killing one worker mid-window (it ``os._exit``\\ s
  on its first partial) fails over to the survivor: every request id
  in flight on the dead connection is resubmitted, each request
  settles **exactly once** with a verifying signature for its own
  message, and the pool's high-water in-flight mark shows both shards'
  window jobs sharing the surviving connection;
* the durability layer survives a SIGKILL of the *service process
  itself*: a victim subprocess signs one batch cleanly, admits a second
  batch into a window that will not close, forces the admits durable,
  and is SIGKILLed mid-window; a fresh service started against the same
  write-ahead log (with a simulated torn tail appended) must replay
  every unacknowledged request, and the final log must show every admit
  settled **exactly once** with a signature that verifies under the
  unchanged public key.  The WAL lives at ``.smoke-wal/`` in the repo
  root so CI can upload it as an artifact when this act fails; a clean
  run removes it;
* the key lifecycle is live: under open-loop load the service refreshes
  its shares, reshares one signer out and a new one in, retires signer
  3 and recovers its share, and grows the shard ring 4 -> 6 with queued
  requests migrated — every admitted
  request completes with a verifying signature, the public key bytes
  never change, and nothing is rejected because of a transition (the
  transition log lands in ``.smoke-wal/epoch/`` for CI artifacts); a
  second victim subprocess is SIGKILLed *mid-transition* (durable
  admits from both the old and new epoch): a restart holding the
  pre-transition shares must be refused (the WAL proves a newer epoch
  was admitting), and a restart with the persisted post-transition
  context must settle every admit exactly once;
* the HTTP front door serves the same contract over the wire: two
  tenants with different quotas drive the gateway while an admin key
  reshares the committee mid-load, then ``/v1/verify`` judges a valid
  and a forged pair and ``/admin/refresh`` and ``/admin/resize`` run
  once each — over-quota requests are answered
  ``429`` at the edge (they never cost a queue slot), the Prometheus
  ``GET /metrics`` exposition parses line-by-line and matches every
  sample the stats declarations produce from ``snapshot_stats()``, the
  tenant registry and the crypto counters, and
  SIGKILLing the gateway's host process with admitted-but-unanswered
  HTTP requests durable in the WAL leaves a log a restart settles
  **exactly once** with verifying signatures (artifacts in
  ``.smoke-wal/http/``).

Every act that writes a WAL is audited by one call: the log's
:class:`~repro.service.wal.WalLedger` — the same fold replay reads —
must name no violation (an id admitted twice, an admit not settled
exactly once, a settlement without a signature verifying under the
original public key, a stale-epoch admit).  Acts 5-7 share one SIGKILL
victim (this script re-entered with ``--victim ACT DIR``).

Exit-code contract (CI depends on it): **every** failure path exits
nonzero — contract violations return 1 with a reason per line, and any
unexpected exception propagates (Python exits 1).  Only a fully clean
run exits 0.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--backend bn254]
        [--requests 100] [--shards 2] [--seed 0]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import pathlib
import random
import select
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import ServiceHandle, get_group                 # noqa: E402
from repro.curves.pairing import PAIRING_COUNTERS          # noqa: E402
from repro.net.metrics import (                            # noqa: E402
    declarations, parse_prometheus, render_prometheus,
)
from repro.serialization import (                          # noqa: E402
    WireCodec, decode_service_context, encode_service_context,
)
from repro.service import (                                # noqa: E402
    CorruptSignerFault, GatewayClient, HttpGateway, LoadGenerator,
    ServiceConfig, ServiceError, SigningService, TenantConfig,
    TenantQuotaError,
)
from repro.service.gateway import GatewayStats            # noqa: E402
from repro.service.transport import start_worker_process  # noqa: E402
from repro.service.wal import WalLedger                   # noqa: E402
from repro.sharing.pedersen_vss import DKG_COUNTERS        # noqa: E402

#: Session seed set by ``--seed`` (same semantics as the pytest flag in
#: the root ``conftest.py``): ``0`` keeps the historical per-act streams
#: so the default run is exactly the run CI has always gated.
_SEED_BASE = 0


def _rng(stream: int) -> random.Random:
    """Randomness for one act, derived from the session seed."""
    return random.Random(stream if _SEED_BASE == 0
                         else (_SEED_BASE << 16) + stream)


#: Act 3 bound: Miller loops one window of 8 requests, each carrying
#: one forged partial of signer 1, costs on BN254 — the window check 4,
#: signer 1's round over its 8 partials 32 (8 four-pair products: root,
#: companion, and a left value + left companion at the node of 8 and
#: both nodes of 4, where every half holds two or more and the pair
#: step finds nothing; a pair no scan explains is reported as it stands —
#: the shape the companion cannot shorten, and exactly what plain
#: bisection paid), the re-check over the 8 top-ups 4.  Smaller windows
#: cost less (12, 16, 24 at 1, 2, 4), and every window after the first
#: finds signer 1 convicted and skips the doomed window check.  The
#: two-phase path paid 88; per-share checks over the full ring 424.
FORGED_WINDOW_MILLER_LOOPS = 40
#: Act 4a's pre-shared key, configured on the worker and the service.
SMOKE_PSK = "serve-smoke psk"
#: Act 5 batch sizes: requests settled before the kill / left durable
#: but unprocessed when the SIGKILL lands.
WAL_PHASE1 = 4
WAL_PENDING = 6
#: Act 6 batch sizes: durable admits carried across the SIGKILLed
#: epoch transition — stamped with the old epoch / the new one.
EPOCH_PHASE0 = 3
EPOCH_PHASE1 = 3
#: Act 7 batch size: HTTP requests admitted (durable in the WAL) but
#: unanswered when the gateway's host process is SIGKILLed.
HTTP_PENDING = 5
#: Per victim act: its name in failure reasons, and the admits it
#: leaves durable when the SIGKILL lands.
VICTIMS = {"wal": ("WAL act", WAL_PENDING),
           "epoch": ("epoch act", EPOCH_PHASE0 + EPOCH_PHASE1),
           "http": ("HTTP act", HTTP_PENDING)}


async def run_victim(act: str, directory: pathlib.Path) -> int:
    """The SIGKILL victim of act 5, 6 or 7 (spawned by ``--victim``).

    Serves ``directory``'s context on a window that will not close for
    a minute, runs the act's step, forces the act's admits durable,
    prints the marker the parent waits for, and parks until the SIGKILL
    arrives — the admitted-but-unserved state a real crash leaves
    behind.  The steps: ``wal`` first signs a batch cleanly (admits
    *and* settlements reach the log); ``epoch`` performs a live share
    refresh between two batches of admits and persists the
    post-transition context (the artifact a real deployment would hand
    the restarted service); ``http`` fronts the service with a gateway
    on an ephemeral port whose sign requests the parent sends.
    """
    handle = decode_service_context((directory / "ctx.bin").read_bytes())
    wal_path = directory / "service.wal"
    if act == "wal":
        clean = ServiceConfig(num_shards=1, max_batch=4, max_wait_ms=10.0,
                              wal_path=wal_path)
        async with SigningService(handle, clean) as service:
            await asyncio.gather(*(service.sign(b"wal done %d" % i)
                                   for i in range(WAL_PHASE1)))
    service = SigningService(handle, ServiceConfig(
        num_shards=1, max_batch=64, max_wait_ms=60_000.0,
        wal_path=wal_path))
    await service.start()
    obligations = []

    async def admit(template: bytes, count: int) -> None:
        obligations.extend(asyncio.ensure_future(service.sign(template % i))
                           for i in range(count))
        while service.wal.stats.admits < len(obligations):
            await asyncio.sleep(0.01)

    if act == "wal":
        await admit(b"wal pending %d", WAL_PENDING)
    elif act == "epoch":
        await admit(b"epoch pending 0/%d", EPOCH_PHASE0)
        await service.refresh(rng=_rng(12))
        (directory / "ctx-epoch1.bin").write_bytes(
            encode_service_context(service.handle))
        await admit(b"epoch pending 1/%d", EPOCH_PHASE1)
    else:
        gateway = HttpGateway(service, tenants=[
            TenantConfig(name="alpha", api_key="alpha-key")])
        await gateway.start()
        print(f"victim port {gateway.port}", flush=True)
    durable = VICTIMS[act][1]
    while service.wal.stats.admits < durable:
        await asyncio.sleep(0.01)
    service.wal.sync()
    print(f"victim durable {durable}", flush=True)
    await asyncio.sleep(300.0)      # the parent SIGKILLs us here
    return 1                        # unreachable in a passing run


def await_marker(process: subprocess.Popen, marker: str,
                 timeout_s: float = 120.0):
    """Block until the victim prints a line starting with ``marker``;
    returns the line, or None on exit/timeout (the caller fails the
    act — a victim that dies early is itself a contract violation)."""
    deadline = time.monotonic() + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        if process.poll() is not None:
            return None
        readable, _, _ = select.select([process.stdout], [], [],
                                       min(remaining, 0.25))
        if readable:
            line = process.stdout.readline()
            if not line:
                return None
            if line.startswith(marker):
                return line.strip()


async def sigkill_victim(check, act: str, directory: pathlib.Path,
                         handle, on_port=None) -> int:
    """Run ``act``'s victim (:func:`run_victim`) on ``handle`` until its
    admits are durable, then SIGKILL it: no atexit, no drain, no flush,
    no close.  ``on_port`` is handed the victim gateway's port once it
    is bound.  Returns the durable admit count the victim reported (0
    when it never got there — a recorded failure)."""
    directory.mkdir()
    (directory / "ctx.bin").write_bytes(encode_service_context(handle))
    victim = subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--victim",
         act, str(directory), "--seed", str(_SEED_BASE)],
        stdout=subprocess.PIPE, text=True)
    markers = ["victim port"] * (on_port is not None) + ["victim durable"]
    loop = asyncio.get_running_loop()
    try:
        for marker in markers:
            line = await loop.run_in_executor(None, await_marker, victim,
                                              marker)
            check(line is not None, f"{VICTIMS[act][0]}: the victim never "
                  f"printed its {marker!r} marker")
            if line is None:
                return 0
            if marker == "victim port":
                on_port(int(line.split()[-1]))
        return int(line.split()[-1])
    finally:
        victim.kill()
        victim.wait(timeout=10)


def audit(check, label: str, wal_path: pathlib.Path, handle, admits: int):
    """The ledger's audit of one act's log: ``admits`` admits, each
    settled exactly once with a signature that verifies under the
    unchanged public key, none at an epoch older than an earlier one."""
    ledger = WalLedger.read(wal_path, WireCodec(handle.scheme.group))
    check(len(ledger.admits) == admits, f"{label}: expected {admits} "
          f"admits in the log, found {len(ledger.admits)}")
    for violation in ledger.violations(handle.verify):
        check(False, f"{label}: {violation}")
    return ledger


async def replay(check, label: str, handle, wal_path: pathlib.Path,
                 pending: int, shards: int = 2):
    """Restart a service on a victim's log: it must replay and complete
    exactly the ``pending`` durable admits.  Returns the log's stats."""
    config = ServiceConfig(num_shards=shards, max_batch=8,
                           max_wait_ms=10.0, wal_path=wal_path)
    async with SigningService(handle, config) as service:
        wal_stats = service.wal.stats
    check(service.stats.recovered == pending, f"{label}: replayed "
          f"{service.stats.recovered} of {pending} durable admits")
    check(service.stats.completed == pending,
          f"{label}: only {service.stats.completed}/{pending} replayed "
          "requests completed")
    return wal_stats


async def run_smoke(backend: str, requests: int, shards: int) -> int:
    group = get_group(backend)
    handle = ServiceHandle.dealer(group, 2, 5, rng=_rng(1))
    failures = []

    def check(condition: bool, reason: str) -> None:
        if not condition:
            failures.append(reason)

    # -- act 1: closed-loop signing, amply provisioned queues -----------
    config = ServiceConfig(num_shards=shards, max_batch=16,
                           max_wait_ms=10.0, queue_depth=4 * requests)
    async with SigningService(handle, config) as service:
        report = await LoadGenerator(
            lambda i: service.sign(b"smoke doc %d" % i)
        ).run_closed(requests, 16)
        check(report.rejected == 0,
              f"{report.rejected} valid sign requests rejected")
        check(report.failed == 0,
              f"{report.failed} sign requests failed")
        check(report.completed == requests,
              f"only {report.completed}/{requests} signs completed")
        signed = report.results
        for ordinal, result in signed.items():
            check(handle.verify(result.message, result.signature),
                  f"service returned an invalid signature for #{ordinal}")

        # -- act 2: open-loop verification with one forgery ------------
        forged_at = requests // 2
        if forged_at not in signed:
            # Act 1 already recorded the failure above; bail out rather
            # than crash on the missing signature (the exit code would
            # still be nonzero either way — this keeps the reason list
            # readable).
            print("serve-smoke FAILED:")
            for reason in failures:
                print(f"  - {reason}")
            return 1
        good = signed[forged_at].signature
        forged = type(good)(z=good.z * good.z, r=good.r)

        def verify(ordinal):
            result = signed[ordinal]
            signature = forged if ordinal == forged_at else result.signature
            return service.verify(result.message, signature)

        verify_report = await LoadGenerator(
            verify, rng=_rng(3)).run_open(requests, 2000.0)
        check(verify_report.rejected == 0,
              f"{verify_report.rejected} valid verify requests rejected")
        check(verify_report.completed == requests,
              f"only {verify_report.completed}/{requests} verifies "
              f"completed")
        check(verify_report.invalid == 1,
              f"expected exactly 1 invalid verdict, got "
              f"{verify_report.invalid}")
    stats = service.snapshot_stats()
    check(stats.rejected == 0, "service counted rejections")
    windows = sum(s.windows for s in stats.shards.values())
    check(windows < stats.accepted,
          "no batching happened (windows == requests)")

    # -- act 3: a forged partial inside a full window ------------------
    fault = CorruptSignerFault(signer_index=1, shard_id=0)
    faulty = ServiceConfig(num_shards=1, max_batch=8, max_wait_ms=10.0,
                           queue_depth=64, fault_injector=fault)
    miller_loops = PAIRING_COUNTERS["miller_loops"]
    convictions = []
    capture = logging.Handler(logging.INFO)
    capture.emit = lambda record: convictions.append(
        json.loads(record.getMessage()))
    scheme_log = logging.getLogger("repro.core.scheme")
    level = scheme_log.level
    scheme_log.addHandler(capture)
    scheme_log.setLevel(logging.INFO)
    try:
        async with SigningService(handle, faulty) as service:
            report = await LoadGenerator(
                lambda i: service.sign(b"contested doc %d" % i)
            ).run_closed(8, 8)
            check(report.completed == 8 and report.failed == 0,
                  "fault-injected window dropped requests")
    finally:
        scheme_log.removeHandler(capture)
        scheme_log.setLevel(level)
    faulty_stats = service.snapshot_stats()
    shard = faulty_stats.shards[0]
    check(len(fault.injected) > 0, "fault injector never fired")
    check(shard.faults_localized > 0, "forged partials not localized")
    # "Which signer forged", answered from what the service emits: one
    # JSON record per conviction, each naming signer 1 under this
    # handle's epoch, together covering every request of the act.
    check(len(convictions) == shard.windows
          and all(record["event"] == "conviction" and record["signer"] == 1
                  and record["epoch"] == handle.epoch
                  for record in convictions)
          and sum(len(record["positions"]) for record in convictions) == 8,
          f"conviction records do not name signer 1: {convictions}")
    check(handle.suspects == (1,),
          f"handle suspects {handle.suspects}, not signer 1")
    # The act runs in this process and on this loop alone, so the
    # counter's delta is the robust path's (0 on the toy backend).
    forged_window_loops = (
        PAIRING_COUNTERS["miller_loops"] - miller_loops
    ) / max(1, shard.windows)
    check(forged_window_loops <= FORGED_WINDOW_MILLER_LOOPS,
          f"{forged_window_loops:.0f} Miller loops per forged window "
          f"(bound {FORGED_WINDOW_MILLER_LOOPS}): the robust path fell "
          "back to per-share checks or re-evaluates what it holds")

    # -- act 4: the TCP transport tier (loopback remote workers) -------
    loop = asyncio.get_running_loop()
    tcp_requests = min(requests, 8)
    with tempfile.TemporaryDirectory() as tcp_dir:
        context_path = pathlib.Path(tcp_dir) / "ctx.bin"
        context_path.write_bytes(encode_service_context(handle))

        # 4a: a clean window routed through one remote worker process,
        # both ends holding the same pre-shared key; a live refresh
        # between the sign and verify phases pushes the new epoch's
        # context to the worker, which serves the verifies under it.
        process, address = await loop.run_in_executor(
            None, lambda: start_worker_process(context_path, psk=SMOKE_PSK))
        tcp_config = ServiceConfig(num_shards=1, max_batch=8,
                                   max_wait_ms=10.0,
                                   queue_depth=4 * requests,
                                   remote_workers=[address],
                                   remote_psk=SMOKE_PSK)
        try:
            async with SigningService(handle, tcp_config) as service:
                tcp_report = await LoadGenerator(
                    lambda i: service.sign(b"tcp doc %d" % i)
                ).run_closed(tcp_requests, 8)
                check(tcp_report.rejected == 0 and tcp_report.failed == 0,
                      f"TCP tier shed/failed requests "
                      f"({tcp_report.rejected} rejected, "
                      f"{tcp_report.failed} failed)")
                tcp_signed = tcp_report.results
                for ordinal, result in tcp_signed.items():
                    check(handle.verify(result.message, result.signature),
                          f"TCP tier produced an invalid signature for "
                          f"#{ordinal}")
                await service.refresh(rng=_rng(13))
                check(service.handle.epoch == handle.epoch + 1
                      and service.handle.public_key.to_bytes()
                      == handle.public_key.to_bytes(),
                      "TCP tier: the refresh did not advance the epoch "
                      "under the same public key")
                tcp_verify = await LoadGenerator(
                    lambda i: service.verify(tcp_signed[i].message,
                                             tcp_signed[i].signature)
                ).run_closed(tcp_requests, 8)
                check(tcp_verify.completed == tcp_requests
                      and tcp_verify.invalid == 0,
                      "TCP tier returned wrong verify verdicts")
        finally:
            process.terminate()
            process.wait(timeout=10)
        tcp_stats = service.snapshot_stats()
        check(tcp_stats.workers is not None
              and tcp_stats.workers.jobs > 0,
              "TCP tier dispatched no jobs")
        check(tcp_stats.workers is not None
              and tcp_stats.workers.crashes == 0,
              "TCP tier dropped connections during the clean act")
        check(tcp_stats.workers is not None
              and tcp_stats.workers.rewarms == 1,
              "TCP tier: the worker did not take the epoch push")

        # 4b: two shards over a crasher and a survivor; the crasher
        # os._exits on the first partial it signs while the sentinel
        # file does not exist (the WorkerCrashFault pattern).  Every
        # request id in flight on the dead connection must fail over
        # to the survivor and settle exactly once, with a signature
        # verifying for its own message.  Windows of one, and four
        # times more requests than closed-loop clients, keep both
        # shards dispatching after the failover, so their jobs share
        # the surviving connection.
        crash_requests = min(requests, 32)
        sentinel = pathlib.Path(tcp_dir) / "crashed.sentinel"
        crasher, crasher_address = await loop.run_in_executor(
            None, lambda: start_worker_process(
                context_path, crash_sentinel=sentinel))
        survivor, survivor_address = await loop.run_in_executor(
            None, lambda: start_worker_process(context_path))
        crash_config = ServiceConfig(num_shards=2, max_batch=1,
                                     max_wait_ms=1.0,
                                     queue_depth=4 * requests,
                                     remote_workers=[crasher_address,
                                                     survivor_address])
        try:
            async with SigningService(handle, crash_config) as service:
                crash_report = await LoadGenerator(
                    lambda i: service.sign(b"tcp crash doc %d" % i)
                ).run_closed(crash_requests, 8)
                check(crash_report.rejected == 0
                      and crash_report.failed == 0
                      and crash_report.completed == crash_requests,
                      f"TCP crash act dropped requests "
                      f"({crash_report.completed}/{crash_requests} "
                      f"completed, {crash_report.rejected} rejected, "
                      f"{crash_report.failed} failed)")
        finally:
            # terminate() is a no-op on the already-crashed worker but
            # keeps an act-4b failure *before* the crash from hanging
            # in wait() and masking the real error.
            crasher.terminate()
            crasher.wait(timeout=10)
            survivor.terminate()
            survivor.wait(timeout=10)
        crash_stats = service.snapshot_stats()
        crash_workers = crash_stats.workers
        check(sentinel.exists(), "TCP crash act: worker never crashed")
        # One result per ordinal: a request id settles at most once at
        # the client, so exactly-once is every ordinal present.
        check(sorted(crash_report.results) == list(range(crash_requests)),
              f"TCP crash act: only {len(crash_report.results)}/"
              f"{crash_requests} request ids settled")
        for ordinal, result in crash_report.results.items():
            check(result.message == b"tcp crash doc %d" % ordinal
                  and handle.verify(result.message, result.signature),
                  f"TCP crash act: request #{ordinal} settled without a "
                  "verifying signature for its own message")
        check(crash_stats.failed == 0,
              "TCP crash act: the service counted failures")
        check(crash_workers is not None and crash_workers.crashes >= 1,
              "TCP crash act: dropped connection not detected")
        check(crash_workers is not None
              and crash_workers.resubmissions >= 1,
              "TCP crash act: no in-flight job was resubmitted")
        check(crash_workers is not None
              and crash_workers.max_inflight >= 2,
              f"TCP crash act: the shards' jobs never shared a "
              f"connection (max in flight "
              f"{crash_workers.max_inflight if crash_workers else 0})")

    # -- act 5: SIGKILL the service mid-window; recover from the WAL ---
    # Fixed repo-root location (not a tempdir) so CI can upload the log
    # as an artifact when this act fails; removed on a clean run.
    wal_dir = REPO_ROOT / ".smoke-wal"
    if wal_dir.exists():
        shutil.rmtree(wal_dir)
    wal_dir.mkdir()
    pending_count = await sigkill_victim(check, "wal", wal_dir / "victim",
                                         handle)
    wal_path = wal_dir / "victim" / "service.wal"
    # A SIGKILL mid-append leaves a torn record; simulate the worst
    # case on top of whatever the kill itself left behind.
    with open(wal_path, "ab") as log:
        log.write(b"\x00\x00\x01\x00torn mid-append by SIGKILL")
    wal_stats = await replay(check, "WAL act", handle, wal_path,
                             pending_count, shards)
    wal_recovered, wal_torn = wal_stats.recovered, wal_stats.torn_bytes
    check(wal_torn > 0, "WAL act: the torn tail was not detected")
    ledger = audit(check, "WAL act", wal_path, handle,
                   WAL_PHASE1 + pending_count)
    check(ledger.torn_bytes == 0, "WAL act: the torn tail survived recovery")
    # A second restart against the settled log must replay nothing.
    await replay(check, "WAL act: a second restart", handle, wal_path, 0,
                 shards)

    # -- act 6: live key lifecycle under churn -------------------------
    # 6a: refresh + reshare + ring growth while open-loop load flows.
    epoch_dir = wal_dir / "epoch"
    epoch_dir.mkdir()
    pk_before = handle.public_key.to_bytes()
    lifecycle_lines = []
    lc_requests = min(requests, 48)
    lc_config = ServiceConfig(num_shards=4, max_batch=8,
                              max_wait_ms=10.0, queue_depth=4 * requests,
                              wal_path=epoch_dir / "service.wal")
    async with SigningService(handle, lc_config) as service:
        load = asyncio.ensure_future(LoadGenerator(
            lambda i: service.sign(b"lifecycle doc %d" % i), rng=_rng(8)
        ).run_open(lc_requests, 400.0))
        pause = await service.refresh(rng=_rng(9))
        lifecycle_lines.append(
            f"refresh  -> epoch {service.handle.epoch} "
            f"(pause {pause:.3f}ms)")
        pause = await service.reshare(2, (2, 3, 4, 5, 6),
                                      rng=_rng(10))
        lifecycle_lines.append(
            f"reshare  -> epoch {service.handle.epoch} committee "
            f"{sorted(service.handle.shares)} (pause {pause:.3f}ms)")
        pause = await service.retire_signer(3)
        retired = sorted(service.handle.shares)
        lifecycle_lines.append(
            f"retire 3 -> epoch {service.handle.epoch} signers {retired} "
            f"(pause {pause:.3f}ms)")
        pause = await service.recover_signer(3)
        lifecycle_lines.append(
            f"recover 3 -> epoch {service.handle.epoch} signers "
            f"{sorted(service.handle.shares)} (pause {pause:.3f}ms)")
        check(3 not in retired
              and sorted(service.handle.shares) == [2, 3, 4, 5, 6],
              f"epoch act: retiring and recovering signer 3 left "
              f"{retired} then {sorted(service.handle.shares)}")
        # A burst admitted one loop turn before the resize is still
        # queued when the barrier drains the ring — the migration path.
        burst = [asyncio.ensure_future(
            service.sign(b"lifecycle burst %d" % i)) for i in range(24)]
        await asyncio.sleep(0)
        migrated = await service.resize(6)
        lifecycle_lines.append(
            f"resize   -> 6 shards ({migrated} queued requests migrated)")
        lc_report = await load
        burst_results = await asyncio.gather(*burst)
        lc_stats = service.snapshot_stats()
    check(service.handle.public_key.to_bytes() == pk_before,
          "epoch act: the public key changed across the lifecycle")
    check(lc_report.rejected == 0 and lc_report.failed == 0
          and lc_report.completed == lc_requests,
          f"epoch act: load shed under churn "
          f"({lc_report.completed}/{lc_requests} completed, "
          f"{lc_report.rejected} rejected, {lc_report.failed} failed)")
    for result in list(lc_report.results.values()) + burst_results:
        check(handle.verify(result.message, result.signature),
              f"epoch act: invalid signature for {result.message!r}")
    audit(check, "epoch act under churn", epoch_dir / "service.wal", handle,
          lc_requests + len(burst))
    lc_kinds = {kind: count for kind, count
                in lc_stats.epochs.transitions.items() if count}
    check(lc_kinds == {"refresh": 1, "reshare": 1, "retire": 1,
                       "recover": 1, "resize": 1}
          and sum(lc_kinds.values()) == len(lc_stats.epochs.pauses_ms),
          f"epoch act: expected one refresh, reshare, retire, recover "
          f"and resize, each with one pause, counted {lc_kinds}")
    check(migrated > 0,
          "epoch act: the resize migrated no queued requests")
    lifecycle_lines.append(
        f"summary  -> pause p99 {lc_stats.epochs.pause_p99_ms:.3f}ms, "
        f"{lc_stats.epochs.requests_carried} requests carried")

    # 6b: SIGKILL mid-transition; only the new epoch may resume the WAL.
    victim_dir = epoch_dir / "victim"
    ev_pending = await sigkill_victim(check, "epoch", victim_dir, handle)
    ev_wal = victim_dir / "service.wal"
    stale_service = SigningService(handle, ServiceConfig(
        num_shards=2, wal_path=ev_wal))
    stale_refused = False
    try:
        await stale_service.start()
        await stale_service.stop()
    except ServiceError:
        stale_refused = True
    check(stale_refused,
          "epoch act: a restart holding pre-transition shares was not "
          "refused")
    lifecycle_lines.append("restart  -> stale epoch-0 shares refused")
    new_context = victim_dir / "ctx-epoch1.bin"
    check(new_context.exists(),
          "epoch act: the victim never persisted its new context")
    if new_context.exists():
        new_handle = decode_service_context(new_context.read_bytes())
        check(new_handle.epoch == 1
              and new_handle.public_key.to_bytes() == pk_before,
              "epoch act: the persisted context is not epoch 1 under "
              "the same public key")
        await replay(check, "epoch act", new_handle, ev_wal, ev_pending)
        audit(check, "epoch act", ev_wal, handle, ev_pending)
        lifecycle_lines.append(
            f"restart  -> epoch-1 context settled all {ev_pending} "
            f"carried admits exactly once")
    (epoch_dir / "epoch.log").write_text(
        "\n".join(lifecycle_lines) + "\n")

    # -- act 7: the HTTP front door ------------------------------------
    # 7a: two tenants with different quotas drive the gateway; an
    # admin-triggered reshare lands mid-load; the Prometheus exposition
    # must parse line-by-line, match sample for sample every family the
    # declarations produce from the state it was rendered from, and
    # agree with itself across families (edge against service, shards
    # against service, transition kinds against barrier pauses).
    http_dir = wal_dir / "http"
    http_dir.mkdir()
    http_requests = min(requests, 32)
    http_config = ServiceConfig(num_shards=2, max_batch=8,
                                max_wait_ms=10.0,
                                queue_depth=4 * requests,
                                wal_path=http_dir / "service.wal")
    http_service = SigningService(handle, http_config)
    await http_service.start()
    http_gateway = HttpGateway(http_service, tenants=[
        TenantConfig(name="alpha", api_key="alpha-key", admin=True),
        TenantConfig(name="beta", api_key="beta-key",
                     rate_rps=0.1, burst=2.0),
    ])
    await http_gateway.start()
    codec = WireCodec(group)
    alpha = GatewayClient(http_gateway.host, http_gateway.port,
                          "alpha-key", codec=codec)
    beta = GatewayClient(http_gateway.host, http_gateway.port,
                         "beta-key", codec=codec)
    http_load = asyncio.ensure_future(LoadGenerator(
        lambda i: alpha.sign(b"http doc %d" % i)
    ).run_closed(http_requests, 8))
    await asyncio.sleep(0.01)
    reshared = await alpha.admin_reshare(2, [2, 3, 4, 5, 6])
    http_report = await http_load
    check(http_report.rejected == 0 and http_report.failed == 0
          and http_report.completed == http_requests,
          f"HTTP act: alpha load shed "
          f"({http_report.completed}/{http_requests} completed, "
          f"{http_report.rejected} rejected, {http_report.failed} "
          f"failed)")
    for ordinal, result in http_report.results.items():
        check(handle.verify(result.message, result.signature),
              f"HTTP act: invalid signature for http doc #{ordinal}")
    check(reshared["epoch"] == 1
          and http_service.handle.public_key.to_bytes() == pk_before,
          "HTTP act: the over-the-wire reshare did not advance the "
          "epoch under the same public key")
    # The rest of the wire surface, once each: a verify of a valid and
    # of a forged pair, and the other two admin routes.
    sample = http_report.results[0].signature
    forgery = type(sample)(z=sample.z * sample.z, r=sample.r)
    message = http_report.results[0].message
    verdicts = [(await alpha.verify(message, signature)).valid
                for signature in (sample, forgery)]
    check(verdicts == [True, False],
          f"HTTP act: /v1/verify answered {verdicts} for a valid and a "
          f"forged pair")
    refreshed = await alpha.admin_refresh()
    resized = await alpha.admin_resize(3)
    check(refreshed["epoch"] == 2 and resized["shards"] == 3,
          f"HTTP act: /admin/refresh and /admin/resize answered "
          f"{refreshed} and {resized}")
    # beta: burst of 2 admitted, then deterministic 429s (the refill
    # rate of 0.1 rps cannot return a token within this act).
    beta_ok, beta_429 = 0, 0
    for i in range(6):
        try:
            await beta.sign(b"beta doc %d" % i)
            beta_ok += 1
        except TenantQuotaError:
            beta_429 += 1
    check(beta_ok == 2 and beta_429 == 4,
          f"HTTP act: beta quota expected 2 admitted + 4 over-quota, "
          f"got {beta_ok} + {beta_429}")
    try:
        scraped = parse_prometheus(await alpha.metrics())
    except ValueError as exc:
        check(False, f"HTTP act: /metrics is malformed: {exc}")
        scraped = {}
    # Every family the declarations produce from the state the scrape
    # rendered must match it sample for sample — all but the gateway's
    # own route families, which the scrape itself has since moved.
    declared = parse_prometheus(render_prometheus(
        http_gateway.metric_families()))
    own = {spec.name for spec in declarations(GatewayStats).values()}
    check(set(scraped) - own == set(declared) - own,
          f"HTTP act: /metrics families {sorted(set(scraped) - own)} "
          f"but the declarations produce {sorted(set(declared) - own)}")
    reconciled = 0
    for name in sorted(set(declared) - own):
        check(scraped.get(name) == declared[name],
              f"HTTP act: /metrics family {name} does not match the "
              f"stats it was rendered from")
        reconciled += len(declared[name]["samples"])

    def series(name: str) -> dict:
        """``{label values: value}`` of one scraped sample name."""
        family = scraped.get(name.removesuffix("_count"), {"samples": {}})
        return {tuple(value for _, value in labels): sample
                for (sample_name, labels), sample
                in family["samples"].items() if sample_name == name}

    check(sum(series("ljy_epoch_transitions_total").values())
          == sum(series("ljy_epoch_pause_ms_count").values()) == 3,
          "HTTP act: the transition kinds do not sum to the barrier "
          "pauses")
    check(series("ljy_tenant_admitted_total")
          == series("ljy_service_tenant_accepted_total"),
          "HTTP act: the edge admitted other tenant counts than the "
          "service accepted")
    check(sum(series("ljy_shard_requests_total").values())
          == sum(series("ljy_service_completed_total").values()),
          "HTTP act: the shards served other than the service completed")
    # Every dealing of this process's lifecycle transitions was honest:
    # each receiver checked its dealings in one coined product.
    check(DKG_COUNTERS["batched_checks"] > 0
          and DKG_COUNTERS["fallbacks"] == 0,
          f"HTTP act: the DKG share checks were {DKG_COUNTERS}, not "
          f"batched without a fallback")
    # beta's two admitted requests arrived alone: each was Share-Signed
    # while its window waited, and that time is busy time.
    check(sum(series("ljy_shard_presigned_total").values()) >= beta_ok,
          "HTTP act: lone requests were not signed at arrival")
    check(series("ljy_tenant_rejected_total").get(("rate", "beta")) == 4
          and series("ljy_service_tenant_accepted_total").get(("beta",))
          == 2, "HTTP act: beta's 429s leaked past the edge into the "
          "service")
    await alpha.close()
    await beta.close()
    await http_gateway.stop()
    await http_service.stop()
    # Every admitted sign settled once (beta's shed requests never
    # became obligations).
    audit(check, "HTTP act", http_dir / "service.wal", handle,
          http_requests + beta_ok)

    # 7b: SIGKILL the gateway's host process with admitted-but-
    # unanswered HTTP requests; a restart against the same WAL must
    # settle every admitted request exactly once.
    hv_tasks = []

    def send_pending(port: int) -> None:
        client = GatewayClient("127.0.0.1", port, "alpha-key")
        hv_tasks.extend(asyncio.ensure_future(
            client.sign(b"http pending %d" % i)) for i in range(HTTP_PENDING))

    hv_dir = http_dir / "victim"
    hv_pending = await sigkill_victim(check, "http", hv_dir, handle,
                                      send_pending)
    hv_outcomes = await asyncio.gather(*hv_tasks, return_exceptions=True)
    check(all(isinstance(outcome, Exception)
              for outcome in hv_outcomes),
          "HTTP act: a request completed despite the SIGKILL")
    await replay(check, "HTTP act", handle, hv_dir / "service.wal", hv_pending)
    audit(check, "HTTP act", hv_dir / "service.wal", handle, hv_pending)

    if not failures:
        shutil.rmtree(wal_dir)

    print(f"serve-smoke [{backend}]: {stats.accepted} requests, "
          f"{windows} windows, 0 rejected, 0 failed; forged window "
          f"localized ({shard.faults_localized} flags, "
          f"{shard.fallback_combines} topped up, "
          f"{forged_window_loops:.0f} Miller loops per forged window); "
          f"TCP worker tier served "
          f"{tcp_stats.workers.jobs if tcp_stats.workers else 0} jobs "
          f"clean + failed {crash_requests} requests over to a second "
          f"endpoint through a mid-window worker kill "
          f"({crash_workers.crashes if crash_workers else 0} crash, "
          f"{crash_workers.resubmissions if crash_workers else 0} "
          f"resubmissions, "
          f"{crash_workers.max_inflight if crash_workers else 0} max in "
          f"flight), each settled exactly once; WAL act "
          f"replayed {wal_recovered} requests after SIGKILL "
          f"({wal_torn} torn bytes discarded); epoch act survived "
          f"{sum(lc_kinds.values())} transitions (resize included) "
          f"under load "
          f"({migrated} migrated, pause p99 "
          f"{lc_stats.epochs.pause_p99_ms:.1f}ms) and settled "
          f"{ev_pending} admits across a mid-transition SIGKILL; HTTP "
          f"front door served {http_requests + beta_ok} requests over "
          f"the wire ({beta_429} over-quota 429s at the edge, "
          f"{reconciled} metric samples reconciled) and settled "
          f"{hv_pending} admitted HTTP requests exactly once after a "
          f"gateway SIGKILL")
    if failures:
        print("serve-smoke FAILED:")
        for reason in failures:
            print(f"  - {reason}")
        return 1
    print("serve-smoke passed: zero rejected-valid requests")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="bn254",
                        choices=["toy", "bn254"],
                        help="bilinear group backend (default: the real "
                        "curve — this is the CI gate)")
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--victim", nargs=2, default=None,
                        metavar=("ACT", "DIR"), help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0,
                        help="session seed for the per-act randomness "
                        "(0 keeps the historical default streams)")
    args = parser.parse_args(argv)
    global _SEED_BASE
    _SEED_BASE = args.seed
    if args.victim is not None:
        # Internal re-entry: we are act 5's, 6's or 7's SIGKILL victim.
        act, directory = args.victim
        return asyncio.run(run_victim(act, pathlib.Path(directory)))
    return asyncio.run(
        run_smoke(args.backend, args.requests, args.shards))


if __name__ == "__main__":
    raise SystemExit(main())
