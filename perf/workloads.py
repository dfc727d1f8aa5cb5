"""The four workloads, and the child process that runs one of them.

``python perf/run.py`` starts this module once per run in a fresh
process (``python perf/workloads.py --workload ...``): it sets the
system up the way a deployment would (import, Pedersen DKG, service and
gateway start, WAL open, one checked warm-up window), drives a closed
loop of clients for the timed region, checks every output, and prints
one JSON line.  All four workloads are closed loops: the callers
modelled — a CA or a validator embedding the signer — wait for their
signature before asking for the next, so offered load needs no
machine-calibrated rate.

Messages are ``ordinal (8 bytes) || 40 seeded bytes`` and always fresh,
so the program's 256-entry hash-to-curve memo never hits; the ordinal
is what the tracer stitches a request to its batch window by.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import pathlib
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

if __package__ in (None, ""):
    # Run as a script: make ``perf`` importable as a package (and keep
    # perf/trace.py from shadowing the stdlib ``trace`` module).
    sys.path[0] = str(pathlib.Path(__file__).resolve().parent.parent)

from perf import probe

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Threshold and committee size of every workload (BN254 unless --quick).
T, N = 2, 5
#: verify_burst cycles over this many distinct pre-signed pairs: more
#: than the 256 entries of the hash-to-curve memo, so it never hits.
POOL_SIZE = 320
#: Ordinals of the warm-up window (outside any timed region's range).
WARMUP_BASE = 1 << 40
#: Signatures the post-check verifies per batch.
CHECK_CHUNK = 64


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sign" or "verify": the service call each client repeats.
    op: str
    clients: int
    #: Through GatewayClient -> HttpGateway instead of in-process.
    http: bool = False
    #: sign: signer 1 forges its partial on every ordinal divisible by
    #: this; verify: every pool pair at such an index is forged.
    forge_every: int = 0

    @property
    def window(self) -> int:
        """Requests per batch window in steady state: half the clients
        wait in the queue while the other half's window runs."""
        return max(1, self.clients // 2)


WORKLOADS = {w.name: w for w in (
    # The whole stack at low concurrency: windows of 1-2, so edge,
    # admission, fsync and the max_wait_ms timer are a visible share of
    # latency and batching amortises nothing.
    Workload("sign_http", "sign", clients=2, http=True),
    # Always-full windows of 16: the loop is saturated by core/curves/
    # math and service overhead per request is amortised 16x.
    Workload("sign_burst", "sign", clients=32),
    # sign_burst with 2 forged partials per window: the only workload
    # that enters batch_share_verify_window -> locate_invalid_partials
    # -> robust fallback.
    Workload("sign_faulty", "sign", clients=32, forge_every=8),
    # Reads beside writes: no WAL, no Share-Sign, no MSM — pairing and
    # final-exponentiation bound.
    Workload("verify_burst", "verify", clients=32, forge_every=16),
)}


def message_for(seed: int, ordinal: int) -> bytes:
    body = hashlib.sha512(b"perf:%d:%d" % (seed, ordinal)).digest()[:40]
    return ordinal.to_bytes(8, "big") + body


def ordinal_of(message: bytes) -> int:
    return int.from_bytes(message[:8], "big")


class ForgedOrdinals:
    """The ``messages`` filter of ``CorruptSignerFault``: a set, by
    membership test only, of every message whose ordinal is divisible
    by ``every`` (the run is time-bounded, so the set is open-ended)."""

    def __init__(self, every: int):
        self.every = every

    def __contains__(self, message: bytes) -> bool:
        return ordinal_of(message) % self.every == 0


class Op(NamedTuple):
    ordinal: int
    start: float
    end: float
    #: SignResult / VerifyResult, or None when the call raised.
    result: object
    error: Optional[str]


@dataclass
class Region:
    """One timed region: what the clients saw and what it cost."""

    started: float
    ended: float
    #: process_time over the region, the prober's own share removed.
    cpu_s: float
    ops: List[Op]
    clients: int

    @property
    def completed(self) -> List[Op]:
        return sorted((op for op in self.ops if op.error is None),
                      key=lambda op: op.end)


def ops_per_s(region: Region) -> float:
    return len(region.completed) / (region.ended - region.started)


def steady(region: Region) -> List[Op]:
    """Completions without the first and the last round: start-up and
    drain are not steady state."""
    done = region.completed
    if len(done) > 3 * region.clients:
        return done[region.clients:-region.clients]
    return done


def latencies_ms(ops: Sequence[Op]) -> List[float]:
    return [(op.end - op.start) * 1000.0 for op in ops]


def cpu_ms_per_op(region: Region) -> float:
    return region.cpu_s * 1000.0 / max(1, len(region.completed))


def end_to_end(region: Region, prober: probe.Prober,
               peak_rss_mb: float) -> Dict[str, float]:
    """The per-run end-to-end metrics at reference speed (``setup_s``
    is added by the parent, from several cold processes).  Rate and CPU
    are totals over the region, so they take the region's ``k``; a
    latency is one operation's, so it takes the ``k`` of its moment."""
    k = prober.factor()
    return {
        "ops_per_s": ops_per_s(region) * k,
        "op_p50_ms": statistics.median(
            (op.end - op.start) * 1000.0
            / prober.factor_around(op.start, op.end)
            for op in steady(region)),
        "cpu_ms_per_op": cpu_ms_per_op(region) / k,
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The system under test
# ---------------------------------------------------------------------------

class Bench:
    """One process's service, its inputs and its output checks."""

    def __init__(self, workload: Workload, seed: int, backend: str):
        from repro import get_group
        from repro.core.scheme import ServiceHandle

        self.workload = workload
        self.seed = seed
        self.handle, _ = ServiceHandle.from_dkg(
            get_group(backend), T, N, rng=random.Random(seed))
        self.service = None
        self.gateway = None
        self._clients: list = []
        self._scratch = None
        #: verify only: (message, signature, valid) triples.
        self.pool: list = []

    def build_pool(self, size: int) -> None:
        """Pre-sign ``size`` distinct messages with the reconstructed
        master key (benchmark input generation, not set-up: the caller
        keeps its duration out of ``setup_s``).  A forged pair carries
        its neighbour's signature: well-formed, wrong message."""
        from repro.core.scheme import reconstruct_master_key

        scheme = self.handle.scheme
        master = reconstruct_master_key(
            list(self.handle.shares.values()), scheme.group.order, T)
        messages = [message_for(self.seed, index) for index in range(size)]
        signatures = [scheme.sign_with_master(master, message)
                      for message in messages]
        every = self.workload.forge_every
        for index, message in enumerate(messages):
            forged = every and index % every == 0
            self.pool.append((
                message, signatures[(index + 1) % size if forged else index],
                not forged))

    async def start(self) -> None:
        from repro.serialization import WireCodec
        from repro.service import (
            CorruptSignerFault, GatewayClient, HttpGateway, ServiceConfig,
            SigningService, TenantConfig,
        )

        workload = self.workload
        self._scratch = tempfile.TemporaryDirectory(prefix="perf-wal-")
        fault = None
        if workload.op == "sign" and workload.forge_every:
            fault = CorruptSignerFault(
                signer_index=1,
                messages=ForgedOrdinals(workload.forge_every))
        self.service = SigningService(self.handle, ServiceConfig(
            num_shards=1, fault_injector=fault,
            wal_path=pathlib.Path(self._scratch.name) / "wal.log"))
        await self.service.start()
        if workload.http:
            self.gateway = HttpGateway(self.service, tenants=[
                TenantConfig(name="bench", api_key="bench-key")])
            await self.gateway.start()
            codec = WireCodec(self.handle.scheme.group)
            self._clients = [
                GatewayClient(self.gateway.host, self.gateway.port,
                              "bench-key", codec=codec)
                for _ in range(workload.clients)]

    async def stop(self) -> None:
        for client in self._clients:
            await client.close()
        if self.gateway is not None:
            await self.gateway.stop()
        if self.service is not None:
            await self.service.stop()
        if self._scratch is not None:
            self._scratch.cleanup()

    # -- requests -----------------------------------------------------------
    def request(self, ordinal: int) -> tuple:
        """Arguments of request number ``ordinal``."""
        if self.workload.op == "verify":
            message, signature, _ = self.pool[ordinal % len(self.pool)]
            return (message, signature)
        return (message_for(self.seed, ordinal),)

    def caller(self, index: int):
        """What client ``index`` awaits for each request."""
        target = self._clients[index] if self.workload.http \
            else self.service
        return getattr(target, self.workload.op)

    async def drive(self, first_ordinal: int, seconds: float,
                    prober: Optional[probe.Prober] = None,
                    limit: Optional[int] = None) -> Region:
        """Closed loop: every client sends its next request when the
        previous one completes, until ``seconds`` have passed (or
        ``limit`` requests were issued)."""
        workload = self.workload
        ordinals = itertools.count(first_ordinal)
        stop_at = None if limit is None else first_ordinal + limit
        ops: List[Op] = []
        clock = time.perf_counter
        probe_before = prober.busy_s if prober is not None else 0.0
        started = clock()
        cpu_started = time.process_time()
        deadline = started + seconds

        async def client(index: int) -> None:
            call = self.caller(index)
            while clock() < deadline:
                ordinal = next(ordinals)
                if stop_at is not None and ordinal >= stop_at:
                    return
                request = self.request(ordinal)
                sent = clock()
                try:
                    result = await call(*request)
                except Exception as exc:
                    # The client boundary: the run is already failed,
                    # report it and stop this client rather than spin.
                    ops.append(Op(ordinal, sent, clock(), None,
                                  f"{type(exc).__name__}: {exc}"))
                    return
                ops.append(Op(ordinal, sent, clock(), result, None))

        await asyncio.gather(*(client(i) for i in range(workload.clients)))
        ended = clock()
        cpu_s = time.process_time() - cpu_started
        if prober is not None:
            cpu_s -= prober.busy_s - probe_before
        return Region(started, ended, cpu_s, ops, workload.clients)

    # -- output checks ------------------------------------------------------
    def rejected(self, ops: Sequence[Op]) -> int:
        """How many completed requests returned a wrong output.  Runs
        outside every timed region."""
        done = [op for op in ops if op.error is None]
        if self.workload.op == "verify":
            return sum(
                1 for op in done
                if op.result.valid is not self.pool[
                    op.ordinal % len(self.pool)][2])
        wrong = 0
        every = self.workload.forge_every
        for offset in range(0, len(done), CHECK_CHUNK):
            chunk = done[offset:offset + CHECK_CHUNK]
            messages = [message_for(self.seed, op.ordinal) for op in chunk]
            verdicts = self.handle.verify_window(
                messages, [op.result.signature for op in chunk])
            for op, message, valid in zip(chunk, messages, verdicts):
                forged = bool(every) and op.ordinal % every == 0
                if not (valid and op.result.message == message
                        and op.result.fallback is forged):
                    wrong += 1
        return wrong

    def localized(self) -> int:
        """Forgeries the service has localized so far."""
        return sum(shard.faults_localized for shard
                   in self.service.snapshot_stats().shards.values())

    def expected_localized(self, ops: Sequence[Op]) -> int:
        every = self.workload.forge_every
        if not every:
            return 0
        if self.workload.op == "verify":
            return sum(1 for op in ops if op.error is None
                       and not self.pool[op.ordinal % len(self.pool)][2])
        return sum(1 for op in ops
                   if op.error is None and op.ordinal % every == 0)


def failures(bench: Bench, ops: Sequence[Op], localized: int) -> int:
    """Requests not completed, plus outputs the post-check rejects,
    plus forgeries the service failed to localize (or invented)."""
    return (sum(1 for op in ops if op.error is not None)
            + bench.rejected(ops)
            + abs(localized - bench.expected_localized(ops)))


# ---------------------------------------------------------------------------
# The child process
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["measure", "setup", "trace"],
                        default="measure")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="the parent's perf_counter just before it "
                        "started this process (one system-wide clock)")
    return parser.parse_args(argv)


async def run(args, marks: Dict[str, float]) -> dict:
    workload = WORKLOADS[args.workload]
    clock = time.perf_counter
    bench = Bench(workload, args.seed, "toy" if args.quick else "bn254")
    marks["keys"] = clock()
    if workload.op == "verify":
        bench.build_pool(
            workload.window if args.mode == "setup" else POOL_SIZE)
    marks["pool"] = clock()
    await bench.start()
    try:
        # One window; over HTTP one request per client, so that every
        # keep-alive connection is open before the timed region.
        warmup = await bench.drive(
            WARMUP_BASE, 3600.0,
            limit=workload.clients if workload.http else workload.window)
        warm_failed = failures(bench, warmup.ops, bench.localized())
        marks["ready"] = clock()
        setup = setup_report(marks, probe.spins(probe.SETUP_SPINS))
        report = {"attempted": len(warmup.ops), "failed": warm_failed,
                  "setup": setup}
        if args.mode == "measure":
            await measured_pass(report, bench, args)
        elif args.mode == "trace":
            from perf import attribution
            await attribution.traced_pass(report, bench, args)
    finally:
        await bench.stop()
    return report


async def measured_pass(report: dict, bench: Bench, args) -> None:
    """The untraced timed region, with the prober beside it: fills
    ``report`` with the end-to-end metrics of this run."""
    prober = probe.Prober()
    localized = bench.localized()
    prober.start()
    try:
        region = await bench.drive(0, args.seconds, prober=prober)
    finally:
        prober.stop()
    rss = peak_rss_mb()
    report["attempted"] += len(region.ops)
    report["failed"] += failures(
        bench, region.ops, bench.localized() - localized)
    report["probe_samples"] = len(prober.samples_ms)
    report["metrics"] = end_to_end(region, prober, rss)
    report["info"] = {
        "ops": len(region.completed),
        "latency_samples": len(steady(region)),
        "region_s": region.ended - region.started,
        "k": prober.factor(),
        "raw_ops_per_s": ops_per_s(region),
        "raw_op_p50_ms": statistics.median(latencies_ms(steady(region))),
        "raw_cpu_ms_per_op": cpu_ms_per_op(region),
    }


def setup_report(marks: Dict[str, float], after_ms: List[float]) -> dict:
    """Set-up, process start to first checked warm-up window served,
    with the probe's and the input generator's own time left out."""
    before_s = marks["spun"] - marks["entered"]
    pool_s = marks["pool"] - marks["keys"]
    raw_s = marks["ready"] - marks["spawned"] - before_s - pool_s
    k = probe.speed_factor(marks["before_ms"] + after_ms)
    return {
        "setup_s": raw_s / k,
        "raw_s": raw_s,
        "k": k,
        "import_s": (marks["entered"] - marks["spawned"]
                     + marks["imported"] - marks["spun"]),
        "keygen_s": marks["keys"] - marks["imported"],
        "warmup_s": marks["ready"] - marks["pool"],
    }


def main(argv=None) -> int:
    entered = time.perf_counter()
    args = parse_args(argv)
    marks: Dict[str, object] = {
        "entered": entered,
        "spawned": entered if args.spawned_at is None else args.spawned_at,
        "before_ms": probe.spins(probe.SETUP_SPINS),
    }
    marks["spun"] = time.perf_counter()
    sys.path.insert(1, str(SRC))
    import repro.service  # noqa: F401  (the program's import cost)
    marks["imported"] = time.perf_counter()
    report = asyncio.run(run(args, marks))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    # Run the importable copy of this module: perf.attribution imports
    # perf.workloads, and a twin under the name __main__ would have its
    # own classes.
    from perf.workloads import main as _main
    raise SystemExit(_main())
