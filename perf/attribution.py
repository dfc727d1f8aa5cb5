"""From spans to per-layer metrics: the traced pass of a workload.

A traced run is half the length of a measured one: its first half runs
untraced (it gives the ``raw.*`` figures and the base of
``trace.overhead_share``), its second half with every layer's public
entry points wrapped (``install``).  The stage budget follows one
request from the client's call to its reply::

    client latency = gateway.edge_ms        client span - service span
                   + service.queue_wait_ms  admitted -> its window starts
                   + wal.sync_ms            the window's fsync
                   + service.window_ms      the window's crypto
                   + service.unattributed_ms   what is left

so the stages and ``service.unattributed_ms`` sum to the op mean by
construction, and unattributed time is a reported number, not a silent
gap.  A layer's self time is its spans' duration minus what their child
spans cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from perf import layers, probe
from perf.trace import Span, Tracer
from perf.workloads import (
    Bench, Region, cpu_ms_per_op, failures, latencies_ms, ops_per_s,
    ordinal_of, steady,
)

Interval = Tuple[float, float]


def covered(intervals: Iterable[Interval]) -> float:
    """Length of the union of ``intervals`` (they may overlap or nest)."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: duration minus the part its children cover."""
    children: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ()))
        for span in spans
    }


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

def _request_attrs(args, kwargs, result):
    return {"ordinal": ordinal_of(args[1])}


def _window_attrs(args, kwargs, result):
    return {"ordinals": [ordinal_of(message) for message in args[1]]}


def _defined_on(cls, attr: str):
    return next(base for base in cls.__mro__ if attr in vars(base))


def install(tracer: Tracer, bench: Bench) -> None:
    """Wrap the public entry points of every layer a request crosses."""
    from repro.core.scheme import LJYThresholdScheme, ServiceHandle
    from repro.service import GatewayClient, SigningService, WriteAheadLog

    for method in ("sign", "verify"):
        tracer.wrap(GatewayClient, method, "gateway.client", "gateway",
                    _request_attrs)
        tracer.wrap(SigningService, method, "service.request", "service",
                    _request_attrs)
    for method in ("append_admit", "append_done"):
        tracer.wrap(WriteAheadLog, method, "wal.append", "wal")
    tracer.wrap(WriteAheadLog, "sync", "wal.sync", "wal")
    tracer.wrap(ServiceHandle, "process_sign_window", "core.window", "core",
                _window_attrs)
    tracer.wrap(ServiceHandle, "verify_window", "core.window", "core",
                _window_attrs)
    tracer.wrap(ServiceHandle, "partials_with_faults", "core.partials",
                "core")
    for method in ("combine_window", "verify_window", "batch_verify",
                   "locate_invalid", "batch_share_verify_window",
                   "locate_invalid_partials", "combine"):
        tracer.wrap(LJYThresholdScheme, method, f"core.{method}", "core")
    group = type(bench.handle.scheme.group)
    for method in ("multi_exp", "pairing_product", "hash_to_g1_vector"):
        tracer.wrap(_defined_on(group, method), method,
                    f"groups.{method}", "groups")


# ---------------------------------------------------------------------------
# The stage budget
# ---------------------------------------------------------------------------

def stage_budget(spans: Sequence[Span]) -> Dict[str, float]:
    """Mean per-request stage times in ms (see the module docstring).
    ``requests`` is how many requests the budget covers."""
    windows = sorted((s for s in spans if s.name == "core.window"),
                     key=lambda s: s.start)
    syncs = sorted((s for s in spans if s.name == "wal.sync"),
                   key=lambda s: s.start)
    # Each window is preceded, in the shard's loop, by that window's
    # fsync: pair them in time order.
    by_ordinal: Dict[int, list] = defaultdict(list)
    cursor = 0
    previous_end = float("-inf")
    for window in windows:
        sync = None
        while cursor < len(syncs) and syncs[cursor].end <= window.start:
            if syncs[cursor].start >= previous_end:
                sync = syncs[cursor]
            cursor += 1
        previous_end = window.end
        for ordinal in window.attrs["ordinals"]:
            by_ordinal[ordinal].append((window, sync))
    clients = {s.attrs["ordinal"]: s for s in spans
               if s.name == "gateway.client"}
    totals = defaultdict(float)
    count = 0
    for request in spans:
        if request.name != "service.request":
            continue
        served = next(
            ((window, sync)
             for window, sync in by_ordinal.get(request.attrs["ordinal"], ())
             if request.start <= window.start and window.end <= request.end),
            None)
        if served is None:
            continue
        window, sync = served
        client = clients.get(request.attrs["ordinal"], request)
        begins = sync.start if sync is not None else window.start
        stages = {
            "gateway.edge_ms": client.duration - request.duration,
            "service.queue_wait_ms": begins - request.start,
            "wal.sync_ms": sync.duration if sync is not None else 0.0,
            "service.window_ms": window.duration,
        }
        stages["service.unattributed_ms"] = (
            client.duration - sum(stages.values()))
        totals["op_mean_ms"] += client.duration
        for name, seconds in stages.items():
            totals[name] += seconds
        count += 1
    budget = {name: total * 1000.0 / max(1, count)
              for name, total in totals.items()}
    budget["requests"] = count
    return budget


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, the program's own convention."""
    ordered = sorted(samples)
    rank = max(1, int(round(q / 100.0 * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


# ---------------------------------------------------------------------------
# The traced pass
# ---------------------------------------------------------------------------

def _counters(bench: Bench) -> Dict[str, float]:
    """Counts the program itself keeps, read through public names."""
    from repro.curves.pairing import PAIRING_COUNTERS

    stats = bench.service.snapshot_stats()
    shards = stats.shards.values()
    counts = dict(PAIRING_COUNTERS)
    counts["windows"] = sum(s.windows for s in shards)
    counts["batched"] = sum(s.batched_requests for s in shards)
    counts["fallbacks"] = sum(s.fallback_combines for s in shards)
    counts["localized"] = sum(s.faults_localized for s in shards)
    counts["syncs"] = bench.service.wal.stats.syncs
    counts["http"] = (sum(bench.gateway.requests_total.values())
                      if bench.gateway is not None else 0)
    return counts


async def traced_pass(report: dict, bench: Bench, args) -> None:
    """Fill ``report`` with every per-layer metric of this workload."""
    prober = probe.Prober()
    tracer = Tracer()
    half = args.seconds / 4.0
    prober.start()
    try:
        before_plain = _counters(bench)
        plain = await bench.drive(0, half, prober=prober)
        before = _counters(bench)
        install(tracer, bench)
        try:
            traced = await bench.drive(
                1 + max(op.ordinal for op in plain.ops), half, prober=prober)
        finally:
            tracer.restore()
        after = _counters(bench)
    finally:
        prober.stop()
    delta = {name: after[name] - before[name] for name in after}
    report["attempted"] += len(plain.ops) + len(traced.ops)
    failed = (
        failures(bench, plain.ops,
                 before["localized"] - before_plain["localized"])
        + failures(bench, traced.ops, delta["localized"]))
    report["failed"] += failed
    metrics, budget = layer_metrics(plain, traced, tracer.spans, delta)
    # Each half at its own speed: the halves are seconds long, and the
    # box drifts by more than tracing costs.
    metrics["trace.overhead_share"] = 1.0 - (
        ops_per_s(traced) * prober.factor_around(traced.started, traced.ended)
    ) / (ops_per_s(plain) * prober.factor_around(plain.started, plain.ended))
    metrics["service.failed_per_op"] = failed / max(
        1, len(plain.ops) + len(traced.ops))
    metrics["machine.probe_ms"] = prober.factor() * probe.PROBE_REF_MS
    metrics["machine.probe_samples"] = len(prober.samples_ms)
    setup = report["setup"]
    metrics["raw.setup_s"] = setup["raw_s"]
    for phase in ("import_s", "keygen_s", "warmup_s"):
        metrics[f"setup.{phase}"] = setup[phase]
    started = time.perf_counter()
    metrics.update(await layers.floor(bench, quick=args.quick))
    report["metrics"] = metrics
    report["info"] = {
        "traced_ops": len(traced.completed),
        "budget_requests": budget["requests"],
        "op_mean_ms": budget.get("op_mean_ms", 0.0),
        "spans": len(tracer.spans),
        "floor_s": time.perf_counter() - started,
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.out / f"spans_{args.workload}_{args.seed}.jsonl")


def layer_metrics(plain: Region, traced: Region, spans: Sequence[Span],
                  delta: Dict[str, float]):
    """``(metrics, budget)``: the traced per-layer metrics by name, and
    the stage budget they were taken from (with its request count)."""
    ops = len(traced.completed)
    per_op = 1.0 / max(1, ops)
    budget = stage_budget(spans)
    own = self_times(spans)
    plain_ms = latencies_ms(plain.completed)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span.name] += span.duration
        calls[span.name] += 1

    def ms_per_op(name: str) -> float:
        return seconds[name] * 1000.0 * per_op

    metrics = {
        **{name: budget.get(name, 0.0) for name in (
            "gateway.edge_ms", "service.queue_wait_ms", "wal.sync_ms",
            "service.window_ms", "service.unattributed_ms")},
        "gateway.requests_per_op": delta["http"] * per_op,
        "service.mean_batch": delta["batched"] / max(1, delta["windows"]),
        "service.windows_per_op": delta["windows"] * per_op,
        "service.loop_busy_share":
            plain.cpu_s / (plain.ended - plain.started),
        "service.op_p95_ms": percentile(plain_ms, 95.0),
        "service.op_p99_ms": percentile(plain_ms, 99.0),
        "wal.append_ms": ms_per_op("wal.append"),
        "wal.syncs_per_op": delta["syncs"] * per_op,
        "core.partials_ms_per_op": ms_per_op("core.partials"),
        "core.combine_window_ms_per_op": ms_per_op("core.combine_window"),
        "core.batch_share_verify_ms_per_op":
            ms_per_op("core.batch_share_verify_window"),
        "core.locate_invalid_calls_per_op": per_op * (
            calls["core.locate_invalid"]
            + calls["core.locate_invalid_partials"]),
        "core.fallback_share": delta["fallbacks"] * per_op,
        "core.verify_window_ms_per_op": ms_per_op("core.verify_window"),
        "core.self_ms_per_op": per_op * 1000.0 * sum(
            own[s.id] for s in spans if s.layer == "core"),
        "groups.multi_exp_ms_per_op": ms_per_op("groups.multi_exp"),
        "groups.pairing_product_ms_per_op":
            ms_per_op("groups.pairing_product"),
        "groups.hash_to_g1_ms_per_op": ms_per_op("groups.hash_to_g1_vector"),
        "curves.miller_loops_per_op": delta["miller_loops"] * per_op,
        "curves.final_exps_per_op": delta["final_exps"] * per_op,
        "curves.g2_preparations_per_op": delta["preparations"] * per_op,
        "raw.ops_per_s": ops_per_s(plain),
        "raw.op_p50_ms": statistics.median(latencies_ms(steady(plain))),
        "raw.cpu_ms_per_op": cpu_ms_per_op(plain),
    }
    return metrics, budget
