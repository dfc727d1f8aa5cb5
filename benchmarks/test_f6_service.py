"""Experiment F6 — serving-layer scaling: throughput vs batch window vs
shard count.

The async signing service (``repro.service``) amortizes verification
and window checks over batch windows; this experiment sweeps the two
scheduling knobs and records the resulting throughput and latency
percentiles.  The *shape* experiment runs on the toy backend (group
operations near-free, so the table isolates scheduling overheads); a
``bn254``-marked measurement pins the real-curve amortization factor for
verify traffic (``perf/`` states the same stage in milliseconds:
``service.window_ms`` and ``service.mean_batch`` on ``verify_burst``).
"""

import asyncio
import random

import pytest

from repro.bench.tables import Table
from repro.core.scheme import ServiceHandle
from repro.service import LoadGenerator, ServiceConfig, SigningService

#: Requests per cell of the sweep (enough for three 16-windows).
REQUESTS = 48
CONCURRENCY = 16
WINDOW_SWEEP = (1, 4, 16, 32)
SHARD_SWEEP = (1, 2, 4)


def _drive(handle, num_shards, max_batch, requests=REQUESTS,
           workload="sign", max_wait_ms=20.0):
    """One closed-loop run; returns (LoadReport, ServiceStats)."""
    config = ServiceConfig(
        num_shards=num_shards, max_batch=max_batch,
        max_wait_ms=max_wait_ms if max_batch > 1 else 0.0,
        queue_depth=4 * requests)
    if workload == "verify":
        messages = [b"f6 verify %d" % i for i in range(requests)]
        signatures = [handle.sign(message) for message in messages]

    async def scenario():
        async with SigningService(handle, config) as service:
            if workload == "verify":
                generator = LoadGenerator(
                    lambda i: service.verify(messages[i], signatures[i]))
            else:
                generator = LoadGenerator(
                    lambda i: service.sign(b"f6 sign %d" % i))
            report = await generator.run_closed(requests, CONCURRENCY)
        return report, service.snapshot_stats()

    return asyncio.run(scenario())


def test_f6_service_scaling_table(toy_group, save_table):
    handle = ServiceHandle.dealer(toy_group, 2, 5, rng=random.Random(42))
    table = Table(
        "F6: signing-service scaling, toy backend "
        f"({REQUESTS} sign requests, {CONCURRENCY} closed-loop clients)",
        ["shards", "window", "windows used", "mean batch",
         "throughput rps", "p50 ms", "p99 ms"])
    windows_used = {}
    for num_shards in SHARD_SWEEP:
        for max_batch in WINDOW_SWEEP:
            # max_wait is kept at 2 ms: toy group operations are
            # near-free, so a production-sized straggler budget would
            # reduce every cell to the window timeout.
            report, stats = _drive(handle, num_shards, max_batch,
                                   max_wait_ms=2.0)
            assert report.completed == REQUESTS
            assert report.rejected == 0
            total_windows = sum(
                s.windows for s in stats.shards.values())
            windows_used[(num_shards, max_batch)] = total_windows
            table.add_row(
                shards=num_shards, window=max_batch,
                **{"windows used": total_windows,
                   "mean batch": round(
                       REQUESTS / max(1, total_windows), 2),
                   "throughput rps": round(report.throughput_rps, 1),
                   "p50 ms": round(report.p50_ms, 3),
                   "p99 ms": round(report.p99_ms, 3)})
    save_table(table, "f6_service")
    # Shape claims (timing-free, so the toy backend cannot flake them):
    # batching actually batches, and single-request mode does not.
    for num_shards in SHARD_SWEEP:
        assert windows_used[(num_shards, 1)] == REQUESTS
        assert windows_used[(num_shards, 16)] <= REQUESTS // 2


def test_f6_shards_partition_traffic(toy_group, save_table):
    handle = ServiceHandle.dealer(toy_group, 2, 5, rng=random.Random(43))
    table = Table("F6b: per-shard request share (64 sign requests)",
                  ["shards", "per-shard requests"])
    for num_shards in SHARD_SWEEP:
        report, stats = _drive(handle, num_shards, 8, requests=64,
                               max_wait_ms=2.0)
        assert report.completed == 64
        loads = sorted(
            s.requests for s in stats.shards.values())
        table.add_row(**{"shards": num_shards,
                         "per-shard requests": str(loads)})
        assert sum(loads) == 64
        if num_shards > 1:
            # Consistent hashing spreads traffic: no shard is starved.
            assert loads[0] > 0
    save_table(table, "f6b_service_shards")


@pytest.mark.bn254
def test_f6_real_curve_window_amortization(bn254_group, save_table):
    """Verify traffic on BN254: window 16 vs single-request mode.

    This is the measured form of the serving-layer acceptance bar
    (<= 0.25x; asserted loosely at 0.6x here so a loaded machine cannot
    flake the suite), and the only place the window-16-vs-1
    amortization is asserted.
    """
    handle = ServiceHandle.dealer(bn254_group, 1, 3,
                                  rng=random.Random(44))
    requests = 24
    table = Table("F6c: verify cost per request on BN254 (24 requests)",
                  ["window", "ms per request", "p99 ms"])
    per_request = {}
    for max_batch in (1, 16):
        report, _stats = _drive(handle, 1, max_batch, requests=requests,
                                workload="verify")
        assert report.completed == requests
        assert report.invalid == 0
        per_request[max_batch] = (
            report.duration_s * 1000.0 / report.completed)
        table.add_row(window=max_batch,
                      **{"ms per request": round(per_request[max_batch], 3),
                         "p99 ms": round(report.p99_ms, 2)})
    save_table(table, "f6c_service_bn254")
    assert per_request[16] <= 0.6 * per_request[1]
