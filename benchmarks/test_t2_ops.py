"""Experiment T2 — computational cost per operation (Section 3.1).

Paper claims: each server computes "two multi-exponentiations with two
base elements and two hash-on-curve operations"; the verifier computes "a
product of four pairings".  On the real BN254 backend we assert the
operation counts (4 Miller loops + 1 shared final exponentiation per
Verify / Share-Verify), plus an ablation: multi-pairing versus four
naive pairings.  The wall-clock T2 table (``results/t2_ops.txt``, with
naive and speed-up columns) is rendered by ``tools/bench_snapshot.py``.
"""

import random
import time

import pytest

from repro.bench.tables import Table
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.curves.pairing import PAIRING_COUNTERS, reset_pairing_counters

T, N = 2, 5


@pytest.fixture(scope="module")
def deployment(bn254_group):
    rng = random.Random(3)
    params = ThresholdParams.generate(bn254_group, T, N)
    scheme = LJYThresholdScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=rng)
    message = b"benchmark message"
    partials = [scheme.share_sign(shares[i], message) for i in (1, 2, 3)]
    signature = scheme.combine(pk, vks, message, partials)
    return scheme, pk, shares, vks, message, partials, signature


def test_t2_verify_is_four_pairings_one_final_exp(deployment):
    scheme, pk, _shares, _vks, message, _partials, signature = deployment
    reset_pairing_counters()
    assert scheme.verify(pk, message, signature)
    assert PAIRING_COUNTERS["miller_loops"] == 4
    assert PAIRING_COUNTERS["final_exps"] == 1
    reset_pairing_counters()


def test_t2_share_verify(deployment):
    scheme, pk, _shares, vks, message, partials, _signature = deployment
    reset_pairing_counters()
    assert scheme.share_verify(pk, vks[1], message, partials[0])
    assert PAIRING_COUNTERS["miller_loops"] == 4
    assert PAIRING_COUNTERS["final_exps"] == 1
    reset_pairing_counters()


def test_t2_ablation_multi_pairing(bn254_group, save_table):
    """Ablation: one 4-term multi-pairing vs four separate pairings."""
    group = bn254_group
    pairs = [
        (group.g1_generator() ** (i + 2), group.g2_generator() ** (i + 3))
        for i in range(4)
    ]

    def shared():
        return group.pairing_product(pairs)

    def naive():
        result = group.pair(*pairs[0])
        for a, b in pairs[1:]:
            result = result * group.pair(a, b)
        return result

    assert shared() == naive()

    def timed(fn, repeats=3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats * 1000

    shared_ms = timed(shared)
    naive_ms = timed(naive)
    table = Table("T2b: shared vs naive final exponentiation (4 pairings)",
                  ["strategy", "ms"])
    table.add_row(strategy="multi-pairing (1 final exp)", ms=shared_ms)
    table.add_row(strategy="naive (4 final exps)", ms=naive_ms)
    save_table(table, "t2b_multipairing")
    assert shared_ms < naive_ms     # the optimization must actually win
