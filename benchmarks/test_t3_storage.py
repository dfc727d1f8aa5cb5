"""Experiment T3 — per-player private storage: O(1) vs Theta(n).

Paper claim (abstract, Section 1): the new scheme keeps private key
shares of size O(1), "where certain solutions [ADN'06-style additive
sharing] incur O(n) storage costs at each server".
"""

import random

import pytest

from repro.baselines.adn06 import ADN06ThresholdRSA
from repro.bench.tables import Table
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme

SWEEP = (3, 5, 9, 17, 33)


def test_t3_storage_table(toy_group, save_table):
    rng = random.Random(4)
    table = Table(
        "T3: private storage per player (bytes) vs n",
        ["n", "ljy14_bytes", "adn06_values", "adn06_bytes_512bit_N"])
    ours = []
    theirs = []
    for n in SWEEP:
        t = (n - 1) // 2
        params = ThresholdParams.generate(toy_group, t, n)
        scheme = LJYThresholdScheme(params)
        _pk, shares, _vks = scheme.dealer_keygen(rng=rng)
        ljy_bytes = shares[1].storage_bytes()
        ours.append(ljy_bytes)

        adn = ADN06ThresholdRSA(t=t, n=n, modulus_bits=512)
        _apk, states = adn.dealer_keygen(rng=rng)
        adn_values = states[1].storage_values()
        adn_bytes = states[1].storage_bytes(512)
        theirs.append(adn_values)
        table.add_row(n=n, ljy14_bytes=ljy_bytes, adn06_values=adn_values,
                      adn06_bytes_512bit_N=adn_bytes)
    save_table(table, "t3_storage")

    # O(1): identical at every n.  Theta(n): exactly n + 1 values.
    assert len(set(ours)) == 1
    assert theirs == [n + 1 for n in SWEEP]
