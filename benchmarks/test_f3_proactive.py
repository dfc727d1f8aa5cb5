"""Experiment F3 — proactive refresh cost and mobile-adversary security.

Section 3.3: shares can be refreshed each period by re-sharing zero; the
cost is one more Pedersen-DKG instance; a mobile adversary collecting up
to t shares per period never accumulates a usable set.
"""

import random

from repro.bench.tables import Table
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme, reconstruct_master_key
from repro.dkg.refresh import run_refresh

SWEEP = (3, 5, 9, 13)


def test_f3_refresh_cost_table(toy_group, save_table):
    rng = random.Random(16)
    table = Table("F3: proactive refresh communication cost vs n",
                  ["n", "rounds", "messages", "kilobytes"])
    for n in SWEEP:
        t = (n - 1) // 2
        params = ThresholdParams.generate(toy_group, t, n)
        scheme = LJYThresholdScheme(params)
        _pk, shares, vks = scheme.dealer_keygen(rng=rng)
        _new_shares, _new_vks, network = run_refresh(
            toy_group, params.g_z, params.g_r, t, n, shares, vks, rng=rng)
        summary = network.metrics.summary()
        table.add_row(n=n, rounds=summary["communication_rounds"],
                      messages=summary["messages"],
                      kilobytes=summary["bytes"] / 1024)
        assert summary["communication_rounds"] == 1   # optimistic refresh
    save_table(table, "f3_refresh")


def test_f3_mobile_adversary_scenario(toy_group, save_table):
    """A mobile adversary grabs t different shares in each of 3 periods
    (3t > t total!) yet never reconstructs the master key, while the
    service keeps signing across refreshes."""
    rng = random.Random(17)
    t, n = 2, 5
    params = ThresholdParams.generate(toy_group, t, n)
    scheme = LJYThresholdScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=rng)
    true_master = reconstruct_master_key(
        list(shares.values()), toy_group.order, t)

    stolen = []
    table = Table("F3b: mobile adversary across refresh periods (t=2, n=5)",
                  ["period", "stolen_indices", "cumulative_stolen",
                   "master_key_recovered", "service_still_signs"])
    victims_by_period = [(1, 2), (3, 4), (5, 1)]
    current_shares, current_vks = shares, vks
    for period, victims in enumerate(victims_by_period, start=1):
        stolen.extend(current_shares[v] for v in victims)
        # Try every t+1-subset of everything stolen so far.
        recovered = False
        import itertools
        for subset in itertools.combinations(stolen, t + 1):
            if len({s.index for s in subset}) < t + 1:
                continue
            if reconstruct_master_key(
                    list(subset), toy_group.order, t) == true_master:
                recovered = True
        message = f"period-{period}".encode()
        partials = [scheme.share_sign(current_shares[i], message)
                    for i in (3, 4, 5)]
        signature = scheme.combine(pk, current_vks, message, partials)
        signs = scheme.verify(pk, message, signature)
        table.add_row(period=period,
                      stolen_indices=str(victims),
                      cumulative_stolen=len(stolen),
                      master_key_recovered=recovered,
                      service_still_signs=signs)
        assert not recovered
        assert signs
        current_shares, current_vks, _ = run_refresh(
            toy_group, params.g_z, params.g_r, t, n,
            current_shares, current_vks, rng=rng)
    save_table(table, "f3b_mobile")


def test_f3_refresh_wallclock(toy_group):
    rng = random.Random(18)
    t, n = 2, 5
    params = ThresholdParams.generate(toy_group, t, n)
    scheme = LJYThresholdScheme(params)
    _pk, shares, vks = scheme.dealer_keygen(rng=rng)
    new_shares, new_vks, _network = run_refresh(
        toy_group, params.g_z, params.g_r, t, n, shares, vks, rng=rng)
    assert new_shares.keys() == shares.keys() and new_shares != shares
    assert new_vks.keys() == vks.keys()
