"""Experiment T4 — DKG communication cost: rounds, messages, bytes.

Paper claims: Pedersen's DKG "only takes one round optimistically (in the
absence of faulty player)"; complaint handling adds rounds only under
faults; the uniform-output GJKR DKG needs an extra extraction phase.
"""

import random

import pytest

from repro.bench.tables import Table
from repro.dkg.gjkr_dkg import run_gjkr_dkg
from repro.dkg.pedersen_dkg import PedersenDKGPlayer, run_pedersen_dkg
from repro.net.adversary import ScriptedAdversary
from repro.net.simulator import private

SWEEP = (3, 5, 9, 13)


def _faulty_adversary(group, g_z, g_r, t, n, rng):
    """Dealer 1 sends one bad share, then responds to the complaint."""

    def script(adversary, round_no, honest_messages, deliveries):
        if round_no == 0:
            adversary.corrupt(1)
            minion = PedersenDKGPlayer(1, group, g_z, g_r, t, n, rng=rng)
            adversary.minion = minion
            out = []
            for message in minion.on_round(0, []):
                if message.kind == "shares" and message.recipient == 2:
                    bad = [(a + 1, b) for a, b in message.payload]
                    out.append(private(1, 2, "shares", bad))
                else:
                    out.append(message)
            return out
        inbox = [m for m in deliveries
                 if m.is_broadcast or m.recipient == 1]
        adversary.minion.record_round(inbox)
        return adversary.minion.on_round(round_no, inbox)

    return ScriptedAdversary(script)


def test_t4_dkg_cost_table(toy_group, save_table):
    rng = random.Random(6)
    g_z = toy_group.derive_g2("t4:g_z")
    g_r = toy_group.derive_g2("t4:g_r")
    table = Table(
        "T4: DKG communication cost vs n (toy backend, sizes as on BN254)",
        ["n", "protocol", "rounds", "messages", "kilobytes"])
    pedersen_rounds = {}
    gjkr_rounds = {}
    for n in SWEEP:
        t = (n - 1) // 2
        _results, network = run_pedersen_dkg(
            toy_group, g_z, g_r, t, n, rng=rng)
        summary = network.metrics.summary()
        pedersen_rounds[n] = summary["communication_rounds"]
        table.add_row(n=n, protocol="Pedersen (paper)",
                      rounds=summary["communication_rounds"],
                      messages=summary["messages"],
                      kilobytes=summary["bytes"] / 1024)
        _results, network = run_gjkr_dkg(
            toy_group, g_z, g_r, t, n, rng=rng)
        summary = network.metrics.summary()
        gjkr_rounds[n] = summary["communication_rounds"]
        table.add_row(n=n, protocol="GJKR new-DKG",
                      rounds=summary["communication_rounds"],
                      messages=summary["messages"],
                      kilobytes=summary["bytes"] / 1024)
    save_table(table, "t4_dkg")

    # The paper's round claims.
    assert all(rounds == 1 for rounds in pedersen_rounds.values())
    assert all(rounds == 2 for rounds in gjkr_rounds.values())


def test_t4_faulty_run_adds_rounds(toy_group, save_table):
    rng = random.Random(7)
    g_z = toy_group.derive_g2("t4:g_z")
    g_r = toy_group.derive_g2("t4:g_r")
    table = Table("T4b: Pedersen DKG, fault-free vs faulty run (n = 5)",
                  ["scenario", "rounds", "messages"])
    _results, clean = run_pedersen_dkg(toy_group, g_z, g_r, 2, 5, rng=rng)
    adversary = _faulty_adversary(toy_group, g_z, g_r, 2, 5, rng)
    _results, faulty = run_pedersen_dkg(
        toy_group, g_z, g_r, 2, 5, adversary=adversary, rng=rng)
    table.add_row(scenario="fault-free (optimistic)",
                  rounds=clean.metrics.communication_rounds,
                  messages=clean.metrics.total_messages)
    table.add_row(scenario="one bad share + complaint + response",
                  rounds=faulty.metrics.communication_rounds,
                  messages=faulty.metrics.total_messages)
    save_table(table, "t4b_dkg_faulty")
    assert clean.metrics.communication_rounds == 1
    assert faulty.metrics.communication_rounds == 3


def _agree_on_the_public_key(results, n):
    reference = results[1].public_components
    return len(results) == n and all(
        result.public_components == reference for result in results.values())


def test_t4_pedersen_dkg_wallclock(toy_group):
    rng = random.Random(8)
    g_z = toy_group.derive_g2("t4:g_z")
    g_r = toy_group.derive_g2("t4:g_r")
    results, _network = run_pedersen_dkg(
        toy_group, g_z, g_r, 4, 9, rng=rng)
    assert _agree_on_the_public_key(results, 9)


def test_t4_pedersen_dkg_bn254(bn254_group):
    """One real-curve DKG run (n = 3): every player ends with one key."""
    rng = random.Random(9)
    g_z = bn254_group.derive_g2("t4:g_z")
    g_r = bn254_group.derive_g2("t4:g_r")
    results, _network = run_pedersen_dkg(
        bn254_group, g_z, g_r, 1, 3, rng=rng)
    assert _agree_on_the_public_key(results, 3)


LARGE_SWEEP = (33, 65, 129)


def test_t4c_dkg_communication_large_n(toy_group, save_table):
    """T4c — DKG communication at n in the hundreds-ish.

    The original T4 sweep stops at n = 13; the serving-layer roadmap
    targets committees two orders larger, where the quadratic
    point-to-point share traffic dominates.  The round claims must hold
    unchanged at scale (one optimistic round regardless of n)."""
    rng = random.Random(10)
    g_z = toy_group.derive_g2("t4:g_z")
    g_r = toy_group.derive_g2("t4:g_r")
    table = Table(
        "T4c: Pedersen DKG at large n (toy backend, sizes as on BN254)",
        ["n", "rounds", "messages", "megabytes", "bytes per player"])
    for n in LARGE_SWEEP:
        t = (n - 1) // 2
        _results, network = run_pedersen_dkg(
            toy_group, g_z, g_r, t, n, rng=rng)
        summary = network.metrics.summary()
        assert summary["communication_rounds"] == 1
        table.add_row(
            n=n, rounds=summary["communication_rounds"],
            messages=summary["messages"],
            megabytes=round(summary["bytes"] / (1024 * 1024), 3),
            **{"bytes per player": summary["bytes"] // n})
    save_table(table, "t4c_dkg_large_n")


@pytest.mark.bn254
def test_t4d_share_verify_msm_large_n(bn254_group, save_table):
    """T4d — the per-share DKG check on the real curve at large n.

    Each DKG participant verifies every dealer's share against the
    broadcast commitments: a (t+2)-term multi-scalar multiplication.
    At n in the hundreds (t ~ n/2) that MSM crosses the Straus ->
    Pippenger crossover the PR-2 window heuristic re-tuned, so this
    measurement tracks exactly the op the tuning targeted."""
    import time

    from repro.sharing.pedersen_vss import PedersenVSS

    rng = random.Random(11)
    g_z = bn254_group.derive_g2("t4:g_z")
    g_r = bn254_group.derive_g2("t4:g_r")
    table = Table(
        "T4d: per-share commitment check on BN254 vs committee size",
        ["n", "commitment terms", "ms per share check"])
    for n in (64, 128, 256):
        t = (n - 1) // 2
        dealing = PedersenVSS.deal(bn254_group, g_z, g_r, t, n, rng=rng)
        share = dealing.share_for(2)
        best = None
        for _ in range(3):
            start = time.perf_counter()
            ok = PedersenVSS.verify_share(
                bn254_group, g_z, g_r, dealing.commitments, 2, share)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            assert ok
        table.add_row(n=n, **{"commitment terms": t + 1,
                              "ms per share check": round(best * 1000, 2)})
    save_table(table, "t4d_share_check_large_n")
