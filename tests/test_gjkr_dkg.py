"""Tests for the GJKR new-DKG baseline."""

import pytest

from repro.dkg import gjkr_dkg
from repro.dkg.gjkr_dkg import GJKRPlayer, run_gjkr_dkg
from repro.math.lagrange import interpolate_at
from repro.net.adversary import ScriptedAdversary


@pytest.fixture
def setup(toy_group):
    g_z = toy_group.derive_g2("gjkr-test:g_z")
    g_r = toy_group.derive_g2("gjkr-test:g_r")
    return toy_group, g_z, g_r


class TestHonestRun:
    def test_two_communication_rounds(self, setup, rng):
        group, g_z, g_r = setup
        _results, network = run_gjkr_dkg(group, g_z, g_r, 2, 5, rng=rng)
        # Deal round + extraction round (complaint rounds silent).
        assert network.metrics.communication_rounds == 2

    def test_public_key_consensus(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_gjkr_dkg(group, g_z, g_r, 2, 5, rng=rng)
        reference = results[1].public_key
        for result in results.values():
            assert result.public_key == reference

    def test_shares_interpolate_to_pk(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_gjkr_dkg(group, g_z, g_r, 2, 5, rng=rng)
        points = {i: results[i].share for i in (2, 4, 5)}
        x = interpolate_at(points, group.order)
        assert g_z ** x == results[1].public_key

    def test_verification_keys_match_shares(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_gjkr_dkg(group, g_z, g_r, 2, 5, rng=rng)
        for i, result in results.items():
            assert results[1].verification_keys[i] == g_z ** result.share

    def test_all_qualified(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_gjkr_dkg(group, g_z, g_r, 2, 5, rng=rng)
        assert results[1].qualified == [1, 2, 3, 4, 5]

    def test_finalize_evaluates_once_per_receiver(self, setup, rng,
                                                  monkeypatch):
        """Each player derives VK_j from the Feldman column aggregates:
        n evaluations per player, not one per qualified dealer as well
        (n * |Q| = 25 each at t = 2, n = 5)."""
        group, g_z, g_r = setup
        calls = []
        real = gjkr_dkg.commitment_eval

        def counting(group, commitments, index):
            calls.append(index)
            return real(group, commitments, index)

        monkeypatch.setattr(gjkr_dkg, "commitment_eval", counting)
        results, _ = run_gjkr_dkg(group, g_z, g_r, 2, 5, rng=rng)
        assert len(results) == 5
        assert sorted(calls) == sorted(list(range(1, 6)) * 5)
        for i, result in results.items():
            assert results[1].verification_keys[i] == g_z ** result.share


def _assert_verification_keys_match_shares(results, g_z):
    """Every honest player's VK_i, as every honest player computed it,
    is g_z^{x_i} for player i's final share x_i — a reconstructed
    dealer's contribution included."""
    for holder in results.values():
        for i, result in results.items():
            assert holder.verification_keys[i] == g_z ** result.share


class TestExtractionMisbehaviour:
    def test_dropout_contribution_reconstructed(self, setup, rng):
        """A dealer silent during extraction stays in Q — the key GJKR
        property that defeats the Pedersen bias attack."""
        group, g_z, g_r = setup

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(1)
                adversary.minion = GJKRPlayer(1, group, g_z, g_r, 2, 5,
                                              rng=rng)
            minion = adversary.minion
            inbox = [m for m in deliveries
                     if m.is_broadcast or m.recipient == 1]
            minion.record_round(inbox)
            messages = minion.on_round(round_no, inbox)
            if round_no >= 3:
                return []            # silent from extraction onwards
            return messages

        results, _ = run_gjkr_dkg(
            group, g_z, g_r, 2, 5,
            adversary=ScriptedAdversary(script), rng=rng)
        # Dealer 1 is still qualified and the PK includes its contribution:
        # the shares still interpolate to log of the final PK.
        assert 1 in results[2].qualified
        points = {i: results[i].share for i in (2, 3, 4)}
        x = interpolate_at(points, group.order)
        assert g_z ** x == results[2].public_key
        _assert_verification_keys_match_shares(results, g_z)

    def test_feldman_cheater_reconstructed(self, setup, rng):
        """A dealer broadcasting a wrong Feldman vector triggers valid
        extraction complaints and public reconstruction."""
        group, g_z, g_r = setup
        from repro.net.simulator import broadcast as bcast

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(1)
                adversary.minion = GJKRPlayer(1, group, g_z, g_r, 2, 5,
                                              rng=rng)
            minion = adversary.minion
            inbox = [m for m in deliveries
                     if m.is_broadcast or m.recipient == 1]
            minion.record_round(inbox)
            messages = minion.on_round(round_no, inbox)
            if round_no == 3:
                # Publish a *wrong* Feldman vector (honest Pedersen phase).
                feldman = [g_z ** (k + 1)
                           for k in range(minion.t + 1)]
                return [bcast(1, "feldman", {"feldman": feldman})]
            return messages

        results, _ = run_gjkr_dkg(
            group, g_z, g_r, 2, 5,
            adversary=ScriptedAdversary(script), rng=rng)
        assert 1 in results[2].qualified
        points = {i: results[i].share for i in (2, 3, 5)}
        x = interpolate_at(points, group.order)
        assert g_z ** x == results[2].public_key
        _assert_verification_keys_match_shares(results, g_z)
