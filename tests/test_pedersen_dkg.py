"""Tests for the paper's Dist-Keygen (Pedersen DKG with complaints)."""

import pytest

from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.dkg.pedersen_dkg import (
    PedersenDKGPlayer, dkg_result_to_keys, run_pedersen_dkg,
)
from repro.dkg.refresh import RefreshPlayer
from repro.errors import ParameterError
from repro.math.lagrange import interpolate_at
from repro.net.adversary import ScriptedAdversary
from repro.net.simulator import broadcast, private
from repro.sharing.pedersen_vss import PedersenVSS


@pytest.fixture
def setup(toy_group):
    g_z = toy_group.derive_g2("dkg-test:g_z")
    g_r = toy_group.derive_g2("dkg-test:g_r")
    return toy_group, g_z, g_r


class TestHonestRun:
    def test_one_communication_round(self, setup, rng):
        group, g_z, g_r = setup
        _results, network = run_pedersen_dkg(group, g_z, g_r, 2, 5, rng=rng)
        assert network.metrics.communication_rounds == 1

    def test_all_players_qualified(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_pedersen_dkg(group, g_z, g_r, 2, 5, rng=rng)
        for result in results.values():
            assert result.qualified == [1, 2, 3, 4, 5]

    def test_public_key_consensus(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_pedersen_dkg(group, g_z, g_r, 2, 5, rng=rng)
        reference = results[1].public_components
        for result in results.values():
            assert result.public_components == reference

    def test_shares_interpolate_to_public_key(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_pedersen_dkg(group, g_z, g_r, 2, 5, rng=rng)
        for k in range(2):
            a_shares = {i: results[i].share_pairs[k][0] for i in (1, 3, 5)}
            b_shares = {i: results[i].share_pairs[k][1] for i in (1, 3, 5)}
            a_0 = interpolate_at(a_shares, group.order)
            b_0 = interpolate_at(b_shares, group.order)
            assert (g_z ** a_0) * (g_r ** b_0) == \
                results[1].public_components[k]

    def test_verification_keys_match_shares(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_pedersen_dkg(group, g_z, g_r, 2, 5, rng=rng)
        for i, result in results.items():
            for k in range(2):
                a, b = result.share_pairs[k]
                assert results[1].verification_keys[i][k] == \
                    (g_z ** a) * (g_r ** b)

    def test_num_pairs_one(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_pedersen_dkg(group, g_z, g_r, 2, 5, num_pairs=1,
                                      rng=rng)
        assert len(results[1].share_pairs) == 1
        assert len(results[1].public_components) == 1

    def test_additive_pairs_sum_to_secret(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_pedersen_dkg(group, g_z, g_r, 1, 3, rng=rng)
        for k in range(2):
            a_0 = sum(r.additive_pairs[k][0] for r in results.values())
            b_0 = sum(r.additive_pairs[k][1] for r in results.values())
            assert (g_z ** a_0) * (g_r ** b_0) == \
                results[1].public_components[k]

    def test_n_below_2t_plus_1_rejected(self, setup, rng):
        group, g_z, g_r = setup
        with pytest.raises(ParameterError):
            run_pedersen_dkg(group, g_z, g_r, 2, 4, rng=rng)


class TestFaultyDealers:
    def test_bad_share_triggers_complaint_and_response(self, setup, rng):
        """A dealer sending one bad share must respond and stays qualified."""
        group, g_z, g_r = setup

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(1)
                minion = PedersenDKGPlayer(1, group, g_z, g_r, 2, 5, rng=rng)
                adversary.minion = minion
                messages = minion.on_round(0, [])
                # Corrupt the share sent to player 2.
                out = []
                for m in messages:
                    if m.kind == "shares" and m.recipient == 2:
                        bad = [(a + 1, b) for a, b in m.payload]
                        out.append(private(1, 2, "shares", bad))
                    else:
                        out.append(m)
                return out
            # Respond honestly to complaints afterwards.
            inbox = [m for m in deliveries
                     if m.is_broadcast or m.recipient == 1]
            adversary.minion.record_round(inbox)
            return adversary.minion.on_round(round_no, inbox)

        results, network = run_pedersen_dkg(
            group, g_z, g_r, 2, 5,
            adversary=ScriptedAdversary(script), rng=rng)
        # Dealer 1 responded with correct shares: stays qualified.
        for result in results.values():
            assert 1 in result.qualified
        # Complaint and response rounds carried traffic.
        assert network.metrics.communication_rounds == 3

    def test_unresponsive_bad_dealer_disqualified(self, setup, rng):
        group, g_z, g_r = setup

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(1)
                minion = PedersenDKGPlayer(1, group, g_z, g_r, 2, 5, rng=rng)
                messages = minion.on_round(0, [])
                out = []
                for m in messages:
                    if m.kind == "shares":
                        bad = [(a + 1, b + 2) for a, b in m.payload]
                        out.append(private(1, m.recipient, "shares", bad))
                    else:
                        out.append(m)
                return out
            return []   # never responds to complaints

        results, _ = run_pedersen_dkg(
            group, g_z, g_r, 2, 5,
            adversary=ScriptedAdversary(script), rng=rng)
        for result in results.values():
            assert 1 not in result.qualified
            assert result.qualified == [2, 3, 4, 5]

    def test_silent_dealer_disqualified(self, setup, rng):
        group, g_z, g_r = setup

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(3)    # sends nothing at all
            return []

        results, _ = run_pedersen_dkg(
            group, g_z, g_r, 2, 5,
            adversary=ScriptedAdversary(script), rng=rng)
        for result in results.values():
            assert result.qualified == [1, 2, 4, 5]

    def test_scheme_works_after_disqualification(self, setup, rng):
        group, g_z, g_r = setup

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(5)
            return []

        results, _ = run_pedersen_dkg(
            group, g_z, g_r, 2, 5,
            adversary=ScriptedAdversary(script), rng=rng)
        params = ThresholdParams(group=group, t=2, n=5, g_z=g_z, g_r=g_r)
        scheme = LJYThresholdScheme(params)
        keys = {i: dkg_result_to_keys(scheme, results[i]) for i in results}
        pk = keys[1][0]
        vks = keys[1][2]
        message = b"post-disqualification"
        partials = [scheme.share_sign(keys[i][1], message)
                    for i in (1, 2, 3)]
        signature = scheme.combine(pk, vks, message, partials)
        assert scheme.verify(pk, message, signature)


class TestFixedSecrets:
    def test_zero_sharing_yields_identity_pk(self, setup, rng):
        group, g_z, g_r = setup
        results, _ = run_pedersen_dkg(
            group, g_z, g_r, 2, 5, player_cls=RefreshPlayer, rng=rng)
        for component in results[1].public_components:
            assert component.is_identity()

    def test_nonzero_dealer_excluded_in_refresh_mode(self, setup, rng):
        group, g_z, g_r = setup

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(2)
                # Shares a NON-zero pair in refresh mode.
                minion = PedersenDKGPlayer(2, group, g_z, g_r, 2, 5, rng=rng)
                return minion.on_round(0, [])
            return []

        results, _ = run_pedersen_dkg(
            group, g_z, g_r, 2, 5, player_cls=RefreshPlayer,
            adversary=ScriptedAdversary(script), rng=rng)
        for result in results.values():
            assert 2 not in result.qualified
