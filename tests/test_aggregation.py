"""Tests for the aggregation-enabled scheme (Appendix G)."""

import pytest

from repro.core.aggregation import (
    AggPublicKey, AggThresholdParams, LJYAggregateScheme,
    dkg_result_to_agg_keys, run_agg_dkg,
)
from repro.errors import CombineError, ParameterError


@pytest.fixture(scope="module")
def agg_setup():
    import random
    from repro.groups import get_group
    group = get_group("toy")
    params = AggThresholdParams.generate(group, t=2, n=5)
    scheme = LJYAggregateScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=random.Random(17))
    return scheme, pk, shares, vks


def threshold_sign(scheme, pk, shares, vks, message):
    partials = [scheme.share_sign(pk, shares[i], message) for i in (1, 2, 3)]
    return scheme.combine(pk, vks, message, partials)


class TestThresholdPart:
    def test_full_flow(self, agg_setup):
        scheme, pk, shares, vks = agg_setup
        signature = threshold_sign(scheme, pk, shares, vks, b"m")
        assert scheme.verify(pk, b"m", signature)

    def test_key_sanity_check(self, agg_setup):
        scheme, pk, shares, vks = agg_setup
        assert pk.sanity_check()
        # A mauled key must fail the check.
        bad = AggPublicKey(
            params=pk.params, g_1=pk.g_1, g_2=pk.g_2,
            z=pk.z * scheme.group.g1_generator(), r=pk.r)
        assert not bad.sanity_check()

    def test_share_verify(self, agg_setup):
        scheme, pk, shares, vks = agg_setup
        partial = scheme.share_sign(pk, shares[1], b"m")
        assert scheme.share_verify(pk, vks[1], b"m", partial)
        assert not scheme.share_verify(pk, vks[2], b"m", partial)

    def test_key_prefixed_hash(self, agg_setup, rng):
        """The same message under different keys hashes differently, which
        is what blocks the cross-key replay in the BGLS setting."""
        scheme, pk, shares, vks = agg_setup
        pk2, _, _ = scheme.dealer_keygen(rng=rng)
        h1 = scheme.params.hash_for_key(pk, b"m")
        h2 = scheme.params.hash_for_key(pk2, b"m")
        assert h1[0] != h2[0]


@pytest.mark.parametrize(
    "backend", ["toy", pytest.param("bn254", marks=pytest.mark.bn254)])
def test_share_sign_equals_naive_fold(backend, rng):
    """Share-Sign goes through ``multi_exp_windows``; its output must stay
    the per-base ``**``/``*`` fold of Appendix G, element for element."""
    from repro.groups import get_group
    scheme = LJYAggregateScheme(
        AggThresholdParams.generate(get_group(backend), t=1, n=3))
    pk, shares, _vks = scheme.dealer_keygen(rng=rng)
    message = b"fold"
    h_1, h_2 = scheme.params.hash_for_key(pk, message)
    for share in shares.values():
        partial = scheme.share_sign(pk, share, message)
        assert partial.index == share.index
        assert partial.z == (h_1 ** (-share.a_1)) * (h_2 ** (-share.a_2))
        assert partial.r == (h_1 ** (-share.b_1)) * (h_2 ** (-share.b_2))


class TestAggregation:
    def test_aggregate_roundtrip(self, agg_setup):
        scheme, pk, shares, vks = agg_setup
        messages = [b"cert-a", b"cert-b", b"cert-c"]
        items = [
            (pk, threshold_sign(scheme, pk, shares, vks, m), m)
            for m in messages
        ]
        aggregate = scheme.aggregate(items)
        assert scheme.aggregate_verify([(pk, m) for m in messages],
                                       aggregate)

    def test_aggregate_across_keys(self, agg_setup, rng):
        scheme, pk, shares, vks = agg_setup
        pk2, shares2, vks2 = scheme.dealer_keygen(rng=rng)
        sig1 = threshold_sign(scheme, pk, shares, vks, b"m1")
        sig2 = threshold_sign(scheme, pk2, shares2, vks2, b"m2")
        aggregate = scheme.aggregate([(pk, sig1, b"m1"), (pk2, sig2, b"m2")])
        assert scheme.aggregate_verify([(pk, b"m1"), (pk2, b"m2")],
                                       aggregate)
        # Swapped messages must fail.
        assert not scheme.aggregate_verify([(pk, b"m2"), (pk2, b"m1")],
                                           aggregate)

    def test_same_signer_multiple_messages(self, agg_setup):
        # Bellare et al. style: aggregates may repeat a signer.
        scheme, pk, shares, vks = agg_setup
        sig1 = threshold_sign(scheme, pk, shares, vks, b"m1")
        sig2 = threshold_sign(scheme, pk, shares, vks, b"m2")
        aggregate = scheme.aggregate([(pk, sig1, b"m1"), (pk, sig2, b"m2")])
        assert scheme.aggregate_verify([(pk, b"m1"), (pk, b"m2")],
                                       aggregate)

    def test_aggregate_rejects_invalid_signature(self, agg_setup):
        scheme, pk, shares, vks = agg_setup
        good = threshold_sign(scheme, pk, shares, vks, b"m1")
        with pytest.raises(CombineError):
            scheme.aggregate([(pk, good, b"wrong-message")])

    def test_aggregate_empty_rejected(self, agg_setup):
        scheme, *_ = agg_setup
        with pytest.raises(ParameterError):
            scheme.aggregate([])

    def test_aggregate_verify_checks_key_sanity(self, agg_setup):
        scheme, pk, shares, vks = agg_setup
        signature = threshold_sign(scheme, pk, shares, vks, b"m")
        rogue = AggPublicKey(
            params=pk.params, g_1=pk.g_1, g_2=pk.g_2,
            z=pk.z * scheme.group.g1_generator(), r=pk.r)
        assert not scheme.aggregate_verify([(rogue, b"m")], signature)

    def test_aggregate_verify_empty_rejected(self, agg_setup):
        scheme, pk, shares, vks = agg_setup
        signature = threshold_sign(scheme, pk, shares, vks, b"m")
        assert not scheme.aggregate_verify([], signature)

    def test_aggregate_size_constant(self, agg_setup):
        scheme, pk, shares, vks = agg_setup
        messages = [f"cert-{i}".encode() for i in range(6)]
        items = [
            (pk, threshold_sign(scheme, pk, shares, vks, m), m)
            for m in messages
        ]
        aggregate = scheme.aggregate(items)
        single = items[0][1]
        assert len(aggregate.to_bytes()) == len(single.to_bytes())


class TestAggDKG:
    def test_dkg_produces_sane_keys(self, rng):
        from repro.groups import get_group
        group = get_group("toy")
        params = AggThresholdParams.generate(group, t=1, n=4)
        scheme = LJYAggregateScheme(params)
        results, network = run_agg_dkg(params, rng=rng)
        pk, _, vks = dkg_result_to_agg_keys(params, results[1])
        assert pk.sanity_check()
        assert network.metrics.communication_rounds == 1
        partials = []
        for i in (2, 4):
            _, share, _ = dkg_result_to_agg_keys(params, results[i])
            partials.append(scheme.share_sign(pk, share, b"dkg"))
        signature = scheme.combine(pk, vks, b"dkg", partials)
        assert scheme.verify(pk, b"dkg", signature)

    def test_dkg_keys_aggregate_with_dealer_keys(self, agg_setup, rng):
        scheme, dealer_pk, shares, vks = agg_setup
        params = scheme.params
        results, _ = run_agg_dkg(params, rng=rng)
        dkg_pk, _, dkg_vks = dkg_result_to_agg_keys(params, results[1])
        dkg_partials = []
        for i in (1, 3, 5):
            _, share, _ = dkg_result_to_agg_keys(params, results[i])
            dkg_partials.append(scheme.share_sign(dkg_pk, share, b"m2"))
        dkg_sig = scheme.combine(dkg_pk, dkg_vks, b"m2", dkg_partials)
        dealer_sig = threshold_sign(scheme, dealer_pk, shares, vks, b"m1")
        aggregate = scheme.aggregate(
            [(dealer_pk, dealer_sig, b"m1"), (dkg_pk, dkg_sig, b"m2")])
        assert scheme.aggregate_verify(
            [(dealer_pk, b"m1"), (dkg_pk, b"m2")], aggregate)


class TestAggDKGAdversarial:
    def test_bad_extra_broadcast_disqualifies(self, rng):
        """A dealer publishing an inconsistent (Z_0, R_0) is excluded
        from Q even though its Pedersen shares verify (Appendix G,
        step 3 extra rule)."""
        from repro.core.aggregation import AggDKGPlayer
        from repro.groups import get_group
        from repro.net.adversary import ScriptedAdversary
        from repro.net.simulator import broadcast as bcast

        group = get_group("toy")
        params = AggThresholdParams.generate(group, t=1, n=4)

        class _Player(AggDKGPlayer):
            agg_params = params

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(1)
                minion = _Player(1, group, params.g_z, params.g_r, 1, 4,
                                 rng=rng)
                adversary.minion = minion
                out = []
                for message in minion.on_round(0, []):
                    if message.kind == "commitments":
                        payload = dict(message.payload)
                        z_0, r_0 = payload["extra"]
                        payload["extra"] = (z_0 * group.g1_generator(), r_0)
                        out.append(bcast(1, "commitments", payload))
                    else:
                        out.append(message)
                return out
            inbox = [m for m in deliveries
                     if m.is_broadcast or m.recipient == 1]
            adversary.minion.record_round(inbox)
            return adversary.minion.on_round(round_no, inbox)

        results, _ = run_agg_dkg(
            params, adversary=ScriptedAdversary(script), rng=rng)
        for result in results.values():
            assert 1 not in result.qualified
        # The surviving players still assemble a sane aggregate key.
        pk, _, _ = dkg_result_to_agg_keys(params, results[2])
        assert pk.sanity_check()

    def test_missing_extra_broadcast_disqualifies(self, rng):
        """Omitting the (Z_0, R_0) broadcast is also disqualifying."""
        from repro.core.aggregation import AggDKGPlayer
        from repro.groups import get_group
        from repro.net.adversary import ScriptedAdversary
        from repro.net.simulator import broadcast as bcast

        group = get_group("toy")
        params = AggThresholdParams.generate(group, t=1, n=4)

        class _Player(AggDKGPlayer):
            agg_params = params

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(2)
                minion = _Player(2, group, params.g_z, params.g_r, 1, 4,
                                 rng=rng)
                out = []
                for message in minion.on_round(0, []):
                    if message.kind == "commitments":
                        payload = dict(message.payload)
                        payload["extra"] = None
                        out.append(bcast(2, "commitments", payload))
                    else:
                        out.append(message)
                return out
            return []

        results, _ = run_agg_dkg(
            params, adversary=ScriptedAdversary(script), rng=rng)
        for result in results.values():
            assert 2 not in result.qualified
