"""Tests for the DLIN-based variant (Appendix F)."""

import pytest

from repro.core.dlin_scheme import (
    DLINParams, DLINPartialSignature, LJYDLINScheme, run_dlin_dkg,
)
from repro.errors import CombineError


@pytest.fixture(scope="module")
def dlin_setup():
    import random
    from repro.groups import get_group
    group = get_group("toy")
    params = DLINParams.generate(group, t=2, n=5)
    scheme = LJYDLINScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=random.Random(23))
    return scheme, pk, shares, vks


@pytest.mark.parametrize(
    "backend", ["toy", pytest.param("bn254", marks=pytest.mark.bn254)])
def test_share_sign_equals_naive_fold(backend, rng):
    """Share-Sign goes through ``multi_exp_windows``; its output must stay
    the per-base ``**``/``*`` fold of Appendix F, element for element."""
    from repro.groups import get_group
    scheme = LJYDLINScheme(
        DLINParams.generate(get_group(backend), t=1, n=3))
    _pk, shares, _vks = scheme.dealer_keygen(rng=rng)
    message = b"fold"
    hs = scheme.params.hash_message(message)
    for share in shares.values():
        partial = scheme.share_sign(share, message)
        assert partial.index == share.index
        for position, component in enumerate(
                (partial.z, partial.r, partial.u)):
            expected = None
            for h_k, triple in zip(hs, share.triples):
                term = h_k ** (-triple[position])
                expected = term if expected is None else expected * term
            assert component == expected


class TestSigningFlow:
    def test_full_flow(self, dlin_setup):
        scheme, pk, shares, vks = dlin_setup
        partials = [scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)]
        signature = scheme.combine(pk, vks, b"m", partials)
        assert scheme.verify(pk, b"m", signature)

    def test_share_verify_both_equations(self, dlin_setup):
        scheme, pk, shares, vks = dlin_setup
        partial = scheme.share_sign(shares[2], b"m")
        assert scheme.share_verify(pk, vks[2], b"m", partial)
        # Tamper with u only — the first equation alone would still pass,
        # so this checks the second equation is enforced.
        mauled = DLINPartialSignature(
            index=2, z=partial.z, r=partial.r,
            u=partial.u * scheme.group.g1_generator())
        assert not scheme.share_verify(pk, vks[2], b"m", mauled)

    def test_tampered_r_rejected(self, dlin_setup):
        scheme, pk, shares, vks = dlin_setup
        partial = scheme.share_sign(shares[2], b"m")
        mauled = DLINPartialSignature(
            index=2, z=partial.z,
            r=partial.r * scheme.group.g1_generator(), u=partial.u)
        assert not scheme.share_verify(pk, vks[2], b"m", mauled)

    def test_deterministic_combination(self, dlin_setup):
        scheme, pk, shares, vks = dlin_setup
        sig1 = scheme.combine(pk, vks, b"m", [
            scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)])
        sig2 = scheme.combine(pk, vks, b"m", [
            scheme.share_sign(shares[i], b"m") for i in (3, 4, 5)])
        assert sig1.to_bytes() == sig2.to_bytes()

    def test_wrong_message_rejected(self, dlin_setup):
        scheme, pk, shares, vks = dlin_setup
        partials = [scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)]
        signature = scheme.combine(pk, vks, b"m", partials)
        assert not scheme.verify(pk, b"other", signature)

    def test_signature_768_bits(self, dlin_setup):
        scheme, pk, shares, vks = dlin_setup
        partials = [scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)]
        assert scheme.combine(pk, vks, b"m", partials).size_bits == 768

    def test_below_threshold_fails(self, dlin_setup):
        scheme, pk, shares, vks = dlin_setup
        with pytest.raises(CombineError):
            scheme.combine(pk, vks, b"m", [
                scheme.share_sign(shares[1], b"m")])

    def test_robust_combine(self, dlin_setup):
        scheme, pk, shares, vks = dlin_setup
        g = scheme.group.g1_generator()
        garbage = DLINPartialSignature(index=1, z=g, r=g, u=g)
        honest = [scheme.share_sign(shares[i], b"m") for i in (2, 3, 4)]
        signature = scheme.combine(pk, vks, b"m", [garbage] + honest)
        assert scheme.verify(pk, b"m", signature)


class TestDLINDKG:
    def test_dkg_one_round_and_consistent(self, toy_group, rng):
        params = DLINParams.generate(toy_group, t=1, n=4)
        scheme = LJYDLINScheme(params)
        results, network = run_dlin_dkg(params, rng=rng)
        assert network.metrics.communication_rounds == 1
        pk, _share, vks, qualified = results[1]
        assert qualified == [1, 2, 3, 4]
        partials = [scheme.share_sign(results[i][1], b"dkg") for i in (2, 4)]
        for partial in partials:
            assert scheme.share_verify(pk, vks[partial.index], b"dkg",
                                       partial)
        signature = scheme.combine(pk, vks, b"dkg", partials)
        assert scheme.verify(pk, b"dkg", signature)

    def test_dkg_faulty_dealer_disqualified(self, toy_group, rng):
        from repro.core.dlin_scheme import DLINDKGPlayer
        from repro.net.adversary import ScriptedAdversary
        from repro.net.simulator import private

        params = DLINParams.generate(toy_group, t=1, n=4)

        def script(adversary, round_no, honest_messages, deliveries):
            if round_no == 0:
                adversary.corrupt(1)
                minion = DLINDKGPlayer(1, params, rng=rng)
                out = []
                for m in minion.on_round(0, []):
                    if m.kind == "shares":
                        bad = [(a + 1, b, c) for a, b, c in m.payload]
                        out.append(private(1, m.recipient, "shares", bad))
                    else:
                        out.append(m)
                return out
            return []

        results, _ = run_dlin_dkg(
            params, adversary=ScriptedAdversary(script), rng=rng)
        for result in results.values():
            assert 1 not in result[3]


@pytest.mark.bn254
class TestOnRealCurve:
    def test_full_flow_bn254(self, bn254_group, rng):
        params = DLINParams.generate(bn254_group, t=1, n=3)
        scheme = LJYDLINScheme(params)
        pk, shares, vks = scheme.dealer_keygen(rng=rng)
        partials = [scheme.share_sign(shares[i], b"real") for i in (1, 2)]
        signature = scheme.combine(pk, vks, b"real", partials)
        assert scheme.verify(pk, b"real", signature)
        assert signature.size_bits == 768
