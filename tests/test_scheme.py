"""Tests for the main Section 3 threshold scheme."""

import itertools
import random
import secrets

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.keys import PartialSignature, ThresholdParams
from repro.core.scheme import (
    LJYThresholdScheme, reconstruct_master_key,
)
from repro.errors import CombineError, ParameterError


class TestSigningFlow:
    def test_full_flow(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        message = b"hello"
        partials = [toy_scheme.share_sign(shares[i], message)
                    for i in (1, 2, 3)]
        signature = toy_scheme.combine(pk, vks, message, partials)
        assert toy_scheme.verify(pk, message, signature)

    def test_any_threshold_subset_gives_same_signature(
            self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        message = b"determinism"
        signatures = set()
        for subset in itertools.combinations(range(1, 6), 3):
            partials = [toy_scheme.share_sign(shares[i], message)
                        for i in subset]
            signature = toy_scheme.combine(pk, vks, message, partials)
            signatures.add(signature.to_bytes())
        assert len(signatures) == 1

    def test_matches_master_key_signature(self, toy_scheme, toy_keys,
                                          toy_group):
        pk, shares, vks = toy_keys
        master = reconstruct_master_key(
            list(shares.values()), toy_group.order, toy_scheme.params.t)
        message = b"master"
        direct = toy_scheme.sign_with_master(master, message)
        partials = [toy_scheme.share_sign(shares[i], message)
                    for i in (2, 4, 5)]
        combined = toy_scheme.combine(pk, vks, message, partials)
        assert direct.to_bytes() == combined.to_bytes()

    def test_share_verify_accepts_honest(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        for i in range(1, 6):
            partial = toy_scheme.share_sign(shares[i], b"m")
            assert toy_scheme.share_verify(pk, vks[i], b"m", partial)

    def test_share_verify_rejects_wrong_message(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partial = toy_scheme.share_sign(shares[1], b"m1")
        assert not toy_scheme.share_verify(pk, vks[1], b"m2", partial)

    def test_share_verify_rejects_index_mismatch(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partial = toy_scheme.share_sign(shares[1], b"m")
        assert not toy_scheme.share_verify(pk, vks[2], b"m", partial)

    def test_share_verify_rejects_mauled(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partial = toy_scheme.share_sign(shares[1], b"m")
        mauled = PartialSignature(
            index=1, z=partial.z * toy_scheme.group.g1_generator(),
            r=partial.r)
        assert not toy_scheme.share_verify(pk, vks[1], b"m", mauled)

    def test_verify_rejects_wrong_message(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partials = [toy_scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)]
        signature = toy_scheme.combine(pk, vks, b"m", partials)
        assert not toy_scheme.verify(pk, b"other", signature)

    def test_verify_rejects_wrong_key(self, toy_scheme, toy_keys, rng):
        pk, shares, vks = toy_keys
        pk2, _, _ = toy_scheme.dealer_keygen(rng=rng)
        partials = [toy_scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)]
        signature = toy_scheme.combine(pk, vks, b"m", partials)
        assert not toy_scheme.verify(pk2, b"m", signature)

    def test_signature_is_512_bits(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partials = [toy_scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)]
        signature = toy_scheme.combine(pk, vks, b"m", partials)
        assert signature.size_bits == 512

    @given(message=st.binary(min_size=0, max_size=64))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_messages(self, toy_scheme, toy_keys, message):
        # Fixtures are read-only key material; reuse across examples is fine.
        pk, shares, vks = toy_keys
        partials = [toy_scheme.share_sign(shares[i], message)
                    for i in (1, 3, 5)]
        signature = toy_scheme.combine(pk, vks, message, partials)
        assert toy_scheme.verify(pk, message, signature)


class TestRobustness:
    def test_combine_filters_garbage_shares(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        g = toy_scheme.group.g1_generator()
        garbage = [PartialSignature(index=i, z=g ** i, r=g ** (i + 1))
                   for i in (1, 2)]
        honest = [toy_scheme.share_sign(shares[i], b"m") for i in (3, 4, 5)]
        signature = toy_scheme.combine(pk, vks, b"m", garbage + honest)
        assert toy_scheme.verify(pk, b"m", signature)

    def test_combine_fails_below_threshold(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partials = [toy_scheme.share_sign(shares[i], b"m") for i in (1, 2)]
        with pytest.raises(CombineError):
            toy_scheme.combine(pk, vks, b"m", partials)

    def test_combine_fails_on_all_garbage(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        g = toy_scheme.group.g1_generator()
        garbage = [PartialSignature(index=i, z=g, r=g) for i in (1, 2, 3)]
        with pytest.raises(CombineError):
            toy_scheme.combine(pk, vks, b"m", garbage)

    def test_duplicate_indices_deduplicated(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partial = toy_scheme.share_sign(shares[1], b"m")
        with pytest.raises(CombineError):
            toy_scheme.combine(pk, vks, b"m", [partial, partial, partial])

    def test_unverified_combine_garbage_in_garbage_out(
            self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        g = toy_scheme.group.g1_generator()
        garbage = [PartialSignature(index=i, z=g ** i, r=g)
                   for i in (1, 2, 3)]
        signature = toy_scheme.combine(pk, vks, b"m", garbage,
                                       verify_shares=False)
        assert not toy_scheme.verify(pk, b"m", signature)

    def test_forged_duplicate_does_not_shadow_honest_partial(
            self, toy_scheme, toy_keys):
        # A garbage partial for index 3 arrives BEFORE the honest one;
        # robust combine must still use the honest index-3 contribution.
        pk, shares, vks = toy_keys
        g = toy_scheme.group.g1_generator()
        forged = PartialSignature(index=3, z=g ** 5, r=g ** 9)
        honest = [toy_scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)]
        signature = toy_scheme.combine(pk, vks, b"m", [forged] + honest)
        assert toy_scheme.verify(pk, b"m", signature)

    def test_unknown_index_skipped(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        rogue = PartialSignature(
            index=99, z=toy_scheme.group.g1_generator(),
            r=toy_scheme.group.g1_generator())
        honest = [toy_scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)]
        signature = toy_scheme.combine(pk, vks, b"m", [rogue] + honest)
        assert toy_scheme.verify(pk, b"m", signature)

    def test_combine_replaces_forged_leading_partials(
            self, toy_scheme, toy_keys):
        # Both forgeries sit among the first t+1 partials, so the first
        # Verify fails and the spares must stand in for them.
        pk, shares, vks = toy_keys
        g = toy_scheme.group.g1_generator()
        garbage = [PartialSignature(index=i, z=g ** i, r=g) for i in (1, 2)]
        honest = [toy_scheme.share_sign(shares[i], b"m") for i in (3, 4, 5)]
        signature = toy_scheme.combine(pk, vks, b"m", garbage + honest)
        assert toy_scheme.verify(pk, b"m", signature)

    def test_combine_deterministic_across_coins(self, toy_scheme, toy_keys,
                                                monkeypatch):
        pk, shares, vks = toy_keys
        g = toy_scheme.group.g1_generator()
        partials = [toy_scheme.share_sign(shares[i], b"m") for i in (1, 4, 5)]
        forged = [PartialSignature(index=2, z=g, r=g)] + partials
        for inputs in (partials, forged):
            (first, _), (second, _) = _under_coin_streams(
                monkeypatch,
                lambda: toy_scheme.combine(pk, vks, b"m", inputs).to_bytes())
            assert first == second

    def test_windows_deterministic_across_coins(self, toy_scheme, toy_keys,
                                                monkeypatch):
        """``combine_window`` and ``verify_window`` return the same
        signatures, flags and verdicts whatever coins their checks
        drew."""
        pk, shares, vks = toy_keys
        g = toy_scheme.group.g1_generator()
        messages = [b"coins %d" % i for i in range(6)]
        windows = []
        for position, message in enumerate(messages):
            partials = [toy_scheme.share_sign(shares[i], message)
                        for i in (1, 2, 3, 4)]
            if position in (1, 4):
                partials[0] = PartialSignature(index=1, z=g, r=g)
            windows.append((message, partials))
        signatures, _ = toy_scheme.combine_window(pk, vks, windows)
        signatures[2] = type(signatures[2])(z=g, r=signatures[2].r)

        def combined():
            produced, flagged = toy_scheme.combine_window(pk, vks, windows)
            return [s.to_bytes() for s in produced], flagged

        def verdicts():
            return toy_scheme.verify_window(pk, messages, signatures)

        (signed, drawn), (again, _) = _under_coin_streams(
            monkeypatch, combined)
        assert signed == again and signed[1] == [1, 4]
        assert drawn and set(drawn) == {1 << 64}
        (judged, drawn), (again, _) = _under_coin_streams(
            monkeypatch, verdicts)
        assert judged == again == [True, True, False, True, True, True]
        assert drawn and set(drawn) == {1 << 64}


def _under_coin_streams(monkeypatch, run):
    """``(run(), coin bounds drawn)`` under each of two seeded
    ``secrets.randbelow`` streams."""
    outcomes = []
    for stream in (1, 2):
        source, drawn = random.Random(stream), []

        def randbelow(bound, source=source, drawn=drawn):
            drawn.append(bound)
            return source.randrange(bound)

        with monkeypatch.context() as patch:
            patch.setattr(secrets, "randbelow", randbelow)
            outcomes.append((run(), drawn))
    return outcomes


class TestKeygenShapes:
    def test_share_storage_is_constant(self, toy_group, rng):
        sizes = []
        for n in (3, 9, 21):
            params = ThresholdParams.generate(toy_group, t=1, n=n)
            scheme = LJYThresholdScheme(params)
            _pk, shares, _vks = scheme.dealer_keygen(rng=rng)
            sizes.append(shares[1].storage_bytes())
        assert len(set(sizes)) == 1   # O(1) in n

    def test_reconstruct_requires_threshold(self, toy_scheme, toy_keys,
                                            toy_group):
        _pk, shares, _vks = toy_keys
        with pytest.raises(ParameterError):
            reconstruct_master_key(
                list(shares.values())[:2], toy_group.order, 2)

    def test_bad_thresholds_rejected(self, toy_group):
        with pytest.raises(ParameterError):
            ThresholdParams.generate(toy_group, t=5, n=5)

    def test_verification_keys_derivable_by_anyone(self, toy_scheme,
                                                   toy_keys):
        _pk, shares, vks = toy_keys
        for i in range(1, 6):
            assert toy_scheme.verification_key_for(shares[i]).v_1 == \
                vks[i].v_1


class TestCrossMessageBatchShareVerify:
    """The window-level Share-Verify: partial signatures for *different*
    messages checked under one multi-pairing, with bisection down to the
    forged shares."""

    def _window(self, toy_scheme, toy_keys, signers_per_message):
        pk, shares, vks = toy_keys
        items = []
        for position, (message_index, signer) in enumerate(
                signers_per_message):
            message = b"window msg %d" % message_index
            items.append(
                (message, toy_scheme.share_sign(shares[signer], message)))
        return pk, vks, items

    def test_honest_window_accepted(self, toy_scheme, toy_keys):
        pk, vks, items = self._window(
            toy_scheme, toy_keys,
            [(m, s) for m in range(4) for s in (1, 2, 3)])
        assert toy_scheme.batch_share_verify_window(pk, vks, items)
        assert toy_scheme.locate_invalid_partials(
            pk, vks, items) == []

    def test_forged_share_rejected_and_localized(self, toy_scheme,
                                                 toy_keys):
        pk, vks, items = self._window(
            toy_scheme, toy_keys,
            [(m, s) for m in range(4) for s in (1, 2, 3)])
        g = toy_scheme.group.g1_generator()
        message, good = items[7]
        items[7] = (message, PartialSignature(
            index=good.index, z=good.z * g, r=good.r))
        assert not toy_scheme.batch_share_verify_window(pk, vks, items)
        assert toy_scheme.locate_invalid_partials(
            pk, vks, items) == [7]

    def test_multiple_forgeries_all_localized(self, toy_scheme,
                                              toy_keys):
        pk, vks, items = self._window(
            toy_scheme, toy_keys,
            [(m, s) for m in range(6) for s in (1, 2, 3)])
        g = toy_scheme.group.g1_generator()
        for position in (2, 9, 16):
            message, good = items[position]
            items[position] = (message, PartialSignature(
                index=good.index, z=g, r=g))
        assert toy_scheme.locate_invalid_partials(
            pk, vks, items) == [2, 9, 16]

    def test_unknown_signer_index_fails_closed(self, toy_scheme,
                                               toy_keys):
        pk, vks, items = self._window(toy_scheme, toy_keys,
                                      [(0, 1), (0, 2)])
        message, good = items[1]
        items[1] = (message, PartialSignature(
            index=99, z=good.z, r=good.r))
        assert not toy_scheme.batch_share_verify_window(pk, vks, items)
        assert toy_scheme.locate_invalid_partials(
            pk, vks, items) == [1]

    def test_cross_message_swap_detected(self, toy_scheme, toy_keys):
        """A share that is valid for message A must not pass when filed
        under message B in the same window."""
        pk, shares, vks = toy_keys
        share_a = toy_scheme.share_sign(shares[1], b"message A")
        share_b = toy_scheme.share_sign(shares[2], b"message B")
        swapped = [(b"message B", share_a), (b"message A", share_b)]
        assert not toy_scheme.batch_share_verify_window(
            pk, vks, swapped)
        assert toy_scheme.locate_invalid_partials(
            pk, vks, swapped) == [0, 1]

    def test_empty_and_singleton_windows(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        assert toy_scheme.batch_share_verify_window(pk, vks, [])
        assert toy_scheme.locate_invalid_partials(pk, vks, []) == []
        good = [(b"solo", toy_scheme.share_sign(shares[1], b"solo"))]
        assert toy_scheme.batch_share_verify_window(pk, vks, good)
        g = toy_scheme.group.g1_generator()
        bad = [(b"solo", PartialSignature(index=1, z=g, r=g))]
        assert not toy_scheme.batch_share_verify_window(pk, vks, bad)
        assert toy_scheme.locate_invalid_partials(pk, vks, bad) == [0]

    def test_duplicate_message_and_signer_pairs_accepted(
            self, toy_scheme, toy_keys):
        """The same (message, signer) pair may appear twice in one
        worker-side window — two shards racing the same document — and
        both honest copies must pass."""
        pk, shares, vks = toy_keys
        partial = toy_scheme.share_sign(shares[1], b"raced")
        items = [(b"raced", partial), (b"raced", partial)]
        assert toy_scheme.batch_share_verify_window(pk, vks, items)


class TestCrossMessageBatchVerify:
    """Adversarial tests for the server-side batch_verify/locate_invalid
    API: forged signatures must be rejected AND localized."""

    def _batch(self, toy_scheme, toy_keys, count, rng):
        pk, shares, _vks = toy_keys
        master = reconstruct_master_key(
            list(shares.values()), toy_scheme.group.order, toy_scheme.params.t)
        messages = [b"batch message %d" % i for i in range(count)]
        signatures = [
            toy_scheme.sign_with_master(master, message)
            for message in messages
        ]
        return pk, messages, signatures

    def test_valid_batch_accepted(self, toy_scheme, toy_keys, rng):
        pk, messages, signatures = self._batch(toy_scheme, toy_keys, 64, rng)
        assert toy_scheme.batch_verify(pk, messages, signatures)
        assert toy_scheme.locate_invalid(
            pk, messages, signatures) == []

    def test_one_forgery_in_64_rejected_and_localized(
            self, toy_scheme, toy_keys, rng):
        pk, messages, signatures = self._batch(toy_scheme, toy_keys, 64, rng)
        forged_at = 41
        bad = signatures[forged_at]
        signatures[forged_at] = type(bad)(z=bad.z * bad.z, r=bad.r)
        assert not toy_scheme.batch_verify(pk, messages, signatures)
        assert toy_scheme.locate_invalid(
            pk, messages, signatures) == [forged_at]

    def test_multiple_forgeries_all_localized(
            self, toy_scheme, toy_keys, rng):
        pk, messages, signatures = self._batch(toy_scheme, toy_keys, 32, rng)
        for index in (0, 13, 31):
            bad = signatures[index]
            signatures[index] = type(bad)(z=bad.z, r=bad.r * bad.z)
        assert toy_scheme.locate_invalid(
            pk, messages, signatures) == [0, 13, 31]

    def test_swapped_signatures_detected(self, toy_scheme, toy_keys, rng):
        # Valid signatures attached to the wrong messages must fail.
        pk, messages, signatures = self._batch(toy_scheme, toy_keys, 8, rng)
        signatures[2], signatures[5] = signatures[5], signatures[2]
        assert not toy_scheme.batch_verify(pk, messages, signatures)
        assert toy_scheme.locate_invalid(
            pk, messages, signatures) == [2, 5]

    def test_empty_and_singleton_batches(self, toy_scheme, toy_keys, rng):
        pk, messages, signatures = self._batch(toy_scheme, toy_keys, 1, rng)
        assert toy_scheme.batch_verify(pk, [], [])
        assert toy_scheme.locate_invalid(pk, [], []) == []
        assert toy_scheme.batch_verify(pk, messages, signatures)
        bad = type(signatures[0])(z=signatures[0].r, r=signatures[0].z)
        assert toy_scheme.locate_invalid(
            pk, messages, [bad]) == [0]

    def test_length_mismatch_raises(self, toy_scheme, toy_keys, rng):
        pk, messages, signatures = self._batch(toy_scheme, toy_keys, 2, rng)
        with pytest.raises(ParameterError):
            toy_scheme.batch_verify(pk, messages, signatures[:1])
        with pytest.raises(ParameterError):
            toy_scheme.locate_invalid(pk, messages[:1], signatures)

    def test_all_invalid_batch(self, toy_scheme, toy_keys, rng):
        # Worst case for the bisection: every half fails all the way
        # down, so the result must enumerate the entire batch.
        pk, messages, signatures = self._batch(toy_scheme, toy_keys, 8, rng)
        forged = [
            type(signature)(z=signature.z * signature.z, r=signature.r)
            for signature in signatures
        ]
        assert not toy_scheme.batch_verify(pk, messages, forged)
        assert toy_scheme.locate_invalid(
            pk, messages, forged) == list(range(8))
        assert toy_scheme.verify_window(
            pk, messages, forged) == [False] * 8

    def test_duplicate_messages_in_one_window(
            self, toy_scheme, toy_keys, rng):
        # A service batch window routinely carries the same message
        # twice (two clients requesting the same document).  Duplicates
        # must verify independently, and a forgery on one copy must not
        # condemn the other.
        pk, messages, signatures = self._batch(toy_scheme, toy_keys, 4, rng)
        messages = messages + [messages[1], messages[2]]
        signatures = signatures + [signatures[1], signatures[2]]
        assert toy_scheme.batch_verify(pk, messages, signatures)
        assert toy_scheme.locate_invalid(
            pk, messages, signatures) == []
        bad = signatures[4]
        signatures[4] = type(bad)(z=bad.z * bad.z, r=bad.r)
        assert not toy_scheme.batch_verify(pk, messages, signatures)
        assert toy_scheme.locate_invalid(
            pk, messages, signatures) == [4]
        # The untouched duplicate of the same message still verifies.
        assert toy_scheme.verify_window(pk, messages, signatures) == \
            [True, True, True, True, False, True]

    @pytest.mark.bn254
    def test_forgery_localized_on_real_curve(self, bn254_group, rng):
        params = ThresholdParams.generate(bn254_group, t=1, n=3)
        scheme = LJYThresholdScheme(params)
        pk, shares, vks = scheme.dealer_keygen(rng=rng)
        messages = [b"bn254 batch %d" % i for i in range(8)]
        signatures = []
        for message in messages:
            partials = [scheme.share_sign(shares[i], message) for i in (1, 2)]
            signatures.append(
                scheme.combine(pk, vks, message, partials))
        assert scheme.batch_verify(pk, messages, signatures)
        bad = signatures[5]
        signatures[5] = type(bad)(z=bad.z * bad.z, r=bad.r)
        assert not scheme.batch_verify(pk, messages, signatures)
        assert scheme.locate_invalid(
            pk, messages, signatures) == [5]


@pytest.mark.bn254
class TestHashMemoization:
    """H(M) has one memo, the module-scope one of
    :mod:`repro.curves.hash_to_curve`, and ``HASH_COUNTERS`` counts it:
    two G1 points per message."""

    def test_repeat_messages_hit_cache(self, bn254_group):
        from repro.curves.hash_to_curve import HASH_COUNTERS
        params = ThresholdParams.generate(bn254_group, t=1, n=3)
        before = dict(HASH_COUNTERS)
        first = params.hash_message(b"memo: repeated")
        again = params.hash_message(b"memo: repeated")
        assert first == again
        assert HASH_COUNTERS["g1_misses"] - before["g1_misses"] == 2
        assert HASH_COUNTERS["g1_hits"] - before["g1_hits"] == 2
        # Parameters rebuilt over the same domain read the same memo.
        rebuilt = ThresholdParams.generate(bn254_group, t=1, n=3)
        assert rebuilt.hash_message(b"memo: repeated") == first
        assert HASH_COUNTERS["g1_misses"] - before["g1_misses"] == 2
        params.hash_message(b"memo: other")
        assert HASH_COUNTERS["g1_misses"] - before["g1_misses"] == 4

    def test_cache_is_bounded(self, bn254_group):
        from repro.curves.hash_to_curve import (
            _HASH_G1_CACHE, _HASH_G1_CACHE_LIMIT, HASH_COUNTERS,
        )
        params = ThresholdParams.generate(bn254_group, t=1, n=3)
        for i in range(_HASH_G1_CACHE_LIMIT):
            params.hash_message(b"memo: bounded %d" % i)
        assert len(_HASH_G1_CACHE) <= _HASH_G1_CACHE_LIMIT
        # The oldest message was evicted, and re-hashing it misses.
        misses = HASH_COUNTERS["g1_misses"]
        params.hash_message(b"memo: bounded 0")
        assert HASH_COUNTERS["g1_misses"] == misses + 2


@pytest.mark.bn254
class TestOnRealCurve:
    def test_full_flow_bn254(self, bn254_group, rng):
        params = ThresholdParams.generate(bn254_group, t=1, n=3)
        scheme = LJYThresholdScheme(params)
        pk, shares, vks = scheme.dealer_keygen(rng=rng)
        message = b"real curve message"
        partials = [scheme.share_sign(shares[i], message) for i in (1, 3)]
        for partial in partials:
            assert scheme.share_verify(pk, vks[partial.index], message,
                                       partial)
        signature = scheme.combine(pk, vks, message, partials)
        assert scheme.verify(pk, message, signature)
        assert not scheme.verify(pk, b"forgery", signature)
        assert signature.size_bits == 512

    def test_robust_combine_with_forgery_bn254(self, bn254_group, rng):
        params = ThresholdParams.generate(bn254_group, t=1, n=3)
        scheme = LJYThresholdScheme(params)
        pk, shares, vks = scheme.dealer_keygen(rng=rng)
        message = b"batch fallback"
        g = bn254_group.g1_generator()
        garbage = PartialSignature(index=1, z=g, r=g ** 2)
        honest = [scheme.share_sign(shares[i], message) for i in (2, 3)]
        signature = scheme.combine(pk, vks, message, [garbage] + honest)
        assert scheme.verify(pk, message, signature)


@pytest.mark.bn254
class TestRobustPathOperationCounts:
    """What a forger costs, in Miller loops and final exponentiations —
    ``PAIRING_COUNTERS`` deltas, deterministic and machine-independent.
    The robust path silently falling back to per-share checks, to
    evaluating both halves of a failing node, or to re-deriving a root
    it already holds shows up here as a count, not as a slow test."""

    @pytest.fixture(scope="class")
    def service_handle(self, bn254_group):
        import random

        from repro.core.scheme import ServiceHandle
        return ServiceHandle.dealer(bn254_group, 2, 5,
                                    rng=random.Random(18))

    @staticmethod
    def _counted(call):
        from repro.curves.pairing import PAIRING_COUNTERS
        before = dict(PAIRING_COUNTERS)
        result = call()
        return result, {name: PAIRING_COUNTERS[name] - before[name]
                        for name in before}

    def test_honest_window_is_one_four_pair_product(self, service_handle):
        messages = [b"honest %d" % i for i in range(16)]
        service_handle.process_sign_window(messages[:1])  # warm
        outcome, spent = self._counted(
            lambda: service_handle.process_sign_window(messages))
        assert outcome.flagged == () and outcome.fallback_combines == 0
        assert (spent["miller_loops"], spent["final_exps"]) == (4, 1)

    def test_one_forged_signature_in_sixteen_two_products(
            self, service_handle):
        """The root and its index-weighted companion, wherever the
        forgery sits; plain quotient bisection pays five (the root
        plus one left half per level: 8, 4, 2, 1 items)."""
        messages = [b"verify %d" % i for i in range(16)]
        honest = list(service_handle.process_sign_window(
            messages).signatures)
        for forged in (0, 11, 15):
            signatures = list(honest)
            bad = signatures[forged]
            signatures[forged] = type(bad)(z=bad.z * bad.z, r=bad.r)
            verdicts, spent = self._counted(
                lambda: service_handle.verify_window(
                    messages, signatures))
            assert verdicts == [position != forged
                                for position in range(16)]
            assert (spent["miller_loops"], spent["final_exps"]) == (8, 2)
        verdicts, spent = self._counted(
            lambda: service_handle.verify_window(messages, honest))
        assert all(verdicts)
        assert (spent["miller_loops"], spent["final_exps"]) == (4, 1)

    def test_sixteen_forged_signatures_cost_what_bisection_did(
            self, service_handle):
        """The worst case is plain quotient bisection's: sixteen
        products (there, the root plus one left half per inner node)."""
        messages = [b"verify %d" % i for i in range(16)]
        signatures = [
            type(good)(z=good.z * good.z, r=good.r)
            for good in service_handle.process_sign_window(
                messages).signatures]
        verdicts, spent = self._counted(
            lambda: service_handle.verify_window(
                messages, signatures))
        assert not any(verdicts)
        assert (spent["miller_loops"], spent["final_exps"]) == (64, 16)

    def test_multi_signer_share_verify_is_one_product(self, bn254_group):
        """Share-Verify over several signers' partials is one product of
        ``2 + 2 * signers`` pairs, not a four-pair product per signer:
        3 signers x 4 messages cost (8, 1), not (12, 3); one signer's 4
        cost (4, 1).  Localizing one forged partial among the 12 descends
        without a companion, signer-major: signer 1's on the second
        message sits at offset 1, reached through slices of 12, 6, 3, 1
        and 1 items — 8 + 6 + 4 + 4 + 4 pairs, (26, 5)."""
        import random

        from repro.core.scheme import ServiceHandle
        # Its own keys: the class handle's preparations are pinned below.
        service_handle = ServiceHandle.dealer(bn254_group, 2, 5,
                                              rng=random.Random(29))
        messages = [b"share-verify %d" % i for i in range(4)]
        items = [(message, partial) for message in messages
                 for partial in service_handle.partials_for(message)]
        scheme, pk = service_handle.scheme, service_handle.public_key
        vks = service_handle.verification_keys
        for window, cost in ((items, (8, 1)),
                             ([item for item in items
                               if item[1].index == items[0][1].index],
                              (4, 1))):
            valid, spent = self._counted(
                lambda: scheme.batch_share_verify_window(
                    pk, vks, window))
            assert valid
            assert (spent["miller_loops"], spent["final_exps"]) == cost
        message, good = items[3]
        items[3] = (message, PartialSignature(
            index=good.index, z=good.z * good.z, r=good.r))
        located, spent = self._counted(
            lambda: scheme.locate_invalid_partials(pk, vks, items))
        assert located == [3]
        assert (spent["miller_loops"], spent["final_exps"]) == (26, 5)

    def test_one_off_combine_is_a_window_of_one(self, bn254_group):
        """Robust ``combine`` is ``combine_window`` over one message:
        one Verify when the first t+1 partials are honest; a forged one
        in use costs its signer's ``share_verify`` and one more Verify
        after the replacement.  (Miller loops, final exponentiations,
        G2 preparations) on warm keys: honest (4, 1, 0), one garbage
        partial among 4 (12, 3, 0), two among 5 (20, 5, 0) — the same
        for the Appendix G scheme, whose window checks are the Section 3
        equation over ``H(PK || M)``, without its Verify's key sanity
        check."""
        import random

        from repro.core.aggregation import (
            AggThresholdParams, LJYAggregateScheme,
        )
        from repro.core.scheme import ServiceHandle
        # Their own keys: the class handle's preparations are pinned below.
        aggregate = LJYAggregateScheme(
            AggThresholdParams.generate(bn254_group, t=2, n=5))
        for handle in (
                ServiceHandle.dealer(bn254_group, 2, 5,
                                     rng=random.Random(25)),
                ServiceHandle(aggregate, *aggregate.dealer_keygen(
                    rng=random.Random(26)))):
            scheme, message = handle.scheme, b"one-off combine"
            g = scheme.group.g1_generator()
            honest = handle.partials_for(message, [1, 2, 3, 4, 5])
            garbage = [PartialSignature(index=i, z=g ** i, r=g)
                       for i in (1, 2)]
            expected = handle.sign(message).to_bytes()
            for cost, partials in (((4, 1, 0), honest[:3]),
                                   ((12, 3, 0), garbage[:1] + honest[1:4]),
                                   ((20, 5, 0), garbage + honest[2:])):
                def combine():
                    return scheme.combine(handle.public_key,
                                          handle.verification_keys, message,
                                          partials)
                combine()                                   # warm
                signature, spent = self._counted(combine)
                assert signature.to_bytes() == expected
                assert (spent["miller_loops"], spent["final_exps"],
                        spent["preparations"]) == cost

    def test_one_signer_forging_two_of_sixteen(self, service_handle):
        """The benchmark's ``sign_faulty`` window, in (Miller loops,
        final exponentiations).  Cold: window check, signer 1's 16
        partials (root, companion, one split naming a forgery in each
        half: 4 products), re-check over the 2 top-ups — (24, 6).  With
        signer 1 the last convict its round runs first and the doomed
        check is never made: (20, 5).  Signer 3 forging is reached
        after signers 1 and 2 the first time, (32, 8), and first from
        then on.  The honest window after a conviction pays the
        convict's clean round once, (8, 2), the next one nothing,
        (4, 1) — the two-phase path paid (42, 9) every window.  The
        third count is G2 verification keys prepared: a signer's two
        on the first round that reaches it, none ever again."""
        from repro.core.scheme import ServiceHandle
        from repro.service import CorruptSignerFault

        def fresh():
            return ServiceHandle(
                service_handle.scheme, service_handle.public_key,
                service_handle.shares, service_handle.verification_keys)

        def window(handle, tag, forger=None, forged=(3, 12)):
            messages = [b"faulty %s %d" % (tag, i) for i in range(16)]
            fault = forger and CorruptSignerFault(
                signer_index=forger,
                messages={messages[position] for position in forged})
            outcome, spent = self._counted(
                lambda: handle.process_sign_window(
                    messages, fault_injector=fault))
            assert outcome.flagged == (forged if forger else ())
            assert outcome.fallback_combines == len(outcome.flagged)
            assert all(handle.verify(message, signature)
                       for message, signature
                       in zip(messages, outcome.signatures))
            return (spent["miller_loops"], spent["final_exps"],
                    spent["preparations"])

        handle = fresh()
        assert window(handle, b"cold", 1)[:2] == (24, 6)
        assert window(handle, b"convict", 1) == (20, 5, 0)
        # An adjacent pair is the localizer's worst two-forgery shape:
        # no scan hits until the pair stands alone, one split more.
        assert window(handle, b"adjacent", 1, forged=(8, 9)) == (24, 6, 0)
        assert window(handle, b"honest") == (8, 2, 0)
        assert window(handle, b"honest again") == (4, 1, 0)
        assert handle.suspects == (1,)
        handle = fresh()
        # Signers 2 and 3 are reached for the first time: two keys each.
        assert window(handle, b"third", 3) == (32, 8, 4)
        assert window(handle, b"third again", 3) == (20, 5, 0)
