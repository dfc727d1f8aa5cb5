"""Proactive refresh (Section 3.3) and share recovery tests."""

import random

import pytest

from repro.core.keys import ThresholdParams
from repro.core.scheme import (
    LJYThresholdScheme, ServiceHandle, reconstruct_master_key,
)
from repro.dkg.refresh import recover_share, run_refresh
from repro.errors import ParameterError


@pytest.fixture
def deployed(toy_group, rng):
    params = ThresholdParams.generate(toy_group, t=2, n=5)
    scheme = LJYThresholdScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=rng)
    return scheme, pk, shares, vks


class TestRefresh:
    def test_public_key_unchanged(self, deployed, toy_group, rng):
        scheme, pk, shares, vks = deployed
        p = scheme.params
        new_shares, new_vks, _ = run_refresh(
            toy_group, p.g_z, p.g_r, p.t, p.n, shares, vks, rng=rng)
        message = b"epoch-2 message"
        partials = [scheme.share_sign(new_shares[i], message)
                    for i in (1, 2, 3)]
        signature = scheme.combine(pk, new_vks, message, partials)
        assert scheme.verify(pk, message, signature)

    def test_master_key_preserved(self, deployed, toy_group, rng):
        scheme, pk, shares, vks = deployed
        p = scheme.params
        before = reconstruct_master_key(
            list(shares.values()), toy_group.order, p.t)
        new_shares, _, _ = run_refresh(
            toy_group, p.g_z, p.g_r, p.t, p.n, shares, vks, rng=rng)
        after = reconstruct_master_key(
            list(new_shares.values()), toy_group.order, p.t)
        assert before == after

    def test_shares_actually_change(self, deployed, toy_group, rng):
        scheme, pk, shares, vks = deployed
        p = scheme.params
        new_shares, _, _ = run_refresh(
            toy_group, p.g_z, p.g_r, p.t, p.n, shares, vks, rng=rng)
        assert all(new_shares[i] != shares[i] for i in shares)

    def test_old_share_fails_new_vk(self, deployed, toy_group, rng):
        scheme, pk, shares, vks = deployed
        p = scheme.params
        _new_shares, new_vks, _ = run_refresh(
            toy_group, p.g_z, p.g_r, p.t, p.n, shares, vks, rng=rng)
        stale = scheme.share_sign(shares[1], b"m")
        assert not scheme.share_verify(pk, new_vks[1], b"m", stale)

    def test_mobile_adversary_cross_epoch_shares_useless(
            self, deployed, toy_group, rng):
        """t shares from epoch 1 plus t from epoch 2 never exceed the
        threshold in any single epoch, so the master key stays hidden."""
        scheme, pk, shares, vks = deployed
        p = scheme.params
        new_shares, _, _ = run_refresh(
            toy_group, p.g_z, p.g_r, p.t, p.n, shares, vks, rng=rng)
        # Mix t old shares and one new share: interpolation must NOT give
        # the master key.
        mixed = [shares[1], shares[2], new_shares[3]]
        recovered = reconstruct_master_key(mixed, toy_group.order, p.t)
        true_key = reconstruct_master_key(
            list(shares.values()), toy_group.order, p.t)
        assert recovered != true_key

    def test_multiple_epochs(self, deployed, toy_group, rng):
        scheme, pk, shares, vks = deployed
        p = scheme.params
        current_shares, current_vks = shares, vks
        for _epoch in range(3):
            current_shares, current_vks, _ = run_refresh(
                toy_group, p.g_z, p.g_r, p.t, p.n,
                current_shares, current_vks, rng=rng)
        message = b"after three refreshes"
        partials = [scheme.share_sign(current_shares[i], message)
                    for i in (3, 4, 5)]
        signature = scheme.combine(pk, current_vks, message, partials)
        assert scheme.verify(pk, message, signature)


class TestShareRecovery:
    def test_recovered_share_matches(self, deployed, toy_group):
        scheme, pk, shares, vks = deployed
        helpers = {i: shares[i] for i in (2, 3, 4)}
        recovered = recover_share(scheme, index=1, helper_shares=helpers)
        assert recovered == shares[1].reduce(toy_group.order)

    def test_recovered_share_signs(self, deployed):
        scheme, pk, shares, vks = deployed
        helpers = {i: shares[i] for i in (2, 4, 5)}
        recovered = recover_share(scheme, index=3, helper_shares=helpers)
        partial = scheme.share_sign(recovered, b"m")
        assert scheme.share_verify(pk, vks[3], b"m", partial)


class TestServicePathRecovery:
    """``recover_share`` reached through the ``ServiceHandle`` lifecycle
    (the path the live service's ``retire_signer``/``recover_signer``
    take): drop a crashed holder, re-derive its share from the
    survivors, and have the recovered player sign again."""

    @pytest.fixture
    def handle(self, toy_group):
        return ServiceHandle.dealer(toy_group, 2, 5,
                                    rng=random.Random(17))

    def test_without_then_with_recovered_round_trip(self, handle):
        retired = handle.without_signer(4)
        assert 4 not in retired.shares
        assert 4 in retired.verification_keys  # kept for recovery
        assert retired.epoch == 1
        recovered = retired.with_recovered(4)
        assert recovered.epoch == 2
        # Lagrange interpolation at the victim's index reproduces the
        # exact share the dealer handed out.
        assert recovered.shares[4] == handle.shares[4].reduce(
            handle.scheme.group.order)

    def test_recovered_player_signs_in_next_window(self, handle):
        recovered = handle.without_signer(2).with_recovered(2)
        message = b"recovered window"
        # The recovered share is refreshed with the rest and still signs.
        for successor in (recovered, recovered.refreshed(
                rng=random.Random(19))):
            signatures = successor.sign_window(
                [message], signers=(1, 2, 3), rng=random.Random(18))
            assert successor.verify(message, signatures[0])
            # Byte-identical to the pre-crash service's signature: the
            # recovered share is the original share, and a refresh
            # keeps the key.
            assert signatures[0].to_bytes() == \
                handle.sign(message).to_bytes()

    def test_retire_below_quorum_refused(self, handle):
        shrunk = handle.without_signer(1).without_signer(2)
        # 3 holders left == t+1: dropping another would make recovery
        # (and signing) impossible, so the lifecycle refuses.
        with pytest.raises(ParameterError):
            shrunk.without_signer(3)

    def test_recover_requires_missing_share_and_present_vk(self, handle):
        with pytest.raises(ParameterError):
            handle.without_signer(42)  # never a member
        with pytest.raises(ParameterError):
            handle.with_recovered(3)  # share still present
        with pytest.raises(ParameterError):
            handle.without_signer(3).with_recovered(9)  # never a member
