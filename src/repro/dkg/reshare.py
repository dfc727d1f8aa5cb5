"""Resharing DKG: hand the *same* secret to a new committee.

Proactive refresh (:mod:`repro.dkg.refresh`) re-randomizes the sharing
polynomials but keeps the committee fixed.  Resharing changes the
committee itself — signers leave, signers join, the threshold may move
from (t, n) to (t', n') — while the shared master key, and therefore
the public key, is provably unchanged.

The protocol is the classic reshare-by-subsharing construction
(Desmedt-Jajodia; the online-membership operation Thetacrypt-style
deployments need), built from the same Pedersen VSS as Dist-Keygen:

1. **Deal.**  Each current holder P_i deals, per component k, a fresh
   degree-t' Pedersen VSS of its *own share values* ``(A_k(i), B_k(i))``
   over the new committee's indices.  The constant-term commitment of
   that dealing is ``g_z^{A_k(i)} g_r^{B_k(i)}`` — which is exactly the
   dealer's current verification-key component ``V_hat_{k,i}``.  Every
   player checks this equality against the *public* VK, so a dealer
   cannot substitute a different secret without being disqualified:
   this public binding check is what makes "the public key never
   changes" a protocol guarantee instead of an assumption.
2. **Complain / Respond.**  New-committee members verify their
   sub-shares against the broadcast commitments (paper equation (1))
   and complain; dealers answer complaints by publishing the disputed
   sub-shares, exactly as in Dist-Keygen.
3. **Finalize.**  Q = qualified dealers (binding check passed, at most
   t' unanswered complaints).  Any t+1 of them determine the secret, so
   all honest players deterministically pick ``D = sorted(Q)[:t+1]``
   and compute the Lagrange-at-zero coefficients ``lambda_i`` over D.
   New share of player j:  ``sum_{i in D} lambda_i * subshare_i(j)``.
   New VK of player j:     ``prod_{i in D} (prod_l W_hat_ikl^{j^l})^{lambda_i}``
   — publicly computable from the transcript.  The public key is
   untouched: ``prod_{i in D} V_hat_{k,i}^{lambda_i} = g_hat_k`` by
   interpolation of the old degree-t polynomials at zero.

The rounds are :class:`~repro.dkg.dealing.DealingPlayer`'s:
:class:`ResharePlayer` overrides only the secret it deals (its own
share), the public rule on the constant terms (the dealer's VK), and
the weighing (Lagrange at zero over D); its dealers are the current
holders and its receivers the new committee, whose threshold t' bounds
the complaints a dealer may draw.

Index semantics: an index identifies one participant across the
transition — a staying member keeps its index, a joiner takes an index
no current holder uses.  Old and new index sets may overlap freely
under that rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.keys import PrivateKeyShare, VerificationKey
from repro.dkg.dealing import (
    DealingPlayer, DKGResult, PedersenPairs, result_keys, run_dealing,
)
from repro.errors import ParameterError, ProtocolError
from repro.groups.api import BilinearGroup, GroupElement
from repro.math.lagrange import lagrange_coefficients
from repro.net.adversary import Adversary

#: One player's view of the reshare outcome: ``dealer_set`` holds the
#: t+1 dealers recombined, ``share_pairs`` is ``None`` for a departing
#: member, and the public components must equal the existing public key.
ReshareResult = DKGResult


class ResharePlayer(DealingPlayer):
    """A participant in the reshare: dealer (current holder), receiver
    (new-committee member), or both (staying member)."""

    def __init__(self, index: int, group: BilinearGroup,
                 g_z: GroupElement, g_r: GroupElement,
                 old_t: int, new_t: int,
                 dealer_indices: Sequence[int],
                 new_indices: Sequence[int],
                 old_vks: Dict[int, VerificationKey],
                 old_share: Optional[PrivateKeyShare] = None,
                 rng=None):
        super().__init__(index, PedersenPairs(group, g_z, g_r), new_t, 2,
                         dealer_indices, new_indices, rng=rng)
        if (index in self.dealers) != (old_share is not None):
            raise ParameterError("a dealer (and only a dealer) holds a share")
        self.old_t = old_t
        self.old_vks = old_vks
        self.old_share = old_share

    def secrets(self) -> list:
        share = self.old_share
        return [(share.a_1, share.b_1), (share.a_2, share.b_2)]

    def constant_ok(self, dealer: int, constants) -> bool:
        """The public anchor: the dealing's constant-term commitments must
        equal the dealer's current verification key, proving the subshared
        secret is the dealer's actual share — and hence that the
        recombined secret (and PK) is unchanged."""
        vk = self.old_vks.get(dealer)
        return vk is not None and constants == [vk.v_1, vk.v_2]

    def weigh(self, qualified: List[int]):
        if len(qualified) < self.old_t + 1:
            raise ProtocolError(
                "fewer than t+1 qualified dealers — the reshare cannot "
                "reconstruct the secret")
        # Any t+1 qualified dealers determine the secret; every honest
        # player must pick the same subset, so take the smallest indices.
        dealer_set = qualified[: self.old_t + 1]
        return dealer_set, lagrange_coefficients(
            dealer_set, self.group.order, x=0)


def run_reshare(group: BilinearGroup, g_z: GroupElement,
                g_r: GroupElement, old_t: int, new_t: int,
                new_indices: Sequence[int],
                shares: Dict[int, PrivateKeyShare],
                verification_keys: Dict[int, VerificationKey],
                public_key=None,
                adversary: Optional[Adversary] = None, rng=None,
                ) -> Tuple[Dict[int, PrivateKeyShare],
                           Dict[int, VerificationKey], object]:
    """Reshare the current (old_t, ·) sharing to a (new_t, n') committee.

    ``shares`` maps each participating current holder to its share (a
    crashed holder simply doesn't deal); ``new_indices`` is the new
    committee.  Returns ``(new_shares, new_vks, network)``; if
    ``public_key`` is given, the recombined public components are
    checked against it and a mismatch raises :class:`ProtocolError`.
    """
    new_indices = sorted(set(new_indices))
    if len(new_indices) < 2 * new_t + 1:
        raise ParameterError("the paper requires n >= 2t + 1")
    if any(j < 1 for j in new_indices):
        raise ParameterError("committee indices must be positive")
    if len(shares) < old_t + 1:
        raise ParameterError(
            "resharing needs at least t+1 current holders")
    missing = [i for i in shares if i not in verification_keys]
    if missing:
        raise ParameterError(
            f"no verification key for dealer(s) {missing} — the binding "
            "check needs every dealer's current VK")
    dealer_indices = sorted(shares)
    players = {
        index: ResharePlayer(
            index, group, g_z, g_r, old_t, new_t,
            dealer_indices, new_indices, verification_keys,
            old_share=shares.get(index), rng=rng)
        for index in sorted(set(dealer_indices) | set(new_indices))
    }
    results, network = run_dealing(players, adversary)
    if not results:
        raise ProtocolError("no honest player completed the reshare")
    reference = next(iter(results.values()))
    if public_key is not None and reference.public_components != [
            public_key.g_1, public_key.g_2]:
        raise ProtocolError(
            "reshare transcript does not recombine to the existing "
            "public key")
    new_shares = {}
    for index, result in results.items():
        share, _ = result_keys(result)
        if share is not None:
            new_shares[index] = share
    return new_shares, result_keys(reference)[1], network
