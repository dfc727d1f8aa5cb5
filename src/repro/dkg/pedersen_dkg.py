"""Pedersen's distributed key generation — the paper's Dist-Keygen.

Protocol (Section 3.1), for each player P_i and each component k:

1. **Deal.** P_i picks degree-t polynomials A_ik[X], B_ik[X], broadcasts
   the Pedersen commitments ``W_hat_ikl = g_z^{a_ikl} g_r^{b_ikl}`` and
   privately sends ``(A_ik(j), B_ik(j))`` to every P_j.
2. **Complain.** P_i checks every received share against equation (1) and
   broadcasts a complaint for each faulty dealer.
3. **Respond.** A dealer with more than t complaints is disqualified.  A
   dealer with 1..t complaints must broadcast the complained-about shares;
   if a published share fails equation (1) the dealer is disqualified.
4. **Finalize.** Q = non-disqualified players.  The public key components
   are ``g_hat_k = prod_{i in Q} W_hat_ik0``; player j's private share is
   the sum of the qualified dealers' shares; every VK_j is publicly
   computable from the broadcast commitments.

In the optimistic case rounds 2 and 3 carry no messages, so the protocol
uses **one communication round**, which is the paper's headline DKG claim.

The rounds are :class:`~repro.dkg.dealing.DealingPlayer`'s; this player
deals random pairs to and from all n players and weighs every qualified
dealer 1.  It is generic over the number of shared pairs (``num_pairs =
2`` for the Section 3 scheme, ``1`` for Section 4).  Its broadcast
carries an ``"extra"`` field, which the aggregation variant (Appendix
G) fills with its ``(Z_i0, R_i0)`` elements and checks with its extra
disqualification rule; refresh (:mod:`repro.dkg.refresh`) is a subclass
dealing (0, 0).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.keys import PublicKey
from repro.dkg.dealing import (
    DealingPlayer, DKGResult, PedersenPairs, result_keys, run_dealing,
)
from repro.errors import ParameterError
from repro.groups.api import BilinearGroup, GroupElement
from repro.net.adversary import Adversary


class PedersenDKGPlayer(DealingPlayer):
    """An honest Dist-Keygen participant.

    The n players carry ``indices`` (1..n unless a committee was
    renumbered — a refresh after a reshare to, say, indices 2..6); each
    deals to and receives from all of them.
    """

    def __init__(self, index: int, group: BilinearGroup,
                 g_z: GroupElement, g_r: GroupElement, t: int, n: int,
                 num_pairs: int = 2, rng=None,
                 indices: Optional[Sequence[int]] = None):
        indices = list(range(1, n + 1) if indices is None else indices)
        if len(indices) != n:
            raise ParameterError("need exactly n player indices")
        super().__init__(index, PedersenPairs(group, g_z, g_r), t,
                         num_pairs, indices, indices, rng=rng)

    def dealing_payload(self, commitments) -> dict:
        return {"commitments": commitments,
                "extra": self.extra_broadcast_payload()}

    def extra_broadcast_payload(self):
        """Extra data to broadcast with the dealing (None by default)."""
        return None


def run_pedersen_dkg(group: BilinearGroup, g_z: GroupElement,
                     g_r: GroupElement, t: int, n: int,
                     num_pairs: int = 2,
                     adversary: Optional[Adversary] = None,
                     rng=None, player_cls=PedersenDKGPlayer,
                     indices: Optional[Sequence[int]] = None):
    """Run the full Dist-Keygen; returns (results_by_player, network).

    ``results_by_player`` maps each *honest* player index to its
    :class:`DKGResult`.  The network object carries the communication
    metrics used by experiment T4.  The n players carry ``indices``
    (1..n by default), and shares and verification keys are dealt to
    exactly those.
    """
    indices = list(range(1, n + 1) if indices is None else indices)
    players = {
        i: player_cls(i, group, g_z, g_r, t, n, num_pairs=num_pairs,
                      rng=rng, indices=indices)
        for i in indices
    }
    return run_dealing(players, adversary)


def dkg_result_to_keys(scheme, result: DKGResult):
    """Convert a 2-pair DKG result into the Section 3 scheme's key types."""
    share, verification_keys = result_keys(result)
    g_1, g_2 = result.public_components
    return (PublicKey(params=scheme.params, g_1=g_1, g_2=g_2), share,
            verification_keys)
