"""Proactive share refresh (Section 3.3 of the paper).

At the start of each period, all players run a new instance of Pedersen's
DKG in which every dealer shares the pair ``(0, 0)`` per component — the
constant-term commitment ``W_hat_ik0`` must equal the identity, a public
check.  Each player adds the resulting "share of zero" to its current
share; the shared secret (and hence PK) is unchanged while the sharing
polynomials are re-randomized, so shares captured by a mobile adversary in
a previous period become useless.  Verification keys are updated by
multiplying in the refresh transcript's VK components.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.keys import PrivateKeyShare, VerificationKey
from repro.dkg.pedersen_dkg import run_pedersen_dkg
from repro.errors import ProtocolError
from repro.groups.api import BilinearGroup, GroupElement
from repro.net.adversary import Adversary


def run_refresh(group: BilinearGroup, g_z: GroupElement, g_r: GroupElement,
                t: int, n: int,
                shares: Dict[int, PrivateKeyShare],
                verification_keys: Dict[int, VerificationKey],
                adversary: Optional[Adversary] = None, rng=None,
                ) -> Tuple[Dict[int, PrivateKeyShare],
                           Dict[int, VerificationKey], object]:
    """One refresh period: returns (new_shares, new_vks, network).

    ``shares`` maps honest player indices to their current shares; players
    missing from the map (e.g. previously crashed ones) are skipped — the
    share-recovery procedure of Herzberg et al. is a separate concern
    handled by :func:`recover_share`.  The zero-sharing runs over the
    committee's own indices, the keys of ``verification_keys`` — 1..n
    after a dealer keygen, whatever a reshare renumbered them to after
    one.
    """
    results, network = run_pedersen_dkg(
        group, g_z, g_r, t, n, num_pairs=2, adversary=adversary,
        fixed_secrets=[(0, 0), (0, 0)], require_zero_constant=True, rng=rng,
        indices=sorted(verification_keys))
    new_shares: Dict[int, PrivateKeyShare] = {}
    new_vks: Dict[int, VerificationKey] = {}
    reference = None
    for index, result in results.items():
        if index not in shares:
            continue
        delta = PrivateKeyShare(
            index=index,
            a_1=result.share_pairs[0][0], b_1=result.share_pairs[0][1],
            a_2=result.share_pairs[1][0], b_2=result.share_pairs[1][1],
        )
        new_shares[index] = (shares[index] + delta).reduce(group.order)
        reference = result if reference is None else reference
    if reference is None:
        raise ProtocolError("no honest player completed the refresh")
    for j, old_vk in verification_keys.items():
        delta_vks = reference.verification_keys[j]
        new_vks[j] = VerificationKey(
            index=j,
            v_1=old_vk.v_1 * delta_vks[0],
            v_2=old_vk.v_2 * delta_vks[1],
        )
    return new_shares, new_vks, network


def recover_share(scheme, index: int,
                  helper_shares: Dict[int, PrivateKeyShare]
                  ) -> PrivateKeyShare:
    """Restore a lost/corrupted share from t+1 helpers (Herzberg et al.).

    The paper points to [46, Section 4] for detecting and restoring
    corrupted shares.  We implement the direct variant: t+1 helpers
    interpolate the four sharing polynomials *at the victim's index* — not
    at 0 — so the master key is never reconstructed anywhere.  (In a real
    deployment the helpers would use blinded sub-sharings; the interpolation
    arithmetic is identical.)
    """
    from repro.math.lagrange import lagrange_coefficients
    order = scheme.group.order
    helpers = list(helper_shares.values())[: scheme.params.t + 1]
    coefficients = lagrange_coefficients(
        [s.index for s in helpers], order, x=index)
    totals = [0, 0, 0, 0]
    for share in helpers:
        weight = coefficients[share.index]
        totals[0] = (totals[0] + weight * share.a_1) % order
        totals[1] = (totals[1] + weight * share.b_1) % order
        totals[2] = (totals[2] + weight * share.a_2) % order
        totals[3] = (totals[3] + weight * share.b_2) % order
    return PrivateKeyShare(index, *totals)
