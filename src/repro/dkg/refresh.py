"""Proactive share refresh (Section 3.3 of the paper).

At the start of each period, all players run a new instance of Pedersen's
DKG in which every dealer shares the pair ``(0, 0)`` per component — the
constant-term commitment ``W_hat_ik0`` must equal the identity, a public
check.  Each player adds the resulting "share of zero" to its current
share; the shared secret (and hence PK) is unchanged while the sharing
polynomials are re-randomized, so shares captured by a mobile adversary in
a previous period become useless.  Verification keys are updated by
multiplying in the refresh transcript's VK components.

:class:`RefreshPlayer` is a Dist-Keygen player that overrides only the
secret it deals and the public rule on its constant terms.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.keys import PrivateKeyShare, VerificationKey
from repro.dkg.dealing import result_keys
from repro.dkg.pedersen_dkg import PedersenDKGPlayer, run_pedersen_dkg
from repro.errors import ProtocolError
from repro.groups.api import BilinearGroup, GroupElement
from repro.net.adversary import Adversary


class RefreshPlayer(PedersenDKGPlayer):
    """A Dist-Keygen player sharing (0, 0), publicly checkable as
    ``W_hat_ik0 == 1`` so all honest players exclude a dealer alike."""

    def secrets(self) -> list:
        return [(0, 0)] * self.num_secrets

    def constant_ok(self, dealer: int, constants) -> bool:
        return all(constant.is_identity() for constant in constants)


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
        group, g_z, g_r, t, n, adversary=adversary, rng=rng,
        player_cls=RefreshPlayer, indices=sorted(verification_keys))
    held = [result for index, result in results.items() if index in shares]
    if not held:
        raise ProtocolError("no honest player completed the refresh")
    new_shares = {}
    for result in held:
        delta, _ = result_keys(result)
        new_shares[result.index] = (
            shares[result.index] + delta).reduce(group.order)
    _, delta_vks = result_keys(held[0])
    new_vks = {
        j: VerificationKey(index=j, v_1=old_vk.v_1 * delta_vks[j].v_1,
                           v_2=old_vk.v_2 * delta_vks[j].v_2)
        for j, old_vk in verification_keys.items()}
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
    from repro.core.scheme import interpolate_key
    return PrivateKeyShare(index, *interpolate_key(
        list(helper_shares.values()), scheme.group.order, scheme.params.t,
        x=index))
