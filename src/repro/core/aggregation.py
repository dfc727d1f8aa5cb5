"""The aggregation-enabled threshold scheme (Appendix G of the paper).

:class:`LJYAggregateScheme` is the Section 3 scheme over the hash
``H(PK || M)``: it subclasses
:class:`~repro.core.scheme.LJYThresholdScheme` and overrides its one
hash seam, :meth:`~repro.core.scheme.LJYThresholdScheme.hashed`, so
Share-Verify, the robust Combine and the window entry points are
Section 3's own code, and a
:class:`~repro.core.scheme.ServiceHandle` serves it like any other
handle.  Differences from the Section 3 scheme:

* public parameters gain two extra G generators ``g, h``;
* during Dist-Keygen each dealer additionally broadcasts
  ``(Z_i0, R_i0) = (g^{-a_i10} h^{-a_i20}, g^{-b_i10} h^{-b_i20})`` — a
  one-time LHSPS on the vector (g, h) under its own commitment key — and
  dealers whose extra values fail the pairing sanity check are
  disqualified;
* the public key carries ``(Z, R) = (prod Z_i0, prod R_i0)``, a built-in
  proof of key sanity that Aggregate-Verify checks for every involved key
  (this replaces registered-key assumptions: the reduction can strip
  adversarial keys' contributions out of a fake aggregate);
* Share-Sign binds the public key into the hash: ``H(PK || M)``, so
  ``share_sign`` takes the public key first;
* Verify is Aggregate-Verify with l = 1: the key sanity check, then the
  Section 3 equation;
* ``Aggregate`` multiplies signatures componentwise;
  ``Aggregate-Verify`` checks one product of 2 + 2*l pairings plus l key
  sanity checks (vs 4*l pairings for l separate verifications).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.keys import (
    PartialSignature, PrivateKeyShare, Signature,
)
from repro.core.scheme import LJYThresholdScheme, partials_over
from repro.errors import CombineError, ParameterError
from repro.groups.api import BilinearGroup, GroupElement
from repro.sharing.shamir import validate_threshold


@dataclass(frozen=True)
class AggThresholdParams:
    """Section 3 params plus the extra generators (g, h)."""

    group: BilinearGroup
    t: int
    n: int
    g_z: GroupElement
    g_r: GroupElement
    g: GroupElement
    h: GroupElement
    hash_domain: str = "LJY14:agg:H"

    @classmethod
    def generate(cls, group: BilinearGroup, t: int, n: int,
                 label: str = "LJY14:agg") -> "AggThresholdParams":
        validate_threshold(t, n)
        return cls(
            group=group, t=t, n=n,
            g_z=group.derive_g2(f"{label}:g_z"),
            g_r=group.derive_g2(f"{label}:g_r"),
            g=group.derive_g1(f"{label}:g"),
            h=group.derive_g1(f"{label}:h"),
            hash_domain=f"{label}:H",
        )

    def hash_for_key(self, public_key: "AggPublicKey",
                     message: bytes) -> Tuple[GroupElement, GroupElement]:
        """``H(PK || M)`` — the key-prefixed random oracle of Appendix G."""
        key_digest = hashlib.sha256(public_key.to_bytes()).digest()
        h1, h2 = self.group.hash_to_g1_vector(
            key_digest + message, 2, self.hash_domain)
        return (h1, h2)


@dataclass(frozen=True)
class AggPublicKey:
    """``PK = (params, (g_hat_1, g_hat_2), Z, R)``."""

    params: AggThresholdParams
    g_1: GroupElement
    g_2: GroupElement
    z: GroupElement
    r: GroupElement

    def to_bytes(self) -> bytes:
        return (self.g_1.to_bytes() + self.g_2.to_bytes()
                + self.z.to_bytes() + self.r.to_bytes())

    def sanity_check(self) -> bool:
        """``e(Z, g_z) e(R, g_r) e(g, g_1) e(h, g_2) = 1`` (Appendix G)."""
        p = self.params
        return p.group.pairing_product_is_one([
            (self.z, p.g_z), (self.r, p.g_r),
            (p.g, self.g_1), (p.h, self.g_2),
        ])


class LJYAggregateScheme(LJYThresholdScheme):
    """Threshold signatures with unrestricted aggregation (Appendix G).

    Section 3 over ``H(PK || M)``: Share-Verify, the robust Combine and
    the window entry points are inherited and hash through
    :meth:`hashed`, so only the hash, the key's (Z, R), the key-first
    Share-Sign and Verify's key sanity check are defined here.
    """

    def public_key_from_master(self, a_10: int, b_10: int, a_20: int,
                               b_20: int) -> AggPublicKey:
        """Section 3's ``(g_hat_1, g_hat_2)`` plus ``(Z, R) = (g^{-a_10}
        h^{-a_20}, g^{-b_10} h^{-b_20})``, so the inherited
        :meth:`~LJYThresholdScheme.dealer_keygen` is the centralized
        analogue of the Appendix G Dist-Keygen."""
        base = super().public_key_from_master(a_10, b_10, a_20, b_20)
        p = self.params
        return AggPublicKey(
            params=p, g_1=base.g_1, g_2=base.g_2,
            z=(p.g ** (-a_10)) * (p.h ** (-a_20)),
            r=(p.g ** (-b_10)) * (p.h ** (-b_20)),
        )

    def hashed(self, public_key: AggPublicKey,
               message: bytes) -> Tuple[GroupElement, GroupElement]:
        """``H(PK || M)`` (:meth:`AggThresholdParams.hash_for_key`)."""
        return self.params.hash_for_key(public_key, message)

    # Share-Sign hashes the key, so it takes it first.
    def share_sign(self, public_key: AggPublicKey, share: PrivateKeyShare,
                   message: bytes) -> PartialSignature:
        return self.share_sign_many(public_key, [share], [message])[0][0]

    def share_sign_many(self, public_key: AggPublicKey,
                        shares: Sequence[PrivateKeyShare],
                        messages: Sequence[bytes]
                        ) -> List[List[PartialSignature]]:
        return partials_over(
            self.group,
            [self.hashed(public_key, message) for message in messages],
            shares)

    def verify(self, public_key: AggPublicKey, message: bytes,
               signature: Signature) -> bool:
        """Single-signature verification = Aggregate-Verify with l = 1:
        the key's sanity check and the Section 3 equation.  The window
        checks the robust path runs check the equation alone."""
        return self.aggregate_verify(
            [(public_key, message)], signature)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate(self, items: Sequence[Tuple[AggPublicKey, Signature,
                                              bytes]]) -> Signature:
        """Multiply verified signatures into one (Appendix G Aggregate).

        Raises :class:`ParameterError` on malformed keys and
        :class:`CombineError` if any input signature does not verify, as
        the paper's Aggregate returns bottom in those cases.
        """
        if not items:
            raise ParameterError("nothing to aggregate")
        z = r = None
        for public_key, signature, message in items:
            if not public_key.sanity_check():
                raise ParameterError("public key fails the sanity check")
            if not self.verify(public_key, message, signature):
                raise CombineError("refusing to aggregate invalid signature")
            z = signature.z if z is None else z * signature.z
            r = signature.r if r is None else r * signature.r
        return Signature(z=z, r=r)

    def aggregate_verify(self,
                         items: Sequence[Tuple[AggPublicKey, bytes]],
                         signature: Signature) -> bool:
        """One product of 2 + 2*l pairings plus l key sanity checks."""
        if not items:
            return False
        p = self.params
        pairs = [(signature.z, p.g_z), (signature.r, p.g_r)]
        for public_key, message in items:
            if not public_key.sanity_check():
                return False
            h_1, h_2 = self.hashed(public_key, message)
            pairs.append((h_1, public_key.g_1))
            pairs.append((h_2, public_key.g_2))
        return self.group.pairing_product_is_one(pairs)


# ---------------------------------------------------------------------------
# Distributed key generation (Appendix G Dist-Keygen)
# ---------------------------------------------------------------------------

from repro.dkg.dealing import DKGResult, result_keys  # noqa: E402
from repro.dkg.pedersen_dkg import (  # noqa: E402  (extends the DKG layer)
    PedersenDKGPlayer, run_pedersen_dkg,
)


class AggDKGPlayer(PedersenDKGPlayer):
    """Dist-Keygen participant that also publishes ``(Z_i0, R_i0)``.

    The extra broadcast is a one-time LHSPS on the vector (g, h) under the
    dealer's own constant-term commitments; dealers whose values fail the
    pairing check are disqualified (step 3 of the Appendix G protocol).
    The check uses only broadcast data, so all honest players apply it
    identically.
    """

    #: Set by :func:`run_agg_dkg` before the protocol starts.
    agg_params: AggThresholdParams = None

    def extra_broadcast_payload(self):
        a_10, b_10 = self.dealings[0].secret_pair
        a_20, b_20 = self.dealings[1].secret_pair
        p = self.agg_params
        z_i0 = (p.g ** (-a_10)) * (p.h ** (-a_20))
        r_i0 = (p.g ** (-b_10)) * (p.h ** (-b_20))
        return (z_i0, r_i0)

    def validate_extra(self, dealer: int, commitments, extra) -> bool:
        p = self.agg_params
        if not (isinstance(extra, (list, tuple)) and len(extra) == 2
                and all(self.group.same_group(e, p.g) for e in extra)):
            return False
        z_0, r_0 = extra
        return self.group.pairing_product_is_one([
            (z_0, self.vss.g_z), (r_0, self.vss.g_r),
            (p.g, commitments[0][0]), (p.h, commitments[1][0]),
        ])


def run_agg_dkg(params: AggThresholdParams, adversary=None, rng=None):
    """Run the Appendix G Dist-Keygen; returns (results, network)."""

    class _Player(AggDKGPlayer):
        agg_params = params

    return run_pedersen_dkg(
        params.group, params.g_z, params.g_r, params.t, params.n,
        num_pairs=2, adversary=adversary, rng=rng, player_cls=_Player)


def dkg_result_to_agg_keys(params: AggThresholdParams, result: DKGResult):
    """Assemble the Appendix G public key (with Z, R) from a DKG result."""
    z = r = None
    for dealer in result.qualified:
        extra = result.extras.get(dealer)
        if extra is None:
            raise ParameterError(
                f"qualified dealer {dealer} has no (Z_0, R_0) broadcast")
        z = extra[0] if z is None else z * extra[0]
        r = extra[1] if r is None else r * extra[1]
    g_1, g_2 = result.public_components
    share, verification_keys = result_keys(result)
    return (AggPublicKey(params=params, g_1=g_1, g_2=g_2, z=z, r=r), share,
            verification_keys)
