"""The DLIN-based threshold scheme (Appendix F of the paper).

A variant of the Section 3 construction that stays adaptively secure even
in groups with an efficiently computable isomorphism between G and G_hat,
at the cost of one extra group element per signature (768 vs 512 bits) and
a second verification equation.  Built on the SDP-based one-time LHSPS:

* params carry four G_hat generators ``(g_z, g_r, h_z, h_u)``;
* messages hash to G^3;
* each player holds three scalar triples ``(A_k(i), B_k(i), C_k(i))``;
* partial signatures are ``(z_i, r_i, u_i)`` in G^3 verified against two
  pairing-product equations;
* the public key is ``{(g_hat_k, h_hat_k)}_{k=1..3}``.

``Dist-Keygen`` (also per Appendix F) shares triples with *dual* Pedersen
commitments ``V_hat_ikl = g_z^{a} g_r^{b}`` and
``W_hat_ikl = h_z^{a} h_u^{c}``, both checked by every receiver.  It is
the dealing core of :mod:`repro.dkg.dealing` with one override: the VSS,
:class:`DualPedersenTriples`, whose commitments carry two lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.dkg.dealing import DealingPlayer, run_dealing
from repro.errors import CombineError
from repro.groups.api import BilinearGroup, GroupElement
from repro.math.lagrange import lagrange_coefficients
from repro.math.polynomial import Polynomial
from repro.sharing.pedersen_vss import failing_shares
from repro.sharing.shamir import validate_threshold

#: Number of hashed message components (vectors in G^3).
DIM = 3


@dataclass(frozen=True)
class DLINParams:
    group: BilinearGroup
    t: int
    n: int
    g_z: GroupElement
    g_r: GroupElement
    h_z: GroupElement
    h_u: GroupElement
    hash_domain: str = "LJY14:dlin:H"

    @classmethod
    def generate(cls, group: BilinearGroup, t: int, n: int,
                 label: str = "LJY14:dlin") -> "DLINParams":
        validate_threshold(t, n)
        return cls(
            group=group, t=t, n=n,
            g_z=group.derive_g2(f"{label}:g_z"),
            g_r=group.derive_g2(f"{label}:g_r"),
            h_z=group.derive_g2(f"{label}:h_z"),
            h_u=group.derive_g2(f"{label}:h_u"),
            hash_domain=f"{label}:H",
        )

    def hash_message(self, message: bytes) -> List[GroupElement]:
        return self.group.hash_to_g1_vector(message, DIM, self.hash_domain)


@dataclass(frozen=True)
class DLINPublicKey:
    """``PK = {(g_hat_k, h_hat_k)}_{k=1..3}``."""

    params: DLINParams
    g_ks: Tuple[GroupElement, ...]
    h_ks: Tuple[GroupElement, ...]

    def to_bytes(self) -> bytes:
        return b"".join(e.to_bytes() for e in (*self.g_ks, *self.h_ks))


@dataclass(frozen=True)
class DLINPrivateKeyShare:
    """``SK_i = {(A_k(i), B_k(i), C_k(i))}_{k=1..3}`` — nine scalars."""

    index: int
    triples: Tuple[Tuple[int, int, int], ...]

    def storage_bytes(self, scalar_bytes: int = 32) -> int:
        return 9 * scalar_bytes


@dataclass(frozen=True)
class DLINVerificationKey:
    """``VK_i = ({U_hat_k,i}, {Z_hat_k,i})``."""

    index: int
    u_ks: Tuple[GroupElement, ...]
    z_ks: Tuple[GroupElement, ...]


@dataclass(frozen=True)
class DLINPartialSignature:
    index: int
    z: GroupElement
    r: GroupElement
    u: GroupElement


@dataclass(frozen=True)
class DLINSignature:
    """``(z, r, u)`` in G^3 — 768 bits on BN254."""

    z: GroupElement
    r: GroupElement
    u: GroupElement

    def to_bytes(self) -> bytes:
        return self.z.to_bytes() + self.r.to_bytes() + self.u.to_bytes()

    @property
    def size_bits(self) -> int:
        return len(self.to_bytes()) * 8


class LJYDLINScheme:
    """The Appendix F construction."""

    def __init__(self, params: DLINParams):
        self.params = params
        self.group = params.group

    # ------------------------------------------------------------------
    # Key generation
    # ------------------------------------------------------------------
    def dealer_keygen(self, rng=None):
        order = self.group.order
        t, n = self.params.t, self.params.n
        polys = {
            (k, name): Polynomial.random(t, order, rng=rng)
            for k in range(1, DIM + 1) for name in ("A", "B", "C")
        }
        shares = {
            i: DLINPrivateKeyShare(
                index=i,
                triples=tuple(
                    (polys[(k, "A")](i), polys[(k, "B")](i),
                     polys[(k, "C")](i))
                    for k in range(1, DIM + 1)),
            )
            for i in range(1, n + 1)
        }
        masters = tuple(
            (polys[(k, "A")].constant_term, polys[(k, "B")].constant_term,
             polys[(k, "C")].constant_term)
            for k in range(1, DIM + 1))
        public_key = self.public_key_from_master(masters)
        verification_keys = {
            i: self.verification_key_for(shares[i]) for i in shares
        }
        return public_key, shares, verification_keys

    def public_key_from_master(self, masters) -> DLINPublicKey:
        p = self.params
        g_ks = tuple(
            (p.g_z ** a) * (p.g_r ** b) for a, b, _c in masters)
        h_ks = tuple(
            (p.h_z ** a) * (p.h_u ** c) for a, _b, c in masters)
        return DLINPublicKey(params=p, g_ks=g_ks, h_ks=h_ks)

    def verification_key_for(
            self, share: DLINPrivateKeyShare) -> DLINVerificationKey:
        p = self.params
        u_ks = tuple(
            (p.g_z ** a) * (p.g_r ** b) for a, b, _c in share.triples)
        z_ks = tuple(
            (p.h_z ** a) * (p.h_u ** c) for a, _b, c in share.triples)
        return DLINVerificationKey(index=share.index, u_ks=u_ks, z_ks=z_ks)

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------
    def share_sign(self, share: DLINPrivateKeyShare,
                   message: bytes) -> DLINPartialSignature:
        """``z_i = prod_k H_k^{-A_k(i)}``, ``r_i`` and ``u_i`` likewise
        with ``B_k``/``C_k``: three exponent rows over one hash vector."""
        (z, r, u), = self.group.multi_exp_windows(
            [self.params.hash_message(message)],
            [[-scalar for scalar in column]
             for column in zip(*share.triples)])
        return DLINPartialSignature(index=share.index, z=z, r=r, u=u)

    def share_verify(self, public_key: DLINPublicKey,
                     verification_key: DLINVerificationKey, message: bytes,
                     partial: DLINPartialSignature) -> bool:
        if partial.index != verification_key.index:
            return False
        hs = self.params.hash_message(message)
        p = self.params
        first = [(partial.z, p.g_z), (partial.r, p.g_r)]
        first += [(h_k, u_k) for h_k, u_k in zip(hs, verification_key.u_ks)]
        if not self.group.pairing_product_is_one(first):
            return False
        second = [(partial.z, p.h_z), (partial.u, p.h_u)]
        second += [(h_k, z_k) for h_k, z_k in zip(hs, verification_key.z_ks)]
        return self.group.pairing_product_is_one(second)

    def combine(self, public_key: DLINPublicKey,
                verification_keys: Mapping[int, DLINVerificationKey],
                message: bytes,
                partials: Iterable[DLINPartialSignature],
                verify_shares: bool = True) -> DLINSignature:
        t = self.params.t
        usable: Dict[int, DLINPartialSignature] = {}
        for partial in partials:
            if partial.index in usable:
                continue
            if verify_shares:
                vk = verification_keys.get(partial.index)
                if vk is None or not self.share_verify(
                        public_key, vk, message, partial):
                    continue
            usable[partial.index] = partial
            if len(usable) == t + 1:
                break
        if len(usable) < t + 1:
            raise CombineError(
                f"need {t + 1} valid partial signatures, got {len(usable)}")
        coefficients = lagrange_coefficients(usable.keys(), self.group.order)
        z = r = u = None
        for index, partial in usable.items():
            weight = coefficients[index]
            z_term = partial.z ** weight
            r_term = partial.r ** weight
            u_term = partial.u ** weight
            z = z_term if z is None else z * z_term
            r = r_term if r is None else r * r_term
            u = u_term if u is None else u * u_term
        return DLINSignature(z=z, r=r, u=u)

    def verify(self, public_key: DLINPublicKey, message: bytes,
               signature: DLINSignature) -> bool:
        hs = self.params.hash_message(message)
        p = self.params
        first = [(signature.z, p.g_z), (signature.r, p.g_r)]
        first += [(h_k, g_k) for h_k, g_k in zip(hs, public_key.g_ks)]
        if not self.group.pairing_product_is_one(first):
            return False
        second = [(signature.z, p.h_z), (signature.u, p.h_u)]
        second += [(h_k, h_hat_k) for h_k, h_hat_k
                   in zip(hs, public_key.h_ks)]
        return self.group.pairing_product_is_one(second)


# ---------------------------------------------------------------------------
# Dist-Keygen with dual commitments (Appendix F)
# ---------------------------------------------------------------------------

class DualPedersenTriples:
    """The Appendix F VSS: triples (a, b, c) under the dual commitments
    ``V_hat_l = g_z^{a_l} g_r^{b_l}`` and ``W_hat_l = h_z^{a_l} h_u^{c_l}``,
    both checked by every receiver."""

    #: Scalars per share and group elements per commitment.
    arity = 3
    lanes = 2

    def __init__(self, params: DLINParams):
        self.params = params
        self.group = params.group
        # Every commitment and every check exponentiates the generators:
        # their fixed-base tables come before the first.
        for generator in (params.g_z, params.g_r, params.h_z, params.h_u):
            generator.precompute()

    def deal(self, t: int, n: int, secret, rng) -> "DualDealing":
        p = self.params
        constants = secret or (None, None, None)
        polys = tuple(
            Polynomial.random(t, self.group.order, constant=c, rng=rng)
            for c in constants)
        a, b, c = polys
        return DualDealing(polys, [
            ((p.g_z ** a.coeffs[l]) * (p.g_r ** b.coeffs[l]),
             (p.h_z ** a.coeffs[l]) * (p.h_u ** c.coeffs[l]))
            for l in range(t + 1)])

    def failing(self, items) -> List[int]:
        """Positions of the ``(commitments, index, share)`` items failing
        equation (1) on either lane — (a, b) under the V's, (a, c) under
        the W's — one coined product per lane."""
        p = self.params
        v_lane = [([v for v, _ in commitments], index, (a, b))
                  for commitments, index, (a, b, _) in items]
        w_lane = [([w for _, w in commitments], index, (a, c))
                  for commitments, index, (a, _, c) in items]
        return sorted(
            set(failing_shares(self.group, (p.g_z, p.g_r), v_lane))
            | set(failing_shares(self.group, (p.h_z, p.h_u), w_lane)))

    def is_commitment(self, value) -> bool:
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(self.group.same_group(e, self.params.g_z)
                        for e in value))

    @staticmethod
    def lane(commitment, lane: int) -> GroupElement:
        return commitment[lane]

    @staticmethod
    def pack(values) -> tuple:
        return tuple(values)


@dataclass
class DualDealing:
    """Dealer-side state for one shared triple."""

    polys: Tuple[Polynomial, Polynomial, Polynomial]
    commitments: list

    def share_for(self, index: int) -> Tuple[int, int, int]:
        return tuple(poly(index) for poly in self.polys)


class DLINDKGPlayer(DealingPlayer):
    """Dist-Keygen participant sharing triples with dual commitments: the
    dealing core over :class:`DualPedersenTriples`, random secrets,
    weight 1 over Q.  Finalizes to ``(public_key, share, vks, Q)``."""

    def __init__(self, index: int, params: DLINParams, rng=None):
        indices = range(1, params.n + 1)
        super().__init__(index, DualPedersenTriples(params), params.t, DIM,
                         indices, indices, rng=rng)
        self.params = params

    def finalize(self):
        result = super().finalize()
        public_key = DLINPublicKey(
            params=self.params,
            g_ks=tuple(g for g, _ in result.public_components),
            h_ks=tuple(h for _, h in result.public_components))
        share = DLINPrivateKeyShare(
            index=self.index, triples=tuple(result.share_pairs))
        verification_keys = {
            j: DLINVerificationKey(
                index=j, u_ks=tuple(u for u, _ in vks),
                z_ks=tuple(z for _, z in vks))
            for j, vks in result.verification_keys.items()}
        return public_key, share, verification_keys, result.qualified


def run_dlin_dkg(params: DLINParams, adversary=None, rng=None):
    """Run the Appendix F Dist-Keygen; returns (results, network)."""
    return run_dealing({
        i: DLINDKGPlayer(i, params, rng=rng)
        for i in range(1, params.n + 1)
    }, adversary)
