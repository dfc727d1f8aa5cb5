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
``W_hat_ikl = h_z^{a} h_u^{c}``, both checked by every receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CombineError, ParameterError, ProtocolError
from repro.groups.api import BilinearGroup, GroupElement
from repro.math.lagrange import lagrange_coefficients
from repro.math.polynomial import Polynomial
from repro.net.player import Player
from repro.net.simulator import Message, SyncNetwork, broadcast, private
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
        z, r, u = self.group.multi_exp_rows(
            self.params.hash_message(message),
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

class DLINDKGPlayer(Player):
    """Dist-Keygen participant sharing triples with dual commitments."""

    def __init__(self, index: int, params: DLINParams, rng=None):
        super().__init__(index)
        if params.n < 2 * params.t + 1:
            raise ParameterError("the paper requires n >= 2t + 1")
        self.params = params
        self.group = params.group
        self.rng = rng
        # Sharing polynomials: per k, three degree-t polynomials.
        self.polys: List[Tuple[Polynomial, Polynomial, Polynomial]] = []
        self.received_commitments: Dict[int, list] = {}
        self.received_shares: Dict[int, list] = {}
        self.complaints_against: Dict[int, set] = {}
        self._result = None

    def _deal(self) -> List[Message]:
        order = self.group.order
        t, n = self.params.t, self.params.n
        p = self.params
        commitments = []
        for _k in range(DIM):
            a = Polynomial.random(t, order, rng=self.rng)
            b = Polynomial.random(t, order, rng=self.rng)
            c = Polynomial.random(t, order, rng=self.rng)
            self.polys.append((a, b, c))
            commitments.append([
                ((p.g_z ** a.coeffs[l]) * (p.g_r ** b.coeffs[l]),
                 (p.h_z ** a.coeffs[l]) * (p.h_u ** c.coeffs[l]))
                for l in range(t + 1)
            ])
        outbound = [broadcast(self.index, "commitments",
                              {"commitments": commitments})]
        for j in range(1, n + 1):
            if j != self.index:
                outbound.append(private(
                    self.index, j, "shares",
                    [(a(j), b(j), c(j)) for a, b, c in self.polys]))
        self.received_commitments[self.index] = commitments
        self.received_shares[self.index] = [
            (a(self.index), b(self.index), c(self.index))
            for a, b, c in self.polys]
        return outbound

    def _share_ok(self, dealer: int) -> bool:
        commitments = self.received_commitments.get(dealer)
        shares = self.received_shares.get(dealer)
        if commitments is None or shares is None:
            return False
        p = self.params
        for k in range(DIM):
            a, b, c = shares[k]
            expected_v = (p.g_z ** a) * (p.g_r ** b)
            expected_w = (p.h_z ** a) * (p.h_u ** c)
            prod_v = prod_w = None
            power = 1
            for v_l, w_l in commitments[k]:
                term_v = v_l ** power
                term_w = w_l ** power
                prod_v = term_v if prod_v is None else prod_v * term_v
                prod_w = term_w if prod_w is None else prod_w * term_w
                power = power * self.index % self.group.order
            if expected_v != prod_v or expected_w != prod_w:
                return False
        return True

    def on_round(self, round_no: int,
                 inbox: Sequence[Message]) -> List[Message]:
        if round_no == 0:
            return self._deal()
        if round_no == 1:
            for message in inbox:
                if message.kind == "commitments":
                    commitments = message.payload["commitments"]
                    if (len(commitments) == DIM and all(
                            len(c) == self.params.t + 1
                            for c in commitments)):
                        self.received_commitments[message.sender] = (
                            commitments)
                elif (message.kind == "shares"
                      and message.recipient == self.index):
                    shares = message.payload
                    if len(shares) == DIM:
                        self.received_shares[message.sender] = [
                            tuple(int(x) for x in triple)
                            for triple in shares]
            outbound = []
            for dealer in range(1, self.params.n + 1):
                if dealer != self.index and not self._share_ok(dealer):
                    outbound.append(broadcast(
                        self.index, "complaint", {"accused": dealer}))
            return outbound
        if round_no == 2:
            for message in inbox:
                if message.kind == "complaint":
                    accused = message.payload.get("accused")
                    if isinstance(accused, int):
                        self.complaints_against.setdefault(
                            accused, set()).add(message.sender)
            complainers = self.complaints_against.get(self.index, set())
            return [
                broadcast(self.index, "response", {
                    "complainer": complainer,
                    "shares": [
                        (a(complainer), b(complainer), c(complainer))
                        for a, b, c in self.polys],
                })
                for complainer in sorted(complainers)
            ]
        return []

    def finalize(self):
        if self._result is not None:
            return self._result
        # Adopt valid responses, decide the qualified set.
        responses: Dict[int, Dict[int, list]] = {}
        for round_messages in self.history:
            for message in round_messages:
                if message.kind != "response":
                    continue
                payload = message.payload
                responses.setdefault(message.sender, {})[
                    payload["complainer"]] = [
                        tuple(int(x) for x in triple)
                        for triple in payload["shares"]]
        qualified = []
        for dealer in range(1, self.params.n + 1):
            if dealer not in self.received_commitments:
                continue
            complainers = self.complaints_against.get(dealer, set())
            if len(complainers) > self.params.t:
                continue
            ok = True
            for complainer in complainers:
                published = responses.get(dealer, {}).get(complainer)
                if published is None or not self._published_ok(
                        dealer, complainer, published):
                    ok = False
                    break
                if complainer == self.index:
                    self.received_shares[dealer] = published
            if ok:
                qualified.append(dealer)
        order = self.group.order
        triples = tuple(
            (
                sum(self.received_shares[j][k][0] for j in qualified) % order,
                sum(self.received_shares[j][k][1] for j in qualified) % order,
                sum(self.received_shares[j][k][2] for j in qualified) % order,
            )
            for k in range(DIM))
        g_ks = []
        h_ks = []
        for k in range(DIM):
            v = w = None
            for j in qualified:
                v_0, w_0 = self.received_commitments[j][k][0]
                v = v_0 if v is None else v * v_0
                w = w_0 if w is None else w * w_0
            g_ks.append(v)
            h_ks.append(w)
        public_key = DLINPublicKey(
            params=self.params, g_ks=tuple(g_ks), h_ks=tuple(h_ks))
        share = DLINPrivateKeyShare(index=self.index, triples=triples)
        verification_keys = {}
        for j in range(1, self.params.n + 1):
            u_ks = []
            z_ks = []
            for k in range(DIM):
                prod_v = prod_w = None
                for dealer in qualified:
                    power = 1
                    acc_v = acc_w = None
                    for v_l, w_l in self.received_commitments[dealer][k]:
                        term_v = v_l ** power
                        term_w = w_l ** power
                        acc_v = term_v if acc_v is None else acc_v * term_v
                        acc_w = term_w if acc_w is None else acc_w * term_w
                        power = power * j % order
                    prod_v = acc_v if prod_v is None else prod_v * acc_v
                    prod_w = acc_w if prod_w is None else prod_w * acc_w
                u_ks.append(prod_v)
                z_ks.append(prod_w)
            verification_keys[j] = DLINVerificationKey(
                index=j, u_ks=tuple(u_ks), z_ks=tuple(z_ks))
        self._result = (public_key, share, verification_keys,
                        sorted(qualified))
        return self._result

    def _published_ok(self, dealer: int, complainer: int,
                      published: list) -> bool:
        p = self.params
        commitments = self.received_commitments[dealer]
        for k in range(DIM):
            a, b, c = published[k]
            expected_v = (p.g_z ** a) * (p.g_r ** b)
            expected_w = (p.h_z ** a) * (p.h_u ** c)
            prod_v = prod_w = None
            power = 1
            for v_l, w_l in commitments[k]:
                term_v = v_l ** power
                term_w = w_l ** power
                prod_v = term_v if prod_v is None else prod_v * term_v
                prod_w = term_w if prod_w is None else prod_w * term_w
                power = power * complainer % self.group.order
            if expected_v != prod_v or expected_w != prod_w:
                return False
        return True


def run_dlin_dkg(params: DLINParams, adversary=None, rng=None):
    """Run the Appendix F Dist-Keygen; returns (results, network)."""
    players = {
        i: DLINDKGPlayer(i, params, rng=rng)
        for i in range(1, params.n + 1)
    }
    network = SyncNetwork(players, adversary=adversary)
    results = network.run(3)
    honest = list(results.values())
    if honest:
        reference_pk = honest[0][0]
        for result in honest[1:]:
            if result[0].to_bytes() != reference_pk.to_bytes():
                raise ProtocolError("honest players disagree on the PK")
    return results, network
