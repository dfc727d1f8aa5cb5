"""Discrete-log ("toy") bilinear backend for fast protocol testing.

Elements of G, G_hat and G_T are represented by their discrete logarithms
relative to nominal generators, i.e. plain integers modulo the BN254 group
order.  The pairing multiplies exponents:

    e(g^a, g_hat^b) = gt^(a*b)

Every algebraic identity the schemes rely on — bilinearity, key
homomorphism, Lagrange interpolation in the exponent, Groth-Sahai
commitment algebra — holds exactly, so protocol logic exercised on this
backend behaves identically to BN254 while running orders of magnitude
faster.

**This backend provides no security.** Discrete logarithms are stored in
the clear; an adversary with access to backend internals can forge
anything.  The security-game tests that run on it only drive adversaries
through the public scheme API.  ``secure = False`` lets callers refuse it.

The ``symmetric=True`` variant identifies G and G_hat (a Type-1 pairing),
which Appendix D.2 of the paper requires and which no BN curve offers.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.curves import bn254
from repro.groups.api import BilinearGroup, GroupElement
from repro.math.rng import hash_to_int, random_scalar

_ORDER = bn254.R


class ToyElement(GroupElement):
    """A group element represented by its discrete log (an int mod r)."""

    __slots__ = ("log", "tag")

    def __init__(self, log: int, tag: str):
        self.log = log % _ORDER
        self.tag = tag

    def op(self, other: "ToyElement") -> "ToyElement":
        if self.tag != other.tag:
            raise TypeError(
                f"cannot combine {self.tag} element with {other.tag}")
        return ToyElement(self.log + other.log, self.tag)

    def exp(self, scalar: int) -> "ToyElement":
        return ToyElement(self.log * (scalar % _ORDER), self.tag)

    def inverse(self) -> "ToyElement":
        return ToyElement(-self.log, self.tag)

    def is_identity(self) -> bool:
        return self.log == 0

    def to_bytes(self) -> bytes:
        sizes = {"G1": 32, "G2": 64, "GT": 384}
        return self.log.to_bytes(sizes[self.tag], "big")

    def __eq__(self, other):
        return (isinstance(other, ToyElement) and self.tag == other.tag
                and self.log == other.log)

    def __hash__(self):
        return hash(("toy", self.tag, self.log))

    def __repr__(self):
        return f"ToyElement({self.tag}, log={self.log})"


class ToyGroup(BilinearGroup):
    """The fast, insecure, algebra-identical test backend."""

    order = _ORDER
    g1_bytes = 32
    g2_bytes = 64
    gt_bytes = 384
    secure = False

    def __init__(self, symmetric: bool = False):
        self.symmetric = symmetric
        self.name = "toy-symmetric" if symmetric else "toy"
        self._g2_tag = "G1" if symmetric else "G2"

    def g1_identity(self) -> ToyElement:
        return ToyElement(0, "G1")

    def g2_identity(self) -> ToyElement:
        return ToyElement(0, self._g2_tag)

    def gt_identity(self) -> ToyElement:
        return ToyElement(0, "GT")

    def g1_generator(self) -> ToyElement:
        return ToyElement(1, "G1")

    def g2_generator(self) -> ToyElement:
        return ToyElement(1, self._g2_tag)

    def derive_g1(self, label: str) -> ToyElement:
        log = hash_to_int("toy:derive:G1", label.encode(), _ORDER)
        return ToyElement(log or 1, "G1")

    def derive_g2(self, label: str) -> ToyElement:
        log = hash_to_int("toy:derive:G2", label.encode(), _ORDER)
        return ToyElement(log or 1, self._g2_tag)

    def hash_to_g1_vector(self, data: bytes, dimension: int,
                          domain: str = "H") -> List[ToyElement]:
        return [
            ToyElement(
                hash_to_int(f"toy:{domain}:{k}", data, _ORDER), "G1")
            for k in range(dimension)
        ]

    def pair(self, a: ToyElement, b: ToyElement) -> ToyElement:
        if a.tag != "G1" or b.tag != self._g2_tag:
            raise TypeError("pairing expects (G1, G2) arguments")
        return ToyElement(a.log * b.log, "GT")

    def pairing_product(
            self, pairs: Iterable[Tuple[ToyElement, ToyElement]]
    ) -> ToyElement:
        total = 0
        for a, b in pairs:
            if a.tag != "G1" or b.tag != self._g2_tag:
                raise TypeError("pairing expects (G1, G2) arguments")
            total = (total + a.log * b.log) % _ORDER
        return ToyElement(total, "GT")

    def same_group(self, element, reference: ToyElement) -> bool:
        return (isinstance(element, ToyElement)
                and element.tag == reference.tag)

    def multi_exp(self, bases: Sequence[ToyElement],
                  scalars: Sequence[int],
                  scope: Optional[dict] = None) -> ToyElement:
        # Covers all three groups (G, G_hat and G_T): discrete logs make a
        # multi-exponentiation a dot product, so the toy backend exposes
        # the same GT multi_exp interface as BN254 for free; there are
        # no tables, so ``scope`` is ignored.
        bases, scalars = self._checked_multi_exp_args(bases, scalars)
        tag = bases[0].tag
        total = 0
        for base, scalar in zip(bases, scalars):
            if base.tag != tag:
                raise TypeError(
                    f"cannot combine {tag} element with {base.tag}")
            total += base.log * scalar
        return ToyElement(total, tag)

    def random_scalar(self, rng=None) -> int:
        return random_scalar(_ORDER, rng)

    def g1_from_bytes(self, data: bytes) -> ToyElement:
        return ToyElement(int.from_bytes(data, "big"), "G1")

    def g2_from_bytes(self, data: bytes) -> ToyElement:
        return ToyElement(int.from_bytes(data, "big"), self._g2_tag)
