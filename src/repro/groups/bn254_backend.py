"""The real BN254 backend: multiplicative wrappers over the curve layer.

``BNG1``/``BNG2`` wrap :class:`~repro.curves.g1.G1Point` and
:class:`~repro.curves.g2.G2Point` (which are additive, as is customary for
elliptic-curve code) in the multiplicative interface the protocol layer
uses.  ``BNGT`` wraps the F_p12 target-group element.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.curves import bn254
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.hash_to_curve import (
    derive_generator_g1, derive_generator_g2, hash_to_g1_vector,
)
from repro.curves.pairing import (
    GTElement, gt_multi_exp, multi_pairing, prepare_g2,
)
from repro.groups.api import BilinearGroup, GroupElement
from repro.math.rng import random_scalar


class BNG1(GroupElement):
    """Element of G (the paper's first source group) on BN254."""

    __slots__ = ("point",)

    def __init__(self, point: G1Point):
        self.point = point

    def op(self, other: "BNG1") -> "BNG1":
        return BNG1(self.point + other.point)

    def exp(self, scalar: int) -> "BNG1":
        return BNG1(self.point * scalar)

    def precompute(self, window: int = 4) -> "BNG1":
        self.point.precompute(window)
        return self

    def inverse(self) -> "BNG1":
        return BNG1(-self.point)

    def is_identity(self) -> bool:
        return self.point.is_identity()

    def to_bytes(self) -> bytes:
        return self.point.to_bytes()

    def __eq__(self, other):
        return isinstance(other, BNG1) and self.point == other.point

    def __hash__(self):
        return hash(("BNG1", self.point))

    def __repr__(self):
        return f"BNG1({self.point!r})"


class BNG2(GroupElement):
    """Element of G_hat (the paper's second source group) on BN254."""

    __slots__ = ("point",)

    def __init__(self, point: G2Point):
        self.point = point

    def op(self, other: "BNG2") -> "BNG2":
        return BNG2(self.point + other.point)

    def exp(self, scalar: int) -> "BNG2":
        return BNG2(self.point * scalar)

    def precompute(self, window: int = 4) -> "BNG2":
        self.point.precompute(window)
        return self

    def inverse(self) -> "BNG2":
        return BNG2(-self.point)

    def is_identity(self) -> bool:
        return self.point.is_identity()

    def to_bytes(self) -> bytes:
        return self.point.to_bytes()

    def __eq__(self, other):
        return isinstance(other, BNG2) and self.point == other.point

    def __hash__(self):
        return hash(("BNG2", self.point))

    def __repr__(self):
        return f"BNG2({self.point!r})"


class BNGT(GroupElement):
    """Element of G_T on BN254 (order-r subgroup of F_p12*)."""

    __slots__ = ("element",)

    def __init__(self, element: GTElement):
        self.element = element

    def op(self, other: "BNGT") -> "BNGT":
        return BNGT(self.element * other.element)

    def exp(self, scalar: int) -> "BNGT":
        return BNGT(self.element ** (scalar % bn254.R))

    def precompute(self, window: int = 4) -> "BNGT":
        """Build a GT fixed-base window table (zero squarings per exp)."""
        self.element.precompute(window)
        return self

    def inverse(self) -> "BNGT":
        return BNGT(self.element.inverse())

    def is_identity(self) -> bool:
        return self.element.is_one()

    def to_bytes(self) -> bytes:
        from repro.math.tower import f12_to_wvec
        vec = f12_to_wvec(self.element.value)
        return b"".join(
            c.to_bytes(32, "big") for pair in vec for c in pair)

    def __eq__(self, other):
        return isinstance(other, BNGT) and self.element == other.element

    def __hash__(self):
        return hash(("BNGT", self.element))

    def __repr__(self):
        return f"BNGT({self.element!r})"


class BN254Group(BilinearGroup):
    """The production backend on the BN254 pairing."""

    name = "bn254"
    order = bn254.R
    symmetric = False
    g1_bytes = 32
    g2_bytes = 64
    gt_bytes = 384
    secure = True

    def g1_identity(self) -> BNG1:
        return BNG1(G1Point.identity())

    def g2_identity(self) -> BNG2:
        return BNG2(G2Point.identity())

    def gt_identity(self) -> BNGT:
        return BNGT(GTElement.one())

    def g1_generator(self) -> BNG1:
        return BNG1(G1Point.generator())

    def g2_generator(self) -> BNG2:
        return BNG2(G2Point.generator())

    def derive_g1(self, label: str) -> BNG1:
        return BNG1(derive_generator_g1(label))

    def derive_g2(self, label: str) -> BNG2:
        return BNG2(derive_generator_g2(label))

    def hash_to_g1_vector(self, data: bytes, dimension: int,
                          domain: str = "H") -> List[BNG1]:
        points = hash_to_g1_vector(data, dimension,
                                   domain=f"repro:{domain}")
        return [BNG1(point) for point in points]

    def pair(self, a: BNG1, b: BNG2) -> BNGT:
        return BNGT(multi_pairing([(a.point, b.point)]))

    def pairing_product(
            self, pairs: Iterable[Tuple[BNG1, BNG2]]) -> BNGT:
        return BNGT(multi_pairing([(a.point, b.point) for a, b in pairs]))

    def prepare_pair(self, element: BNG2) -> BNG2:
        """Cache the Miller-loop line coefficients of a fixed G_hat point
        (memoized on the underlying :class:`G2Point`)."""
        prepare_g2(element.point)
        return element

    def multi_exp(self, bases: Sequence[GroupElement],
                  scalars: Sequence[int]) -> GroupElement:
        bases, scalars = self._checked_multi_exp_args(bases, scalars)
        first = bases[0]
        if isinstance(first, BNG1):
            point_cls, wrapper = G1Point, BNG1
        elif isinstance(first, BNG2):
            point_cls, wrapper = G2Point, BNG2
        else:
            # GT product: one shared cyclotomic-squaring chain.
            return BNGT(gt_multi_exp(
                [base.element for base in bases], scalars))
        points = [base.point for base in bases]
        # Bases carrying fixed-base tables multiply faster through them
        # than through a shared doubling chain.
        if all(point._table is not None for point in points):
            result = None
            for point, scalar in zip(points, scalars):
                term = point * scalar
                result = term if result is None else result + term
            return wrapper(result)
        return wrapper(point_cls.multi_mul(points, scalars))

    def multi_exp_rows(self, bases: Sequence[GroupElement],
                       scalar_rows: Sequence[Sequence[int]]
                       ) -> List[GroupElement]:
        """G1 rows go to :func:`~repro.math.msm.multi_scalar_mul_rows` in
        one call: more rows than bases share one doubling ladder of the
        bases, fewer share one odd-multiples table per base.  The other
        groups take the per-row default."""
        bases = list(bases)
        if not all(isinstance(base, BNG1) for base in bases):
            return super().multi_exp_rows(bases, scalar_rows)
        rows = [
            self._checked_multi_exp_args(bases, row)[1]
            for row in scalar_rows
        ]
        return [BNG1(point) for point in G1Point.multi_mul_rows(
            [base.point for base in bases], rows)]

    def batch_normalize(self, elements: Sequence[GroupElement]) -> None:
        """Normalize the Jacobian representations of many source-group
        elements with one shared field inversion per group."""
        G1Point.batch_normalize(
            [e.point for e in elements if isinstance(e, BNG1)])
        G2Point.batch_normalize(
            [e.point for e in elements if isinstance(e, BNG2)])

    def random_scalar(self, rng=None) -> int:
        return random_scalar(self.order, rng)

    def g1_from_bytes(self, data: bytes) -> BNG1:
        return BNG1(G1Point.from_bytes(data))

    def g2_from_bytes(self, data: bytes) -> BNG2:
        return BNG2(G2Point.from_bytes(data))
