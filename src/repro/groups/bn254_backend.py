"""The real BN254 backend: multiplicative wrappers over the curve layer.

``BNG1``/``BNG2`` are two empty subclasses of one :class:`BNPoint`, which
wraps a :class:`~repro.curves.point.CurvePoint` (``G1Point`` or
``G2Point``: additive, as is customary for elliptic-curve code) in the
multiplicative interface the protocol layer uses.  ``BNGT`` wraps the
F_p12 target-group element.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.curves import bn254
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.hash_to_curve import (
    derive_generator_g1, derive_generator_g2, hash_to_g1_vector,
)
from repro.curves.pairing import GTElement, multi_pairing, prepare_g2
from repro.curves.point import CurvePoint
from repro.groups.api import BilinearGroup, GroupElement
from repro.math.rng import random_scalar


class BNPoint(GroupElement):
    """Element of a BN254 source group: a multiplicative wrapper over a
    :class:`~repro.curves.point.CurvePoint`.  The subclasses ``BNG1``
    and ``BNG2`` only name the group."""

    __slots__ = ("point",)

    def __init__(self, point: CurvePoint):
        self.point = point

    def op(self, other: "BNPoint") -> "BNPoint":
        return type(self)(self.point + other.point)

    def exp(self, scalar: int) -> "BNPoint":
        return type(self)(self.point * scalar)

    def precompute(self) -> "BNPoint":
        self.point.precompute()
        return self

    def inverse(self) -> "BNPoint":
        return type(self)(-self.point)

    def is_identity(self) -> bool:
        return self.point.is_identity()

    def to_bytes(self) -> bytes:
        return self.point.to_bytes()

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.point == other.point

    def __hash__(self):
        return hash((type(self).__name__, self.point))

    def __repr__(self):
        return f"{type(self).__name__}({self.point!r})"


class BNG1(BNPoint):
    """Element of G (the paper's first source group) on BN254."""

    __slots__ = ()


class BNG2(BNPoint):
    """Element of G_hat (the paper's second source group) on BN254."""

    __slots__ = ()


class BNGT(GroupElement):
    """Element of G_T on BN254 (order-r subgroup of F_p12*)."""

    __slots__ = ("element",)

    def __init__(self, element: GTElement):
        self.element = element

    def op(self, other: "BNGT") -> "BNGT":
        return BNGT(self.element * other.element)

    def exp(self, scalar: int) -> "BNGT":
        return BNGT(self.element ** (scalar % bn254.R))

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
                  scalars: Sequence[int],
                  scope: Optional[dict] = None) -> GroupElement:
        """Source-group products run the lane kernel, whose odd-multiples
        tables go into ``scope`` when one is given and are taken from it
        in later calls; G_T takes the default fold."""
        bases, scalars = self._checked_multi_exp_args(bases, scalars)
        wrapper = type(bases[0])
        if wrapper is BNGT:
            return super().multi_exp(bases, scalars)
        points = [base.point for base in bases]
        # Bases carrying fixed-base tables multiply faster through them
        # than through a shared doubling chain.
        if all(point._table is not None for point in points):
            result = None
            for point, scalar in zip(points, scalars):
                term = point * scalar
                result = term if result is None else result + term
            return wrapper(result)
        return wrapper(type(points[0]).multi_mul(points, scalars, scope))

    def multi_exp_windows(self, base_sets: Sequence[Sequence[GroupElement]],
                          scalar_rows: Sequence[Sequence[int]],
                          scope: Optional[dict] = None
                          ) -> List[List[GroupElement]]:
        """Source-group sets go to
        :func:`~repro.math.msm.multi_scalar_mul_windows` in one call
        through their points' class: on G1, more rows than bases share
        one doubling ladder per base and one recoding of the rows for all
        sets; fewer (and every G2 shape) share one odd-multiples table
        per base, kept in ``scope`` when one is given, and on G1 each
        bit's entries over all sets and rows are summed in shared affine
        passes.  A coined product's four MSMs are one such call: one
        row of coins over four sets.  G_T takes the per-row default."""
        base_sets = [list(bases) for bases in base_sets]
        wrappers = {type(base) for bases in base_sets for base in bases}
        if len(wrappers) != 1 or BNGT in wrappers:
            return super().multi_exp_windows(base_sets, scalar_rows, scope)
        wrapper, = wrappers
        point_cls = type(base_sets[0][0].point)
        rows = [list(row) for row in scalar_rows]
        for bases in base_sets:
            for row in rows:
                self._checked_multi_exp_args(bases, row)
        return [[wrapper(point) for point in products]
                for products in point_cls.multi_mul_windows(
                    [[base.point for base in bases] for bases in base_sets],
                    rows, scope)]

    def batch_normalize(self, elements: Sequence[GroupElement]) -> None:
        """Normalize the Jacobian representations of many source-group
        elements with one shared field inversion per group."""
        by_class = {}
        for element in elements:
            if isinstance(element, BNPoint):
                by_class.setdefault(type(element.point), []).append(
                    element.point)
        for point_cls, points in by_class.items():
            point_cls.batch_normalize(points)

    def random_scalar(self, rng=None) -> int:
        return random_scalar(self.order, rng)

    def g1_from_bytes(self, data: bytes) -> BNG1:
        return BNG1(G1Point.from_bytes(data))

    def g2_from_bytes(self, data: bytes) -> BNG2:
        return BNG2(G2Point.from_bytes(data))
