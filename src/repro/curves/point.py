"""One point class for both source groups, over a per-group curve record.

The paper states every algorithm over one asymmetric bilinear group
``(G, G_hat, G_T)``.  Its two source groups differ only in their
coordinate field, their curve constant, their cofactor and their
encoding, and a :class:`Curve` record holds exactly those differences.
:class:`CurvePoint` implements everything else once over the record: the
group law, ``*`` (through a fixed-base comb once :meth:`precompute` built
one), the multi-scalar multiplications of :mod:`repro.math.msm`, batch
normalization, the subgroup check and the compressed encoding.
:mod:`repro.curves.g1` and :mod:`repro.curves.g2` build the two records
and bind them in the subclasses ``G1Point`` and ``G2Point``.  The class
cannot live in :mod:`repro.curves.weierstrass`, which
:mod:`repro.math.msm` imports.

**Encoding.**  A finite point is its x-coordinate's F_p limbs, highest
first, 32 bytes each — ``x`` on G1 (32 bytes), ``x1 || x0`` on G2 (64
bytes) — with the parity of y's constant limb (``y`` resp. ``y0``) in
the top bit of the first byte.  The identity is ``0x40`` followed by
zeros.  The field prime leaves the two top bits of a limb free, so any
other use of them decodes as an out-of-range coordinate.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.curves import bn254
from repro.curves.weierstrass import (
    FieldOps, jac_batch_normalize, jac_eq, jac_neg, jac_normalize,
)
from repro.errors import NotOnCurveError, SerializationError
from repro.math import msm

#: Flag bits of the first encoded byte: y's parity, and the identity.
_SIGN_BIT = 0x80
_INFINITY_BYTE = 0x40

#: Encoded bytes per F_p limb of the x-coordinate.
_LIMB_BYTES = 32

class Curve(NamedTuple):
    """One source group: the curve ``y^2 = x^3 + b`` over the field of
    ``ops``, its order-``bn254.R`` subgroup and its encoding.

    ``endo`` is the GLV endomorphism the MSM kernels split full-size
    scalars with, ``generator`` an affine ``(x, y)`` and ``cofactor`` the
    curve group's order over r.  The last four are per-field functions
    written over plain ints: ``rhs(x) = x^3 + b``, ``sqrt(a)`` (None for
    a non-square), ``limbs(a)`` (a field element's F_p limbs, constant
    first) and ``from_limbs(limbs)`` (its inverse, reducing each limb
    modulo p) — all the encoding needs to know of the field.
    """

    name: str
    ops: FieldOps
    endo: msm.Endomorphism
    b: object
    generator: tuple
    cofactor: int
    rhs: Callable
    sqrt: Callable
    limbs: Callable
    from_limbs: Callable

    @property
    def encoded_size(self) -> int:
        return _LIMB_BYTES * self.ops.degree


class CurvePoint:
    """An element of the source group of ``curve`` (bound by the
    subclass), stored in Jacobian coordinates.

    Scalars act modulo r: ``*`` splits them through the GLV endomorphism,
    which is multiplication by its eigenvalue on the order-r subgroup
    only.  :meth:`in_subgroup` and :meth:`clear_cofactor`, which act on
    arbitrary curve points, therefore run the lane kernel without the
    endomorphism and over the curve's full order (cofactor * r), which
    reduces neither of their scalars.
    """

    __slots__ = ("_jac", "_affine", "_table")

    curve: Curve
    order = bn254.R

    def __init__(self, x=None, y=None, _jac=None):
        self._table = None
        curve = self.curve
        ops = curve.ops
        if _jac is not None:
            self._jac = _jac
            self._affine = _jac[2] == ops.one
            return
        if x is None:  # point at infinity
            self._jac = (ops.one, ops.one, ops.zero)
        else:
            x = curve.from_limbs(curve.limbs(x))
            y = curve.from_limbs(curve.limbs(y))
            if not ops.eq(ops.sqr(y), curve.rhs(x)):
                raise NotOnCurveError(f"point is not on {curve.name}")
            self._jac = (x, y, ops.one)
        self._affine = True

    # -- constructors ------------------------------------------------------
    @classmethod
    def generator(cls):
        return cls(*cls.curve.generator)

    @classmethod
    def identity(cls):
        return cls()

    # -- group law ---------------------------------------------------------
    def __add__(self, other):
        ops = self.curve.ops
        return type(self)(
            _jac=ops.point_add(self._jac, other._jac, ops.modulus))

    def __neg__(self):
        return type(self)(_jac=jac_neg(self.curve.ops, self._jac))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar: int):
        cls = type(self)
        if self._table is not None:
            return cls(_jac=self._table.mul(scalar))
        curve = self.curve
        return cls(_jac=msm.scalar_mul(
            curve.ops, self._jac, scalar, self.order, curve.endo))

    __rmul__ = __mul__

    def precompute(self):
        """Build a fixed-base comb so later multiplications run in 15
        doublings and at most 32 additions.  ``*`` reads a comb only
        when this built one: the build costs about three multiplications
        and is repaid after about five, so it pays for bases reused
        across many scalars (``g_z``/``g_r`` in key generation, DKG
        commitment checks); see :mod:`repro.math.msm`."""
        if self._table is None:
            self._table = msm.FixedBaseTable(
                self.curve.ops, self._jac, self.order, self.curve.endo)
        return self

    @classmethod
    def multi_mul(cls, points, scalars, scope=None):
        """``sum_i scalars[i] * points[i]`` as one multi-scalar
        multiplication (shared doubling chain): :meth:`multi_mul_windows`
        with one point set and one row.  ``scope``: a caller's dict of
        lane tables, filled and reused across calls (see
        :func:`~repro.math.msm.multi_scalar_mul_windows`)."""
        return cls.multi_mul_windows([points], [scalars], scope)[0][0]

    @classmethod
    def multi_mul_windows(cls, point_sets, scalar_rows,
                          scope=None) -> list:
        """``[[sum_j row[j] * points[j] for row in scalar_rows] for
        points in point_sets]``, the rows recoded once and each base
        doubled once (see
        :func:`~repro.math.msm.multi_scalar_mul_windows`)."""
        curve = cls.curve
        return [[cls(_jac=jac) for jac in products]
                for products in msm.multi_scalar_mul_windows(
                    curve.ops, [[point._jac for point in points]
                                for points in point_sets],
                    scalar_rows, cls.order, curve.endo, scope)]

    @classmethod
    def batch_normalize(cls, points) -> None:
        """Normalize many points to affine with ONE field inversion.

        Mutates only the cached representation (exactly like
        :meth:`affine`); combiners call it before an MSM so the w-NAF
        table build starts from affine inputs.
        """
        dirty = [
            point for point in points
            if not point._affine and not point.is_identity()
        ]
        if not dirty:
            return
        ops = cls.curve.ops
        normalized = jac_batch_normalize(
            ops, [point._jac for point in dirty])
        for point, aff in zip(dirty, normalized):
            point._jac = (aff[0], aff[1], ops.one)
            point._affine = True

    def double(self):
        ops = self.curve.ops
        return type(self)(_jac=ops.point_double(self._jac, ops.modulus))

    # -- queries -----------------------------------------------------------
    def is_identity(self) -> bool:
        return self.curve.ops.is_zero(self._jac[2])

    def affine(self):
        """Return affine (x, y), or None for the identity."""
        ops = self.curve.ops
        result = jac_normalize(ops, self._jac)
        if result is not None and not self._affine:
            self._jac = (result[0], result[1], ops.one)
            self._affine = True
        return result

    def is_on_curve(self) -> bool:
        aff = self.affine()
        if aff is None:
            return True
        x, y = aff
        ops = self.curve.ops
        return ops.eq(ops.sqr(y), self.curve.rhs(x))

    def in_subgroup(self) -> bool:
        """Membership in the order-r subgroup.

        ``self * order`` would not do: the group's scalar multiplication
        reduces its scalar modulo r first, so it returns the identity for
        every curve point.  Where the cofactor is not 1 the product here
        runs over the curve's full order and reduces nothing.
        """
        if not self.is_on_curve():
            return False
        if self.curve.cofactor == 1:
            return True
        return self.curve.ops.is_zero(self._full_order_mul(self.order)[2])

    def clear_cofactor(self):
        """Map an arbitrary curve point into the order-r subgroup."""
        curve = self.curve
        if curve.cofactor == 1:
            return self
        return type(self)(_jac=self._full_order_mul(curve.cofactor))

    def _full_order_mul(self, scalar: int):
        """``scalar * self`` for any curve point: the lane kernel with no
        endomorphism, modulo the curve's order ``cofactor * r``.  (Its
        odd-multiple tables stay finite: the curve order's smallest
        prime factor, 10069 on the BN254 twist, exceeds every digit.)"""
        curve = self.curve
        return msm.scalar_mul(curve.ops, self._jac, scalar,
                              curve.cofactor * self.order, None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurvePoint) or other.curve is not self.curve:
            return NotImplemented
        return jac_eq(self.curve.ops, self._jac, other._jac)

    def __hash__(self):
        return hash((self.curve.name, self.affine()))

    def __repr__(self):
        aff = self.affine()
        if aff is None:
            return f"{type(self).__name__}(infinity)"
        x = ", ".join(f"{limb:#x}" for limb in self.curve.limbs(aff[0]))
        return f"{type(self).__name__}(x={x})"

    def __bool__(self):
        return not self.is_identity()

    # -- serialization -----------------------------------------------------
    def to_bytes(self) -> bytes:
        curve = self.curve
        aff = self.affine()
        if aff is None:
            out = bytearray(curve.encoded_size)
            out[0] = _INFINITY_BYTE
            return bytes(out)
        x, y = aff
        out = bytearray(b"".join(
            limb.to_bytes(_LIMB_BYTES, "big")
            for limb in reversed(curve.limbs(x))))
        if curve.limbs(y)[0] & 1:
            out[0] |= _SIGN_BIT
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes):
        """Decode the compressed encoding; every malformed input raises
        :class:`~repro.errors.SerializationError` (a point off the curve
        or outside the subgroup its subclass
        :class:`~repro.errors.NotOnCurveError`)."""
        curve = cls.curve
        size = curve.encoded_size
        if len(data) != size:
            raise SerializationError(
                f"{curve.name} encoding must be {size} bytes")
        if data[0] == _INFINITY_BYTE and not any(data[1:]):
            return cls.identity()
        sign = data[0] & _SIGN_BIT
        data = bytes([data[0] & ~_SIGN_BIT]) + data[1:]
        limbs = [int.from_bytes(data[start:start + _LIMB_BYTES], "big")
                 for start in range(size - _LIMB_BYTES, -1, -_LIMB_BYTES)]
        if max(limbs) >= curve.ops.modulus:
            raise SerializationError(
                f"{curve.name} x-coordinate out of range")
        x = curve.from_limbs(limbs)
        y = curve.sqrt(curve.rhs(x))
        if y is None:
            raise NotOnCurveError(f"no {curve.name} point with the encoded x")
        if (curve.limbs(y)[0] & 1) != (1 if sign else 0):
            y = curve.ops.neg(y)
        point = cls(x, y)
        if curve.cofactor != 1 and not point.in_subgroup():
            raise NotOnCurveError(
                f"decoded {curve.name} point outside the r-subgroup")
        return point
