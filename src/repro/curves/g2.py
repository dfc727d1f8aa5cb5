"""The group G2: the order-r subgroup of the sextic twist over F_p2.

The twist curve is ``y^2 = x^3 + 3/xi``.  Unlike G1 the twist has a large
cofactor (``2p - r``), so deserialization and untrusted inputs must pass a
subgroup check (multiplication by r).  Serialization is the compressed
64-byte encoding: x as two 32-byte limbs with a parity flag for y.

Point arithmetic runs on the int-specialised F_p2 formulas of
:mod:`repro.curves.weierstrass` (``*_fp2``), and scalar multiplication
splits full-size scalars through the GLV endomorphism of the twist,
``phi_2(x, y) = (G2_GLV_BETA * x, y)``, which acts on G2 as
multiplication by G1's ``GLV_LAMBDA`` (derivation in
:mod:`repro.curves.bn254`).  So scalars act modulo r and ``*`` is defined
on G2 only: off the subgroup phi_2 is not multiplication by lambda, and
:meth:`G2Point.in_subgroup` and :meth:`G2Point.clear_cofactor`, which
act on arbitrary twist points, run the naive ladder over the twist's
full order instead.
"""

from __future__ import annotations

from repro.curves import bn254
from repro.curves.weierstrass import (
    FieldOps, batch_normalize_fp2, jac_add_affine_fp2, jac_add_fp2,
    jac_batch_normalize, jac_double_fp2, jac_eq, jac_neg, jac_normalize,
    jac_scalar_mul,
)
from repro.errors import NotOnCurveError, SerializationError
from repro.math import msm
from repro.math.tower import (
    F2_ONE, F2_ZERO, f2_add, f2_eq, f2_inv, f2_is_zero, f2_mul, f2_neg,
    f2_sqr, f2_sqrt, f2_sub,
)

_P = bn254.P
_R = bn254.R

FP2_OPS = FieldOps(
    add=f2_add,
    sub=f2_sub,
    mul=f2_mul,
    sqr=f2_sqr,
    neg=f2_neg,
    inv=f2_inv,
    is_zero=f2_is_zero,
    eq=f2_eq,
    zero=F2_ZERO,
    one=F2_ONE,
    modulus=_P,
    degree=2,
    point_double=jac_double_fp2,
    point_add=jac_add_fp2,
    point_add_affine=jac_add_affine_fp2,
    batch_normalize=batch_normalize_fp2,
)

#: The GLV endomorphism of the twist: ``phi_2(x, y) = (G2_GLV_BETA * x,
#: y)`` is multiplication by G1's lambda on G2, with G1's lattice basis.
#: Its ``beta`` is the F_p2 element ``(G2_GLV_BETA, 0)``.
GLV = msm.Endomorphism(
    beta=(bn254.G2_GLV_BETA, 0), eigenvalue=bn254.GLV_LAMBDA,
    basis=bn254.GLV_BASIS)

_SIGN_BIT = 0x80
_INFINITY_BYTE = 0x40

ENCODED_SIZE = 64

#: Scalar multiplications on one point instance before a fixed-base table
#: is built automatically (the table costs ~6 multiplications to build).
_AUTO_PRECOMPUTE_USES = 8


def _twist_rhs(x):
    return f2_add(f2_mul(f2_sqr(x), x), bn254.B2)


class G2Point:
    """An element of G2 (point on the twist), Jacobian coordinates."""

    __slots__ = ("_jac", "_affine", "_table", "_prep", "_uses")

    order = _R

    def __init__(self, x=None, y=None, _jac=None, _skip_check: bool = False):
        self._table = None
        self._prep = None
        self._uses = 0
        if _jac is not None:
            self._jac = _jac
            self._affine = False
            return
        if x is None:
            self._jac = (F2_ONE, F2_ONE, F2_ZERO)
        else:
            x = (x[0] % _P, x[1] % _P)
            y = (y[0] % _P, y[1] % _P)
            if not _skip_check and not f2_eq(f2_sqr(y), _twist_rhs(x)):
                raise NotOnCurveError("point is not on the G2 twist")
            self._jac = (x, y, F2_ONE)
        self._affine = True

    # -- constructors ------------------------------------------------------
    @classmethod
    def generator(cls) -> "G2Point":
        return cls(bn254.G2_GENERATOR_X, bn254.G2_GENERATOR_Y)

    @classmethod
    def identity(cls) -> "G2Point":
        return cls()

    # -- group law ---------------------------------------------------------
    def __add__(self, other: "G2Point") -> "G2Point":
        return G2Point(_jac=jac_add_fp2(self._jac, other._jac, _P))

    def __neg__(self) -> "G2Point":
        return G2Point(_jac=jac_neg(FP2_OPS, self._jac))

    def __sub__(self, other: "G2Point") -> "G2Point":
        return self + (-other)

    def __mul__(self, scalar: int) -> "G2Point":
        if self._table is not None:
            return G2Point(_jac=self._table.mul(scalar))
        if not self.is_identity():
            self._uses += 1
            if self._uses >= _AUTO_PRECOMPUTE_USES:
                self.precompute()
                return G2Point(_jac=self._table.mul(scalar))
        return G2Point(
            _jac=msm.scalar_mul(FP2_OPS, self._jac, scalar, _R, GLV))

    __rmul__ = __mul__

    def precompute(self, window: int = 4) -> "G2Point":
        """Fixed-base window table for bases reused across many scalars
        (``g_z``/``g_r`` in key generation and DKG commitment checks)."""
        if self._table is None or self._table.window != window:
            self._table = msm.FixedBaseTable(FP2_OPS, self._jac, _R, window)
        return self

    @classmethod
    def multi_mul(cls, points, scalars) -> "G2Point":
        """One multi-scalar multiplication over G2 (GLV-split lanes)."""
        return cls(_jac=msm.multi_scalar_mul(
            FP2_OPS, [point._jac for point in points], scalars, _R, GLV))

    @classmethod
    def batch_normalize(cls, points) -> None:
        """Normalize many points to affine with ONE F_p2 inversion."""
        dirty = [
            point for point in points
            if not point._affine and not point.is_identity()
        ]
        if not dirty:
            return
        normalized = jac_batch_normalize(
            FP2_OPS, [point._jac for point in dirty])
        for point, aff in zip(dirty, normalized):
            point._jac = (aff[0], aff[1], F2_ONE)
            point._affine = True

    def double(self) -> "G2Point":
        return G2Point(_jac=jac_double_fp2(self._jac, _P))

    # -- queries -----------------------------------------------------------
    def is_identity(self) -> bool:
        return f2_is_zero(self._jac[2])

    def affine(self):
        result = jac_normalize(FP2_OPS, self._jac)
        if result is not None and not self._affine:
            self._jac = (result[0], result[1], F2_ONE)
            self._affine = True
        return result

    def is_on_curve(self) -> bool:
        aff = self.affine()
        if aff is None:
            return True
        x, y = aff
        return f2_eq(f2_sqr(y), _twist_rhs(x))

    def in_subgroup(self) -> bool:
        """Check membership in the order-r subgroup (cofactor is 2p - r).

        ``self * _R`` would not do: the group's scalar multiplication
        reduces its scalar modulo r first, so it returns the identity
        for every twist point.  The ladder here runs over the twist's
        full order and reduces nothing.
        """
        if not self.is_on_curve():
            return False
        return FP2_OPS.is_zero(jac_scalar_mul(
            FP2_OPS, self._jac, _R, bn254.G2_COFACTOR * _R)[2])

    def clear_cofactor(self) -> "G2Point":
        """Map an arbitrary twist point into the order-r subgroup."""
        return G2Point(
            _jac=jac_scalar_mul(
                FP2_OPS, self._jac, bn254.G2_COFACTOR,
                bn254.G2_COFACTOR * _R))

    def __eq__(self, other) -> bool:
        if not isinstance(other, G2Point):
            return NotImplemented
        return jac_eq(FP2_OPS, self._jac, other._jac)

    def __hash__(self):
        return hash(("G2", self.affine()))

    def __repr__(self):
        aff = self.affine()
        if aff is None:
            return "G2Point(infinity)"
        return f"G2Point(x0={aff[0][0]:#x})"

    def __bool__(self):
        return not self.is_identity()

    # -- serialization -----------------------------------------------------
    def to_bytes(self) -> bytes:
        aff = self.affine()
        if aff is None:
            out = bytearray(ENCODED_SIZE)
            out[0] = _INFINITY_BYTE
            return bytes(out)
        (x0, x1), (y0, y1) = aff
        out = bytearray(
            x1.to_bytes(32, "big") + x0.to_bytes(32, "big"))
        if y0 & 1:
            out[0] |= _SIGN_BIT
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "G2Point":
        if len(data) != ENCODED_SIZE:
            raise SerializationError("G2 encoding must be 64 bytes")
        if data[0] == _INFINITY_BYTE and not any(data[1:]):
            return cls.identity()
        sign = data[0] & _SIGN_BIT
        x1 = int.from_bytes(bytes([data[0] & ~_SIGN_BIT]) + data[1:32], "big")
        x0 = int.from_bytes(data[32:], "big")
        if x0 >= _P or x1 >= _P:
            raise SerializationError("G2 x-coordinate out of range")
        x = (x0, x1)
        y = f2_sqrt(_twist_rhs(x))
        if y is None:
            raise NotOnCurveError("no twist point with the encoded x")
        if (y[0] & 1) != (1 if sign else 0):
            y = f2_neg(y)
        point = cls(x, y)
        if not point.in_subgroup():
            raise NotOnCurveError("decoded G2 point outside the r-subgroup")
        return point
