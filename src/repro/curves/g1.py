"""The group G1: points of y^2 = x^3 + 3 over F_p (prime order r).

Elements are immutable :class:`G1Point` objects supporting the group law
through ``+``, ``-`` and scalar ``*``.  Serialization uses the common
compressed encoding: 32 bytes holding x with the parity of y in the top bit
(the field prime leaves the two top bits of the byte string free).
"""

from __future__ import annotations

from repro.curves import bn254
from repro.curves.weierstrass import (
    FieldOps, jac_add, jac_batch_normalize, jac_double, jac_eq, jac_neg,
    jac_normalize,
)
from repro.errors import NotOnCurveError, SerializationError
from repro.math import msm
from repro.math.field import sqrt_mod

_P = bn254.P
_R = bn254.R

FP_OPS = FieldOps(
    add=lambda a, b: (a + b) % _P,
    sub=lambda a, b: (a - b) % _P,
    mul=lambda a, b: a * b % _P,
    sqr=lambda a: a * a % _P,
    neg=lambda a: -a % _P,
    inv=lambda a: pow(a, -1, _P),
    is_zero=lambda a: a % _P == 0,
    eq=lambda a, b: (a - b) % _P == 0,
    zero=0,
    one=1,
    modulus=_P,
)

#: The GLV endomorphism the MSM kernel splits full-size G1 scalars with.
GLV = msm.Endomorphism(
    beta=bn254.GLV_BETA, eigenvalue=bn254.GLV_LAMBDA, basis=bn254.GLV_BASIS)

#: Flag bit marking the y-parity in the compressed encoding.
_SIGN_BIT = 0x80
_INFINITY_BYTE = 0x40

#: Scalar multiplications on one point instance before a fixed-base table
#: is built automatically (the table costs ~6 multiplications to build).
_AUTO_PRECOMPUTE_USES = 8

ENCODED_SIZE = 32


class G1Point:
    """An element of G1, stored in Jacobian coordinates."""

    __slots__ = ("_jac", "_affine", "_table", "_uses")

    order = _R

    def __init__(self, x: int | None = None, y: int | None = None,
                 _jac=None):
        self._table = None
        self._uses = 0
        if _jac is not None:
            self._jac = _jac
            self._affine = False
            return
        if x is None:  # point at infinity
            self._jac = (1, 1, 0)
        else:
            x %= _P
            y %= _P
            if (y * y - (x * x * x + bn254.B)) % _P != 0:
                raise NotOnCurveError(f"({x}, {y}) is not on G1")
            self._jac = (x, y, 1)
        self._affine = True

    # -- constructors ------------------------------------------------------
    @classmethod
    def generator(cls) -> "G1Point":
        return cls(*bn254.G1_GENERATOR)

    @classmethod
    def identity(cls) -> "G1Point":
        return cls()

    # -- group law ---------------------------------------------------------
    def __add__(self, other: "G1Point") -> "G1Point":
        return G1Point(_jac=jac_add(FP_OPS, self._jac, other._jac))

    def __neg__(self) -> "G1Point":
        return G1Point(_jac=jac_neg(FP_OPS, self._jac))

    def __sub__(self, other: "G1Point") -> "G1Point":
        return self + (-other)

    def __mul__(self, scalar: int) -> "G1Point":
        if self._table is not None:
            return G1Point(_jac=self._table.mul(scalar))
        if not self.is_identity():
            self._uses += 1
            if self._uses >= _AUTO_PRECOMPUTE_USES:
                self.precompute()
                return G1Point(_jac=self._table.mul(scalar))
        return G1Point(
            _jac=msm.scalar_mul(FP_OPS, self._jac, scalar, _R, GLV))

    __rmul__ = __mul__

    def precompute(self, window: int = 4) -> "G1Point":
        """Build a fixed-base window table so later multiplications run in
        ~order.bit_length()/window additions.  Worth it for bases reused
        across many scalars; see :mod:`repro.math.msm`."""
        if self._table is None or self._table.window != window:
            self._table = msm.FixedBaseTable(FP_OPS, self._jac, _R, window)
        return self

    @classmethod
    def multi_mul(cls, points, scalars) -> "G1Point":
        """``sum_i scalars[i] * points[i]`` as one multi-scalar
        multiplication (shared doubling chain)."""
        return cls(_jac=msm.multi_scalar_mul(
            FP_OPS, [point._jac for point in points], scalars, _R, GLV))

    @classmethod
    def multi_mul_rows(cls, points, scalar_rows) -> "list[G1Point]":
        """``[sum_j row[j] * points[j] for row in scalar_rows]`` — every
        row against one shared precomputation of ``points``: a window of
        one point set (:meth:`multi_mul_windows`)."""
        return cls.multi_mul_windows([points], scalar_rows)[0]

    @classmethod
    def multi_mul_windows(cls, point_sets, scalar_rows
                          ) -> "list[list[G1Point]]":
        """:meth:`multi_mul_rows` for every point set, the rows recoded
        once and each base doubled once (see
        :func:`~repro.math.msm.multi_scalar_mul_windows`)."""
        return [[cls(_jac=jac) for jac in products]
                for products in msm.multi_scalar_mul_windows(
                    FP_OPS, [[point._jac for point in points]
                             for points in point_sets],
                    scalar_rows, _R, GLV)]

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
        normalized = jac_batch_normalize(
            FP_OPS, [point._jac for point in dirty])
        for point, aff in zip(dirty, normalized):
            point._jac = (aff[0], aff[1], 1)
            point._affine = True

    def double(self) -> "G1Point":
        return G1Point(_jac=jac_double(FP_OPS, self._jac))

    # -- queries -----------------------------------------------------------
    def is_identity(self) -> bool:
        return self._jac[2] % _P == 0

    def affine(self):
        """Return affine (x, y), or None for the identity."""
        result = jac_normalize(FP_OPS, self._jac)
        if result is not None and not self._affine:
            self._jac = (result[0], result[1], 1)
            self._affine = True
        return result

    def is_on_curve(self) -> bool:
        aff = self.affine()
        if aff is None:
            return True
        x, y = aff
        return (y * y - (x * x * x + bn254.B)) % _P == 0

    def in_subgroup(self) -> bool:
        """G1 has cofactor 1, so any curve point is in the subgroup."""
        return self.is_on_curve()

    def __eq__(self, other) -> bool:
        if not isinstance(other, G1Point):
            return NotImplemented
        return jac_eq(FP_OPS, self._jac, other._jac)

    def __hash__(self):
        aff = self.affine()
        return hash(("G1", aff))

    def __repr__(self):
        aff = self.affine()
        if aff is None:
            return "G1Point(infinity)"
        return f"G1Point(x={aff[0]:#x})"

    def __bool__(self):
        return not self.is_identity()

    # -- serialization -----------------------------------------------------
    def to_bytes(self) -> bytes:
        aff = self.affine()
        if aff is None:
            out = bytearray(ENCODED_SIZE)
            out[0] = _INFINITY_BYTE
            return bytes(out)
        x, y = aff
        out = bytearray(x.to_bytes(ENCODED_SIZE, "big"))
        if y & 1:
            out[0] |= _SIGN_BIT
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "G1Point":
        if len(data) != ENCODED_SIZE:
            raise SerializationError("G1 encoding must be 32 bytes")
        if data[0] == _INFINITY_BYTE and not any(data[1:]):
            return cls.identity()
        sign = data[0] & _SIGN_BIT
        x_bytes = bytes([data[0] & ~_SIGN_BIT]) + data[1:]
        x = int.from_bytes(x_bytes, "big")
        if x >= _P:
            raise SerializationError("G1 x-coordinate out of range")
        y_squared = (x * x * x + bn254.B) % _P
        y = sqrt_mod(y_squared, _P)
        if y is None:
            raise NotOnCurveError("no curve point with the encoded x")
        if (y & 1) != (1 if sign else 0):
            y = _P - y
        return cls(x, y)
