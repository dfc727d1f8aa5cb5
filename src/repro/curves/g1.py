"""The group G1: points of y^2 = x^3 + 3 over F_p (prime order r).

Elements are :class:`G1Point` objects: the one point class
:class:`~repro.curves.point.CurvePoint` over G1's curve record
:data:`CURVE`.  G1 is the whole curve (cofactor 1), so every curve point
is in the group, and a point encodes as 32 bytes: x with the parity of y.
"""

from __future__ import annotations

from repro.curves import bn254
from repro.curves.point import Curve, CurvePoint
from repro.curves.weierstrass import (
    FieldOps, batch_normalize_fp, jac_add_affine_fp, jac_add_fp,
    jac_double_fp,
)
from repro.math import msm
from repro.math.field import sqrt_mod

_P = bn254.P

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
    degree=1,
    point_double=jac_double_fp,
    point_add=jac_add_fp,
    point_add_affine=jac_add_affine_fp,
    batch_normalize=batch_normalize_fp,
)

#: The GLV endomorphism the MSM kernel splits full-size G1 scalars with.
GLV = msm.Endomorphism(
    beta=bn254.GLV_BETA, eigenvalue=bn254.GLV_LAMBDA, basis=bn254.GLV_BASIS)

CURVE = Curve(
    name="G1",
    ops=FP_OPS,
    endo=GLV,
    b=bn254.B,
    generator=bn254.G1_GENERATOR,
    cofactor=bn254.G1_COFACTOR,
    rhs=lambda x: (x * x * x + bn254.B) % _P,
    sqrt=lambda a: sqrt_mod(a, _P),
    limbs=lambda a: (a,),
    from_limbs=lambda limbs: limbs[0] % _P,
)


class G1Point(CurvePoint):
    """An element of G1, stored in Jacobian coordinates."""

    __slots__ = ()

    curve = CURVE
