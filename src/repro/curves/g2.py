"""The group G2: the order-r subgroup of the sextic twist over F_p2.

The twist curve is ``y^2 = x^3 + 3/xi``.  Elements are :class:`G2Point`
objects: the one point class :class:`~repro.curves.point.CurvePoint`
over G2's curve record :data:`CURVE`.  Unlike G1 the twist has a large
cofactor (``2p - r``), so deserialization and untrusted inputs pass a
subgroup check, and a point encodes as 64 bytes: ``x1 || x0`` with the
parity of y0.

Point arithmetic runs on the int-specialised F_p2 formulas of
:mod:`repro.curves.weierstrass` (``*_fp2``), and scalar multiplication
splits full-size scalars through the GLV endomorphism of the twist,
``phi_2(x, y) = (G2_GLV_BETA * x, y)``, which acts on G2 as
multiplication by G1's ``GLV_LAMBDA`` (derivation in
:mod:`repro.curves.bn254`).
"""

from __future__ import annotations

from repro.curves import bn254
from repro.curves.point import Curve, CurvePoint
from repro.curves.weierstrass import (
    FieldOps, batch_normalize_fp2, jac_add_affine_fp2, jac_add_fp2,
    jac_double_fp2,
)
from repro.math import msm
from repro.math.tower import (
    F2_ONE, F2_ZERO, f2_add, f2_eq, f2_inv, f2_is_zero, f2_mul, f2_neg,
    f2_sqr, f2_sqrt, f2_sub,
)

_P = bn254.P

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

CURVE = Curve(
    name="G2",
    ops=FP2_OPS,
    endo=GLV,
    b=bn254.B2,
    generator=(bn254.G2_GENERATOR_X, bn254.G2_GENERATOR_Y),
    cofactor=bn254.G2_COFACTOR,
    rhs=lambda x: f2_add(f2_mul(f2_sqr(x), x), bn254.B2),
    sqrt=f2_sqrt,
    limbs=lambda a: a,
    from_limbs=lambda limbs: (limbs[0] % _P, limbs[1] % _P),
)


class G2Point(CurvePoint):
    """An element of G2 (point on the twist), Jacobian coordinates.

    ``_prep`` memoizes the point's Miller-loop line coefficients
    (:func:`repro.curves.pairing.prepare_g2`)."""

    __slots__ = ("_prep",)

    curve = CURVE
