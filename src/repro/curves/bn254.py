"""BN254 ("alt_bn128") curve constants.

The curve equation over F_p is ``y^2 = x^3 + 3``; the sextic D-type twist
over F_p2 is ``y^2 = x^3 + 3/xi`` with ``xi = 9 + u``.  The generators are
the standard, widely deployed alt_bn128 generators.  Derived constants (the
twist coefficient, the G2 cofactor) are computed rather than hard-coded.
"""

from __future__ import annotations

from repro.math.tower import (
    P, R, BN_X, ATE_LOOP_COUNT, XI, f2_inv, f2_mul_scalar,
)

#: G1 curve coefficient: y^2 = x^3 + B.
B = 3

#: G2 (twist) coefficient: 3 / xi in F_p2.
B2 = f2_mul_scalar(f2_inv(XI), B)

#: G1 generator.
G1_GENERATOR = (1, 2)

#: G2 generator (standard alt_bn128 point, coordinates as a0 + a1*u).
G2_GENERATOR_X = (
    10857046999023057135944570762232829481370756359578518086990519993285655852781,
    11559732032986387107991004021392285783925812861821192530917403151452391805634,
)
G2_GENERATOR_Y = (
    8495653923123431417604973247489272438418190587263600148770280649306958101930,
    4082367875863433681332203403145435568316851327593401208105741076214120093531,
)

#: GLV endomorphism of G1 (Gallant-Lambert-Vanstone): with GLV_BETA a
#: primitive cube root of unity in F_p, ``phi(x, y) = (GLV_BETA * x, y)``
#: acts on the order-r group as multiplication by GLV_LAMBDA, a root of
#: ``X^2 + X + 1`` mod r.  GLV_BASIS is a reduced basis of the lattice
#: ``{(a, b) : a + b * GLV_LAMBDA = 0 (mod r)}`` with determinant +r.
#: All three are the BN-family polynomials in BN_X; tests/test_msm.py
#: asserts the identities (nothing is checked at import).
GLV_BETA = -(18 * BN_X ** 3 + 18 * BN_X ** 2 + 9 * BN_X + 2) % P
GLV_LAMBDA = (36 * BN_X ** 4 - 1) % R
GLV_BASIS = (
    (6 * BN_X ** 2 + 2 * BN_X, -(2 * BN_X + 1)),
    (2 * BN_X + 1, 6 * BN_X ** 2 + 4 * BN_X + 1),
)

#: GLV endomorphism of G2: ``phi_2(x, y) = (G2_GLV_BETA * x, y)`` on the
#: twist acts on G2 as multiplication by the same GLV_LAMBDA, so G2 uses
#: G1's lattice basis.  G2_GLV_BETA = GLV_BETA^2 = -1 - GLV_BETA is the
#: other primitive cube root of unity in F_p.  Derivation: phi on the
#: curve over F_p12 commutes with the p-power Frobenius, so it preserves
#: the Frobenius eigenspaces of the r-torsion; on the eigenvalue-1 space
#: (G1) it is lambda, and its determinant is deg(phi) = 1, so on the
#: eigenvalue-p space (the image of G2 under the twist isomorphism
#: (x, y) -> (x w^2, y w^3), which commutes with scaling x by an F_p
#: element) it is lambda^-1 = lambda^2.  Pulled back to the twist that is
#: (GLV_BETA * x, y) = lambda^2, whose square (GLV_BETA^2 * x, y) is
#: lambda^4 = lambda.  tests/test_msm.py asserts both identities.
G2_GLV_BETA = (18 * BN_X ** 3 + 18 * BN_X ** 2 + 9 * BN_X + 1) % P

#: Cofactors: G1 is the full curve (h = 1); the twist group order is h2 * r.
G1_COFACTOR = 1
G2_COFACTOR = 2 * P - R

__all__ = [
    "P", "R", "B", "B2", "BN_X", "ATE_LOOP_COUNT",
    "G1_GENERATOR", "G2_GENERATOR_X", "G2_GENERATOR_Y",
    "G1_COFACTOR", "G2_COFACTOR",
    "GLV_BETA", "GLV_LAMBDA", "GLV_BASIS", "G2_GLV_BETA",
]
