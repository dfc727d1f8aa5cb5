"""BN254 extension-field tower: F_p2, F_p6 and F_p12.

The paper instantiates its schemes on Barreto-Naehrig curves at the 128-bit
level; we use the standard BN254 ("alt_bn128") parameters.  The tower is

* ``F_p2  = F_p[u]  / (u^2 + 1)``
* ``F_p6  = F_p2[v] / (v^3 - xi)`` with ``xi = 9 + u``
* ``F_p12 = F_p6[w] / (w^2 - v)`` (equivalently ``F_p2[w] / (w^6 - xi)``)

For speed in pure Python, elements are plain nested tuples of ints and the
operations are module-level functions:

* F_p2 element:  ``(a0, a1)``              meaning ``a0 + a1*u``
* F_p6 element:  ``(c0, c1, c2)``          of F_p2, coefficients of 1, v, v^2
* F_p12 element: ``(d0, d1)``              of F_p6, coefficients of 1, w

Frobenius maps use the sextic representation over F_p2 (powers of ``w``),
with coefficients computed once at import time so no magic constants are
hard-coded.
"""

from __future__ import annotations

from typing import Sequence, Tuple

# ---------------------------------------------------------------------------
# BN254 base field and tower constants
# ---------------------------------------------------------------------------

#: BN254 base-field prime (the curve order of the twist's base field).
P = 21888242871839275222246405745257275088696311157297823662689037894645226208583

#: BN254 group order r (number of points on G1; prime).
R = 21888242871839275222246405745257275088548364400416034343698204186575808495617

#: BN parameter x: p and r are the standard BN polynomials evaluated at x.
BN_X = 4965661367192848881

#: Optimal-ate Miller loop length 6x + 2.
ATE_LOOP_COUNT = 6 * BN_X + 2

Fp2Ele = Tuple[int, int]
Fp6Ele = Tuple[Fp2Ele, Fp2Ele, Fp2Ele]
Fp12Ele = Tuple[Fp6Ele, Fp6Ele]

F2_ZERO: Fp2Ele = (0, 0)
F2_ONE: Fp2Ele = (1, 0)
#: The sextic non-residue xi = 9 + u defining the F_p6 (and twist) arithmetic.
XI: Fp2Ele = (9, 1)

F6_ZERO: Fp6Ele = (F2_ZERO, F2_ZERO, F2_ZERO)
F6_ONE: Fp6Ele = (F2_ONE, F2_ZERO, F2_ZERO)

F12_ZERO: Fp12Ele = (F6_ZERO, F6_ZERO)
F12_ONE: Fp12Ele = (F6_ONE, F6_ZERO)


# ---------------------------------------------------------------------------
# F_p2 arithmetic
# ---------------------------------------------------------------------------

def f2_add(a: Fp2Ele, b: Fp2Ele) -> Fp2Ele:
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def f2_sub(a: Fp2Ele, b: Fp2Ele) -> Fp2Ele:
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def f2_neg(a: Fp2Ele) -> Fp2Ele:
    return (-a[0] % P, -a[1] % P)


def f2_conj(a: Fp2Ele) -> Fp2Ele:
    """Complex conjugation a0 - a1*u; this is the F_p2 Frobenius."""
    return (a[0], -a[1] % P)


def f2_mul(a: Fp2Ele, b: Fp2Ele) -> Fp2Ele:
    """Karatsuba multiplication in F_p2 (3 base-field multiplications)."""
    t0 = a[0] * b[0]
    t1 = a[1] * b[1]
    t2 = (a[0] + a[1]) * (b[0] + b[1])
    return ((t0 - t1) % P, (t2 - t0 - t1) % P)


def f2_sqr(a: Fp2Ele) -> Fp2Ele:
    """Complex squaring: (a0+a1)(a0-a1) + 2*a0*a1*u."""
    t = a[0] * a[1]
    return ((a[0] + a[1]) * (a[0] - a[1]) % P, (t + t) % P)


def f2_mul_scalar(a: Fp2Ele, k: int) -> Fp2Ele:
    return (a[0] * k % P, a[1] * k % P)


def f2_mul_xi(a: Fp2Ele) -> Fp2Ele:
    """Multiply by xi = 9 + u: (9*a0 - a1) + (a0 + 9*a1)*u."""
    return ((9 * a[0] - a[1]) % P, (a[0] + 9 * a[1]) % P)


def f2_inv(a: Fp2Ele) -> Fp2Ele:
    """Inversion via the norm: a^-1 = conj(a) / (a0^2 + a1^2)."""
    norm = (a[0] * a[0] + a[1] * a[1]) % P
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in F_p2")
    inv_norm = pow(norm, -1, P)
    return (a[0] * inv_norm % P, -a[1] * inv_norm % P)


def f2_pow(a: Fp2Ele, e: int) -> Fp2Ele:
    if e < 0:
        return f2_pow(f2_inv(a), -e)
    result = F2_ONE
    base = a
    while e:
        if e & 1:
            result = f2_mul(result, base)
        base = f2_sqr(base)
        e >>= 1
    return result


def f2_is_zero(a: Fp2Ele) -> bool:
    return a[0] % P == 0 and a[1] % P == 0


def f2_eq(a: Fp2Ele, b: Fp2Ele) -> bool:
    return (a[0] - b[0]) % P == 0 and (a[1] - b[1]) % P == 0


def f2_sqrt(a: Fp2Ele) -> Fp2Ele | None:
    """Square root in F_p2 (complex method); None if ``a`` is a non-square.

    Uses the standard two-step algorithm: candidate ``x = a^((p^2+7)/16)``
    does not apply here since p^2 % 8 varies; instead we use the formula for
    p % 4 == 3 base fields: write a = alpha + beta*u and solve via norms.
    """
    from repro.math.field import sqrt_mod

    alpha, beta = a[0] % P, a[1] % P
    if beta == 0:
        root = sqrt_mod(alpha, P)
        if root is not None:
            return (root, 0)
        # alpha is a non-square in F_p, so alpha = -gamma^2 and
        # sqrt(alpha) = gamma * u since u^2 = -1.
        root = sqrt_mod(-alpha % P, P)
        if root is None:
            return None
        return (0, root)
    # norm = alpha^2 + beta^2 must be a QR in F_p for a to be a square.
    norm = (alpha * alpha + beta * beta) % P
    n_root = sqrt_mod(norm, P)
    if n_root is None:
        return None
    # x0^2 = (alpha + n_root) / 2 (try both signs of n_root).
    inv2 = pow(2, -1, P)
    for candidate in (n_root, -n_root % P):
        x0_sq = (alpha + candidate) * inv2 % P
        x0 = sqrt_mod(x0_sq, P)
        if x0 is None or x0 == 0:
            continue
        x1 = beta * pow(2 * x0, -1, P) % P
        if f2_eq(f2_sqr((x0, x1)), a):
            return (x0, x1)
    return None


# ---------------------------------------------------------------------------
# F_p6 arithmetic (coefficients of 1, v, v^2 over F_p2; v^3 = xi)
# ---------------------------------------------------------------------------

def f6_add(a: Fp6Ele, b: Fp6Ele) -> Fp6Ele:
    return (f2_add(a[0], b[0]), f2_add(a[1], b[1]), f2_add(a[2], b[2]))


def f6_sub(a: Fp6Ele, b: Fp6Ele) -> Fp6Ele:
    return (f2_sub(a[0], b[0]), f2_sub(a[1], b[1]), f2_sub(a[2], b[2]))


def f6_neg(a: Fp6Ele) -> Fp6Ele:
    return (f2_neg(a[0]), f2_neg(a[1]), f2_neg(a[2]))


def f6_mul(a: Fp6Ele, b: Fp6Ele) -> Fp6Ele:
    """Karatsuba-style multiplication (6 F_p2 multiplications)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    t0 = f2_mul(a0, b0)
    t1 = f2_mul(a1, b1)
    t2 = f2_mul(a2, b2)
    # c0 = t0 + xi * ((a1 + a2)(b1 + b2) - t1 - t2)
    c0 = f2_add(t0, f2_mul_xi(
        f2_sub(f2_sub(f2_mul(f2_add(a1, a2), f2_add(b1, b2)), t1), t2)))
    # c1 = (a0 + a1)(b0 + b1) - t0 - t1 + xi * t2
    c1 = f2_add(
        f2_sub(f2_sub(f2_mul(f2_add(a0, a1), f2_add(b0, b1)), t0), t1),
        f2_mul_xi(t2))
    # c2 = (a0 + a2)(b0 + b2) - t0 - t2 + t1
    c2 = f2_add(
        f2_sub(f2_sub(f2_mul(f2_add(a0, a2), f2_add(b0, b2)), t0), t2), t1)
    return (c0, c1, c2)


def f6_sqr(a: Fp6Ele) -> Fp6Ele:
    """CH-SQR2 squaring (2 squarings + 3 multiplications in F_p2)."""
    a0, a1, a2 = a
    s0 = f2_sqr(a0)
    ab = f2_mul(a0, a1)
    s1 = f2_add(ab, ab)
    s2 = f2_sqr(f2_add(f2_sub(a0, a1), a2))
    bc = f2_mul(a1, a2)
    s3 = f2_add(bc, bc)
    s4 = f2_sqr(a2)
    c0 = f2_add(s0, f2_mul_xi(s3))
    c1 = f2_add(s1, f2_mul_xi(s4))
    c2 = f2_sub(f2_add(f2_add(s1, s2), s3), f2_add(s0, s4))
    return (c0, c1, c2)


def f6_mul_by_v(a: Fp6Ele) -> Fp6Ele:
    """Multiply by v: (c0, c1, c2) -> (xi*c2, c0, c1)."""
    return (f2_mul_xi(a[2]), a[0], a[1])


def f6_inv(a: Fp6Ele) -> Fp6Ele:
    """Inversion via the adjugate formula."""
    a0, a1, a2 = a
    t0 = f2_sub(f2_sqr(a0), f2_mul_xi(f2_mul(a1, a2)))
    t1 = f2_sub(f2_mul_xi(f2_sqr(a2)), f2_mul(a0, a1))
    t2 = f2_sub(f2_sqr(a1), f2_mul(a0, a2))
    factor = f2_add(
        f2_mul(a0, t0),
        f2_mul_xi(f2_add(f2_mul(a2, t1), f2_mul(a1, t2))))
    inv_factor = f2_inv(factor)
    return (f2_mul(t0, inv_factor), f2_mul(t1, inv_factor),
            f2_mul(t2, inv_factor))


def f6_is_zero(a: Fp6Ele) -> bool:
    return all(f2_is_zero(c) for c in a)


def f6_eq(a: Fp6Ele, b: Fp6Ele) -> bool:
    return all(f2_eq(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# F_p12 arithmetic (coefficients of 1, w over F_p6; w^2 = v)
# ---------------------------------------------------------------------------

def f12_add(a: Fp12Ele, b: Fp12Ele) -> Fp12Ele:
    return (f6_add(a[0], b[0]), f6_add(a[1], b[1]))


def f12_mul(a: Fp12Ele, b: Fp12Ele) -> Fp12Ele:
    """Karatsuba multiplication (3 F_p6 multiplications), int-inlined.

    The three products run through :func:`_f6_mul_int` (defined below)
    and the v-multiplication/additions stay on plain ints — ``f12_mul``
    is the workhorse of every GT operation and every Miller-loop
    accumulator fold, so it gets the same treatment as
    :func:`f12_sqr`/:func:`f12_mul_line`.
    """
    a0, a1 = a
    b0, b1 = b
    t0 = _f6_mul_int(a0, b0)
    t1 = _f6_mul_int(a1, b1)
    lhs = (
        (a0[0][0] + a1[0][0], a0[0][1] + a1[0][1]),
        (a0[1][0] + a1[1][0], a0[1][1] + a1[1][1]),
        (a0[2][0] + a1[2][0], a0[2][1] + a1[2][1]),
    )
    rhs = (
        (b0[0][0] + b1[0][0], b0[0][1] + b1[0][1]),
        (b0[1][0] + b1[1][0], b0[1][1] + b1[1][1]),
        (b0[2][0] + b1[2][0], b0[2][1] + b1[2][1]),
    )
    ts = _f6_mul_int(lhs, rhs)
    # c0 = t0 + v*t1 with v*(c0, c1, c2) = (xi*c2, c0, c1), xi = 9 + u.
    c0 = (
        ((t0[0][0] + 9 * t1[2][0] - t1[2][1]) % P,
         (t0[0][1] + t1[2][0] + 9 * t1[2][1]) % P),
        ((t0[1][0] + t1[0][0]) % P, (t0[1][1] + t1[0][1]) % P),
        ((t0[2][0] + t1[1][0]) % P, (t0[2][1] + t1[1][1]) % P),
    )
    c1 = (
        ((ts[0][0] - t0[0][0] - t1[0][0]) % P,
         (ts[0][1] - t0[0][1] - t1[0][1]) % P),
        ((ts[1][0] - t0[1][0] - t1[1][0]) % P,
         (ts[1][1] - t0[1][1] - t1[1][1]) % P),
        ((ts[2][0] - t0[2][0] - t1[2][0]) % P,
         (ts[2][1] - t0[2][1] - t1[2][1]) % P),
    )
    return (c0, c1)


def _f6_mul_int(a: Fp6Ele, b: Fp6Ele) -> Fp6Ele:
    """Karatsuba F_p6 multiplication fully inlined over base-field ints.

    Accepts unreduced (but single-multiplication-level) coefficients and
    reduces only the six output ints.  This is the engine behind the
    int-inlined :func:`f12_sqr`: the Miller-loop accumulator squares once
    per loop bit, where the call/tuple overhead of composing
    ``f2_mul``/``f2_mul_xi`` costs as much as the arithmetic itself in
    CPython (same motivation as :func:`_fp4_sqr`).
    """
    (a00, a01), (a10, a11), (a20, a21) = a
    (b00, b01), (b10, b11), (b20, b21) = b
    # t_k = a_k * b_k, Karatsuba over F_p2 (u^2 = -1), unreduced.
    v0 = a00 * b00
    v1 = a01 * b01
    t00 = v0 - v1
    t01 = (a00 + a01) * (b00 + b01) - v0 - v1
    v0 = a10 * b10
    v1 = a11 * b11
    t10 = v0 - v1
    t11 = (a10 + a11) * (b10 + b11) - v0 - v1
    v0 = a20 * b20
    v1 = a21 * b21
    t20 = v0 - v1
    t21 = (a20 + a21) * (b20 + b21) - v0 - v1
    # c0 = t0 + xi * ((a1 + a2)(b1 + b2) - t1 - t2), xi = 9 + u.
    s0 = a10 + a20
    s1 = a11 + a21
    r0 = b10 + b20
    r1 = b11 + b21
    v0 = s0 * r0
    v1 = s1 * r1
    x0 = v0 - v1 - t10 - t20
    x1 = (s0 + s1) * (r0 + r1) - v0 - v1 - t11 - t21
    c00 = (t00 + 9 * x0 - x1) % P
    c01 = (t01 + x0 + 9 * x1) % P
    # c1 = (a0 + a1)(b0 + b1) - t0 - t1 + xi * t2.
    s0 = a00 + a10
    s1 = a01 + a11
    r0 = b00 + b10
    r1 = b01 + b11
    v0 = s0 * r0
    v1 = s1 * r1
    c10 = (v0 - v1 - t00 - t10 + 9 * t20 - t21) % P
    c11 = ((s0 + s1) * (r0 + r1) - v0 - v1 - t01 - t11 + t20
           + 9 * t21) % P
    # c2 = (a0 + a2)(b0 + b2) - t0 - t2 + t1.
    s0 = a00 + a20
    s1 = a01 + a21
    r0 = b00 + b20
    r1 = b01 + b21
    v0 = s0 * r0
    v1 = s1 * r1
    c20 = (v0 - v1 - t00 - t20 + t10) % P
    c21 = ((s0 + s1) * (r0 + r1) - v0 - v1 - t01 - t21 + t11) % P
    return ((c00, c01), (c10, c11), (c20, c21))


def f12_sqr(a: Fp12Ele) -> Fp12Ele:
    """Complex squaring (2 F_p6 multiplications), int-inlined.

    ``(a0 + a1 w)^2 = (a0 + a1)(a0 + v a1) - t - v t + 2 t w`` with
    ``t = a0 a1``; the two products go through :func:`_f6_mul_int` and
    the v-multiplications/additions stay on plain ints so the only
    reductions are the twelve output coefficients.
    """
    a0, a1 = a
    (a10, a11) = a1[0]
    (a12, a13) = a1[1]
    (a14, a15) = a1[2]
    t = _f6_mul_int(a0, a1)
    # a0 + a1 (unreduced sums are fine: one multiplication level below).
    lhs = (
        (a0[0][0] + a10, a0[0][1] + a11),
        (a0[1][0] + a12, a0[1][1] + a13),
        (a0[2][0] + a14, a0[2][1] + a15),
    )
    # a0 + v * a1 with v * (c0, c1, c2) = (xi*c2, c0, c1), xi = 9 + u.
    rhs = (
        (a0[0][0] + 9 * a14 - a15, a0[0][1] + a14 + 9 * a15),
        (a0[1][0] + a10, a0[1][1] + a11),
        (a0[2][0] + a12, a0[2][1] + a13),
    )
    u = _f6_mul_int(lhs, rhs)
    t0, t1, t2 = t
    c0 = (
        ((u[0][0] - t0[0] - 9 * t2[0] + t2[1]) % P,
         (u[0][1] - t0[1] - t2[0] - 9 * t2[1]) % P),
        ((u[1][0] - t1[0] - t0[0]) % P, (u[1][1] - t1[1] - t0[1]) % P),
        ((u[2][0] - t2[0] - t1[0]) % P, (u[2][1] - t2[1] - t1[1]) % P),
    )
    c1 = (
        ((t0[0] + t0[0]) % P, (t0[1] + t0[1]) % P),
        ((t1[0] + t1[0]) % P, (t1[1] + t1[1]) % P),
        ((t2[0] + t2[0]) % P, (t2[1] + t2[1]) % P),
    )
    return (c0, c1)


def f12_conj(a: Fp12Ele) -> Fp12Ele:
    """Conjugation over F_p6; equals the p^6-power Frobenius."""
    return (a[0], f6_neg(a[1]))


def _f6_mul_sparse01(a: Fp6Ele, b0: Fp2Ele, b1: Fp2Ele) -> Fp6Ele:
    """Multiply by the sparse F_p6 element ``b0 + b1*v`` (5 F_p2 muls)."""
    a0, a1, a2 = a
    m0 = f2_mul(a0, b0)
    m1 = f2_mul(a1, b1)
    ms = f2_mul(f2_add(a0, a1), f2_add(b0, b1))
    return (
        f2_add(m0, f2_mul_xi(f2_mul(a2, b1))),
        f2_sub(f2_sub(ms, m0), m1),
        f2_add(m1, f2_mul(a2, b0)),
    )


def _f6_mul_sparse01_int(a: Fp6Ele, b0: Fp2Ele, b1: Fp2Ele) -> Fp6Ele:
    """Multiply by the sparse F_p6 element ``b0 + b1*v``, int-inlined.

    Same 5-F_p2-multiplication schedule as :func:`_f6_mul_sparse01` but
    over plain ints with **no reductions**: callers combine the outputs
    further before taking a single final ``% P`` per coefficient.
    """
    (a00, a01), (a10, a11), (a20, a21) = a
    b00, b01 = b0
    b10, b11 = b1
    # m0 = a0 * b0, m1 = a1 * b1, ms = (a0 + a1)(b0 + b1).
    v0 = a00 * b00
    v1 = a01 * b01
    m00 = v0 - v1
    m01 = (a00 + a01) * (b00 + b01) - v0 - v1
    v0 = a10 * b10
    v1 = a11 * b11
    m10 = v0 - v1
    m11 = (a10 + a11) * (b10 + b11) - v0 - v1
    s0 = a00 + a10
    s1 = a01 + a11
    r0 = b00 + b10
    r1 = b01 + b11
    v0 = s0 * r0
    v1 = s1 * r1
    ms0 = v0 - v1
    ms1 = (s0 + s1) * (r0 + r1) - v0 - v1
    # a2 * b1 and a2 * b0.
    v0 = a20 * b10
    v1 = a21 * b11
    x0 = v0 - v1
    x1 = (a20 + a21) * (b10 + b11) - v0 - v1
    v0 = a20 * b00
    v1 = a21 * b01
    y0 = v0 - v1
    y1 = (a20 + a21) * (b00 + b01) - v0 - v1
    # (m0 + xi*(a2 b1), ms - m0 - m1, m1 + a2 b0), xi = 9 + u.
    return (
        (m00 + 9 * x0 - x1, m01 + x0 + 9 * x1),
        (ms0 - m00 - m10, ms1 - m01 - m11),
        (m10 + y0, m11 + y1),
    )


def f12_mul_line(f: Fp12Ele, l1: Fp2Ele, l3: Fp2Ele) -> Fp12Ele:
    """Multiply by the sparse element ``1 + l1*w + l3*w^3``, int-inlined.

    This is the shape of every Miller-loop line on BN curves once it is
    divided by its F_p constant term ``y_P`` (see
    :mod:`repro.curves.pairing`).  With ``l = l1 + l3*v`` in F_p6 the
    line is ``1 + l*w``, and

        (f0 + f1*w)(1 + l*w) = (f0 + v*(f1*l)) + (f0*l + f1)*w:

    two sparse F_p6 products, 10 F_p2 multiplications against the 18 of
    a full :func:`f12_mul`.  Like :func:`_fp4_sqr`, the whole schedule
    runs on plain ints (this is the per-line hot op of the Miller loop,
    executed 88 times per pairing) and each output coefficient is
    reduced exactly once.
    """
    f0, f1 = f
    t0 = _f6_mul_sparse01_int(f0, l1, l3)
    t1 = _f6_mul_sparse01_int(f1, l1, l3)
    # out0 = f0 + v*t1 with v*(c0, c1, c2) = (xi*c2, c0, c1), xi = 9 + u.
    out0 = (
        ((f0[0][0] + 9 * t1[2][0] - t1[2][1]) % P,
         (f0[0][1] + t1[2][0] + 9 * t1[2][1]) % P),
        ((f0[1][0] + t1[0][0]) % P, (f0[1][1] + t1[0][1]) % P),
        ((f0[2][0] + t1[1][0]) % P, (f0[2][1] + t1[1][1]) % P),
    )
    out1 = (
        ((t0[0][0] + f1[0][0]) % P, (t0[0][1] + f1[0][1]) % P),
        ((t0[1][0] + f1[1][0]) % P, (t0[1][1] + f1[1][1]) % P),
        ((t0[2][0] + f1[2][0]) % P, (t0[2][1] + f1[2][1]) % P),
    )
    return (out0, out1)


def f12_inv(a: Fp12Ele) -> Fp12Ele:
    a0, a1 = a
    factor = f6_inv(f6_sub(f6_sqr(a0), f6_mul_by_v(f6_sqr(a1))))
    return (f6_mul(a0, factor), f6_neg(f6_mul(a1, factor)))


def f12_pow(a: Fp12Ele, e: int) -> Fp12Ele:
    if e < 0:
        return f12_pow(f12_inv(a), -e)
    result = F12_ONE
    base = a
    while e:
        if e & 1:
            result = f12_mul(result, base)
        base = f12_sqr(base)
        e >>= 1
    return result


def f12_is_one(a: Fp12Ele) -> bool:
    return f6_eq(a[0], F6_ONE) and f6_is_zero(a[1])


def f12_eq(a: Fp12Ele, b: Fp12Ele) -> bool:
    return f6_eq(a[0], b[0]) and f6_eq(a[1], b[1])


# ---------------------------------------------------------------------------
# Sextic representation over F_p2 and Frobenius maps
# ---------------------------------------------------------------------------

def f12_to_wvec(a: Fp12Ele) -> Tuple[Fp2Ele, ...]:
    """Rewrite (d0 + d1*w) with d_i over (1, v, v^2) as sum a_k * w^k.

    Since v = w^2 the basis permutation is
    (c00, c01, c02, c10, c11, c12) -> (a0, a2, a4, a1, a3, a5).
    """
    (c00, c01, c02), (c10, c11, c12) = a
    return (c00, c10, c01, c11, c02, c12)


def wvec_to_f12(vec: Tuple[Fp2Ele, ...]) -> Fp12Ele:
    a0, a1, a2, a3, a4, a5 = vec
    return ((a0, a2, a4), (a1, a3, a5))


def _frobenius_tables():
    """Precompute xi^(k*(p^m - 1)/6) for m = 1, 2, 3 and k = 0..5: one
    ``f2_pow`` per row, then successive multiplications by it."""
    tables = []
    for m in (1, 2, 3):
        step = f2_pow(XI, (P ** m - 1) // 6)
        row = [F2_ONE]
        for _ in range(5):
            row.append(f2_mul(row[-1], step))
        tables.append(tuple(row))
    return tables


_FROB_W1, _FROB_W2, _FROB_W3 = _frobenius_tables()

#: Twist-Frobenius constants used to compute pi_p on G2 points:
#: pi(x, y) = (conj(x) * TWIST_FROB_X, conj(y) * TWIST_FROB_Y), i.e.
#: xi^((p - 1)/3) and xi^((p - 1)/2), entries 2 and 3 of the first row.
TWIST_FROB_X: Fp2Ele = _FROB_W1[2]
TWIST_FROB_Y: Fp2Ele = _FROB_W1[3]
#: And pi^2 constants (no conjugation): both lie in F_p for BN curves.
TWIST_FROB_X2: Fp2Ele = _FROB_W2[2]
TWIST_FROB_Y2: Fp2Ele = _FROB_W2[3]


def f12_frobenius(a: Fp12Ele, power: int = 1) -> Fp12Ele:
    """The p^power Frobenius endomorphism for power in {1, 2, 3, 6}."""
    if power == 6:
        return f12_conj(a)
    vec = f12_to_wvec(a)
    if power == 1:
        out = tuple(f2_mul(f2_conj(c), _FROB_W1[k]) for k, c in enumerate(vec))
    elif power == 2:
        out = tuple(f2_mul(c, _FROB_W2[k]) for k, c in enumerate(vec))
    elif power == 3:
        out = tuple(f2_mul(f2_conj(c), _FROB_W3[k]) for k, c in enumerate(vec))
    else:
        raise ValueError("supported Frobenius powers: 1, 2, 3, 6")
    return wvec_to_f12(out)


def _naf_digits(e: int) -> list:
    """Plain (width-2) non-adjacent form, least-significant digit first."""
    naf = []
    while e:
        if e & 1:
            digit = 2 - (e % 4)
            e -= digit
        else:
            digit = 0
        naf.append(digit)
        e >>= 1
    return naf


def f12_cyclotomic_pow(a: Fp12Ele, e: int) -> Fp12Ele:
    """Naive-reference exponentiation for cyclotomic-subgroup elements.

    After the easy part of the final exponentiation, elements satisfy
    ``conj(a) = a^-1``, so negative digits of a NAF representation cost a
    conjugation instead of an inversion.  This is the seed ladder (full
    ``f12_sqr`` per bit); :func:`cyclotomic_exp` is the fast path and this
    function remains its agreement baseline.
    """
    if e < 0:
        return f12_cyclotomic_pow(f12_conj(a), -e)
    result = F12_ONE
    a_conj = f12_conj(a)
    for digit in reversed(_naf_digits(e)):
        result = f12_sqr(result)
        if digit == 1:
            result = f12_mul(result, a)
        elif digit == -1:
            result = f12_mul(result, a_conj)
    return result


# ---------------------------------------------------------------------------
# Cyclotomic-subgroup fast arithmetic (Granger-Scott / Karabina)
# ---------------------------------------------------------------------------
#
# Elements surviving the easy part of the final exponentiation lie in the
# cyclotomic subgroup G_{Phi_12}(p) of F_p12*, where squaring collapses to
# arithmetic in the three F_p4 sub-planes spanned by (w^k, w^{k+3}) with
# (w^3)^2 = xi.  In the w-power basis (a0, ..., a5):
#
# * Granger-Scott squaring costs three F_p4 squarings (9 F_p2 squarings)
#   instead of the ~18 F_p2 multiplications of a generic ``f12_sqr``;
# * Karabina's compressed squaring drops the (a0, a3) plane entirely —
#   two F_p4 squarings per step — and recovers it only when a NAF digit
#   actually needs the full element.  Unitarity (a * conj(a) = 1) makes
#   (a0, a3) the solution of a 2x2 *linear* system in the retained
#   coefficients, so a whole exponentiation batch-decompresses with one
#   shared F_p2 inversion.


def _fp4_sqr(a: Fp2Ele, b: Fp2Ele) -> Tuple[Fp2Ele, Fp2Ele]:
    """Square ``a + b*s`` in F_p4 = F_p2[s]/(s^2 - xi).

    Fully inlined over the base field (six bigint multiplications): this
    runs 190+ times per final exponentiation, where the call/tuple
    overhead of composing :func:`f2_sqr`/:func:`f2_mul_xi` costs as much
    as the arithmetic itself in CPython.
    """
    a0, a1 = a
    b0, b1 = b
    # t0 = a^2, t1 = b^2 via complex squaring.
    t00 = (a0 + a1) * (a0 - a1)
    t01 = 2 * a0 * a1
    t10 = (b0 + b1) * (b0 - b1)
    t11 = 2 * b0 * b1
    # c0 = xi * t1 + t0 with xi = 9 + u.
    c0 = ((9 * t10 - t11 + t00) % P, (t10 + 9 * t11 + t01) % P)
    # c1 = (a + b)^2 - t0 - t1.
    s0 = a0 + b0
    s1 = a1 + b1
    c1 = (((s0 + s1) * (s0 - s1) - t00 - t10) % P,
          (2 * s0 * s1 - t01 - t11) % P)
    return c0, c1


def f12_cyclotomic_sqr(a: Fp12Ele) -> Fp12Ele:
    """Granger-Scott squaring; only valid in the cyclotomic subgroup.

    One F_p4 squaring ``(x + y*s)^2 = (x^2 + xi*y^2) + 2xy*s`` per plane
    (a0, a3), (a1, a4), (a2, a5) of the w-power basis, then ``3t - 2a``
    or ``3t + 2a`` per coefficient (the (a2, a5) plane's cross term picks
    up one more xi).  Int-inlined like :func:`f12_sqr`: the squarings of
    :func:`_fp4_sqr` are spelled out over base-field ints, and each of
    the twelve output coefficients is reduced once — this runs ~190
    times per final exponentiation.
    """
    # F_p12 (d0, d1) over (1, v, v^2) holds w-powers (a0, a2, a4), (a1, a3, a5).
    (a00, a01), (a20, a21), (a40, a41) = a[0]
    (a10, a11), (a30, a31), (a50, a51) = a[1]
    # Plane (a0, a3) -> n0 = 3(a0^2 + xi a3^2) - 2a0, n3 = 3(2 a0 a3) + 2a3.
    s00 = (a00 + a01) * (a00 - a01)
    s01 = 2 * a00 * a01
    s10 = (a30 + a31) * (a30 - a31)
    s11 = 2 * a30 * a31
    z0 = a00 + a30
    z1 = a01 + a31
    n00 = (3 * (9 * s10 - s11 + s00) - 2 * a00) % P
    n01 = (3 * (s10 + 9 * s11 + s01) - 2 * a01) % P
    n30 = (3 * ((z0 + z1) * (z0 - z1) - s00 - s10) + 2 * a30) % P
    n31 = (3 * (2 * z0 * z1 - s01 - s11) + 2 * a31) % P
    # Plane (a1, a4) -> n2 = 3(a1^2 + xi a4^2) - 2a2, n5 = 3(2 a1 a4) + 2a5.
    s00 = (a10 + a11) * (a10 - a11)
    s01 = 2 * a10 * a11
    s10 = (a40 + a41) * (a40 - a41)
    s11 = 2 * a40 * a41
    z0 = a10 + a40
    z1 = a11 + a41
    n20 = (3 * (9 * s10 - s11 + s00) - 2 * a20) % P
    n21 = (3 * (s10 + 9 * s11 + s01) - 2 * a21) % P
    n50 = (3 * ((z0 + z1) * (z0 - z1) - s00 - s10) + 2 * a50) % P
    n51 = (3 * (2 * z0 * z1 - s01 - s11) + 2 * a51) % P
    # Plane (a2, a5) -> n4 = 3(a2^2 + xi a5^2) - 2a4, n1 = 3 xi (2 a2 a5) + 2a1.
    s00 = (a20 + a21) * (a20 - a21)
    s01 = 2 * a20 * a21
    s10 = (a50 + a51) * (a50 - a51)
    s11 = 2 * a50 * a51
    z0 = a20 + a50
    z1 = a21 + a51
    n40 = (3 * (9 * s10 - s11 + s00) - 2 * a40) % P
    n41 = (3 * (s10 + 9 * s11 + s01) - 2 * a41) % P
    c0 = (z0 + z1) * (z0 - z1) - s00 - s10
    c1 = 2 * z0 * z1 - s01 - s11
    n10 = (3 * (9 * c0 - c1) + 2 * a10) % P
    n11 = (3 * (c0 + 9 * c1) + 2 * a11) % P
    return (((n00, n01), (n20, n21), (n40, n41)),
            ((n10, n11), (n30, n31), (n50, n51)))


#: Compressed cyclotomic element: the (a1, a2, a4, a5) w-power coefficients.
CompressedFp12 = Tuple[Fp2Ele, Fp2Ele, Fp2Ele, Fp2Ele]


def f12_compress(a: Fp12Ele) -> CompressedFp12:
    vec = f12_to_wvec(a)
    return (vec[1], vec[2], vec[4], vec[5])


def f12_compressed_sqr(c: CompressedFp12) -> CompressedFp12:
    """One Karabina squaring step on compressed coordinates (2 F_p4 sqr)."""
    a1, a2, a4, a5 = c
    b0, b1 = _fp4_sqr(a1, a4)
    c0, c1 = _fp4_sqr(a2, a5)
    xi_c1 = f2_mul_xi(c1)
    x = f2_add(xi_c1, a1)
    n1 = f2_add(f2_add(x, x), xi_c1)
    x = f2_sub(b0, a2)
    n2 = f2_add(f2_add(x, x), b0)
    x = f2_sub(c0, a4)
    n4 = f2_add(f2_add(x, x), c0)
    x = f2_add(b1, a5)
    n5 = f2_add(f2_add(x, x), b1)
    return (n1, n2, n4, n5)


def f12_decompress_batch(compressed: Sequence[CompressedFp12]):
    """Recover full elements from compressed ones with ONE F_p2 inversion.

    Unitarity ``a * conj(a) = 1`` forces, writing the element as
    ``sum a_k w^k`` and comparing the w^2 and w^4 components,

        2*a2*a0 - 2*xi*a5*a3 = a1^2 - xi*a4^2
        2*a4*a0 - 2*a1*a3    = xi*a5^2 - a2^2

    — a linear system in the dropped pair (a0, a3) with determinant
    ``4*(xi*a4*a5 - a1*a2)``.  The determinants are inverted together via
    Montgomery's trick.  Returns None when any determinant vanishes (e.g.
    the identity element); callers fall back to the uncompressed ladder.
    """
    rhs = []
    dets = []
    for a1, a2, a4, a5 in compressed:
        r1 = f2_sub(f2_sqr(a1), f2_mul_xi(f2_sqr(a4)))
        r2 = f2_sub(f2_mul_xi(f2_sqr(a5)), f2_sqr(a2))
        det = f2_sub(f2_mul_xi(f2_mul(a4, a5)), f2_mul(a1, a2))
        det = f2_add(det, det)
        if f2_is_zero(det):
            return None
        rhs.append((r1, r2))
        dets.append(det)
    # Montgomery batch inversion of the determinants.
    prefix = []
    acc = F2_ONE
    for det in dets:
        acc = f2_mul(acc, det)
        prefix.append(acc)
    inv_acc = f2_inv(acc)
    inverses = [F2_ZERO] * len(dets)
    for i in range(len(dets) - 1, -1, -1):
        before = prefix[i - 1] if i else F2_ONE
        inverses[i] = f2_mul(before, inv_acc)
        inv_acc = f2_mul(inv_acc, dets[i])
    out = []
    for (a1, a2, a4, a5), (r1, r2), inv in zip(compressed, rhs, inverses):
        a0 = f2_mul(f2_sub(f2_mul_xi(f2_mul(a5, r2)), f2_mul(a1, r1)), inv)
        a3 = f2_mul(f2_sub(f2_mul(a2, r2), f2_mul(a4, r1)), inv)
        out.append(wvec_to_f12((a0, a1, a2, a3, a4, a5)))
    return out


def _cyclotomic_exp_gs(a: Fp12Ele, naf: Sequence[int]) -> Fp12Ele:
    """Uncompressed fallback: Granger-Scott squarings, NAF digits."""
    result = F12_ONE
    a_conj = f12_conj(a)
    for digit in reversed(naf):
        result = f12_cyclotomic_sqr(result) if result is not F12_ONE \
            else result
        if digit == 1:
            result = f12_mul(result, a)
        elif digit == -1:
            result = f12_mul(result, a_conj)
    return result


def _cyclotomic_exp_wnaf(a: Fp12Ele, e: int) -> Fp12Ele:
    """Dense-exponent ladder: width-4 w-NAF over Granger-Scott squarings.

    Three multiplications build the odd-power table a, a^3, a^5, a^7
    (negative digits are conjugations), then ~1 multiplication per 5
    squarings.  For a full 254-bit exponent this beats the Karabina
    compressed chain because a *dense* NAF forces a decompression solve
    for every nonzero digit, which costs more than the squaring savings.
    """
    from repro.math.msm import wnaf_digits

    twice = f12_cyclotomic_sqr(a)
    table = [a]
    for _ in range(3):
        table.append(f12_mul(table[-1], twice))
    result = None
    for digit in reversed(wnaf_digits(e, 4)):
        if result is not None:
            result = f12_cyclotomic_sqr(result)
        if digit > 0:
            entry = table[digit >> 1]
            result = entry if result is None else f12_mul(result, entry)
        elif digit < 0:
            entry = f12_conj(table[(-digit) >> 1])
            result = entry if result is None else f12_mul(result, entry)
    return F12_ONE if result is None else result


#: A NAF sparser than one nonzero digit per this many bits goes through
#: the Karabina compressed chain; denser exponents take the w-NAF
#: Granger-Scott ladder.  The BN final-exponentiation parameter (NAF
#: weight 24 over 63 bits) and random 254-bit exponents (weight ~85)
#: both sit on the w-NAF side; the compressed chain wins for the very
#: sparse exponents of small-exponent batching and subgroup-check
#: tricks, where almost no digit forces a decompression solve.
_COMPRESSED_SPARSITY = 8


def cyclotomic_exp(a: Fp12Ele, e: int) -> Fp12Ele:
    """Fast exponentiation in the cyclotomic subgroup.

    Recodes the exponent in NAF and picks the chain by digit density:
    dense exponents run width-4 w-NAF over Granger-Scott squarings
    (:func:`_cyclotomic_exp_wnaf`); sparse ones run the squaring chain
    on *compressed* Karabina coordinates, batch-decompress the few
    powers the NAF digits actually reference (one shared F_p2 inversion)
    and multiply them together — negative digits cost a conjugation
    either way.  Agreement baseline: :func:`f12_cyclotomic_pow`.
    Undefined outside the cyclotomic subgroup, exactly like the naive
    ladder.
    """
    if e < 0:
        return cyclotomic_exp(f12_conj(a), -e)
    if e == 0:
        return F12_ONE
    naf = _naf_digits(e)
    if len(naf) == 1:
        return a
    nonzero = sum(1 for digit in naf if digit)
    if nonzero * _COMPRESSED_SPARSITY > len(naf):
        return _cyclotomic_exp_wnaf(a, e)
    chain = f12_compress(a)
    needed = {}
    for position in range(1, len(naf)):
        chain = f12_compressed_sqr(chain)
        if naf[position]:
            needed[position] = chain
    decompressed = f12_decompress_batch(list(needed.values())) \
        if needed else []
    if needed and decompressed is None:
        # Degenerate determinant (identity or an F_p4 sub-line element):
        # the uncompressed Granger-Scott ladder handles every case.
        return _cyclotomic_exp_gs(a, naf)
    powers = dict(zip(needed.keys(), decompressed))
    result = None
    if naf[0]:
        result = a if naf[0] == 1 else f12_conj(a)
    for position, value in powers.items():
        term = value if naf[position] == 1 else f12_conj(value)
        result = term if result is None else f12_mul(result, term)
    return result
