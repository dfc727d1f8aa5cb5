"""Jacobian-coordinate arithmetic for curves y^2 = x^3 + b (a = 0).

Both BN254 groups use a zero ``a`` coefficient.  The generic formulas
(:func:`jac_double`, :func:`jac_add`, :func:`jac_add_affine`,
:func:`jac_scalar_mul`) are written once over a :class:`FieldOps` bundle
and serve G1 (over F_p) and G2 (over F_p2) alike; they are the reference
the fast paths are tested against, and what the subgroup and cofactor
ladders of G2 run.  Every field also has int-specialised copies with no
per-operation lambda dispatch: the ``*_fp`` formulas over plain reduced
ints (G1) and the ``*_fp2`` formulas over ``(a0, a1)`` pairs of reduced
ints with Karatsuba inlined (G2; F_p2 = F_p[u]/(u^2 + 1)).  A field's
:class:`FieldOps` names its copies, so the MSM kernels call them with no
generic branch of their own.  :func:`batch_add_affine_fp` is the
ladder kernel's fused pass: one round of affine doublings and additions
over flat parallel coordinate lists, in place, with one shared
inversion.  Points are (X, Y, Z) Jacobian triples; Z equal to the field
zero encodes the point at infinity.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Sequence

from repro.math.lagrange import batch_invert


class FieldOps(NamedTuple):
    """The field operations the generic curve formulas need, and the
    field's fast point formulas.

    ``add`` to ``one`` are what the generic formulas below are written
    over.  ``modulus`` is the characteristic p both fields reduce by and
    ``degree`` the extension degree: 1 for F_p (plain ints), 2 for F_p2
    (``(a0, a1)`` pairs).  The last four are the field's int-specialised
    formulas, chosen once here: ``point_double(point, m)``,
    ``point_add(p1, p2, m)``, ``point_add_affine(point, aff, m)`` and
    ``batch_normalize(points, m)`` — the ``*_fp`` functions for F_p, the
    ``*_fp2`` ones for F_p2.  The MSM kernels call only these.
    """

    add: Callable
    sub: Callable
    mul: Callable
    sqr: Callable
    neg: Callable
    inv: Callable
    is_zero: Callable
    eq: Callable
    zero: object
    one: object
    modulus: int
    degree: int
    point_double: Callable
    point_add: Callable
    point_add_affine: Callable
    batch_normalize: Callable

    def dbl(self, a):
        return self.add(a, a)


def jac_double(ops: FieldOps, point):
    """Double a Jacobian point on y^2 = x^3 + b (standard a = 0 formulas)."""
    x, y, z = point
    if ops.is_zero(z) or ops.is_zero(y):
        return (ops.one, ops.one, ops.zero)
    a = ops.sqr(x)
    b = ops.sqr(y)
    c = ops.sqr(b)
    d = ops.sub(ops.sub(ops.sqr(ops.add(x, b)), a), c)
    d = ops.dbl(d)
    e = ops.add(ops.dbl(a), a)
    f = ops.sqr(e)
    x3 = ops.sub(f, ops.dbl(d))
    eight_c = ops.dbl(ops.dbl(ops.dbl(c)))
    y3 = ops.sub(ops.mul(e, ops.sub(d, x3)), eight_c)
    z3 = ops.dbl(ops.mul(y, z))
    return (x3, y3, z3)


def jac_add(ops: FieldOps, p1, p2):
    """Add two Jacobian points (handles all degenerate cases)."""
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if ops.is_zero(z1):
        return p2
    if ops.is_zero(z2):
        return p1
    z1z1 = ops.sqr(z1)
    z2z2 = ops.sqr(z2)
    u1 = ops.mul(x1, z2z2)
    u2 = ops.mul(x2, z1z1)
    s1 = ops.mul(ops.mul(y1, z2), z2z2)
    s2 = ops.mul(ops.mul(y2, z1), z1z1)
    if ops.eq(u1, u2):
        if ops.eq(s1, s2):
            return jac_double(ops, p1)
        return (ops.one, ops.one, ops.zero)
    h = ops.sub(u2, u1)
    i = ops.sqr(ops.dbl(h))
    j = ops.mul(h, i)
    r = ops.dbl(ops.sub(s2, s1))
    v = ops.mul(u1, i)
    x3 = ops.sub(ops.sub(ops.sqr(r), j), ops.dbl(v))
    y3 = ops.sub(ops.mul(r, ops.sub(v, x3)), ops.dbl(ops.mul(s1, j)))
    z3 = ops.dbl(ops.mul(ops.mul(z1, z2), h))
    return (x3, y3, z3)


def jac_add_affine(ops: FieldOps, p1, aff2):
    """Mixed addition: Jacobian ``p1`` plus an *affine* ``(x2, y2)`` point.

    With Z2 = 1 the two U2/S2 scalings for the second operand vanish
    (7M + 4S instead of 11M + 5S), which is why the MSM tables and
    Pippenger inputs are batch-normalized to affine up front.  Handles
    the degenerate cases (identity accumulator, doubling, inverses).
    """
    x2, y2 = aff2
    x1, y1, z1 = p1
    if ops.is_zero(z1):
        return (x2, y2, ops.one)
    z1z1 = ops.sqr(z1)
    u2 = ops.mul(x2, z1z1)
    s2 = ops.mul(ops.mul(y2, z1), z1z1)
    if ops.eq(u2, x1):
        if ops.eq(s2, y1):
            return jac_double(ops, p1)
        return (ops.one, ops.one, ops.zero)
    h = ops.sub(u2, x1)
    hh = ops.sqr(h)
    i = ops.dbl(ops.dbl(hh))
    j = ops.mul(h, i)
    r = ops.dbl(ops.sub(s2, y1))
    v = ops.mul(x1, i)
    x3 = ops.sub(ops.sub(ops.sqr(r), j), ops.dbl(v))
    y3 = ops.sub(ops.mul(r, ops.sub(v, x3)), ops.dbl(ops.mul(y1, j)))
    z3 = ops.sub(ops.sub(ops.sqr(ops.add(z1, h)), z1z1), hh)
    return (x3, y3, z3)


def jac_double_fp(point, m: int):
    """Int-specialized :func:`jac_double` for prime fields (coordinates
    are plain reduced ints).  The naive reference ladder keeps the
    generic formulas, so benchmark baselines stay seed-equivalent."""
    x, y, z = point
    if z == 0 or y == 0:
        return (1, 1, 0)
    a = x * x % m
    b = y * y % m
    c = b * b % m
    t = x + b
    d = 2 * (t * t - a - c) % m
    e = 3 * a % m
    f = e * e % m
    x3 = (f - 2 * d) % m
    y3 = (e * (d - x3) - 8 * c) % m
    z3 = 2 * y * z % m
    return (x3, y3, z3)


def jac_add_fp(p1, p2, m: int):
    """Int-specialized :func:`jac_add` for prime fields (same formulas,
    same reduced output)."""
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1z1 = z1 * z1 % m
    z2z2 = z2 * z2 % m
    u1 = x1 * z2z2 % m
    u2 = x2 * z1z1 % m
    s1 = y1 * z2 * z2z2 % m
    s2 = y2 * z1 * z1z1 % m
    if u1 == u2:
        if s1 == s2:
            return jac_double_fp(p1, m)
        return (1, 1, 0)
    h = (u2 - u1) % m
    i = 4 * h * h % m
    j = h * i % m
    r = 2 * (s2 - s1) % m
    v = u1 * i % m
    x3 = (r * r - j - 2 * v) % m
    y3 = (r * (v - x3) - 2 * s1 * j) % m
    z3 = 2 * z1 * z2 * h % m
    return (x3, y3, z3)


def jac_add_affine_fp(p1, aff2, m: int):
    """Int-specialized :func:`jac_add_affine` for prime fields."""
    x2, y2 = aff2
    x1, y1, z1 = p1
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % m
    u2 = x2 * z1z1 % m
    s2 = y2 * z1 * z1z1 % m
    if u2 == x1:
        if s2 == y1:
            return jac_double_fp(p1, m)
        return (1, 1, 0)
    h = (u2 - x1) % m
    hh = h * h % m
    i = 4 * hh % m
    j = h * i % m
    r = 2 * (s2 - y1) % m
    v = x1 * i % m
    x3 = (r * r - j - 2 * v) % m
    y3 = (r * (v - x3) - 2 * y1 * j) % m
    t = z1 + h
    z3 = (t * t - z1z1 - hh) % m
    return (x3, y3, z3)


#: The point at infinity over F_p2, as the generic formulas return it.
_INFINITY_FP2 = ((1, 0), (1, 0), (0, 0))


def jac_double_fp2(point, m: int):
    """Int-specialized :func:`jac_double` over F_p2 = F_p[u]/(u^2 + 1):
    coordinates are ``(a0, a1)`` pairs of reduced ints, each F_p2
    product a Karatsuba of three int products (squares two), reduced
    once per component.  Same formulas, same reduced output."""
    (x0, x1), (y0, y1), (z0, z1) = point
    if not (z0 or z1) or not (y0 or y1):
        return _INFINITY_FP2
    a0 = (x0 + x1) * (x0 - x1) % m                  # A = X^2
    a1 = 2 * x0 * x1 % m
    b0 = (y0 + y1) * (y0 - y1) % m                  # B = Y^2
    b1 = 2 * y0 * y1 % m
    c0 = (b0 + b1) * (b0 - b1) % m                  # C = B^2
    c1 = 2 * b0 * b1 % m
    t0 = x0 + b0
    t1 = x1 + b1
    d0 = 2 * ((t0 + t1) * (t0 - t1) - a0 - c0) % m  # D = 2((X+B)^2-A-C)
    d1 = 2 * (2 * t0 * t1 - a1 - c1) % m
    e0 = 3 * a0                                     # E = 3A
    e1 = 3 * a1
    x30 = ((e0 + e1) * (e0 - e1) - 2 * d0) % m      # X3 = E^2 - 2D
    x31 = (2 * e0 * e1 - 2 * d1) % m
    t0 = d0 - x30                                   # Y3 = E(D-X3) - 8C
    t1 = d1 - x31
    k0 = e0 * t0
    k1 = e1 * t1
    y30 = (k0 - k1 - 8 * c0) % m
    y31 = ((e0 + e1) * (t0 + t1) - k0 - k1 - 8 * c1) % m
    k0 = y0 * z0                                    # Z3 = 2YZ
    k1 = y1 * z1
    return ((x30, x31), (y30, y31),
            (2 * (k0 - k1) % m, 2 * ((y0 + y1) * (z0 + z1) - k0 - k1) % m))


def jac_add_fp2(p1, p2, m: int):
    """Int-specialized :func:`jac_add` over F_p2 (see
    :func:`jac_double_fp2`)."""
    (px0, px1), (py0, py1), (pz0, pz1) = p1
    (qx0, qx1), (qy0, qy1), (qz0, qz1) = p2
    if not (pz0 or pz1):
        return p2
    if not (qz0 or qz1):
        return p1
    pzz0 = (pz0 + pz1) * (pz0 - pz1) % m            # Z1Z1
    pzz1 = 2 * pz0 * pz1 % m
    qzz0 = (qz0 + qz1) * (qz0 - qz1) % m            # Z2Z2
    qzz1 = 2 * qz0 * qz1 % m
    k0 = px0 * qzz0                                 # U1 = X1 Z2Z2
    k1 = px1 * qzz1
    u10 = (k0 - k1) % m
    u11 = ((px0 + px1) * (qzz0 + qzz1) - k0 - k1) % m
    k0 = qx0 * pzz0                                 # U2 = X2 Z1Z1
    k1 = qx1 * pzz1
    u20 = (k0 - k1) % m
    u21 = ((qx0 + qx1) * (pzz0 + pzz1) - k0 - k1) % m
    k0 = qz0 * qzz0                                 # S1 = Y1 Z2^3
    k1 = qz1 * qzz1
    w0 = (k0 - k1) % m
    w1 = ((qz0 + qz1) * (qzz0 + qzz1) - k0 - k1) % m
    k0 = py0 * w0
    k1 = py1 * w1
    s10 = (k0 - k1) % m
    s11 = ((py0 + py1) * (w0 + w1) - k0 - k1) % m
    k0 = pz0 * pzz0                                 # S2 = Y2 Z1^3
    k1 = pz1 * pzz1
    w0 = (k0 - k1) % m
    w1 = ((pz0 + pz1) * (pzz0 + pzz1) - k0 - k1) % m
    k0 = qy0 * w0
    k1 = qy1 * w1
    s20 = (k0 - k1) % m
    s21 = ((qy0 + qy1) * (w0 + w1) - k0 - k1) % m
    if u10 == u20 and u11 == u21:
        if s10 == s20 and s11 == s21:
            return jac_double_fp2(p1, m)
        return _INFINITY_FP2
    h0 = u20 - u10                                  # H = U2 - U1
    h1 = u21 - u11
    i0 = 4 * (h0 + h1) * (h0 - h1) % m              # I = (2H)^2
    i1 = 8 * h0 * h1 % m
    k0 = h0 * i0                                    # J = H I
    k1 = h1 * i1
    j0 = (k0 - k1) % m
    j1 = ((h0 + h1) * (i0 + i1) - k0 - k1) % m
    r0 = 2 * (s20 - s10)                            # r = 2(S2 - S1)
    r1 = 2 * (s21 - s11)
    k0 = u10 * i0                                   # V = U1 I
    k1 = u11 * i1
    v0 = (k0 - k1) % m
    v1 = ((u10 + u11) * (i0 + i1) - k0 - k1) % m
    x30 = ((r0 + r1) * (r0 - r1) - j0 - 2 * v0) % m  # X3 = r^2 - J - 2V
    x31 = (2 * r0 * r1 - j1 - 2 * v1) % m
    t0 = v0 - x30                                   # Y3 = r(V-X3) - 2 S1 J
    t1 = v1 - x31
    k0 = r0 * t0
    k1 = r1 * t1
    n0 = s10 * j0
    n1 = s11 * j1
    y30 = (k0 - k1 - 2 * (n0 - n1)) % m
    y31 = ((r0 + r1) * (t0 + t1) - k0 - k1
           - 2 * ((s10 + s11) * (j0 + j1) - n0 - n1)) % m
    k0 = pz0 * qz0                                  # Z3 = 2 Z1 Z2 H
    k1 = pz1 * qz1
    w0 = (k0 - k1) % m
    w1 = ((pz0 + pz1) * (qz0 + qz1) - k0 - k1) % m
    k0 = w0 * h0
    k1 = w1 * h1
    return ((x30, x31), (y30, y31),
            (2 * (k0 - k1) % m, 2 * ((w0 + w1) * (h0 + h1) - k0 - k1) % m))


def jac_add_affine_fp2(p1, aff2, m: int):
    """Int-specialized :func:`jac_add_affine` over F_p2 (see
    :func:`jac_double_fp2`): 29 int products."""
    (qx0, qx1), (qy0, qy1) = aff2
    (px0, px1), (py0, py1), (pz0, pz1) = p1
    if not (pz0 or pz1):
        return ((qx0, qx1), (qy0, qy1), (1, 0))
    zz0 = (pz0 + pz1) * (pz0 - pz1) % m             # Z1Z1
    zz1 = 2 * pz0 * pz1 % m
    k0 = qx0 * zz0                                  # U2 = X2 Z1Z1
    k1 = qx1 * zz1
    u0 = (k0 - k1) % m
    u1 = ((qx0 + qx1) * (zz0 + zz1) - k0 - k1) % m
    k0 = pz0 * zz0                                  # S2 = Y2 Z1^3
    k1 = pz1 * zz1
    w0 = (k0 - k1) % m
    w1 = ((pz0 + pz1) * (zz0 + zz1) - k0 - k1) % m
    k0 = qy0 * w0
    k1 = qy1 * w1
    s0 = (k0 - k1) % m
    s1 = ((qy0 + qy1) * (w0 + w1) - k0 - k1) % m
    if u0 == px0 and u1 == px1:
        if s0 == py0 and s1 == py1:
            return jac_double_fp2(p1, m)
        return _INFINITY_FP2
    h0 = u0 - px0                                   # H = U2 - X1
    h1 = u1 - px1
    hh0 = (h0 + h1) * (h0 - h1) % m                 # HH = H^2
    hh1 = 2 * h0 * h1 % m
    i0 = 4 * hh0                                    # I = 4HH
    i1 = 4 * hh1
    k0 = h0 * i0                                    # J = H I
    k1 = h1 * i1
    j0 = (k0 - k1) % m
    j1 = ((h0 + h1) * (i0 + i1) - k0 - k1) % m
    r0 = 2 * (s0 - py0)                             # r = 2(S2 - Y1)
    r1 = 2 * (s1 - py1)
    k0 = px0 * i0                                   # V = X1 I
    k1 = px1 * i1
    v0 = (k0 - k1) % m
    v1 = ((px0 + px1) * (i0 + i1) - k0 - k1) % m
    x30 = ((r0 + r1) * (r0 - r1) - j0 - 2 * v0) % m  # X3 = r^2 - J - 2V
    x31 = (2 * r0 * r1 - j1 - 2 * v1) % m
    t0 = v0 - x30                                   # Y3 = r(V-X3) - 2 Y1 J
    t1 = v1 - x31
    k0 = r0 * t0
    k1 = r1 * t1
    n0 = py0 * j0
    n1 = py1 * j1
    y30 = (k0 - k1 - 2 * (n0 - n1)) % m
    y31 = ((r0 + r1) * (t0 + t1) - k0 - k1
           - 2 * ((py0 + py1) * (j0 + j1) - n0 - n1)) % m
    t0 = pz0 + h0                                   # Z3 = (Z1+H)^2-Z1Z1-HH
    t1 = pz1 + h1
    return ((x30, x31), (y30, y31),
            (((t0 + t1) * (t0 - t1) - zz0 - hh0) % m,
             (2 * t0 * t1 - zz1 - hh1) % m))


def batch_add_affine_fp(xs: List[int], ys: List[int], doubled: int,
                        x1s: List[int], y1s: List[int],
                        x2s: Sequence[int], y2s: Sequence[int],
                        m: int) -> None:
    """One fused affine round over a prime field, in place, with ONE
    field inversion: the first ``doubled`` points ``(xs[i], ys[i])``
    become ``2P``, and every pair ``(x1s[i], y1s[i]) + (x2s[i], y2s[i])``
    becomes its sum in ``(x1s[i], y1s[i])``.

    A sum is ``x3 = s^2 - x1 - x2``, ``y3 = s(x1 - x3) - y1`` with the
    chord slope ``s = (y2 - y1) / (x2 - x1)``, or the tangent slope
    ``3x^2 / 2y`` for a doubling and for a pair with ``x1 == x2``, which
    the caller passes only when the two points are equal: ``P + (-P)``
    (the identity) is decided before a pair is queued, and ``y`` is never
    zero on a curve of odd prime order.  Coordinates are reduced ints.
    The denominators share one Montgomery inversion, walked forward once
    for the prefix products and back once for the sums, so a sum costs
    five reductions plus its share of the inversion.
    """
    prefix = []
    keep = prefix.append
    acc = 1
    for y in ys[:doubled]:
        keep(acc)
        acc = acc * (y + y) % m
    for x1, y1, x2 in zip(x1s, y1s, x2s):
        keep(acc)
        acc = acc * ((x2 - x1) or y1 + y1) % m
    if not prefix:
        return
    inverse = pow(acc, -1, m)
    for i in range(len(x1s) - 1, -1, -1):
        x1, y1, x2 = x1s[i], y1s[i], x2s[i]
        denominator = x2 - x1
        if denominator:
            slope = (y2s[i] - y1) * prefix[doubled + i] * inverse % m
        else:
            denominator = y1 + y1
            slope = 3 * x1 * x1 * prefix[doubled + i] % m * inverse % m
        inverse = inverse * denominator % m
        x3 = (slope * slope - x1 - x2) % m
        y1s[i] = (slope * (x1 - x3) - y1) % m
        x1s[i] = x3
    for i in range(doubled - 1, -1, -1):
        x, y = xs[i], ys[i]
        slope = 3 * x * x * prefix[i] % m * inverse % m
        inverse = inverse * (y + y) % m
        x3 = (slope * slope - x - x) % m
        ys[i] = (slope * (x - x3) - y) % m
        xs[i] = x3


def jac_neg(ops: FieldOps, point):
    x, y, z = point
    return (x, ops.neg(y), z)


def jac_scalar_mul(ops: FieldOps, point, scalar: int, order: int):
    """Left-to-right double-and-add; the scalar is reduced modulo ``order``."""
    scalar %= order
    if scalar == 0 or ops.is_zero(point[2]):
        return (ops.one, ops.one, ops.zero)
    result = (ops.one, ops.one, ops.zero)
    for bit in bin(scalar)[2:]:
        result = jac_double(ops, result)
        if bit == "1":
            result = jac_add(ops, result, point)
    return result


def jac_normalize(ops: FieldOps, point):
    """Return the affine (x, y) pair, or None for the point at infinity."""
    x, y, z = point
    if ops.is_zero(z):
        return None
    z_inv = ops.inv(z)
    z_inv2 = ops.sqr(z_inv)
    return (ops.mul(x, z_inv2), ops.mul(ops.mul(y, z_inv), z_inv2))


def jac_batch_normalize(ops: FieldOps, points):
    """Affine ``(x, y)`` for many Jacobian points with ONE base-field
    inversion: the field's ``batch_normalize`` (:func:`batch_normalize_fp`
    or :func:`batch_normalize_fp2`).

    An inversion costs tens of multiplications, so normalizing n points
    costs ~1/n inversions each — this is what lets MSM tables and
    Pippenger inputs live in affine coordinates cheaply.  Points at
    infinity map to None.  Points that are already affine (Z = 1, e.g.
    pre-normalized by a combiner) are passed through, and a batch with
    no other finite point performs no inversion at all.
    """
    return ops.batch_normalize(points, ops.modulus)


def batch_normalize_fp(points, m: int):
    """:func:`jac_batch_normalize` over F_p: Montgomery's trick over the
    Z coordinates (:func:`~repro.math.lagrange.batch_invert`)."""
    out = [None] * len(points)
    dirty = []
    for index, (x, y, z) in enumerate(points):
        z %= m
        if z == 1:
            out[index] = (x, y)
        elif z:
            dirty.append(index)
    if not dirty:
        return out
    inverses = batch_invert([points[index][2] for index in dirty], m)
    for index, z_inv in zip(dirty, inverses):
        x, y, _z = points[index]
        z_inv2 = z_inv * z_inv % m
        out[index] = (x * z_inv2 % m, y * z_inv2 * z_inv % m)
    return out


def batch_normalize_fp2(points, m: int):
    """:func:`jac_batch_normalize` over F_p2: ``1/Z = conj(Z) / N(Z)``
    with the norm ``N(Z) = z0^2 + z1^2`` in F_p (nonzero for Z != 0, as
    -1 is a non-square mod p), so the one inversion is Montgomery's trick
    over the norms in F_p."""
    out = [None] * len(points)
    dirty = []
    norms = []
    for index, (x, y, (z0, z1)) in enumerate(points):
        z0 %= m
        z1 %= m
        if z0 == 1 and not z1:
            out[index] = (x, y)
        elif z0 or z1:
            dirty.append(index)
            norms.append(z0 * z0 + z1 * z1)
    if not dirty:
        return out
    for index, n_inv in zip(dirty, batch_invert(norms, m)):
        (x0, x1), (y0, y1), (z0, z1) = points[index]
        i0 = z0 * n_inv % m                         # 1/Z
        i1 = -z1 * n_inv % m
        s0 = (i0 + i1) * (i0 - i1) % m              # 1/Z^2
        s1 = 2 * i0 * i1 % m
        k0 = s0 * i0                                # 1/Z^3
        k1 = s1 * i1
        c0 = (k0 - k1) % m
        c1 = ((s0 + s1) * (i0 + i1) - k0 - k1) % m
        k0 = x0 * s0
        k1 = x1 * s1
        n0 = y0 * c0
        n1 = y1 * c1
        out[index] = (
            ((k0 - k1) % m, ((x0 + x1) * (s0 + s1) - k0 - k1) % m),
            ((n0 - n1) % m, ((y0 + y1) * (c0 + c1) - n0 - n1) % m))
    return out


def jac_eq(ops: FieldOps, p1, p2) -> bool:
    """Projective equality without normalizing (cross-multiplication)."""
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if ops.is_zero(z1) or ops.is_zero(z2):
        return ops.is_zero(z1) and ops.is_zero(z2)
    z1z1 = ops.sqr(z1)
    z2z2 = ops.sqr(z2)
    if not ops.eq(ops.mul(x1, z2z2), ops.mul(x2, z1z1)):
        return False
    return ops.eq(
        ops.mul(ops.mul(y1, z2), z2z2), ops.mul(ops.mul(y2, z1), z1z1))
