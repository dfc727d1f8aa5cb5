"""Generic Jacobian-coordinate arithmetic for curves y^2 = x^3 + b (a = 0).

Both BN254 groups use a zero ``a`` coefficient, so one set of formulas,
parameterized by a :class:`FieldOps` bundle, serves G1 (over F_p) and G2
(over F_p2).  The ``*_fp`` variants repeat the doubling and the two
additions over plain ints for prime fields, which is G1 only, and
:func:`batch_add_affine_fp` adds many affine pairs with one shared
inversion.  Points are (X, Y, Z) Jacobian triples; Z equal to the field
zero encodes the point at infinity.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.math.lagrange import batch_invert


class FieldOps(NamedTuple):
    """The field operations the curve formulas need.

    ``modulus`` is set for prime fields represented by plain ints; the
    MSM fast paths use it to dispatch to the int-specialized formulas
    below (no per-operation lambda indirection).  Extension fields leave
    it None and take the generic path.
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
    modulus: object = None

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
    are plain reduced ints).  Used by the MSM fast paths only — the naive
    reference ladder keeps the generic formulas, so benchmark baselines
    stay seed-equivalent."""
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


def batch_add_affine_fp(pairs: Sequence[Tuple[Tuple[int, int],
                                              Tuple[int, int]]],
                        m: int) -> List[Optional[Tuple[int, int]]]:
    """``P + Q`` in affine coordinates for every affine pair, with ONE
    field inversion for the whole batch (prime fields only).

    Each sum is ``x3 = s^2 - x1 - x2``, ``y3 = s(x1 - x3) - y1`` with the
    chord slope ``s = (y2 - y1) / (x2 - x1)``; the denominators share one
    Montgomery inversion, so a sum costs ~6 multiplications plus its
    share of that inversion.  Equal x-coordinates are decided exactly:
    ``P + P`` takes the tangent slope ``3x^2 / 2y`` (``y`` is never zero
    on a curve of odd prime order) and ``P + (-P)`` is the identity,
    returned as None.
    """
    out: List[Optional[Tuple[int, int]]] = [None] * len(pairs)
    where, numerators, denominators = [], [], []
    for index, ((x1, y1), (x2, y2)) in enumerate(pairs):
        if x1 != x2:
            numerators.append(y2 - y1)
            denominators.append(x2 - x1)
        elif y1 == y2:
            numerators.append(3 * x1 * x1)
            denominators.append(2 * y1)
        else:
            continue
        where.append(index)
    for index, numerator, inverse in zip(
            where, numerators, batch_invert(denominators, m)):
        (x1, y1), (x2, _y2) = pairs[index]
        slope = numerator * inverse % m
        x3 = (slope * slope - x1 - x2) % m
        out[index] = (x3, (slope * (x1 - x3) - y1) % m)
    return out


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
    """Affine ``(x, y)`` for many Jacobian points with ONE field inversion.

    Montgomery's trick over the Z coordinates: prefix products, a single
    ``ops.inv`` of the total, then a backwards sweep peeling one inverse
    per point.  Points at infinity map to None.  An inversion costs tens
    of multiplications, so normalizing n points costs ~1/n inversions
    each — this is what lets MSM tables and Pippenger inputs live in
    affine coordinates cheaply.  Points that are already affine (Z = 1,
    e.g. pre-normalized by a combiner) skip the Montgomery chain, and a
    batch with no dirty point performs no inversion at all.  Prime fields
    (``ops.modulus`` set) take the same steps over plain ints, with no
    per-operation lambda dispatch.
    """
    m = ops.modulus
    if m is not None:
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
    zs = []
    positions = []
    out = [None] * len(points)
    one = ops.one
    for index, point in enumerate(points):
        z = point[2]
        if ops.is_zero(z):
            continue
        if z == one or ops.eq(z, one):
            out[index] = (point[0], point[1])
            continue
        zs.append(z)
        positions.append(index)
    if not zs:
        return out
    prefix = []
    acc = ops.one
    for z in zs:
        acc = ops.mul(acc, z)
        prefix.append(acc)
    inv_acc = ops.inv(acc)
    for i in range(len(zs) - 1, -1, -1):
        before = prefix[i - 1] if i else ops.one
        z_inv = ops.mul(before, inv_acc)
        inv_acc = ops.mul(inv_acc, zs[i])
        x, y, _z = points[positions[i]]
        z_inv2 = ops.sqr(z_inv)
        out[positions[i]] = (
            ops.mul(x, z_inv2), ops.mul(ops.mul(y, z_inv), z_inv2))
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
