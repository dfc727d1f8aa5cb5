"""Fast exponentiation: one lane-based multi-scalar-multiplication kernel,
the Pippenger bucket method and fixed-base precomputation tables.

All routines are generic over the :class:`~repro.curves.weierstrass.FieldOps`
bundle, so the same code serves G1 (over F_p) and G2 (over F_p2).  Points are
Jacobian ``(X, Y, Z)`` triples exactly as in :mod:`repro.curves.weierstrass`;
the naive ``jac_scalar_mul`` there remains the correctness reference the
property tests compare against.

**The kernel.**  :func:`scalar_mul`, :func:`multi_scalar_mul` (below the
Pippenger crossover) and :func:`multi_scalar_mul_rows` are three callers of
one interleaved-w-NAF loop.  Every ``(base, scalar)`` term is recoded into
one or two *lanes* — a signed sub-scalar driving a table of affine odd
multiples — and all lanes of a product share one doubling chain, so the
cost is ``max lane bits`` doublings plus ~``bits / (w + 1)`` mixed
additions per lane.  Three things shorten or share the lanes:

* **GLV endomorphism** (Gallant-Lambert-Vanstone, CRYPTO 2001).  Where
  the group has ``phi(x, y) = (beta * x, y) = lambda * (x, y)`` (BN254 G1;
  see :class:`Endomorphism`), a full-size scalar splits by Babai rounding
  into ``k = k_1 + k_2 * lambda`` with ``|k_i| < 2^128``: two lanes of
  half the length, the second over the phi-image of the first's table.
  That image costs one field multiplication per entry and no point
  arithmetic, so a 2-base 254-bit product is 4 lanes over ~127 doublings
  instead of 2 lanes over 254.  G2 runs the same kernel with no
  endomorphism.
* **Signed scalars.**  Negating an affine table entry is free, so a lane
  takes whichever of ``k`` and ``k - r`` is shorter: the Lagrange
  coefficient ``-3`` costs a 2-bit lane, not a 254-bit one.  The GLV
  split yields signed halves by itself; groups without an endomorphism
  get the same effect from the comparison.
* **Shared tables.**  :func:`multi_scalar_mul_rows` evaluates many scalar
  rows over the *same* bases — Share-Sign's ``z_i``/``r_i`` for every
  signer of a quorum, all over ``(H_1, H_2)`` — against one table, built
  once and batch-normalized with one inversion.  The window width is
  chosen from the row count (w = 4, or 5 once four rows amortise the
  larger table).  A table lives for one call; nothing is cached.

**Short scalars skip the split.**  A scalar of at most 128 bits — the
64-bit small-exponent coins of ``batch_verify`` and
``batch_share_verify_window`` — is already as short as a GLV half, so
decomposing it would add a lane without removing a doubling.  It stays
one undecomposed lane.

The other algorithms:

* **Pippenger (bucket) MSM** — for large k (DKG transcript aggregation at
  big n) the bucket method costs ~k + 2^c additions per 254/c-bit window,
  beating the lane kernel once k exceeds a couple of hundred terms.
* **Fixed-base windows** — for generators reused across many calls
  (``g_z``/``g_r`` in key generation, DKG commitment checks) a one-off
  table of ``d * 2^{w i} * P`` turns every later multiplication into
  ~254/w additions and **zero** doublings.  The table costs
  ``(2^w - 1) * 254/w`` additions to build, so it amortizes after roughly
  four multiplications at w = 4; callers opt in via
  :class:`FixedBaseTable` (or ``GroupElement.precompute()`` one layer up)
  precisely because the build-up is not free.

**Mixed coordinates**: every table entry and every Pippenger input is
batch-normalized to affine with one shared field inversion
(:func:`~repro.curves.weierstrass.jac_batch_normalize`), so the inner
loops run mixed Jacobian+affine additions (7M + 4S instead of 11M + 5S —
~25% off each addition) and affine negation is free (negate y).  The
pure-Jacobian formulas remain the agreement reference via the naive
``jac_scalar_mul`` fold the property tests compare against.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.curves.weierstrass import (
    FieldOps, jac_add, jac_add_affine, jac_add_affine_fp, jac_add_fp,
    jac_batch_normalize, jac_double, jac_double_fp,
)


def _fast_arith(ops: FieldOps):
    """``(double, add, mixed_add)`` closures for tables and inner loops.

    Prime fields carried as plain ints (``ops.modulus`` set) get the
    specialized formulas with no per-operation lambda dispatch — worth
    ~2x on the doubling chain in CPython; extension fields take the
    generic path.
    """
    m = ops.modulus
    if m is not None:
        return (lambda point: jac_double_fp(point, m),
                lambda p1, p2: jac_add_fp(p1, p2, m),
                lambda point, aff: jac_add_affine_fp(point, aff, m))
    return (lambda point: jac_double(ops, point),
            lambda p1, p2: jac_add(ops, p1, p2),
            lambda point, aff: jac_add_affine(ops, point, aff))


def wnaf_digits(scalar: int, width: int = 4) -> List[int]:
    """Width-``w`` non-adjacent form of a non-negative scalar, LSB first.

    Every nonzero digit is odd, lies in ``(-2^{w-1}, 2^{w-1})``, and is
    followed by at least ``width - 1`` zeros; the digits reconstruct the
    scalar as ``sum_i d_i * 2^i``.
    """
    if scalar < 0:
        raise ValueError("wnaf_digits expects a non-negative scalar")
    if width < 2:
        raise ValueError("w-NAF width must be at least 2")
    digits: List[int] = []
    window = 1 << width
    half = window >> 1
    while scalar:
        if scalar & 1:
            digit = scalar % window
            if digit >= half:
                digit -= window
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def _odd_multiples(ops: FieldOps, point, count: int) -> list:
    """``[P, 3P, 5P, ..., (2*count - 1)P]`` (count entries, Jacobian)."""
    multiples = [point]
    if count > 1:
        double, add, _mixed_add = _fast_arith(ops)
        twice = double(point)
        for _ in range(count - 1):
            multiples.append(add(multiples[-1], twice))
    return multiples


class Endomorphism(NamedTuple):
    """An efficiently computable endomorphism ``phi(x, y) = (beta * x, y)``
    acting on the group as multiplication by ``eigenvalue``.

    ``basis`` is a reduced basis ``((a_1, b_1), (a_2, b_2))`` of the
    lattice ``{(a, b) : a + b * eigenvalue = 0 (mod order)}``, oriented so
    that ``a_1 * b_2 - a_2 * b_1 == order``; :func:`glv_decompose` rounds
    against it.
    """

    beta: int
    eigenvalue: int
    basis: Tuple[Tuple[int, int], Tuple[int, int]]


#: A scalar this short is one lane as it stands: a GLV half is no shorter.
_SHORT_BITS = 128


def glv_decompose(endo: Endomorphism, scalar: int,
                  order: int) -> Tuple[int, int]:
    """Signed ``(k_1, k_2)`` with ``k_1 + k_2 * eigenvalue = scalar (mod
    order)`` and both halves about half the order's length.

    Babai rounding: write ``(scalar, 0)`` in the lattice basis with
    rational coordinates, round each to the nearest integer, and keep the
    remainder — which lies in the basis's fundamental parallelogram, so
    ``|k_i| <= (|a_1| + |a_2|) / 2`` resp. ``(|b_1| + |b_2|) / 2``.
    """
    (a_1, b_1), (a_2, b_2) = endo.basis
    scalar %= order
    twice = 2 * order
    c_1 = (2 * scalar * b_2 + order) // twice
    c_2 = (order - 2 * scalar * b_1) // twice
    return scalar - c_1 * a_1 - c_2 * a_2, -c_1 * b_1 - c_2 * b_2


def _split(scalar: int, order: int, endo: Optional[Endomorphism]):
    """The signed lanes ``((k, variant), ...)`` of one reduced scalar;
    ``variant`` 1 is the phi-image table.  See the module docstring for
    why a short scalar is left alone."""
    if scalar.bit_length() <= _SHORT_BITS:
        return ((scalar, 0),)
    if endo is None:
        return ((scalar - order if 2 * scalar > order else scalar, 0),)
    k_1, k_2 = glv_decompose(endo, scalar, order)
    return ((k_1, 0), (k_2, 1))


def _lane_tables(ops: FieldOps, points, count: int):
    """``(positive, negative)`` affine odd-multiple tables for every
    point, all sharing ONE inversion.  Odd multiples below the (prime)
    group order are never the identity, so every normalized entry exists.
    """
    flat = []
    for point in points:
        flat.extend(_odd_multiples(ops, point, count))
    normalized = jac_batch_normalize(ops, flat)
    tables = []
    for start in range(0, len(flat), count):
        positive = normalized[start:start + count]
        tables.append(
            (positive, [(x, ops.neg(y)) for x, y in positive]))
    return tables


def _phi_tables(ops: FieldOps, endo: Endomorphism, table):
    """The phi-image of a ``(positive, negative)`` table pair: one field
    multiplication per entry, shared by both signs."""
    positive, negative = table
    xs = [ops.mul(endo.beta, x) for x, _y in positive]
    return ([(x, y) for x, (_, y) in zip(xs, positive)],
            [(x, y) for x, (_, y) in zip(xs, negative)])


def _schedule_lane(schedule: List[list], k: int, table, width: int):
    """Recode the signed lane scalar ``k`` into width-``w`` NAF and file
    each nonzero digit's table entry under its bit in ``schedule``
    (``schedule[i]`` = what to add after the doubling at bit ``i``)."""
    positive, negative = table
    if k < 0:
        k = -k
        positive, negative = negative, positive
    # A w-NAF is at most one digit longer than the scalar.
    schedule.extend(
        [] for _ in range(k.bit_length() + 1 - len(schedule)))
    window = 1 << width
    half = window >> 1
    mask = window - 1
    bit = 0
    while k:
        # Hop over the zero run; k is odd afterwards (the recoding of
        # wnaf_digits, emitting only the nonzero digits).
        skip = (k & -k).bit_length() - 1
        k >>= skip
        bit += skip
        digit = k & mask
        if digit >= half:
            digit -= window
            schedule[bit].append(negative[-digit >> 1])
        else:
            schedule[bit].append(positive[digit >> 1])
        k -= digit


def _run_lanes(ops: FieldOps, schedule: List[list]):
    """The one inner loop: walk the schedule from the top bit with one
    shared doubling per bit and a mixed addition per filed entry.  The
    mixed addition handles the degenerate meetings (identity
    accumulator, P + P, P - P)."""
    result = (ops.one, ops.one, ops.zero)
    modulus = ops.modulus
    if modulus is not None:
        for entries in reversed(schedule):
            result = jac_double_fp(result, modulus)
            for entry in entries:
                result = jac_add_affine_fp(result, entry, modulus)
    else:
        for entries in reversed(schedule):
            result = jac_double(ops, result)
            for entry in entries:
                result = jac_add_affine(ops, result, entry)
    return result


def multi_scalar_mul_rows(ops: FieldOps, points: Sequence,
                          scalar_rows: Sequence[Sequence[int]], order: int,
                          endo: Optional[Endomorphism] = None) -> list:
    """``[sum_j row[j] * points[j] for row in scalar_rows]`` — many
    products over the *same* bases against one shared table.

    The odd-multiples table of every base is built once (one batch
    inversion); each row is recoded into lanes against it and run
    through :func:`_run_lanes`.  The table is local to the call.
    """
    rows = []
    for row in scalar_rows:
        if len(row) != len(points):
            raise ValueError("points and scalars must have equal length")
        rows.append([scalar % order for scalar in row])
    live = [
        index for index, point in enumerate(points)
        if not ops.is_zero(point[2]) and any(row[index] for row in rows)
    ]
    # Four rows repay the twice-as-large w = 5 table (one fewer addition
    # per ~30 scalar bits and lane); fewer do not.
    width = 5 if len(rows) >= 4 else 4
    tables = _lane_tables(
        ops, [points[index] for index in live], 1 << (width - 2))
    phi_tables = [None] * len(live)
    results = []
    for row in rows:
        schedule: List[list] = []
        for slot, index in enumerate(live):
            for k, variant in _split(row[index], order, endo):
                if not variant:
                    table = tables[slot]
                else:
                    table = phi_tables[slot]
                    if table is None:
                        table = phi_tables[slot] = _phi_tables(
                            ops, endo, tables[slot])
                _schedule_lane(schedule, k, table, width)
        results.append(_run_lanes(ops, schedule))
    return results


def scalar_mul(ops: FieldOps, point, scalar: int, order: int,
               endo: Optional[Endomorphism] = None):
    """Single-scalar multiplication; drop-in for ``jac_scalar_mul``."""
    return multi_scalar_mul_rows(ops, [point], [[scalar]], order, endo)[0]


def multi_scalar_mul(ops: FieldOps, points: Sequence, scalars: Sequence[int],
                     order: int, endo: Optional[Endomorphism] = None):
    """``sum_i scalars[i] * points[i]`` with shared doublings.

    Dispatches to the lane kernel for small batches and to the Pippenger
    bucket method for large ones.
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    live = [
        (point, scalar % order)
        for point, scalar in zip(points, scalars)
        if scalar % order != 0 and not ops.is_zero(point[2])
    ]
    # Crossover measured on this interpreter with mixed additions: the
    # shared-inversion affine tables make the lane kernel cheaper than
    # bucketing until k ~ 200 (Combine and batch Share-Verify all sit
    # below it; DKG transcript aggregation at n in the hundreds sits
    # above).
    if len(live) > 192:
        return _pippenger(ops, live, order.bit_length())
    return multi_scalar_mul_rows(ops, points, [scalars], order, endo)[0]


def _pippenger_window(count: int) -> int:
    """Bucket width c minimizing the mixed-coordinate addition cost.

    Per 254/c-bit window the bucket fills are *mixed* additions (~11
    field multiplications each, inputs are batch-normalized affine) while
    the running-sum folds and the c doublings stay Jacobian (the fold
    term is discounted to ~20 per bucket for partially-empty buckets).
    Calibrated against a measured sweep at real trace sizes — DKG
    transcript aggregation (``_vk_component``) runs at |Q|(t+1) in the
    hundreds, where the sweep put the optimum at c = 5-6; the old
    unit-cost model under-sized the window across that range.
    """
    best_c, best_cost = 1, None
    for c in range(1, 17):
        windows = 254 // c + 1
        cost = windows * (count * 11 + (1 << c) * 20 + c * 8)
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def _pippenger(ops: FieldOps, live, scalar_bits: int):
    """Bucket MSM: per window, drop points into 2^c - 1 buckets and fold
    them with the running-sum trick.  Inputs are batch-normalized once so
    every bucket fill is a mixed addition."""
    infinity = (ops.one, ops.one, ops.zero)
    affine = jac_batch_normalize(ops, [point for point, _scalar in live])
    live = [
        (aff, scalar)
        for aff, (_point, scalar) in zip(affine, live)
        if aff is not None
    ]
    if not live:
        return infinity
    c = _pippenger_window(len(live))
    mask = (1 << c) - 1
    windows = (scalar_bits + c - 1) // c
    double, add, mixed_add = _fast_arith(ops)
    result = infinity
    for w in range(windows - 1, -1, -1):
        if result is not infinity:
            for _ in range(c):
                result = double(result)
        buckets = [None] * (mask + 1)
        shift = w * c
        for aff, scalar in live:
            digit = (scalar >> shift) & mask
            if digit == 0:
                continue
            held = buckets[digit]
            buckets[digit] = (aff[0], aff[1], ops.one) if held is None \
                else mixed_add(held, aff)
        running = None
        window_sum = None
        for digit in range(mask, 0, -1):
            held = buckets[digit]
            if held is not None:
                running = held if running is None else add(running, held)
            if running is not None:
                window_sum = running if window_sum is None else add(
                    window_sum, running)
        if window_sum is not None:
            result = window_sum if result is infinity else add(
                result, window_sum)
    return result


class FixedBaseTable:
    """Windowed precomputation for a base point reused across many scalars.

    Stores ``table[i][d] = d * 2^{window * i} * P`` for every window ``i``
    and digit ``d`` in ``[1, 2^window)``; a multiplication then reads one
    entry per window and performs ~ceil(bits/window) - 1 additions, no
    doublings.  Entries are batch-normalized to **affine** after the
    build (one shared inversion), so every lookup addition is mixed.
    Digit multiples of a sub-order point are never the identity (the
    order is prime), so every entry normalizes.  See the module docstring
    for the amortization math.
    """

    __slots__ = ("ops", "order", "window", "tables", "_infinity")

    def __init__(self, ops: FieldOps, point, order: int, window: int = 4):
        if window < 1:
            raise ValueError("window must be positive")
        self.ops = ops
        self.order = order
        self.window = window
        self._infinity = (ops.one, ops.one, ops.zero)
        if ops.is_zero(point[2]):
            # Identity base: every multiple is the identity.
            self.tables = None
            return
        bits = order.bit_length()
        double, add, _mixed_add = _fast_arith(ops)
        base = point
        rows: List[list] = []
        for _ in range((bits + window - 1) // window):
            row = [base]
            for _ in range((1 << window) - 2):
                row.append(add(row[-1], base))
            rows.append(row)
            for _ in range(window):
                base = double(base)
        flat = jac_batch_normalize(
            ops, [entry for row in rows for entry in row])
        per_row = (1 << window) - 1
        self.tables: List[list] = [
            [None] + flat[start:start + per_row]
            for start in range(0, len(flat), per_row)
        ]

    def mul(self, scalar: int):
        """``scalar * P`` from the table (scalar reduced modulo the order)."""
        ops = self.ops
        scalar %= self.order
        result = self._infinity
        if self.tables is None:
            return result
        _double, _add, mixed_add = _fast_arith(ops)
        mask = (1 << self.window) - 1
        index = 0
        while scalar:
            digit = scalar & mask
            if digit:
                entry = self.tables[index][digit]
                result = (entry[0], entry[1], ops.one) \
                    if result is self._infinity \
                    else mixed_add(result, entry)
            scalar >>= self.window
            index += 1
        return result
