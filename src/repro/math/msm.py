"""Fast exponentiation: two multi-scalar-multiplication kernels (lanes
and ladder), the Pippenger bucket method and fixed-base precomputation
tables.

All routines take a :class:`~repro.curves.weierstrass.FieldOps` bundle
and call the int-specialised point formulas it names (``*_fp`` on G1
over F_p, ``*_fp2`` on G2 over F_p2), so the same code serves both
groups with no generic branch; the ladder kernel is the exception,
prime fields only.  Points are Jacobian ``(X, Y, Z)`` triples exactly as
in :mod:`repro.curves.weierstrass`; the generic formulas and the naive
``jac_scalar_mul`` there remain the correctness reference the property
tests compare against.

**The lane kernel.**  :func:`scalar_mul`, :func:`multi_scalar_mul` (below
the Pippenger crossover) and :func:`multi_scalar_mul_rows` (for most
shapes — see the ladder kernel below) are callers of one interleaved-w-NAF
loop.  Every ``(base, scalar)`` term is recoded into one or two *lanes* —
a signed sub-scalar driving a table of affine odd multiples — and all
lanes of a product share one doubling chain, so the cost is ``max lane
bits`` doublings plus ~``bits / (w + 1)`` mixed additions per lane.
Three things shorten or share the lanes:

* **GLV endomorphism** (Gallant-Lambert-Vanstone, CRYPTO 2001).  Where
  the group has ``phi(x, y) = (beta * x, y) = lambda * (x, y)`` (see
  :class:`Endomorphism`), a full-size scalar splits by Babai rounding
  into ``k = k_1 + k_2 * lambda`` with ``|k_i| < 2^128``: two lanes of
  half the length, the second over the phi-image of the first's table.
  That image costs one field multiplication per entry and no point
  arithmetic, so a 2-base 254-bit product is 4 lanes over ~127 doublings
  instead of 2 lanes over 254.  Both BN254 groups have one with the same
  lambda and lattice basis: ``beta`` is a cube root of unity in F_p on
  G1 and its square on the twist (G2).
* **Signed scalars.**  Negating an affine table entry is free, so a lane
  takes whichever of ``k`` and ``k - r`` is shorter: the Lagrange
  coefficient ``-3`` costs a 2-bit lane, not a 254-bit one.  The GLV
  split yields signed halves by itself; groups without an endomorphism
  get the same effect from the comparison.
* **Shared tables.**  Rows over the *same* bases share one w = 4
  odd-multiples table per base, built once and batch-normalized with one
  inversion.  A table lives for one call; nothing is cached.

**Short scalars skip the split.**  A scalar of at most 128 bits — the
64-bit small-exponent coins of ``batch_verify`` and
``batch_share_verify_window`` — is already as short as a GLV half, so
decomposing it would add a lane without removing a doubling.  It stays
one undecomposed lane.

**The ladder kernel.**  Share-Sign evaluates ``2(t + 1)`` rows over the
one hashed pair ``(H_1, H_2)``: ``z_i``/``r_i`` for every signer of a
quorum.  Lanes would give every row its own ~128-step doubling chain.
:func:`_ladder_rows` instead doubles each base once, into a normalized
ladder ``2^j * P`` (its phi-image is one multiplication per rung),
files every row's w = 5 NAF
digits as ``+-2^j * P`` into per-row buckets by ``|d|``, sums all
buckets of all rows pairwise with batched affine additions
(:func:`~repro.curves.weierstrass.batch_add_affine_fp`, one inversion per
round) and folds each row as ``sum_u (2u + 1) * S_u``.  A row then costs
only additions at ~6 multiplications each; the ladder, 2 x 128
doublings plus one normalization, is paid once per call.
:func:`multi_scalar_mul_windows` picks it from the input's shape alone:
more rows than live bases, over a prime field (G1).  Measured twice on
one 2-core box (full-size scalars over hash-to-curve bases), the ladder
took 1.27-1.31x the lanes' time on 2 bases x 2 rows (one-share
Share-Sign), 0.98-1.00x at 2 x 3, 0.71x at 2 x 6 (the t = 2 quorum) and
0.57-0.59x at 2 x 10; over 3 bases, 1.13-1.14x at 3 x 3 (DLIN's
Share-Sign), 0.94-0.96x at 3 x 4 and 0.60-0.64x at 3 x 10.

**The window form.**  A batch window Share-Signs all its messages under
one quorum: the same rows over many base sets, one ``(H_1, H_2)`` per
message.  :func:`multi_scalar_mul_windows` hands every set to ONE
ladder call, which splits and recodes the rows once (a schedule of
``(slot, variant, bucket, sign)`` entries per bit, shared by all sets)
rather than once per message.  From ``_AFFINE_LADDER_BASES`` (8) live
bases in all it also changes how rungs are made: every base is doubled
in *affine* coordinates, ``2P`` by the tangent slope, one
:func:`~repro.curves.weierstrass.batch_add_affine_fp` per rung across
all bases — ~7 multiplications a rung against ~16 for a Jacobian
doubling plus its share of the final normalization — and the bucket
pairs that rung completed ride in the same batch, so they share its
inversion.  The inversion is what sets the crossover: one per rung is
~128 inversions a call, worth it only over enough bases.  Measured in
one process on the 2-core box, alternating 15-21 times (2 bases x 6
rows a set, per-message Jacobian calls = 1.00): the affine ladder took
1.41x at 1 set, 1.09-1.12x at 2, 0.98-0.99x at 3, 0.93-0.94x at 4 and
0.81x at 16 (a full window); the Jacobian ladder over a whole window
took 0.96-1.00x at every size.  Below 8 bases — a presigned request, a
top-up, one share's Share-Sign — the ladder stays Jacobian with one
normalization, exactly the per-message kernel.

A streamed rung is filed into its buckets as soon as it exists and is
then dropped, and a bucket is paired down as soon as it holds two
points, so what a call holds is the current rung of every base plus a
few points per bucket.  Stored ladders would be ~130 rungs x 32 bases
plus their phi-images per window, ~1.5-2 MB of Python ints — beyond
what a window may add to a signing process's resident set.

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

**Mixed coordinates**: every table entry, ladder rung and Pippenger input
is batch-normalized to affine with one shared field inversion
(:func:`~repro.curves.weierstrass.jac_batch_normalize`, over plain ints
on G1 and over the F_p norms of the Z coordinates on G2), so the inner
loops run mixed Jacobian+affine additions (7M + 4S instead of 11M + 5S —
~25% off each addition) and affine negation is free (negate y).  The
pure-Jacobian formulas remain the agreement reference via the naive
``jac_scalar_mul`` fold the property tests compare against.
"""

from __future__ import annotations

from itertools import islice
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.curves.weierstrass import (
    FieldOps, batch_add_affine_fp, jac_add_affine_fp, jac_add_fp,
    jac_batch_normalize, jac_double_fp,
)


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
        m, add = ops.modulus, ops.point_add
        twice = ops.point_double(point, m)
        for _ in range(count - 1):
            multiples.append(add(multiples[-1], twice, m))
    return multiples


class Endomorphism(NamedTuple):
    """An efficiently computable endomorphism ``phi(x, y) = (beta * x, y)``
    acting on the group as multiplication by ``eigenvalue``; ``beta`` is
    an element of the coordinate field (an int on G1, an ``(a0, a1)``
    pair on G2), multiplied in with ``ops.mul``.

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


def _wnaf_terms(k: int, width: int):
    """``(bit, digit)`` for every nonzero width-``w`` NAF digit of
    ``k >= 0``, LSB first — the recoding of :func:`wnaf_digits`, hopping
    over the zero runs instead of emitting them.  The top digit sits at
    most one bit above the scalar's own top bit."""
    window = 1 << width
    half = window >> 1
    mask = window - 1
    bit = 0
    while k:
        skip = (k & -k).bit_length() - 1
        k >>= skip
        bit += skip
        digit = k & mask
        if digit >= half:
            digit -= window
        yield bit, digit
        k -= digit


def _schedule_lane(schedule: List[list], k: int, table, width: int):
    """Recode the signed lane scalar ``k`` into width-``w`` NAF and file
    each nonzero digit's table entry under its bit in ``schedule``
    (``schedule[i]`` = what to add after the doubling at bit ``i``)."""
    positive, negative = table
    if k < 0:
        k = -k
        positive, negative = negative, positive
    schedule.extend(
        [] for _ in range(k.bit_length() + 1 - len(schedule)))
    for bit, digit in _wnaf_terms(k, width):
        if digit < 0:
            schedule[bit].append(negative[-digit >> 1])
        else:
            schedule[bit].append(positive[digit >> 1])


def _run_lanes(ops: FieldOps, schedule: List[list]):
    """The one inner loop: walk the schedule from the top bit with one
    shared doubling per bit and a mixed addition per filed entry.  The
    mixed addition handles the degenerate meetings (identity
    accumulator, P + P, P - P)."""
    m, double = ops.modulus, ops.point_double
    add_affine = ops.point_add_affine
    result = (ops.one, ops.one, ops.zero)
    for entries in reversed(schedule):
        result = double(result, m)
        for entry in entries:
            result = add_affine(result, entry, m)
    return result


#: Work served by each kernel of :func:`multi_scalar_mul_windows` in this
#: process: rows per kernel (``ladder_rows`` / ``lane_rows``, every base
#: set's rows counted) and ladder-kernel calls (``ladder_calls``) — the
#: MSM counterpart of ``PAIRING_COUNTERS``; read deltas, never reset.
MSM_COUNTERS = {"ladder_rows": 0, "lane_rows": 0, "ladder_calls": 0}

#: w-NAF widths: the lane kernel's odd-multiples tables (2^{w-2} entries
#: per base) and the ladder kernel's buckets (2^{w-2} per row).
_LANE_WIDTH = 4
_LADDER_WIDTH = 5

#: Live bases, over all base sets of one ladder call, from which the
#: rungs are doubled in affine coordinates (one inversion per rung)
#: instead of in Jacobian ones normalized together at the end.  See the
#: module docstring for the measurement behind it.
_AFFINE_LADDER_BASES = 8


def multi_scalar_mul_rows(ops: FieldOps, points: Sequence,
                          scalar_rows: Sequence[Sequence[int]], order: int,
                          endo: Optional[Endomorphism] = None) -> list:
    """``[sum_j row[j] * points[j] for row in scalar_rows]`` — many
    products over the *same* bases: :func:`multi_scalar_mul_windows`
    over a window of one base set."""
    return multi_scalar_mul_windows(
        ops, [points], scalar_rows, order, endo)[0]


def multi_scalar_mul_windows(ops: FieldOps, point_sets: Sequence[Sequence],
                             scalar_rows: Sequence[Sequence[int]],
                             order: int,
                             endo: Optional[Endomorphism] = None
                             ) -> List[list]:
    """``[[sum_j row[j] * points[j] for row in scalar_rows] for points
    in point_sets]`` — the same rows over many base sets (Share-Sign of
    a window: one quorum's rows over every message's ``(H_1, H_2)``).

    Sets whose live bases (non-identity, under some nonzero scalar) are
    fewer than the rows, over a prime field (G1), go to the ladder kernel
    (:func:`_ladder_rows`) in ONE call per live pattern: each base is
    doubled once for all rows, and the rows are split and recoded once
    for all sets.  Every other shape — one row, G2, few rows over many
    bases, nothing live — builds one odd-multiples table per base (one
    batch inversion), recodes each row into lanes against it and runs
    them through :func:`_run_lanes`.  Either way nothing outlives the
    call.
    """
    rows = []
    for row in scalar_rows:
        if any(len(row) != len(points) for points in point_sets):
            raise ValueError("points and scalars must have equal length")
        rows.append([scalar % order for scalar in row])
    width = len(point_sets[0]) if point_sets else 0
    used = [index for index in range(width)
            if any(row[index] for row in rows)]
    patterns = {}
    for position, points in enumerate(point_sets):
        live = tuple(index for index in used
                     if not ops.is_zero(points[index][2]))
        patterns.setdefault(live, []).append(position)
    results: List[list] = [None] * len(point_sets)
    for live, positions in patterns.items():
        if ops.degree == 1 and 0 < len(live) < len(rows):
            MSM_COUNTERS["ladder_rows"] += len(rows) * len(positions)
            MSM_COUNTERS["ladder_calls"] += 1
            sums = _ladder_rows(
                ops, [[point_sets[position][index] for index in live]
                      for position in positions],
                [[row[index] for index in live] for row in rows],
                order, endo)
        else:
            MSM_COUNTERS["lane_rows"] += len(rows) * len(positions)
            sums = [_lane_rows(
                ops, [point_sets[position][index] for index in live],
                [[row[index] for index in live] for row in rows],
                order, endo) for position in positions]
        for position, products in zip(positions, sums):
            results[position] = products
    return results


def _lane_rows(ops: FieldOps, bases: Sequence, rows: Sequence[list],
               order: int, endo: Optional[Endomorphism]) -> list:
    """The lane kernel over one base set's live bases."""
    tables = _lane_tables(ops, bases, 1 << (_LANE_WIDTH - 2))
    phi_tables = [None] * len(bases)
    results = []
    for row in rows:
        schedule: List[list] = []
        for slot, scalar in enumerate(row):
            for k, variant in _split(scalar, order, endo):
                if not variant:
                    table = tables[slot]
                else:
                    table = phi_tables[slot]
                    if table is None:
                        table = phi_tables[slot] = _phi_tables(
                            ops, endo, tables[slot])
                _schedule_lane(schedule, k, table, _LANE_WIDTH)
        results.append(_run_lanes(ops, schedule))
    return results


def _ladder_rows(ops: FieldOps, base_sets: Sequence[Sequence],
                 rows: Sequence[list], order: int,
                 endo: Optional[Endomorphism]) -> List[list]:
    """The ladder-and-bucket kernel: many rows over a few live bases, in
    a prime field, for every base set of a window.

    * **Schedule.**  Every row's lanes (:func:`_split`) are recoded to
      w-NAF once per call; a digit ``d`` at bit ``j`` of a lane over
      slot ``s`` files ``sign(d) * 2^j * P_s`` into the row's bucket
      ``|d| >> 1`` — in every set — so bucket ``u`` holds the points
      that are multiplied by ``2u + 1``.  No bucket point is doubled.
    * **Ladder.**  Each base ``P`` is doubled once, to ``2^j * P`` for
      every bit ``j`` its longest lane can reach; a phi-image rung is
      ``(beta * x, y)``, one multiplication.  Under
      ``_AFFINE_LADDER_BASES`` bases in all, the rungs are doubled in
      Jacobian coordinates and normalized with one inversion at the end;
      from there on each rung of every base is doubled in affine
      coordinates, one :func:`batch_add_affine_fp` per rung, which also
      adds the bucket pairs that rung completed.  A streamed rung is
      filed as soon as it exists and then dropped.
    * **Reduction.**  What is left in the buckets is summed pairwise in
      rounds, each round ONE :func:`batch_add_affine_fp` over every pair.
    * **Fold.**  Each row is ``sum_u (2u + 1) * S_u``: with running sums
      ``R_u = sum_{v >= u} S_v`` that is ``2 * sum_{u >= 1} R_u + R_0``.

    Bases must be non-identity points of the (odd prime order) group, so
    no rung is the identity and no affine ``y`` is zero.
    """
    m = ops.modulus
    width = 1 << (_LADDER_WIDTH - 2)
    tops = [0] * len(rows[0])
    schedule: List[list] = []
    for position, row in enumerate(rows):
        for slot, scalar in enumerate(row):
            for k, variant in _split(scalar, order, endo):
                tops[slot] = max(tops[slot], abs(k).bit_length())
                schedule.extend(
                    [] for _ in range(abs(k).bit_length() + 1
                                      - len(schedule)))
                for bit, digit in _wnaf_terms(abs(k), _LADDER_WIDTH):
                    schedule[bit].append((
                        slot, variant, position * width + (abs(digit) >> 1),
                        (digit < 0) != (k < 0)))
    buckets = [[[] for _ in range(len(rows) * width)] for _ in base_sets]
    beta = None if endo is None else endo.beta

    def file(entries, rung, set_buckets, full):
        """Every entry of one bit into one set's buckets, ``rung[slot]``
        being that bit's affine rung; a bucket reaching two points goes
        on ``full``."""
        images = {}
        for slot, variant, index, negative in entries:
            if not variant:
                x, y = rung[slot]
            elif slot in images:
                x, y = images[slot]
            else:
                x, y = rung[slot]
                x = beta * x % m
                images[slot] = x, y
            bucket = set_buckets[index]
            bucket.append((x, m - y) if negative else (x, y))
            if len(bucket) == 2:
                full.append(bucket)

    if len(base_sets) * len(tops) < _AFFINE_LADDER_BASES:
        jacobian = []
        for bases in base_sets:
            for base, top in zip(bases, tops):
                jacobian.append(base)
                for _ in range(top):
                    jacobian.append(jac_double_fp(jacobian[-1], m))
        flat = iter(jac_batch_normalize(ops, jacobian))
        for set_buckets in buckets:
            ladders = [list(islice(flat, top + 1)) for top in tops]
            variants = (ladders, None if beta is None else [
                [(beta * x % m, y) for x, y in ladder] for ladder in ladders])
            for bit, entries in enumerate(schedule):
                for slot, variant, index, negative in entries:
                    x, y = variants[variant][slot][bit]
                    set_buckets[index].append(
                        (x, m - y) if negative else (x, y))
        pending = [bucket for set_buckets in buckets
                   for bucket in set_buckets if len(bucket) > 1]
    else:
        flat = iter(jac_batch_normalize(
            ops, [base for bases in base_sets for base in bases]))
        rungs = [[next(flat) for _ in tops] for _ in base_sets]
        pending = []
        for bit, entries in enumerate(schedule):
            for rung, set_buckets in zip(rungs, buckets):
                file(entries, rung, set_buckets, pending)
            climbing = [slot for slot, top in enumerate(tops) if top > bit]
            if not climbing and not pending:
                continue
            sums = iter(batch_add_affine_fp(
                [(rung[slot], rung[slot]) for rung in rungs
                 for slot in climbing]
                + [pair for bucket in pending
                   for pair in zip(bucket[0::2], bucket[1::2])], m))
            for rung in rungs:
                for slot in climbing:
                    rung[slot] = next(sums)
            pending = _reduced(pending, sums)
    while pending:
        pending = _reduced(pending, iter(batch_add_affine_fp(
            [pair for bucket in pending
             for pair in zip(bucket[0::2], bucket[1::2])], m)))

    results = []
    for set_buckets in buckets:
        products = []
        for start in range(0, len(set_buckets), width):
            row = set_buckets[start:start + width]
            running = total = (1, 1, 0)
            for bucket in reversed(row[1:]):
                if bucket:
                    running = jac_add_affine_fp(running, bucket[0], m)
                total = jac_add_fp(total, running, m)
            if row[0]:
                running = jac_add_affine_fp(running, row[0][0], m)
            products.append(jac_add_fp(jac_double_fp(total, m), running, m))
        results.append(products)
    return results


def _reduced(pending: List[list], sums) -> List[list]:
    """One pairwise round over ``pending`` buckets: each keeps its pairs'
    sums (from ``sums``, identities dropped) plus an odd last point;
    returns the buckets still holding two or more."""
    still = []
    for bucket in pending:
        kept = [point for point in islice(sums, len(bucket) >> 1)
                if point is not None]
        if len(bucket) & 1:
            kept.append(bucket[-1])
        bucket[:] = kept
        if len(kept) > 1:
            still.append(bucket)
    return still


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
    m, double, add = ops.modulus, ops.point_double, ops.point_add
    mixed_add = ops.point_add_affine
    result = infinity
    for w in range(windows - 1, -1, -1):
        if result is not infinity:
            for _ in range(c):
                result = double(result, m)
        buckets = [None] * (mask + 1)
        shift = w * c
        for aff, scalar in live:
            digit = (scalar >> shift) & mask
            if digit == 0:
                continue
            held = buckets[digit]
            buckets[digit] = (aff[0], aff[1], ops.one) if held is None \
                else mixed_add(held, aff, m)
        running = None
        window_sum = None
        for digit in range(mask, 0, -1):
            held = buckets[digit]
            if held is not None:
                running = held if running is None else add(
                    running, held, m)
            if running is not None:
                window_sum = running if window_sum is None else add(
                    window_sum, running, m)
        if window_sum is not None:
            result = window_sum if result is infinity else add(
                result, window_sum, m)
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
        m, double, add = ops.modulus, ops.point_double, ops.point_add
        base = point
        rows: List[list] = []
        for _ in range((bits + window - 1) // window):
            row = [base]
            for _ in range((1 << window) - 2):
                row.append(add(row[-1], base, m))
            rows.append(row)
            for _ in range(window):
                base = double(base, m)
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
        m, mixed_add = ops.modulus, ops.point_add_affine
        mask = (1 << self.window) - 1
        index = 0
        while scalar:
            digit = scalar & mask
            if digit:
                entry = self.tables[index][digit]
                result = (entry[0], entry[1], ops.one) \
                    if result is self._infinity \
                    else mixed_add(result, entry, m)
            scalar >>= self.window
            index += 1
        return result
