"""Fast exponentiation: five paths for a G1 product — the lanes, the
Jacobian-rung ladder, the affine-rung ladder, Pippenger and
:class:`FixedBaseTable` — of which G2 uses all but the two ladders.

All routines take a :class:`~repro.curves.weierstrass.FieldOps` bundle
and call the int-specialised point formulas it names (``*_fp`` on G1
over F_p, ``*_fp2`` on G2 over F_p2), so the same code serves both
groups with no generic branch; the ladder kernel is the exception,
prime fields only.  Points are Jacobian ``(X, Y, Z)`` triples exactly as
in :mod:`repro.curves.weierstrass`; the generic formulas and the naive
``jac_scalar_mul`` there remain the correctness reference the property
tests compare against.

**Which path serves which call.**  The shape of the input alone picks
the path; nothing is configured.  With t = 2 and n = 5 (the workloads
of ``perf/workloads.py``), the scheme calls land as follows:

* **Jacobian-rung ladder** (:func:`_ladder_rows`, more rows than live
  bases, fewer than ``_AFFINE_LADDER_BASES`` bases in the call): a
  presign at arrival, one message's quorum Share-Sign — 1 set x 2
  bases x 6 rows (``ServiceHandle.partials_for``) — and a window of 2
  or 3 unpresigned messages (``sign_http``'s windows of 1-2).
* **Affine-rung ladder** (the same kernel from ``_AFFINE_LADDER_BASES``
  bases): a window of 4 or more messages signed at close, so every full
  ``sign_burst``/``sign_faulty`` window (16 sets x 2 bases x 6 rows).
* **Lanes** (:func:`_lane_rows`, every other shape): a one-signer
  top-up (2 rows over 2 bases), one share's ``share_sign``, Combine's
  Lagrange interpolation (one row over the t + 1 = 3 partials of every
  set sharing a signer set: 32 sets in a full window), the coined
  products of ``batch_verify``/``verify_window`` and the robust path
  (one row of 64-bit coins over at most a window's points), and on G2
  the DKG's commitment evaluations and verification keys (3 terms).
* **Pippenger** (:func:`_pippenger`, :func:`multi_scalar_mul` over more
  than 192 live terms): a BN254 multi-exponentiation that long — the
  per-share DKG check at t in the hundreds (T4d) and reshare/DKG
  aggregation over committees that large.  No ``perf`` workload gets
  there, and the simulator's scenarios run on the toy backend.
* **Fixed-base tables** (:class:`FixedBaseTable`): a point multiplied
  ``_AUTO_PRECOMPUTE_USES`` (8) times through ``*`` builds its own
  (:class:`~repro.curves.point.CurvePoint`), and a remote worker builds
  them for ``g_z``/``g_r`` up front.  In the DKG, ``g_z`` and ``g_r``
  cross that count in the first dealings; from there their
  commitments are table reads, and the two-base share check
  ``[g_z, g_r]`` takes ``BN254Group.multi_exp``'s all-tables shortcut
  (one table read per base instead of an MSM).

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
  odd-multiples table per base, and every base set of a call shares one
  batch normalization — one inversion for all of them.  The rows are
  recoded once per call, and a base's table only runs up to the largest
  digit its lanes use: Combine's Lagrange row over the quorum {1, 2, 3}
  is (3, -3, 1), which needs P and 3P, not four entries; full-size
  lanes and the 64-bit coins use all four.  A table lives for one call;
  nothing is cached.

**Short scalars skip the split.**  A scalar of at most 128 bits — the
64-bit small-exponent coins of ``batch_verify`` and
``batch_share_verify_window`` — is already as short as a GLV half, so
decomposing it would add a lane without removing a doubling.  It stays
one undecomposed lane.

**The ladder kernel.**  Share-Sign evaluates ``2(t + 1)`` rows over the
one hashed pair ``(H_1, H_2)``: ``z_i``/``r_i`` for every signer of a
quorum.  Lanes would give every row its own ~128-step doubling chain.
:func:`_ladder_rows` instead doubles each base once, into a ladder
``2^j * P`` (its phi-image is one multiplication per rung), files every
row's w = 5 NAF digits as ``+-2^j * P`` into per-row buckets by ``|d|``,
sums each bucket with batched affine additions and folds each row as
``sum_u (2u + 1) * S_u``, also in batched affine rounds.  A row then
costs only additions at ~6 multiplications each; the ladder, 2 x 128
doublings, is paid once per call.
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
``(variant, rung, bucket, sign)`` entries per bit, shared by all sets)
rather than once per message.  From ``_AFFINE_LADDER_BASES`` (8) live
bases in all it also changes how rungs are made: every base is doubled
in *affine* coordinates, ``2P`` by the tangent slope, all bases' rungs
in one pass per bit — ~7 multiplications a rung against ~16 for a
Jacobian doubling plus its share of a normalization — and the bucket
pairs that bit completed ride in the same pass, so they share its
inversion.  The inversion is what sets the crossover: one per rung is
~128 inversions a call, worth it only over enough bases.  Measured in
one process on a 2-core box (2 bases x 6 rows a set, per-message
Jacobian calls = 1.00), the affine ladder took 1.41x at 1 set,
1.09-1.12x at 2, 0.98-0.99x at 3, 0.93-0.94x at 4 and 0.81x at 16;
below 8 bases — a presigned request, a top-up, one share's Share-Sign
— the rungs stay Jacobian, normalized with one inversion.

**The flat bucket engine.**  Both kinds of rungs feed one engine whose
state is a handful of flat parallel int lists: the rungs' coordinates,
one cell per (set, row, bucket), and the queue of the next pass.  A
cell holds at most one point.  A point filed into an occupied cell
queues the pair and marks the cell in flight (``P + (-P)`` empties the
cell instead, decided exactly, so no identity ever enters a pass); a
point filed into an in-flight cell waits, and waiting points are paired
among themselves before each pass, their sums rejoining the cell's
waiting points, so a stored ladder's hundreds of points per cell still
reduce as a tree.  Each pass is ONE
:func:`~repro.curves.weierstrass.batch_add_affine_fp` over the climbing
rungs and every queued pair — one inversion, no per-point tuples or
per-bucket lists.  The fold ``sum_u (2u + 1) * S_u`` is nine more passes
over every row of every set (running sums ``R_u`` into cell ``u`` and
their sum into the top cell in seven, then a doubling and ``+ R_0``), so
products come out affine (Z = 1) and Combine's normalization has
nothing left to do.  A full t = 2 window of 16 runs ~800 affine
additions and ~9 passes a message (``MSM_COUNTERS``).  Measured in one
process on the same 2-core box in CPU time, alternating 15-201 times
against the list-of-buckets kernel with its Jacobian fold (= 1.00, 2
bases x 6 rows a set, medians): 1.00-1.01x at 1 set (Jacobian rungs;
1.00x counting the normalization of its output that Combine no longer
pays), 0.95-0.97x at 2, 0.82-0.87x at 4, 0.84-0.85x at 8 and
0.82-0.85x at 16.

A streamed rung is filed into its cells as soon as it exists and is
then dropped, and a cell never holds more than one point, so what a
call holds is the current rung of every base, one point per cell and
one pass's queue.  Stored ladders would be ~130 rungs x 32 bases plus
their phi-images per window, ~1.5-2 MB of Python ints — beyond what a
window may add to a signing process's resident set.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.curves.weierstrass import (
    FieldOps, batch_add_affine_fp, jac_batch_normalize, jac_double_fp,
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


def _lane_tables(ops: FieldOps, base_sets: Sequence[Sequence],
                 counts: Sequence[int]) -> List[list]:
    """``(positive, negative)`` affine odd-multiple tables, ``counts[j]``
    entries for base ``j`` of every set, all sets sharing ONE inversion.
    Odd multiples below the (prime) group order are never the identity,
    so every normalized entry exists."""
    flat = []
    for bases in base_sets:
        for base, count in zip(bases, counts):
            flat.extend(_odd_multiples(ops, base, count))
    normalized = iter(jac_batch_normalize(ops, flat))
    tables = []
    for _ in base_sets:
        set_tables = []
        for count in counts:
            positive = list(islice(normalized, count))
            set_tables.append(
                (positive, [(x, ops.neg(y)) for x, y in positive]))
        tables.append(set_tables)
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


def _schedule_lane(schedule: List[list], negated: bool, terms, table):
    """File each ``(bit, digit)`` of a recoded lane (``negated`` when its
    scalar is negative) as its table entry under its bit in ``schedule``
    (``schedule[i]`` = what to add after the doubling at bit ``i``)."""
    positive, negative = table
    if negated:
        positive, negative = negative, positive
    schedule.extend(
        [] for _ in range(terms[-1][0] + 1 - len(schedule)))
    for bit, digit in terms:
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
#: set's rows counted), ladder-kernel calls (``ladder_calls``), and the
#: ladder kernel's fused affine passes (``inversions``, one field
#: inversion each) and the additions and doublings they ran
#: (``affine_adds``: rungs, bucket pairs and fold) — the MSM counterpart
#: of ``PAIRING_COUNTERS``; read deltas, never reset.
MSM_COUNTERS = {"ladder_rows": 0, "lane_rows": 0, "ladder_calls": 0,
                "affine_adds": 0, "inversions": 0}

#: w-NAF widths: the lane kernel's odd-multiples tables (2^{w-2} entries
#: per base) and the ladder kernel's buckets (2^{w-2} per row).
_LANE_WIDTH = 4
_LADDER_WIDTH = 5

#: Marks a ladder-kernel cell whose point is in this round's pass.
_IN_FLIGHT = object()

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
    bases, nothing live — goes to the lane kernel (:func:`_lane_rows`),
    also in one call per live pattern: the rows are recoded once, each
    base gets an odd-multiples table as long as their digits need, every
    set's tables share one batch inversion, and each row runs through
    :func:`_run_lanes`.  Either way nothing outlives the call.
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
            sums = _lane_rows(
                ops, [[point_sets[position][index] for index in live]
                      for position in positions],
                [[row[index] for index in live] for row in rows],
                order, endo)
        for position, products in zip(positions, sums):
            results[position] = products
    return results


def _lane_rows(ops: FieldOps, base_sets: Sequence[Sequence],
               rows: Sequence[list], order: int,
               endo: Optional[Endomorphism]) -> List[list]:
    """The lane kernel over many base sets' live bases: every row is
    split and recoded once, and each base's table holds odd multiples
    only up to the largest digit its lanes use."""
    full = 1 << (_LANE_WIDTH - 2)
    counts = [1] * len(rows[0] if rows else ())
    recoded = []
    for row in rows:
        lanes = []
        for slot, scalar in enumerate(row):
            for k, variant in _split(scalar, order, endo):
                if k:
                    terms = list(_wnaf_terms(abs(k), _LANE_WIDTH))
                    if counts[slot] < full:
                        counts[slot] = max(counts[slot], 1 + max(
                            [abs(digit) for _, digit in terms]) // 2)
                    lanes.append((slot, variant, k < 0, terms))
        recoded.append(lanes)
    results = []
    for tables in _lane_tables(ops, base_sets, counts):
        images = [None] * len(tables)
        products = []
        for lanes in recoded:
            schedule: List[list] = []
            for slot, variant, negated, terms in lanes:
                table = tables[slot]
                if variant:
                    if images[slot] is None:
                        images[slot] = _phi_tables(ops, endo, table)
                    table = images[slot]
                _schedule_lane(schedule, negated, terms, table)
            products.append(_run_lanes(ops, schedule))
        results.append(products)
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
      Jacobian coordinates, normalized with one inversion and filed all
      at once; from there on each rung is doubled in affine coordinates
      in the pass after its bit is filed, and dropped.
    * **Buckets.**  Coordinates live in flat parallel lists, one cell
      per (set, row, bucket), and a cell holds at most one point.  A
      point filed into an occupied cell queues the pair for the next
      pass and marks the cell in flight (``P + (-P)`` empties it
      instead, decided exactly here); a point filed into an in-flight
      cell waits, and the waiting points of a cell are paired among
      themselves before the next pass.  Each round is ONE
      :func:`~repro.curves.weierstrass.batch_add_affine_fp` pass over
      the climbing rungs and the queued pairs.
    * **Fold.**  Each row is ``sum_u (2u + 1) * S_u``: with running sums
      ``R_u = sum_{v >= u} S_v`` that is ``2 * sum_{u >= 1} R_u + R_0``,
      filed as affine rounds across every row of every set — ``R_u``
      into cell ``u``, the sum of the ``R_u`` into the top cell, then
      that cell doubled and ``R_0`` added.  Products come out affine.

    Bases must be non-identity points of the (odd prime order) group, so
    no rung is the identity and no affine ``y`` is zero.
    """
    m = ops.modulus
    width = 1 << (_LADDER_WIDTH - 2)
    sets = len(base_sets)
    tops = [0] * len(rows[0])
    lanes = []
    for position, row in enumerate(rows):
        for slot, scalar in enumerate(row):
            for k, variant in _split(scalar, order, endo):
                tops[slot] = max(tops[slot], abs(k).bit_length())
                lanes.append((position * width, slot, variant, k))
    # Rungs are stored slot-major, the longest ladders first, so the
    # rungs still climbing at any bit are a prefix of the rung lists.
    slots = sorted(range(len(tops)), key=lambda slot: -tops[slot])
    schedule: List[list] = [[] for _ in range(max(tops) + 1)]
    imaged: List[set] = [set() for _ in schedule]
    for cell, slot, variant, k in lanes:
        rung = slots.index(slot) * sets
        for bit, digit in _wnaf_terms(abs(k), _LADDER_WIDTH):
            schedule[bit].append((variant, rung, cell + (abs(digit) >> 1),
                                  (digit < 0) != (k < 0)))
            if variant:
                imaged[bit].add(rung)
    bases = [bases[slot] for slot in slots for bases in base_sets]
    beta = endo.beta if endo is not None else 0

    cells = len(rows) * width
    bx: list = [None] * (sets * cells)
    by = [0] * (sets * cells)
    qx: List[int] = []
    qy: List[int] = []
    qx2: List[int] = []
    qy2: List[int] = []
    qcell: List[int] = []
    waiting: Dict[int, list] = {}
    rx: List[int] = []
    ry: List[int] = []

    def put(cell: int, x: int, y: int) -> None:
        """One point into one cell (see the Buckets bullet)."""
        held = bx[cell]
        if held is None:
            bx[cell] = x
            by[cell] = y
        elif held is _IN_FLIGHT:
            waiting.setdefault(cell, []).append((x, y))
        elif held != x or by[cell] == y:
            qx.append(held)
            qy.append(by[cell])
            qx2.append(x)
            qy2.append(y)
            qcell.append(cell)
            bx[cell] = _IN_FLIGHT
        else:
            bx[cell] = None

    def run_round(doubled: int) -> None:
        """Pair up the waiting points, then one fused pass; each sum goes
        back into its cell, or joins its cell's waiting points."""
        for cell, points in list(waiting.items()):
            del waiting[cell]
            while points and bx[cell] is not _IN_FLIGHT:
                put(cell, *points.pop())
            while len(points) > 1:
                x, y = points.pop()
                x2, y2 = points.pop()
                if x != x2 or y == y2:
                    qx.append(x)
                    qy.append(y)
                    qx2.append(x2)
                    qy2.append(y2)
                    qcell.append(~cell)
            if points:
                waiting[cell] = points
        if not (doubled or qcell):
            return
        MSM_COUNTERS["affine_adds"] += doubled + len(qcell)
        MSM_COUNTERS["inversions"] += 1
        batch_add_affine_fp(rx, ry, doubled, qx, qy, qx2, qy2, m)
        for cell, x, y in zip(qcell, qx, qy):
            if cell < 0:
                waiting.setdefault(~cell, []).append((x, y))
            else:
                bx[cell] = x
                by[cell] = y
        for column in (qx, qy, qx2, qy2, qcell):
            column.clear()

    if sets * len(slots) < _AFFINE_LADDER_BASES:
        ladders = []
        for base, slot in zip(bases, (slot for slot in slots
                                      for _ in base_sets)):
            ladders.append(base)
            for _ in range(tops[slot]):
                ladders.append(jac_double_fp(ladders[-1], m))
        ladders = iter(jac_batch_normalize(ops, ladders))
        ladders = [list(islice(ladders, tops[slot] + 1))
                   for slot in slots for _ in base_sets]
        variants = (ladders, [[(beta * x % m, y) for x, y in ladder]
                              for ladder in ladders] if beta else None)
        for bit, entries in enumerate(schedule):
            for set_index in range(sets):
                offset = set_index * cells
                for variant, rung, cell, negative in entries:
                    x, y = variants[variant][rung + set_index][bit]
                    waiting.setdefault(cell + offset, []).append(
                        (x, m - y) if negative else (x, y))
    else:
        for x, y in jac_batch_normalize(ops, bases):
            rx.append(x)
            ry.append(y)
        px = [0] * len(rx)
        variants = (rx, px)
        for bit, entries in enumerate(schedule):
            for rung in imaged[bit]:
                for index in range(rung, rung + sets):
                    px[index] = beta * rx[index] % m
            for set_index in range(sets):
                offset = set_index * cells
                for variant, rung, cell, negative in entries:
                    rung += set_index
                    put(cell + offset, variants[variant][rung],
                        m - ry[rung] if negative else ry[rung])
            run_round(sets * sum(top > bit for top in tops))
    while qcell or waiting:
        run_round(0)

    top = width - 1
    for u in range(width - 2, -1, -1):
        for row in range(0, sets * cells, width):
            x = bx[row + u + 1]
            if x is not None:
                y = by[row + u + 1]
                put(row + u, x, y)
                if u + 1 < top:
                    put(row + top, x, y)
        run_round(0)
    for source in (top, 0):
        for row in range(0, sets * cells, width):
            x = bx[row + source]
            if x is not None:
                put(row + top, x, by[row + source])
        run_round(0)
    return [[(bx[row + top], by[row + top], 1)
             if bx[row + top] is not None else (1, 1, 0)
             for row in range(start, start + cells, width)]
            for start in range(0, sets * cells, cells)]


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
