"""Fast exponentiation: four paths for a G1 product — the lanes, the
Jacobian-rung ladder, the affine-rung ladder and the fixed-base comb
(:class:`FixedBaseTable`) — of which G2 uses all but the two ladders.

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
  (ONE call per product under one key: the z, r, H_1 and H_2 points as
  four sets under one row of 64-bit coins; under several keys one call
  for z and r and one per key for its hashed pair), and on G2
  the DKG's verification keys (3 terms), its share check's evaluation
  of every received dealing at the receiver's index (one call: 8 sets
  of 3 commitments under one row of index powers) and that check's
  coined product over the 8 values.  So is a product over many bases
  at any length — a (t + 1)-term commitment evaluation at large t, or
  aggregation over a committee in the hundreds.  A bucket-method MSM
  would beat the lanes only there (measured on a 2-core box with
  full-size scalars: lanes took 1.0x its time at 193 G1 terms, 1.3x at
  512, 1.6x at 1024), and no workload, test table or example builds a
  product that long.
* **Fixed-base combs** (:class:`FixedBaseTable`): only where an owner
  asks for one with ``precompute()`` — ``*`` never builds one by
  itself.  A remote worker builds them for ``g_z``/``g_r`` up front, as
  does DLIN for its generators.
  Every dealing protocol's VSS builds them for ``g_z``/``g_r`` before the
  first dealing, so every commitment is two comb reads, and the share
  check's two-base side ``[g_z, g_r]`` takes ``BN254Group.multi_exp``'s
  all-tables shortcut (one comb read per base instead of an MSM).

**The lane kernel.**  :func:`scalar_mul` and
:func:`multi_scalar_mul_windows` (for most shapes — see the ladder
kernel below) are callers of one interleaved-w-NAF loop.  Every
``(base, scalar)`` term is recoded into one or two *lanes* — a signed
sub-scalar driving a table of affine odd multiples — and all lanes of
a product share one doubling chain, so the cost is ``max lane bits``
doublings plus ~``bits / (w + 1)`` mixed additions per lane — or, on
G1, at most one mixed addition per bit (see *Bits summed in affine
passes* below).  Four things shorten or share the lanes:

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
  build.  On G1 the build runs in batched affine rounds
  (:func:`_affine_odd_multiples`): one doubling round makes every
  base's ``2P``, then ``P + 2P``, ``3P + 2P`` and ``5P + 2P`` are one
  round each over all bases of the call, each round one inversion
  (:func:`~repro.curves.weierstrass.batch_add_affine_fp`), about six
  multiplications an entry.  G2 has no batched F_p2 addition, so its
  entries are made in Jacobian coordinates and normalized together —
  one inversion for all.  Both give the same affine points.  Measured
  in CPU time on a 2-core box, 64 G1 bases at full width: 2.4 ms
  through Jacobian odd multiples and a normalization, 1.0 ms in affine
  rounds.  The rows are recoded once per call, and a base's table only
  runs up to the largest digit its lanes use: Combine's Lagrange row
  over the quorum {1, 2, 3} is (3, -3, 1), which needs P and 3P, not
  four entries; full-size lanes and the 64-bit coins use all four.
* **Tables kept for a scope.**  A table lives for one call, unless the
  caller hands in a *scope*: a dict it owns, from Jacobian base to
  table.  The lane kernel then builds at full width only the tables
  the scope lacks, files them there, and takes the others from it.
  One localization is the one user (``LJYThresholdScheme._values``):
  its root product, the index-weighted companion and every bisection
  slice run over the same z, r and hashed points, so each base's table
  is built once per localization instead of once per product.  The
  scope dies with the localization; nothing is stored on a point, in a
  module or across calls — a verifier decodes fresh points for every
  request, so a longer-lived cache would only pay off for a caller
  that resends the same objects.

**Bits summed in affine passes.**  On G1, before any doubling,
:func:`_sum_bits` collapses every bit of every (set, row) schedule of
the call to at most one point: each bit holding two or more table
entries is one cell of the flat bucket engine (below), so the entries
of all bits, sets and rows are summed together in shared
:func:`~repro.curves.weierstrass.batch_add_affine_fp` passes, one
inversion each, at ~6.5 multiplications an addition instead of the ~11
of a mixed Jacobian one.  The ladder kernel's cell rules hold: ``P +
(-P)`` is dropped exactly before any pass, ``P + P`` takes the tangent,
and the identity never enters a pass.  A pass runs only with at least
``_LANE_PASS_PAIRS`` pairs (below that its inversion costs more than
the pairs save); what it leaves stays in the schedule.
:func:`_run_lanes` then runs the same doubling chain with at most one
mixed addition per bit.  A coined product of 16 items (four sets of 16
under one row of 64-bit coins) runs 3 passes and ~600 affine additions,
and its doubling chains meet ~260 mixed additions instead of ~850.
Measured in one process on a 2-core box, CPU time, 40 interleaved reps
against the parent's four unsummed calls per product (= 1.00, median
ratio of pairs): the four MSMs alone, tables warm, 0.81x (best 0.75x);
``batch_verify`` of 16 0.95x; ``locate_invalid`` with one forgery of 16
(root and companion) 0.93x; ``locate_invalid_partials`` over one
signer's 16 0.93x; a 2-signature check 0.97x.  Combine's interpolation
of a window of 16, where every entry sits at bit 0 and a set's cell
holds three, read 1.03x (quartiles 0.99-1.06x; 1.01x for its kernel
call alone): summing there saves no more than the passes cost.  G2
keeps the sequential mixed additions: there is no batched F_p2 affine
addition.

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

**The flat bucket engine** (:func:`_bucket_engine`, which also sums
the lane kernel's bits).  Both kinds of rungs feed one engine whose
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

**The fixed-base comb.**  For generators reused across many calls
(``g_z``/``g_r`` in key generation, DKG commitment checks) a Lim-Lee
comb (Lim and Lee, CRYPTO 1994) over the GLV halves turns every later
multiplication into 15 doublings and at most 32 mixed additions: the
comb's 8 teeth, 16 bits apart, span a 128-bit half, so each half reads
one of 255 affine entries ``sum_t v_t * 2^{16 t} * P`` per bit of the
stride, the second half from their phi-images.  The build is 112
doublings, 247 mixed additions and two batch normalizations (the 8
teeth, then the 255 entries).  Measured in CPU time on a 2-core box
(medians of 7 alternating processes), against the 4-bit fixed-window
table of 64 x 15 = 960 entries it replaced: G1 build 18.0 -> 3.5 ms and
multiplication 0.52 -> 0.31 ms, G2 build 48 -> 8.7 ms and multiplication
1.31 -> 0.71 ms, and one table 233 -> 89 KiB on G1 and 497 -> 177 KiB on
G2 (tracemalloc).  A lane multiplication of the same base took 1.1 ms
on G1 and 3.0 ms on G2, so the comb repays its build after about five
multiplications on G1 and four on G2; callers opt in via
:class:`FixedBaseTable` (or ``GroupElement.precompute()`` one layer up)
precisely because the build is not free.

**Mixed coordinates**: every table entry and ladder rung is affine —
made in batched affine rounds, or batch-normalized with one shared
field inversion (:func:`~repro.curves.weierstrass.jac_batch_normalize`,
over plain ints on G1 and over the F_p norms of the Z coordinates on
G2) — so the inner loops run mixed Jacobian+affine additions (7M + 4S
instead of 11M + 5S — ~25% off each addition) and affine negation is
free (negate y).  The pure-Jacobian formulas remain the agreement
reference via the naive ``jac_scalar_mul`` fold the property tests
compare against, and :func:`_odd_multiples` the reference for the
affine table build.
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


def _affine_odd_multiples(points: Sequence[Tuple[int, int]],
                          counts: Sequence[int], m: int) -> List[list]:
    """``[P, 3P, ..., (2 * count - 1)P]`` in affine coordinates over a
    prime field, for every affine ``P`` with its ``count``: one doubling
    round makes every ``2P``, then each round adds ``2P`` to the last
    entry of every table still short — one
    :func:`~repro.curves.weierstrass.batch_add_affine_fp` pass, so one
    inversion, per round.  No sum meets its own negation or the
    identity: ``(2k - 1)P + 2P`` with ``x`` equal would make ``(2k +
    1)P`` or ``(2k - 3)P`` the identity, impossible below the (prime)
    group order."""
    tables = [[point] for point in points]
    growing = [index for index, count in enumerate(counts) if count > 1]
    twice_x = [points[index][0] for index in growing]
    twice_y = [points[index][1] for index in growing]
    batch_add_affine_fp(twice_x, twice_y, len(growing), [], [], [], [], m)
    while growing:
        xs = [tables[index][-1][0] for index in growing]
        ys = [tables[index][-1][1] for index in growing]
        batch_add_affine_fp([], [], 0, xs, ys, twice_x, twice_y, m)
        short = []
        for position, (index, x, y) in enumerate(zip(growing, xs, ys)):
            tables[index].append((x, y))
            if len(tables[index]) < counts[index]:
                short.append(position)
        growing = [growing[position] for position in short]
        twice_x = [twice_x[position] for position in short]
        twice_y = [twice_y[position] for position in short]
    return tables


def _lane_tables(ops: FieldOps, bases: Sequence,
                 counts: Sequence[int]) -> List[tuple]:
    """``(positive, negative)`` affine odd-multiple tables, ``counts[i]``
    entries for ``bases[i]`` (non-identity Jacobian points).

    Over a prime field (G1) the bases are normalized with one inversion
    and the multiples made in batched affine rounds
    (:func:`_affine_odd_multiples`: four inversions for full tables).
    Over F_p2 (G2), which has no batched affine addition, they are made
    in Jacobian coordinates (:func:`_odd_multiples`) and normalized
    together, ONE inversion for all.  Both give the same affine points;
    odd multiples below the (prime) group order are never the identity,
    so every entry exists."""
    if ops.degree == 1:
        positives = _affine_odd_multiples(
            jac_batch_normalize(ops, bases), counts, ops.modulus)
    else:
        flat = []
        for base, count in zip(bases, counts):
            flat.extend(_odd_multiples(ops, base, count))
        normalized = iter(jac_batch_normalize(ops, flat))
        positives = [list(islice(normalized, count)) for count in counts]
    return [(positive, [(x, ops.neg(y)) for x, y in positive])
            for positive in positives]


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
    shared doubling per bit and a mixed addition per filed entry (on G1
    at most one a bit once :func:`_sum_bits` has run).  The
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
#: passes of the bucket engine both kernels share (``inversions``, one
#: field inversion each) and the additions and doublings they ran
#: (``affine_adds``: the ladder's rungs, bucket pairs and fold; the lane
#: kernel's summed bits) — the MSM counterpart of ``PAIRING_COUNTERS``;
#: read deltas, never reset.  Lane-table builds are not counted.
MSM_COUNTERS = {"ladder_rows": 0, "lane_rows": 0, "ladder_calls": 0,
                "affine_adds": 0, "inversions": 0}

#: w-NAF widths: the lane kernel's odd-multiples tables (2^{w-2} entries
#: per base) and the ladder kernel's buckets (2^{w-2} per row).
_LANE_WIDTH = 4
_LADDER_WIDTH = 5

#: Marks a bucket-engine cell whose point is in this round's pass.
_IN_FLIGHT = object()

#: Pairs from which a lane-summing pass repays its inversion.  Measured
#: in one process on a 2-core box, a pass over k two-entry cells against
#: the same cells left to 2k mixed additions: 1.24x at 4 pairs, 1.03x at
#: 8-10, 0.95x at 12, 0.87x at 20-24 — one inversion (~36 us) costs
#: three mixed additions (~12 us), and a pair summed in a pass, with its
#: filing, saves only about a quarter of the one it replaces.
_LANE_PASS_PAIRS = 12

#: Live bases, over all base sets of one ladder call, from which the
#: rungs are doubled in affine coordinates (one inversion per rung)
#: instead of in Jacobian ones normalized together at the end.  See the
#: module docstring for the measurement behind it.
_AFFINE_LADDER_BASES = 8


def _bucket_engine(m: int, size: int, rx: List[int], ry: List[int]):
    """The flat bucket engine both G1 kernels reduce with: ``size``
    cells in flat parallel lists ``bx``/``by`` (``None`` for empty),
    each holding at most one affine point, and the queue of the next
    pass.  Returns ``(bx, by, put, run_round, left)``.

    * ``put(cell, x, y)`` files one point.  An empty cell holds it; an
      occupied one queues the pair for the next pass and is marked in
      flight, unless the two are ``P`` and ``-P``, which empty the cell
      instead, decided exactly, so no identity ever enters a pass; a
      point filed into an in-flight cell waits.
    * ``run_round(doubled, least=1)`` pairs each cell's waiting points
      among themselves, then runs ONE
      :func:`~repro.curves.weierstrass.batch_add_affine_fp` over the
      first ``doubled`` rungs of ``rx``/``ry`` and every queued pair —
      one inversion — and files each sum back into its cell, or among
      its cell's waiting points.  With no rung to double and fewer
      than ``least`` pairs it runs nothing and returns False.
    * ``left()`` yields ``(cell, x, y)`` for every point still queued
      or waiting, for a caller that stops short of the last pass.
    """
    bx: list = [None] * size
    by = [0] * size
    qx: List[int] = []
    qy: List[int] = []
    qx2: List[int] = []
    qy2: List[int] = []
    qcell: List[int] = []
    waiting: Dict[int, list] = {}

    def put(cell: int, x: int, y: int) -> None:
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

    def run_round(doubled: int, least: int = 1) -> bool:
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
        if not doubled and len(qcell) < least:
            return False
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
        return True

    def left():
        for cell, x, y, x2, y2 in zip(qcell, qx, qy, qx2, qy2):
            cell = cell if cell >= 0 else ~cell
            yield cell, x, y
            yield cell, x2, y2
        for cell, points in waiting.items():
            for x, y in points:
                yield cell, x, y

    return bx, by, put, run_round, left


def _sum_bits(m: int, schedules: List[List[list]]) -> None:
    """Collapse, in place, every bit's entries of every lane schedule of
    a call (over a prime field) to at most one affine point: each bit
    with two or more entries is one cell of one :func:`_bucket_engine`,
    so all of them share each pass and its inversion.  A pass runs only
    with at least ``_LANE_PASS_PAIRS`` pairs; what the last pass leaves
    is added by :func:`_run_lanes` as before, one mixed addition per
    point."""
    crowded = [entries for schedule in schedules for entries in schedule
               if len(entries) > 1]
    bx, by, put, run_round, left = _bucket_engine(m, len(crowded), [], [])
    for cell, entries in enumerate(crowded):
        for x, y in entries:
            put(cell, x, y)
    while run_round(0, _LANE_PASS_PAIRS):
        pass
    for entries, x, y in zip(crowded, bx, by):
        entries[:] = () if x is None or x is _IN_FLIGHT else ((x, y),)
    for cell, x, y in left():
        crowded[cell].append((x, y))


def multi_scalar_mul_windows(ops: FieldOps, point_sets: Sequence[Sequence],
                             scalar_rows: Sequence[Sequence[int]],
                             order: int,
                             endo: Optional[Endomorphism] = None,
                             scope: Optional[dict] = None
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
    set's tables share one build, on G1 every bit of every set's rows is
    summed to one point in shared affine passes (:func:`_sum_bits`), and
    each row runs through :func:`_run_lanes`.  A coined product is one
    such call: four sets under one row of coins.  Either way nothing
    outlives the call, except
    lane tables filed in a caller's ``scope`` (see :func:`_lane_rows`),
    which the caller drops; the ladder kernel ignores it.
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
                order, endo, scope)
        for position, products in zip(positions, sums):
            results[position] = products
    return results


def _lane_rows(ops: FieldOps, base_sets: Sequence[Sequence],
               rows: Sequence[list], order: int,
               endo: Optional[Endomorphism],
               scope: Optional[dict] = None) -> List[list]:
    """The lane kernel over many base sets' live bases: every row is
    split and recoded once, and each base's table holds odd multiples
    only up to the largest digit its lanes use.  Given a ``scope`` (a
    dict from Jacobian base to table, owned by the caller), tables are
    built at full width only for the bases it lacks, filed there, and
    taken from it for the rest.  On G1 the schedules of every set and
    row are summed bit by bit in shared passes (:func:`_sum_bits`)
    before their doubling chains run."""
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
    flat = [base for bases in base_sets for base in bases]
    if scope is None:
        built = _lane_tables(ops, flat, counts * len(base_sets))
    else:
        missing = list(dict.fromkeys(
            base for base in flat if base not in scope))
        if missing:
            scope.update(zip(missing, _lane_tables(
                ops, missing, [full] * len(missing))))
        built = [scope[base] for base in flat]
    schedules: List[List[list]] = []
    width = len(counts)
    for index in range(len(base_sets)):
        tables = built[index * width:(index + 1) * width]
        images = [None] * len(tables)
        for lanes in recoded:
            schedule: List[list] = []
            for slot, variant, negated, terms in lanes:
                table = tables[slot]
                if variant:
                    if images[slot] is None:
                        images[slot] = _phi_tables(ops, endo, table)
                    table = images[slot]
                _schedule_lane(schedule, negated, terms, table)
            schedules.append(schedule)
    if ops.degree == 1:
        _sum_bits(ops.modulus, schedules)
    products = iter([_run_lanes(ops, schedule) for schedule in schedules])
    return [list(islice(products, len(rows))) for _ in base_sets]


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
    * **Buckets.**  One :func:`_bucket_engine` cell per (set, row,
      bucket), holding at most one point; each round is ONE
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
    rx: List[int] = []
    ry: List[int] = []
    bx, by, put, run_round, _ = _bucket_engine(m, sets * cells, rx, ry)

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
                    put(cell + offset, x, m - y if negative else y)
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
    while run_round(0):
        pass

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
    return multi_scalar_mul_windows(
        ops, [[point]], [[scalar]], order, endo)[0][0]


#: The comb of a :class:`FixedBaseTable`: teeth per entry, and the bit
#: stride between neighbouring teeth.  Together they span 128 bits, the
#: length of a GLV half.
_COMB_TEETH = 8
_COMB_STRIDE = 16

#: ``_SPREAD[b]`` moves bit ``i`` of the byte ``b`` to bit ``8 * i``.
_SPREAD = tuple(sum(((byte >> bit) & 1) << (8 * bit) for bit in range(8))
                for byte in range(256))


def _comb_digits(k: int) -> bytes:
    """The comb digits of ``0 <= k < 2^128``: byte ``j`` holds bit ``j +
    16 t`` of ``k`` as its bit ``t``, so ``k = sum_j 2^j * sum_t
    digit_j[t] * 2^{16 t}``.  One bit transpose: each 16-bit chunk is
    spread a byte apart, and chunk ``t`` lands at bit ``t`` of every
    byte."""
    spread = 0
    for tooth in range(_COMB_TEETH):
        chunk = (k >> (_COMB_STRIDE * tooth)) & 0xFFFF
        spread |= (_SPREAD[chunk & 0xFF]
                   | _SPREAD[chunk >> 8] << 64) << tooth
    return spread.to_bytes(_COMB_STRIDE, "little")


class FixedBaseTable:
    """A Lim-Lee comb over the GLV halves, for a base reused across many
    scalars.

    ``entries[v] = sum_t v_t * 2^{16 t} * P`` for every nonzero 8-bit
    ``v`` (255 affine points), and ``images[v]`` is the phi-image
    ``(beta * x, y)`` of each — one field multiplication, no point
    arithmetic.  A scalar splits into GLV halves (:func:`_split`: a
    scalar of at most 128 bits stays whole), and each half's comb digits
    (:func:`_comb_digits`) pick one entry per bit of the stride, so a
    multiplication is 15 doublings and at most 32 mixed additions; a
    negative half negates its entries' y.  The build doubles ``P`` to its
    eight teeth ``2^{16 t} * P`` (112 doublings), normalizes them, sums
    them into the entries with 247 mixed additions and normalizes those
    with one shared inversion.  Every entry is a nonzero multiple of
    ``P`` below ``2^128 < order``, so none is the identity.  See the
    module docstring for the measured costs.
    """

    __slots__ = ("ops", "order", "endo", "entries", "images", "_infinity")

    def __init__(self, ops: FieldOps, point, order: int,
                 endo: Endomorphism):
        self.ops = ops
        self.order = order
        self.endo = endo
        self._infinity = (ops.one, ops.one, ops.zero)
        if ops.is_zero(point[2]):
            # Identity base: every multiple is the identity.
            self.entries = self.images = None
            return
        m, double, add = ops.modulus, ops.point_double, ops.point_add_affine
        teeth = [point]
        for _ in range(_COMB_TEETH - 1):
            tooth = teeth[-1]
            for _ in range(_COMB_STRIDE):
                tooth = double(tooth, m)
            teeth.append(tooth)
        sums = [None]
        for x, y in jac_batch_normalize(ops, teeth):
            sums.append((x, y, ops.one))
            sums.extend([add(sums[low], (x, y), m)
                         for low in range(1, len(sums) - 1)])
        self.entries = [None] + jac_batch_normalize(ops, sums[1:])
        self.images = [None] + [(ops.mul(endo.beta, x), y)
                                for x, y in self.entries[1:]]

    def mul(self, scalar: int):
        """``scalar * P`` from the comb (scalar reduced modulo the order)."""
        ops = self.ops
        result = self._infinity
        if self.entries is None:
            return result
        lanes = [(_comb_digits(abs(k)),
                  self.images if variant else self.entries, k < 0)
                 for k, variant in _split(scalar % self.order, self.order,
                                          self.endo) if k]
        m, double, add = ops.modulus, ops.point_double, ops.point_add_affine
        neg = ops.neg
        for bit in range(_COMB_STRIDE - 1, -1, -1):
            for digits, entries, negated in lanes:
                digit = digits[bit]
                if digit:
                    entry = entries[digit]
                    if negated:
                        entry = (entry[0], neg(entry[1]))
                    result = add(result, entry, m)
            if bit:
                result = double(result, m)
        return result
