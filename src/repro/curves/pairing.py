"""Optimal ate pairing e : G1 x G2 -> GT on BN254, with precomputation.

The Miller loop runs over the twist in affine coordinates (F_p2 inversions
are cheap relative to Python interpretation overhead) and evaluates lines
directly in the sextic representation of F_p12.  Three layers of
optimization serve the paper's verification equations, which pair the same
G2 elements (``g_z``, ``g_r``, the public key, the verification keys) with
fresh G1 points on every call:

* :class:`PreparedG2` caches the Miller-loop **line coefficients** of a
  fixed G2 argument.  The chord/tangent slopes and intercepts depend only
  on Q, so one preparation (one run of the twist point arithmetic,
  including all F_p2 inversions) turns every later pairing against that Q
  into pure F_p12 accumulation.  Preparation costs about as much as the
  line arithmetic it replaces, so it breaks even on the first pairing and
  is pure profit afterwards; every ``G2Point`` memoizes its preparation.
  The prepared loop walks the **NAF** of 6x + 2 (22 nonzero digits
  against 37 set bits in binary), so a preparation holds 88 lines, not
  102; a -1 digit stores the line through T and -Q.
* Lines are **sparse** F_p12 elements (w-coefficients at w^0, w^1, w^3
  only) and are **divided by y_P**, making the constant term 1, so the
  accumulator update :func:`~repro.math.tower.f12_mul_line` is two
  sparse F_p6 products (10 F_p2 multiplications) instead of a full
  ``f12_mul`` (18).
* ``multi_pairing`` computes a product of pairings with a single shared
  **final exponentiation** — the optimization behind the paper's "product
  of four pairings" verification cost (Section 3.1) — and the final
  exponentiation itself uses the standard BN addition chain (three
  exponentiations by the curve parameter x plus Frobenius maps) instead of
  a blind 2540-bit exponentiation.

The NAF schedule and the division by y_P change the raw Miller value but
never a pairing: each only multiplies it by elements of F_p6* (the
vertical lines the -1 digits imply, and 1/y_P in F_p*), and the final
exponentiation by (p^12 - 1)/r sends all of F_p6* to 1 because p^6 - 1
divides that exponent.  The reference loop :func:`_miller_loop_naive`
keeps the binary schedule and unnormalised lines, and the tests compare
the two after the final exponentiation.  ``tools/bench_snapshot.py``
records fast against naive per operation.

GT elements are wrapped in :class:`GTElement` so the protocol layer can use
``*``, ``**`` and equality without touching tower internals.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.curves import bn254
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.math import tower
from repro.math.tower import (
    ATE_LOOP_COUNT, BN_X, F12_ONE, Fp12Ele, TWIST_FROB_X, TWIST_FROB_X2,
    TWIST_FROB_Y, TWIST_FROB_Y2, _naf_digits, cyclotomic_exp, f2_conj,
    f2_eq, f2_inv, f2_mul, f2_mul_scalar, f2_neg, f2_sqr, f2_sub, f12_conj,
    f12_cyclotomic_pow, f12_cyclotomic_sqr, f12_eq, f12_frobenius, f12_inv,
    f12_is_one, f12_mul, f12_mul_line, f12_sqr, wvec_to_f12, F2_ZERO,
)

_P = bn254.P
_R = bn254.R

#: Hard part of the final exponentiation: (p^4 - p^2 + 1) / r.
_HARD_EXPONENT = (_P ** 4 - _P ** 2 + 1) // _R

#: Miller loop bits of 6x + 2, most significant first, skipping the leader
#: (the reference loop's schedule).
_LOOP_BITS = [int(bit) for bit in bin(ATE_LOOP_COUNT)[3:]]

#: NAF digits of 6x + 2, most significant first, skipping the leading 1
#: (the prepared loop's schedule: 65 doublings, 21 additions).
_LOOP_NAF = _naf_digits(ATE_LOOP_COUNT)[-2::-1]

#: Global Miller-loop counter (used by the T2 operation-count experiment).
PAIRING_COUNTERS = {"miller_loops": 0, "final_exps": 0, "preparations": 0}


# ---------------------------------------------------------------------------
# Line coefficients
# ---------------------------------------------------------------------------
#
# A chord/tangent line through twist points T and Q, evaluated at the G1
# point P via the untwist map (x', y') -> (x' w^2, y' w^3), is the sparse
# F_p12 element
#
#     y_P - lambda * x_P * w + (lambda * x_T - y_T) * w^3.
#
# A line is stored as the pair (lambda, lambda * x_T - y_T), which depends
# on Q alone.  The prepared loop divides the line by y_P (an F_p element,
# so the final exponentiation cancels it) and multiplies the accumulator by
#
#     1 + lambda * (-x_P / y_P) * w + (lambda * x_T - y_T) / y_P * w^3,
#
# paying one inversion of y_P per pair and product.  A vertical line (T and
# Q share an x-coordinate but are not equal) is x_P - x_T * w^2, an element
# of F_p6 that the final exponentiation cancels too; it is stored as None.
# Only a Q outside the order-r subgroup can meet one.


def _line_step(t_aff, q_aff):
    """Coefficients of the line through T and Q, plus T + Q.

    Returns ``((slope, intercept), sum_aff)``, or ``(None, None)`` when
    the line is vertical (the sum is the point at infinity).
    """
    xt, yt = t_aff
    xq, yq = q_aff
    if f2_eq(xt, xq) and f2_eq(yt, yq):
        # Tangent: lambda = 3 x^2 / (2 y).
        numerator = f2_mul_scalar(f2_sqr(xt), 3)
        denominator = f2_mul_scalar(yt, 2)
    elif f2_eq(xt, xq):
        return None, None
    else:
        numerator = f2_sub(yq, yt)
        denominator = f2_sub(xq, xt)
    slope = f2_mul(numerator, f2_inv(denominator))
    x3 = f2_sub(f2_sub(f2_sqr(slope), xt), xq)
    y3 = f2_sub(f2_mul(slope, f2_sub(xt, x3)), yt)
    intercept = f2_sub(f2_mul(slope, xt), yt)
    return (slope, intercept), (x3, y3)


def _frobenius_twist_points(q_aff):
    """Q1 = pi_p(Q) and -Q2 = -pi_{p^2}(Q) for the final two loop lines."""
    xq, yq = q_aff
    q1 = (f2_mul(f2_conj(xq), TWIST_FROB_X),
          f2_mul(f2_conj(yq), TWIST_FROB_Y))
    q2 = (f2_mul(xq, TWIST_FROB_X2), f2_mul(yq, TWIST_FROB_Y2))
    return q1, (q2[0], f2_neg(q2[1]))


class PreparedG2:
    """A fixed G2 argument with all Miller-loop line coefficients cached.

    The coefficient list follows the fixed schedule of ``_LOOP_NAF``: one
    doubling line per digit, one addition line per nonzero digit (through
    Q for +1, through -Q for -1), then the two Frobenius correction lines
    — 65 + 21 + 2 = 88 entries.  Evaluating a pairing against a prepared
    point replays the schedule with no twist point arithmetic and no F_p2
    inversions.
    """

    __slots__ = ("lines",)

    def __init__(self, lines: Optional[List[tuple]]):
        self.lines = lines   # None encodes the point at infinity

    @property
    def is_identity(self) -> bool:
        return self.lines is None

    @classmethod
    def from_point(cls, q: G2Point) -> "PreparedG2":
        q_aff = q.affine()
        if q_aff is None:
            return cls(None)
        PAIRING_COUNTERS["preparations"] += 1
        lines: List[tuple] = []
        t = q_aff
        neg_q = (q_aff[0], f2_neg(q_aff[1]))
        for digit in _LOOP_NAF:
            entry, t = _line_step(t, t)
            lines.append(entry)
            if digit:
                entry, t = _line_step(t, q_aff if digit > 0 else neg_q)
                lines.append(entry)
        q1, q2_neg = _frobenius_twist_points(q_aff)
        entry, t = _line_step(t, q1)
        lines.append(entry)
        entry, _t = _line_step(t, q2_neg)
        lines.append(entry)
        return cls(lines)


def prepare_g2(q: Union[G2Point, PreparedG2]) -> PreparedG2:
    """Prepare a G2 point for repeated pairing, memoized on the point
    instance.  A fixed pairing argument is prepared once where it is
    made (``BilinearGroup.prepare_pair``); a decoded copy of it is a new
    instance and prepares its own lines."""
    if isinstance(q, PreparedG2):
        return q
    prep = getattr(q, "_prep", None)   # unset until first prepared
    if prep is None:
        prep = PreparedG2.from_point(q)
        q._prep = prep
    return prep


# ---------------------------------------------------------------------------
# Miller loop
# ---------------------------------------------------------------------------

def _mul_lines(f: Fp12Ele, evaluated, index: int) -> Fp12Ele:
    """``f`` times line ``index`` of every pair, each divided by its y_P.

    ``evaluated`` holds ``(-x_P / y_P, 1 / y_P, lines)`` per pair.
    Vertical lines (None) lie in F_p6 and are skipped.
    """
    for x_scale, y_scale, lines in evaluated:
        line = lines[index]
        if line is not None:
            (s0, s1), (c0, c1) = line
            f = f12_mul_line(
                f, (s0 * x_scale % _P, s1 * x_scale % _P),
                (c0 * y_scale % _P, c1 * y_scale % _P))
    return f


def _miller_loop_prepared(p_aff, prepared: PreparedG2) -> Fp12Ele:
    """f_{6x+2, Q}(P) from cached line coefficients, up to a factor the
    final exponentiation cancels."""
    return _miller_loop_prepared_multi([(p_aff, prepared)])


def _miller_loop_prepared_multi(entries) -> Fp12Ele:
    """``prod_i f_{6x+2, Q_i}(P_i)`` with ONE shared squaring chain, up
    to a factor in F_p6* that the final exponentiation cancels.

    Bilinearity gives ``(prod f_i)^2 = prod f_i^2``, so a product of k
    Miller loops needs the 65 accumulator squarings only once instead of
    k times — per extra pairing in a product the marginal cost is just
    the sparse line multiplications and one inversion of y_P.  Entries
    are ``(p_aff, PreparedG2)`` pairs with neither argument the identity.
    """
    PAIRING_COUNTERS["miller_loops"] += len(entries)
    evaluated = []
    for (xp, yp), prepared in entries:
        y_inv = pow(yp, -1, _P)
        evaluated.append((-xp * y_inv % _P, y_inv, prepared.lines))
    f = F12_ONE
    index = 0
    for digit in _LOOP_NAF:
        f = _mul_lines(f12_sqr(f), evaluated, index)
        index += 1
        if digit:
            f = _mul_lines(f, evaluated, index)
            index += 1
    f = _mul_lines(f, evaluated, index)
    return _mul_lines(f, evaluated, index + 1)


def _miller_loop_naive(p_aff, q_aff) -> Fp12Ele:
    """Reference Miller loop computing lines inline with full F_p12
    multiplications over the binary schedule and unnormalised lines —
    the seed implementation, kept as the correctness and benchmark
    baseline for the prepared path."""
    PAIRING_COUNTERS["miller_loops"] += 1
    xp, yp = p_aff

    def step(f, t, q):
        """``f`` times the line through T and Q, and T + Q."""
        line, t_next = _line_step(t, q)
        if line is None:    # vertical: x_P - x_T * w^2
            value = ((xp, 0), F2_ZERO, f2_neg(t[0]), F2_ZERO, F2_ZERO,
                     F2_ZERO)
        else:
            slope, intercept = line
            value = ((yp, 0), f2_mul_scalar(slope, -xp % _P), F2_ZERO,
                     intercept, F2_ZERO, F2_ZERO)
        return f12_mul(f, wvec_to_f12(value)), t_next

    f = F12_ONE
    t = q_aff
    for bit in _LOOP_BITS:
        f, t = step(f12_sqr(f), t, t)
        if bit:
            f, t = step(f, t, q_aff)
    q1, q2_neg = _frobenius_twist_points(q_aff)
    f, t = step(f, t, q1)
    f, _t = step(f, t, q2_neg)
    return f


# ---------------------------------------------------------------------------
# Final exponentiation
# ---------------------------------------------------------------------------

def _easy_part(f: Fp12Ele) -> Fp12Ele:
    """f^((p^6 - 1)(p^2 + 1)); the result lies in the cyclotomic subgroup."""
    f = f12_mul(f12_conj(f), f12_inv(f))
    return f12_mul(f12_frobenius(f, 2), f)


def _hard_part_bn(t1: Fp12Ele) -> Fp12Ele:
    """t1^((p^4 - p^2 + 1)/r) via the standard BN addition chain.

    Expresses the hard exponent in base p with coefficients that are low-
    degree polynomials in the curve parameter x, so the whole exponentiation
    costs three cyclotomic powers by the 63-bit x plus a handful of
    Frobenius maps and multiplications — roughly a quarter of the work of
    exponentiating blindly by the 2540-bit exponent.  Input must be
    cyclotomic (conjugation = inversion), which :func:`_easy_part`
    guarantees.
    """
    fp = f12_frobenius(t1, 1)
    fp2 = f12_frobenius(t1, 2)
    fp3 = f12_frobenius(fp2, 1)
    fu = cyclotomic_exp(t1, BN_X)
    fu2 = cyclotomic_exp(fu, BN_X)
    fu3 = cyclotomic_exp(fu2, BN_X)
    fu2p = f12_frobenius(fu2, 1)
    fu3p = f12_frobenius(fu3, 1)
    y0 = f12_mul(f12_mul(fp, fp2), fp3)
    y1 = f12_conj(t1)
    y2 = f12_frobenius(fu2, 2)
    y3 = f12_conj(f12_frobenius(fu, 1))
    y4 = f12_conj(f12_mul(fu, fu2p))
    y5 = f12_conj(fu2)
    y6 = f12_conj(f12_mul(fu3, fu3p))
    t0 = f12_mul(f12_mul(f12_cyclotomic_sqr(y6), y4), y5)
    acc = f12_mul(f12_mul(y3, y5), t0)
    t0 = f12_mul(t0, y2)
    acc = f12_cyclotomic_sqr(f12_mul(f12_cyclotomic_sqr(acc), t0))
    t0 = f12_mul(acc, y1)
    acc = f12_mul(acc, y0)
    return f12_mul(f12_cyclotomic_sqr(t0), acc)


def final_exponentiation(f: Fp12Ele) -> Fp12Ele:
    """Raise to (p^12 - 1)/r: Frobenius easy part, then the BN hard part."""
    PAIRING_COUNTERS["final_exps"] += 1
    return _hard_part_bn(_easy_part(f))


def final_exponentiation_naive(f: Fp12Ele) -> Fp12Ele:
    """Reference final exponentiation: easy part, then a blind NAF
    exponentiation by (p^4 - p^2 + 1)/r (the seed implementation)."""
    PAIRING_COUNTERS["final_exps"] += 1
    return f12_cyclotomic_pow(_easy_part(f), _HARD_EXPONENT)


# ---------------------------------------------------------------------------
# GT and the public pairing API
# ---------------------------------------------------------------------------

class GTElement:
    """An element of GT = the order-r subgroup of F_p12*."""

    __slots__ = ("value",)

    order = _R

    def __init__(self, value: Fp12Ele):
        self.value = value

    @classmethod
    def one(cls) -> "GTElement":
        return cls(F12_ONE)

    def __mul__(self, other: "GTElement") -> "GTElement":
        return GTElement(f12_mul(self.value, other.value))

    def __truediv__(self, other: "GTElement") -> "GTElement":
        return GTElement(f12_mul(self.value, f12_conj(other.value)))

    def __pow__(self, exponent: int) -> "GTElement":
        # GT elements are cyclotomic, so the w-NAF Granger-Scott ladder
        # with conjugation-as-inversion applies.
        return GTElement(cyclotomic_exp(self.value, exponent % _R))

    def inverse(self) -> "GTElement":
        # GT elements are cyclotomic, so conjugation inverts them.
        return GTElement(f12_conj(self.value))

    def is_one(self) -> bool:
        return f12_is_one(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GTElement):
            return NotImplemented
        return f12_eq(self.value, other.value)

    def __hash__(self):
        normalized = tower.f12_to_wvec(self.value)
        return hash(("GT", tuple(c % _P for pair in normalized for c in pair)))

    def __repr__(self):
        return "GTElement(1)" if self.is_one() else "GTElement(...)"


#: Either source of a pairing's second argument.
G2Like = Union[G2Point, PreparedG2]


def pairing(p: G1Point, q: G2Like) -> GTElement:
    """The optimal ate pairing e(P, Q)."""
    p_aff = p.affine()
    prepared = prepare_g2(q)
    if p_aff is None or prepared.is_identity:
        return GTElement.one()
    return GTElement(final_exponentiation(
        _miller_loop_prepared(p_aff, prepared)))


def multi_pairing(pairs: Iterable[Tuple[G1Point, G2Like]]) -> GTElement:
    """Product of pairings with one shared Miller-loop squaring chain
    and one shared final exponentiation.

    ``multi_pairing([(P1, Q1), ..., (Pk, Qk)])`` equals
    ``prod_i e(Pi, Qi)`` but interleaves all k Miller loops over a single
    accumulator (one ``f12_sqr`` per loop bit total, instead of one per
    pairing) and exponentiates once at the end.  All of the paper's
    verification equations are products of pairings, so this is the fast
    path used throughout.  The second slot of each pair may be a
    :class:`G2Point` (prepared lazily and memoized) or an explicit
    :class:`PreparedG2`.
    """
    entries = []
    for p, q in pairs:
        p_aff = p.affine()
        prepared = prepare_g2(q)
        if p_aff is None or prepared.is_identity:
            continue
        entries.append((p_aff, prepared))
    if not entries:
        return GTElement.one()
    return GTElement(final_exponentiation(
        _miller_loop_prepared_multi(entries)))


def multi_pairing_naive(
        pairs: Iterable[Tuple[G1Point, G2Point]]) -> GTElement:
    """Seed-equivalent product of pairings (no preparation, no sparse
    multiplication, blind final exponentiation).  Kept as the agreement
    baseline for tests and ``tools/bench_snapshot.py``."""
    accumulator = F12_ONE
    any_term = False
    for p, q in pairs:
        p_aff = p.affine()
        q_aff = q.affine()
        if p_aff is None or q_aff is None:
            continue
        accumulator = f12_mul(accumulator, _miller_loop_naive(p_aff, q_aff))
        any_term = True
    if not any_term:
        return GTElement.one()
    return GTElement(final_exponentiation_naive(accumulator))


def pairing_product_is_one(pairs: Sequence[Tuple[G1Point, G2Like]]) -> bool:
    """Check ``prod_i e(Pi, Qi) == 1`` (the shape of all verify equations)."""
    return multi_pairing(pairs).is_one()


def reset_pairing_counters() -> None:
    PAIRING_COUNTERS["miller_loops"] = 0
    PAIRING_COUNTERS["final_exps"] = 0
    PAIRING_COUNTERS["preparations"] = 0
