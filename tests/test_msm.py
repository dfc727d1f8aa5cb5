"""Property tests for the fast-exponentiation subsystem.

Every fast path (the lane and ladder MSM kernels, fixed-base tables,
sparse line multiplication, the BN final-exponentiation chain, prepared
pairings, backend ``multi_exp``) is compared against its naive reference
implementation on random inputs and edge cases: identity points, zero
scalars, and scalars at or beyond the group order.

``TestKernelSweep`` is the seeded differential sweep for the MSM kernels
over both groups (the lane kernel's GLV split on G1 and on the twist,
signed scalars and shared tables, G1's batched affine table build
against the Jacobian one, and tables kept in a caller's scope; the
ladder kernel, per base set and in
its window form over many sets, with its flat bucket engine's fused
pass and degenerate cells; G2's int F_p2 formulas, on subgroup and
non-subgroup twist points) and the Share-Sign and Combine entry points
above them (a window's interpolation in one call per signer set),
in the style of ``tests/test_fuzz_wire.py``: deterministic, driven by the
session seed (rerun a failure with ``--seed N``).
"""

import hashlib

import random

import pytest

from repro.curves import bn254
from repro.core.aggregation import AggThresholdParams, LJYAggregateScheme
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.curves.g1 import FP_OPS, GLV, G1Point
from repro.curves.g2 import CURVE as G2_CURVE, FP2_OPS, G2Point
from repro.curves.g2 import GLV as G2_GLV
from repro.curves.hash_to_curve import derive_generator_g2
from repro.curves.pairing import (
    GTElement, PreparedG2, final_exponentiation, final_exponentiation_naive,
    multi_pairing, multi_pairing_naive, prepare_g2, _miller_loop_naive,
)
from repro.curves.weierstrass import (
    batch_add_affine_fp, jac_add, jac_add_affine, jac_add_affine_fp2,
    jac_add_fp2, jac_batch_normalize, jac_double, jac_double_fp2, jac_neg,
    jac_normalize, jac_scalar_mul,
)
from repro.math.tower import f12_cyclotomic_pow, f12_pow
from repro.errors import ParameterError
from repro.groups import get_group
from repro.math import msm
from repro.math.lagrange import batch_invert, lagrange_coefficients
from repro.math.tower import (
    F2_ZERO, f2_mul, f2_mul_scalar, f2_sqr, f2_sqrt, f12_eq, f12_mul,
    f12_mul_line, wvec_to_f12, P,
)

R = bn254.R

EDGE_SCALARS = [0, 1, 2, R - 1, R, R + 5, 2 * R + 3]


def random_scalars(rng, count):
    return [rng.randrange(3 * R) for _ in range(count)]


def _fold(ops, point_cls, points, scalars):
    """The reference: a ``jac_scalar_mul`` per term, folded by ``+``."""
    total = point_cls.identity()
    for point, scalar in zip(points, scalars):
        total = total + point_cls(
            _jac=jac_scalar_mul(ops, point._jac, scalar, R))
    return total


class TestWnafDigits:
    def test_reconstructs_scalar(self):
        rng = random.Random(11)
        for width in (2, 3, 4, 5):
            for _ in range(20):
                scalar = rng.randrange(1 << 256)
                digits = msm.wnaf_digits(scalar, width)
                assert sum(d << i for i, d in enumerate(digits)) == scalar

    def test_digit_constraints(self):
        rng = random.Random(12)
        half = 1 << 3
        for _ in range(20):
            digits = msm.wnaf_digits(rng.randrange(1 << 254), 4)
            for i, digit in enumerate(digits):
                if digit == 0:
                    continue
                assert digit % 2 == 1
                assert -half < digit < half
                # Non-adjacency: the next width-1 digits are zero.
                assert all(d == 0 for d in digits[i + 1:i + 4])

    def test_zero(self):
        assert msm.wnaf_digits(0) == []

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            msm.wnaf_digits(-1)
        with pytest.raises(ValueError):
            msm.wnaf_digits(5, width=1)


@pytest.mark.bn254
class TestScalarMulAgreement:
    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_wnaf_matches_naive(self, ops, point_cls):
        rng = random.Random(13)
        base = point_cls.generator()
        for scalar in EDGE_SCALARS + random_scalars(rng, 5):
            fast = msm.scalar_mul(ops, base._jac, scalar, R)
            naive = jac_scalar_mul(ops, base._jac, scalar, R)
            assert point_cls(_jac=fast) == point_cls(_jac=naive)

    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_identity_point(self, ops, point_cls):
        identity = point_cls.identity()
        result = msm.scalar_mul(ops, identity._jac, 12345, R)
        assert point_cls(_jac=result).is_identity()

    def test_operator_uses_fast_path(self):
        # The * operator and the reference must agree bit for bit.
        rng = random.Random(14)
        g = G1Point.generator()
        for scalar in random_scalars(rng, 3):
            expected = G1Point(
                _jac=jac_scalar_mul(FP_OPS, g._jac, scalar, R))
            assert g * scalar == expected


@pytest.mark.bn254
class TestMultiScalarMul:
    def _naive(self, points, scalars):
        return _fold(FP_OPS, G1Point, points, scalars)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_straus_matches_naive(self, count):
        rng = random.Random(count)
        g = G1Point.generator()
        points = [g * rng.randrange(2, R) for _ in range(count)]
        scalars = random_scalars(rng, count)
        result = G1Point.multi_mul(points, scalars)
        assert result == self._naive(points, scalars)

    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_forty_distinct_points_match_naive(self, ops, point_cls):
        rng = random.Random(40)
        g = point_cls.generator()
        points = [g * (i + 2) for i in range(40)]
        scalars = random_scalars(rng, 40)
        assert point_cls.multi_mul(points, scalars) == _fold(
            ops, point_cls, points, scalars)

    def test_zero_scalars_and_identities_skipped(self):
        g = G1Point.generator()
        points = [g, G1Point.identity(), g * 3]
        scalars = [0, 55, R]   # every term vanishes
        assert G1Point.multi_mul(points, scalars).is_identity()

    def test_g2_multi_mul(self):
        rng = random.Random(41)
        h = G2Point.generator()
        points = [h * rng.randrange(2, R) for _ in range(3)]
        scalars = random_scalars(rng, 3)
        assert G2Point.multi_mul(points, scalars) == _fold(
            FP2_OPS, G2Point, points, scalars)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            G1Point.multi_mul([G1Point.generator()], [1, 2])

    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_colliding_and_repeated_bases(self, ops, point_cls):
        # Many copies of the same point with equal scalars put equal
        # table entries under the same bits, so the lanes meet the
        # doubling and inverse corner cases of the mixed addition.
        g = point_cls.generator()
        points = [g] * 12 + [g * 7] * 12 + [-g] * 6
        scalars = [5] * 30
        assert point_cls.multi_mul(points, scalars) == _fold(
            ops, point_cls, points, scalars)

    @pytest.mark.parametrize("point_cls", [G1Point, G2Point],
                             ids=["G1", "G2"])
    def test_opposite_points_cancel(self, point_cls):
        g = point_cls.generator()
        assert point_cls.multi_mul([g, -g], [3, 3]).is_identity()

    def test_straus_mixed_matches_naive_with_duplicates(self):
        rng = random.Random(77)
        g = G1Point.generator()
        base = g * 11
        points = [base, base, -base, g]
        scalars = random_scalars(rng, 4)
        assert G1Point.multi_mul(points, scalars) == \
            self._naive(points, scalars)


def _sweep_rng(session_seed, salt):
    return random.Random(
        (0x6C7 if session_seed is None else session_seed) + salt)


def _mixed_scalar(rng, widths):
    return rng.getrandbits(rng.choice(widths))


def _phi(point):
    """The GLV image ``(beta * x, y)`` of a G1 point, or
    ``(G2_GLV_BETA * x, y)`` of a twist point."""
    x, y = point.affine()
    if isinstance(point, G1Point):
        return G1Point(bn254.GLV_BETA * x % P, y)
    return G2Point(f2_mul_scalar(x, bn254.G2_GLV_BETA), y)


def _naive_g2(point, scalar):
    return G2Point(_jac=jac_scalar_mul(FP2_OPS, point._jac, scalar, R))


def _twist_point(rng):
    """A seeded point of the twist; outside G2 with overwhelming
    probability (the cofactor is ~2^254), which the callers assert."""
    while True:
        x = (rng.randrange(P), rng.randrange(P))
        y = f2_sqrt(G2_CURVE.rhs(x))
        if y is not None:
            return G2Point(x, y)


def _rescaled(jac, rng):
    """The same point with a random Z != 1: (l^2 X, l^3 Y, l Z)."""
    x, y, z = jac
    lam = (rng.randrange(1, P), rng.randrange(P))
    lam2 = f2_sqr(lam)
    return (f2_mul(x, lam2), f2_mul(y, f2_mul(lam2, lam)), f2_mul(z, lam))


def _basis_edges():
    """Scalars on the Babai rounding boundaries of the GLV basis (where
    a coordinate ``c_i`` of :func:`~repro.math.msm.glv_decompose` flips,
    so a half is at its largest), and the basis entries themselves."""
    (a_1, b_1), (a_2, b_2) = bn254.GLV_BASIS
    edges = [abs(a_1), abs(b_1), a_2, b_2, a_1 + a_2, b_2 - b_1]
    for b in (b_2, -b_1):
        for j in (0, 1, b // 2, b - 1):
            centre = (2 * j + 1) * R // (2 * b)
            edges += [centre - 1, centre, centre + 1]
    return edges


class TestKernelSweep:
    """Seeded differential sweep: the lane and ladder kernels, and the
    window form, against the naive ladder.  Deliberately *not* marked
    ``bn254`` — the point-arithmetic cases are sized to a few seconds so
    the fast CI matrix runs them on every interpreter, once under the
    default seed and once under a fresh one."""

    LAMBDA = bn254.GLV_LAMBDA
    EDGES = [0, 1, R - 1, R, R + 1, bn254.GLV_LAMBDA, R - bn254.GLV_LAMBDA,
             (1 << 127) - 1, (1 << 127) + 1, 1 << 128, 1 << 254,
             -1, -3, -(1 << 200), 3 * R + 7, -5 * R - 11]

    # -- constants (derived from BN_X; asserted here, never at import) ------
    def test_endomorphism_constants(self):
        beta, lam = bn254.GLV_BETA, bn254.GLV_LAMBDA
        assert beta != 1 and pow(beta, 3, P) == 1
        assert (lam * lam + lam + 1) % R == 0
        assert lam == (36 * bn254.BN_X ** 4 - 1) % R
        (a_1, b_1), (a_2, b_2) = bn254.GLV_BASIS
        assert (a_1 + b_1 * lam) % R == 0
        assert (a_2 + b_2 * lam) % R == 0
        assert a_1 * b_2 - a_2 * b_1 == R
        assert GLV == (beta, lam, bn254.GLV_BASIS)

    def test_phi_is_multiplication_by_lambda(self, session_seed):
        rng = _sweep_rng(session_seed, 1)
        for _ in range(3):
            point = G1Point.generator() * rng.randrange(1, R)
            x, y = point.affine()
            assert G1Point(bn254.GLV_BETA * x % P, y) == G1Point(
                _jac=jac_scalar_mul(FP_OPS, point._jac, self.LAMBDA, R))

    # -- decomposition (integers only: cheap, so swept wide) ----------------
    def test_decomposition_identity_and_bounds(self, session_seed):
        rng = _sweep_rng(session_seed, 2)
        scalars = self.EDGES + _basis_edges()
        scalars += [rng.randrange(R) for _ in range(10_000)]
        scalars += [rng.getrandbits(bits) for bits in range(1, 300)]
        for scalar in scalars:
            k_1, k_2 = msm.glv_decompose(GLV, scalar, R)
            assert (k_1 + k_2 * self.LAMBDA - scalar) % R == 0, scalar
            assert abs(k_1) < 1 << 128 and abs(k_2) < 1 << 128, scalar

    def test_short_negatives_stay_short(self):
        # r - 3 is the Lagrange weight -3: one 2-bit lane, not 254 bits.
        assert msm.glv_decompose(GLV, R - 3, R) == (-3, 0)
        assert msm.glv_decompose(GLV, -(1 << 40), R) == (-(1 << 40), 0)

    # -- kernel vs naive fold ------------------------------------------------
    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_edge_scalars(self, ops, point_cls, session_seed):
        rng = _sweep_rng(session_seed, 3)
        base = point_cls.generator() * rng.randrange(2, R)
        for scalar in self.EDGES:
            assert base * scalar == _fold(
                ops, point_cls, [base], [scalar]), scalar

    @pytest.mark.parametrize("count", [1, 2, 3, 16, 192, 193])
    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_matches_naive_fold(self, ops, point_cls, count, session_seed):
        # 192/193 terms are long products for the one lane kernel; there
        # the scalars are mostly short so the reference ladders stay
        # cheap, with a few full-size ones so every lane shape is present.
        rng = _sweep_rng(session_seed, 4 + count)
        generator = point_cls.generator()
        points = [generator * (rng.getrandbits(24) + 1)
                  for _ in range(count)]
        if count <= 16:
            scalars = [_mixed_scalar(rng, (16, 64, 128, 129, 254, 300))
                       for _ in range(count)]
        else:
            # Nonzero, so all 193 terms are live lanes.
            scalars = [_mixed_scalar(rng, (8, 16, 24)) + 1
                       for _ in range(count)]
            scalars[:3] = [rng.randrange(1, R), R - 3,
                           rng.getrandbits(64) + 1]
        assert point_cls.multi_mul(points, scalars) == _fold(
            ops, point_cls, points, scalars)

    # -- inputs that force the mixed-add degenerate branches mid-ladder -----
    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_point_with_its_negative(self, ops, point_cls, session_seed):
        rng = _sweep_rng(session_seed, 20)
        point = point_cls.generator() * rng.randrange(2, R)
        k = rng.randrange(R)
        # Equal scalars: the accumulator returns to the identity after
        # every digit (P - P), then restarts from it.
        assert point_cls.multi_mul([point, -point], [k, k]).is_identity()
        other = rng.randrange(R)
        assert point_cls.multi_mul([point, -point], [k, other]) == _fold(
            ops, point_cls, [point, -point], [k, other])

    def test_point_with_its_phi_image(self, session_seed):
        self._point_with_its_phi_image(
            FP_OPS, G1Point, _sweep_rng(session_seed, 21))

    def test_g2_point_with_its_phi_image(self, session_seed):
        self._point_with_its_phi_image(
            FP2_OPS, G2Point, _sweep_rng(session_seed, 65))

    def _point_with_its_phi_image(self, ops, point_cls, rng):
        # k*P + (k/lambda)*phi(P) = 2k*P: the two terms' lanes carry the
        # same digits against phi-related tables, so the ladder keeps
        # meeting P + P and P - P.
        point = point_cls.generator() * rng.randrange(2, R)
        image = _phi(point)
        inverse = pow(self.LAMBDA, -1, R)
        for k in [1, 3, R - 1, self.LAMBDA, rng.randrange(R),
                  rng.getrandbits(64)]:
            scalars = [k, k * inverse % R]
            assert point_cls.multi_mul([point, image], scalars) == _fold(
                ops, point_cls, [point], [2 * k])
            # ... and the cancelling twin: k*P - (k/lambda)*phi(P) = 0.
            assert point_cls.multi_mul(
                [point, -image], scalars).is_identity()

    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_duplicates_identities_and_zero_rows(self, ops, point_cls,
                                                 session_seed):
        rng = _sweep_rng(session_seed, 22)
        point = point_cls.generator() * rng.randrange(2, R)
        named = {"P": point, "-P": -point, "O": point_cls.identity(),
                 "Q": point_cls.generator() * rng.randrange(2, R)}
        # The first shape is four rows over four live bases (lanes);
        # the others have more rows than live bases, which sends G1 to
        # the ladder, where [P, P] and [P, -P] put equal-x pairs into
        # the batched addition (P + P and P - P).
        for spec, row_count in (("P P O P -P", 4), ("P P", 3),
                                ("P -P O", 6), ("P Q", 10), ("P -P Q", 4)):
            names = spec.split()
            points = [named[name] for name in names]
            k = rng.randrange(R)
            edges = [R - 1, -3, R + 5, -(1 << 200), 1]
            cycle = [
                [k] * len(points),            # equal digits on every base
                [rng.randrange(-R, 3 * R) for _ in points],
                # every term vanishes: 0, r, 2r; anything on the identity
                [rng.randrange(R) if name == "O" else (0, R, 2 * R)[i % 3]
                 for i, name in enumerate(names)],
                [0] * len(points),
                [edges[i % len(edges)] for i in range(len(points))],
                [k] * len(points),            # a repeated row
            ]
            rows = [cycle[i % len(cycle)] for i in range(row_count)]
            live = len(names) - names.count("O")
            kernel = ("ladder_rows" if point_cls is G1Point
                      and row_count > live else "lane_rows")
            before = msm.MSM_COUNTERS[kernel]
            results = [
                point_cls(_jac=jac) for jac in msm.multi_scalar_mul_windows(
                    ops, [[p._jac for p in points]], rows, R,
                    GLV if point_cls is G1Point else G2_GLV)[0]]
            assert msm.MSM_COUNTERS[kernel] - before == row_count, spec
            for row, result in zip(rows, results):
                assert result == _fold(ops, point_cls, points, row), spec
            assert results[2].is_identity(), spec
            if spec == "P -P O":
                assert results[0].is_identity()     # k*P - k*P + k*O

    # -- G2: the twist's endomorphism, int formulas and subgroup -----------
    def test_g2_endomorphism_constant(self):
        beta, beta_2 = bn254.GLV_BETA, bn254.G2_GLV_BETA
        assert beta_2 == beta * beta % P == (-1 - beta) % P
        assert beta_2 != 1 and pow(beta_2, 3, P) == 1
        assert G2_GLV == ((beta_2, 0), self.LAMBDA, bn254.GLV_BASIS)

    def test_phi2_is_multiplication_by_lambda(self, session_seed):
        rng = _sweep_rng(session_seed, 60)
        for _ in range(2):
            point = G2Point.generator() * rng.randrange(1, R)
            assert _phi(point) == _naive_g2(point, self.LAMBDA)
            # The other cube root acts as lambda^2: the derivation's
            # first step, and the constant a wrong G2_GLV_BETA would be.
            x, y = point.affine()
            assert G2Point(f2_mul_scalar(x, bn254.GLV_BETA), y) == \
                _naive_g2(point, self.LAMBDA * self.LAMBDA % R)

    def test_g2_edge_scalars_through_every_path(self, session_seed):
        rng = _sweep_rng(session_seed, 61)
        base = G2Point.generator() * rng.randrange(2, R)
        table = msm.FixedBaseTable(FP2_OPS, base._jac, R, G2_GLV)
        other = G2Point.generator() * rng.randrange(2, R)
        k_other = rng.randrange(R)
        other_term = _naive_g2(other, k_other)
        scalars = [0, 1, self.LAMBDA, R - self.LAMBDA, R - 1,
                   rng.randrange(R)] + _basis_edges()
        for scalar in scalars:
            expected = _naive_g2(base, scalar)
            # A fresh instance each time: no automatic table.
            assert G2Point(_jac=base._jac) * scalar == expected, scalar
            assert G2Point.multi_mul([base], [scalar]) == expected, scalar
            assert G2Point.multi_mul(
                [base, other], [scalar, k_other]) == \
                expected + other_term, scalar
            assert G2Point(_jac=table.mul(scalar)) == expected, scalar

    # -- the fixed-base comb ------------------------------------------------
    @pytest.mark.parametrize("ops,point_cls,endo", [
        (FP_OPS, G1Point, GLV), (FP2_OPS, G2Point, G2_GLV),
    ], ids=["G1", "G2"])
    def test_comb_matches_naive(self, ops, point_cls, endo, session_seed):
        rng = _sweep_rng(session_seed, 62 + ops.degree)
        base = point_cls.generator() * rng.randrange(2, R)
        table = msm.FixedBaseTable(ops, base._jac, R, endo)
        scalars = self.EDGES + _basis_edges() + [(1 << 128) - 1] + [
            rng.randrange(R) for _ in range(4)]
        # The sweep reaches an undecomposed lane as long as the comb
        # spans, both signs of a GLV half and a zero half.
        lanes = [k for scalar in scalars
                 for k, _ in msm._split(scalar % R, R, endo)]
        assert max(abs(k) for k in lanes).bit_length() == 128
        assert min(lanes) < 0 < max(lanes) and 0 in lanes
        for scalar in scalars:
            assert point_cls(_jac=table.mul(scalar)) == point_cls(
                _jac=jac_scalar_mul(ops, base._jac, scalar, R)), scalar
        identity = msm.FixedBaseTable(
            ops, point_cls.identity()._jac, R, endo)
        for scalar in (0, 1, R - 1, rng.randrange(R)):
            assert point_cls(_jac=identity.mul(scalar)).is_identity()

    def test_comb_costs(self):
        # The build and a multiplication run the point formulas the
        # comb's docstring counts, on either group.
        for ops, point_cls, endo in ((FP_OPS, G1Point, GLV),
                                     (FP2_OPS, G2Point, G2_GLV)):
            calls = {"double": 0, "add": 0}

            def double(point, m, _double=ops.point_double):
                calls["double"] += 1
                return _double(point, m)

            def add(point, affine, m, _add=ops.point_add_affine):
                calls["add"] += 1
                return _add(point, affine, m)

            counting = ops._replace(point_double=double,
                                    point_add_affine=add)
            base = point_cls.generator() * 7
            table = msm.FixedBaseTable(counting, base._jac, R, endo)
            assert calls == {"double": 112, "add": 247}
            for scalar in (R - 1, R // 3, (1 << 128) - 1, 5):
                calls.update(double=0, add=0)
                table.mul(scalar)
                assert calls["double"] == 15
                assert calls["add"] <= 32

    def test_comb_through_the_all_tables_multi_exp(self, session_seed):
        # BN254Group.multi_exp sums one comb read per base when every
        # base carries a table.
        rng = _sweep_rng(session_seed, 65)
        group = get_group("bn254")
        edges = self.EDGES + _basis_edges()
        for generator, identity, ops, point_cls in (
                (group.g1_generator, group.g1_identity, FP_OPS, G1Point),
                (group.g2_generator, group.g2_identity, FP2_OPS, G2Point)):
            bases = [(generator() ** rng.randrange(2, R)).precompute()
                     for _ in range(2)] + [identity().precompute()]
            assert all(base.point._table is not None for base in bases)
            for _ in range(2):
                scalars = [rng.choice(edges), rng.randrange(R),
                           rng.randrange(R)]
                assert group.multi_exp(bases, scalars).point == _fold(
                    ops, point_cls, [base.point for base in bases],
                    scalars), scalars

    def test_g2_int_formulas_match_generic(self, session_seed):
        # Same formulas, same reduced output: compared exactly, on G2
        # points and on twist points outside G2, with Z != 1 throughout.
        rng = _sweep_rng(session_seed, 62)
        infinity = G2Point.identity()._jac
        pairs = [(G2Point.generator() * rng.randrange(2, R),
                  G2Point.generator() * rng.randrange(2, R)),
                 (_twist_point(rng), _twist_point(rng))]
        for first, second in pairs:
            p = _rescaled(first._jac, rng)
            q = _rescaled(second._jac, rng)
            p_aff, q_aff = first.affine(), second.affine()
            minus_p = jac_neg(FP2_OPS, p)
            for a in (p, first._jac, infinity):
                assert jac_double_fp2(a, P) == jac_double(FP2_OPS, a)
            for a, b in [(p, q), (p, p), (p, _rescaled(p, rng)),
                         (p, minus_p), (infinity, p), (p, infinity),
                         (infinity, infinity), (first._jac, q)]:
                assert jac_add_fp2(a, b, P) == jac_add(FP2_OPS, a, b)
            assert jac_add_fp2(p, minus_p, P)[2] == F2_ZERO
            for acc in (p, first._jac, infinity):
                for aff in (q_aff, p_aff, (p_aff[0], minus_p[1])):
                    assert jac_add_affine_fp2(acc, aff, P) == \
                        jac_add_affine(FP2_OPS, acc, aff)
            assert jac_add_affine_fp2(
                p, jac_normalize(FP2_OPS, minus_p), P)[2] == F2_ZERO

    def test_g2_batch_normalize_mixed_entries(self, session_seed):
        rng = _sweep_rng(session_seed, 63)
        inside = G2Point.generator() * rng.randrange(2, R)
        outside = _twist_point(rng)
        infinity = G2Point.identity()._jac
        points = [_rescaled(inside._jac, rng), infinity, inside._jac,
                  _rescaled(outside._jac, rng), outside._jac, infinity,
                  _rescaled(infinity, rng)]
        batch = jac_batch_normalize(FP2_OPS, points)
        assert batch == [jac_normalize(FP2_OPS, point) for point in points]
        assert batch[1] is None and batch[-1] is None
        assert batch[0] == batch[2] == inside.affine()
        # Only identities and Z = 1 entries: nothing to invert.
        assert jac_batch_normalize(FP2_OPS, [infinity, inside._jac]) == [
            None, inside.affine()]

    def test_g2_subgroup_check_and_derived_generators(self, session_seed):
        outside = _twist_point(_sweep_rng(session_seed, 64))
        assert outside.is_on_curve() and not outside.in_subgroup()
        assert outside.clear_cofactor().in_subgroup()
        # The lane kernel over the full curve order lands on the naive
        # ladder's point: nothing was reduced modulo r.
        full = G2_CURVE.cofactor * R
        assert outside.clear_cofactor() == G2Point(_jac=jac_scalar_mul(
            FP2_OPS, outside._jac, G2_CURVE.cofactor, full))
        assert not FP2_OPS.is_zero(
            jac_scalar_mul(FP2_OPS, outside._jac, R, full)[2])
        labels = ["LJY14:g_z", "LJY14:g_r", "LJY14:agg:g_z",
                  "LJY14:agg:g_r", "LJY14:dlin:h_z", "LJY14:dlin:h_u"]
        encoded = b"".join(
            derive_generator_g2(label).to_bytes() for label in labels)
        assert hashlib.sha256(encoded).hexdigest() == (
            "214731b8ad20a9cf665b3750c716de6fe8adef3425d8726c169fb5975bb26464")

    def test_short_scalars_take_the_undecomposed_lane(self, session_seed,
                                                      monkeypatch):
        # The 64-bit batching coins must not pay for a GLV split.
        rng = _sweep_rng(session_seed, 23)
        points = [G1Point.generator() * rng.getrandbits(24)
                  for _ in range(4)]
        coins = [rng.getrandbits(64) + 1 for _ in points]
        expected = _fold(FP_OPS, G1Point, points, coins)

        def refuse(*_args):
            raise AssertionError("a short scalar was decomposed")

        monkeypatch.setattr(msm, "glv_decompose", refuse)
        assert G1Point.multi_mul(points, coins) == expected
        assert G1Point.multi_mul_windows([points], [coins])[0][0] == expected
        with pytest.raises(AssertionError):
            G1Point.multi_mul(points, [1 << 129] * 4)

    def test_rows_reject_ragged_input(self):
        g = G1Point.generator()
        with pytest.raises(ValueError):
            G1Point.multi_mul_windows([[g, g]], [[1, 2], [3]])

    # -- the seam: one-set windows == per-row multi_exp; many == per-share ---
    @pytest.mark.parametrize("backend", ["toy", "bn254"])
    @pytest.mark.parametrize("row_count", [0, 1, 3, 4, 6, 9, 10])
    def test_multi_exp_rows_matches_multi_exp(self, backend, row_count,
                                              session_seed):
        # Over two and three bases: more rows than bases is the ladder
        # kernel (2 x 3, 2 x 6, 3 x 4, ...), one row is always lanes.
        rng = _sweep_rng(session_seed, 30 + row_count)
        group = get_group(backend)
        for base_count in (2, 3):
            bases = [group.g1_generator() ** rng.getrandbits(24)
                     for _ in range(base_count)]
            rows = [[_mixed_scalar(rng, (1, 64, 128, 254, 300))
                     * rng.choice((1, -1)) for _ in bases]
                    for _ in range(row_count)]
            assert group.multi_exp_windows([bases], rows) == [[
                group.multi_exp(bases, row) for row in rows]]

    @pytest.mark.parametrize("backend", ["toy", "bn254"])
    def test_multi_exp_rows_other_groups(self, backend, session_seed):
        rng = _sweep_rng(session_seed, 40)
        group = get_group(backend)
        bases = [group.g2_generator() ** rng.getrandbits(16)
                 for _ in range(2)]
        rows = [[rng.randrange(R), R - 3], [5, 0]]
        assert group.multi_exp_windows([bases], rows) == [[
            group.multi_exp(bases, row) for row in rows]]
        with pytest.raises(ValueError):
            group.multi_exp_windows([bases], [[1]])

    @pytest.mark.parametrize("backend", ["toy", "bn254"])
    def test_share_sign_many_is_share_sign_per_share(self, backend,
                                                     session_seed):
        rng = _sweep_rng(session_seed, 41)
        group = get_group(backend)
        message = b"sweep:" + rng.randbytes(12)

        def encoded(partials):
            return [(partial.index, partial.z.to_bytes(),
                     partial.r.to_bytes()) for partial in partials]

        scheme = LJYThresholdScheme(ThresholdParams.generate(group, 2, 5))
        _pk, shares, _vks = scheme.dealer_keygen(rng=rng)
        order = [4, 1, 5, 2, 3, 1]          # unsorted, one repeated
        chosen = [shares[index] for index in order]
        assert encoded(scheme.share_sign_many(chosen, [message])[0]) == \
            encoded([scheme.share_sign(share, message) for share in chosen])
        assert scheme.share_sign_many([], [message]) == [[]]
        assert scheme.share_sign_many(chosen, []) == []

        agg = LJYAggregateScheme(AggThresholdParams.generate(group, 2, 5))
        agg_pk, agg_shares, _vks = agg.dealer_keygen(rng=rng)
        chosen = [agg_shares[index] for index in order]
        assert encoded(
            agg.share_sign_many(agg_pk, chosen, [message])[0]) == encoded(
            [agg.share_sign(agg_pk, share, message) for share in chosen])

    # -- the window form: many base sets under the same rows ----------------
    @staticmethod
    def _window_counts():
        """Set counts of 2-base windows: 1, 2, just below and at the
        affine-ladder crossover, 16 and 17 — each with row counts that
        together cover 1-10."""
        below = (msm._AFFINE_LADDER_BASES - 1) // 2
        at = -(-msm._AFFINE_LADDER_BASES // 2)
        return [(1, (1, 5, 10)), (2, (2, 9)), (below, (3,)), (at, (8, 3)),
                (16, (6,)), (17, (4, 7))]

    @pytest.mark.parametrize("case", range(6))
    def test_window_matches_per_set_and_naive(self, case, session_seed):
        count, row_counts = self._window_counts()[case]
        rng = _sweep_rng(session_seed, 50 + case)
        generator = G1Point.generator()
        sets = [[generator * (rng.getrandbits(24) + 1) for _ in range(2)]
                for _ in range(count)]
        if count > 1:
            sets[-1] = sets[0]              # the same message twice
        edges = [R - 1, -3, R + 5, -(1 << 200), 1, self.LAMBDA]
        for row_count in row_counts:
            rows = [[_mixed_scalar(rng, (16, 64, 128, 254, 300))
                     * rng.choice((1, -1)) for _ in range(2)]
                    for _ in range(row_count)]
            if row_count > 1:
                rows[1] = [0, 0]            # a zero row
            if row_count > 2:
                rows[2] = [edges[row_count % 6], edges[(row_count + 1) % 6]]
            before = dict(msm.MSM_COUNTERS)
            window = G1Point.multi_mul_windows(sets, rows)
            kernel = "ladder_rows" if row_count > 2 else "lane_rows"
            assert msm.MSM_COUNTERS[kernel] - before[kernel] == \
                count * row_count
            assert msm.MSM_COUNTERS["ladder_calls"] - \
                before["ladder_calls"] == (row_count > 2)
            assert window == [G1Point.multi_mul_windows([points], rows)[0]
                              for points in sets]
            # The naive fold on the first, a middle and the last set.
            for position in sorted({0, count // 2, count - 1}):
                for row, product in zip(rows, window[position]):
                    assert product == _fold(
                        FP_OPS, G1Point, sets[position], row), (count, row)

    def test_window_splits_sets_by_their_live_bases(self, session_seed):
        # A set with an identity base is a different live pattern: its
        # own kernel call, the same products.
        rng = _sweep_rng(session_seed, 57)
        generator = G1Point.generator()
        sets = [[generator * rng.randrange(2, R) for _ in range(2)]
                for _ in range(4)]
        sets[2] = [sets[2][0], G1Point.identity()]
        rows = [[rng.randrange(R), rng.randrange(R)] for _ in range(3)]
        before = msm.MSM_COUNTERS["ladder_calls"]
        window = G1Point.multi_mul_windows(sets, rows)
        assert msm.MSM_COUNTERS["ladder_calls"] - before == 2
        for points, products in zip(sets, window):
            assert products == [_fold(FP_OPS, G1Point, points, row)
                                for row in rows]
        assert G1Point.multi_mul_windows([], rows) == []
        with pytest.raises(ValueError):
            G1Point.multi_mul_windows([sets[0], sets[1][:1]], rows)

    # -- the flat bucket engine, its fused pass, window interpolation -------
    def test_fused_pass_matches_generic_formulas(self, session_seed):
        # Rung doublings and queued pairs in one pass, one inversion:
        # chords, the tangent of an equal pair, and a doubling-free tail
        # rung, each against the generic Jacobian formulas.
        rng = _sweep_rng(session_seed, 60)
        g = G1Point.generator()
        points = [g * rng.randrange(2, R) for _ in range(8)]
        rungs = points[:3]
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(9)]
        pairs += [(points[0], points[0]), (points[1], -points[2]),
                  (-points[3], -points[3])]
        rng.shuffle(pairs)
        xs, ys = map(list, zip(*(point.affine() for point in rungs)))
        x1s, y1s = map(list, zip(*(a.affine() for a, _ in pairs)))
        x2s, y2s = map(list, zip(*(b.affine() for _, b in pairs)))
        before = [(x, y) for x, y in zip(x2s, y2s)]
        batch_add_affine_fp(xs, ys, 2, x1s, y1s, x2s, y2s, P)
        for index, point in enumerate(rungs):
            expected = (G1Point(_jac=jac_double(FP_OPS, point._jac))
                        if index < 2 else point)
            assert G1Point(xs[index], ys[index]) == expected
        for (a, b), x, y in zip(pairs, x1s, y1s):
            assert G1Point(x, y) == G1Point(
                _jac=jac_add(FP_OPS, a._jac, b._jac))
        assert list(zip(x2s, y2s)) == before      # second operands kept
        batch_add_affine_fp([], [], 0, [], [], [], [], P)  # empty round

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 16, 33])
    def test_flat_engine_windows(self, count, session_seed):
        """The ladder kernel over windows of 2-base sets around and far
        past the affine-rung crossover, identity and duplicate base sets
        mixed in: against per-set calls, the naive fold, and affine."""
        rng = _sweep_rng(session_seed, 61 + count)
        generator = G1Point.generator()
        sets = [[generator * rng.randrange(1, R) for _ in range(2)]
                for _ in range(count)]
        if count > 2:
            sets[1] = sets[0]                       # the same message twice
            sets[2] = [sets[2][0], G1Point.identity()]  # its own pattern
        rows = [[rng.randrange(-R, 3 * R) for _ in range(2)]
                for _ in range(6)]
        rows[3] = [rows[0][0], rows[0][0]]
        rows[4] = [1, -3]
        before = dict(msm.MSM_COUNTERS)
        window = G1Point.multi_mul_windows(sets, rows)
        assert msm.MSM_COUNTERS["ladder_rows"] - before["ladder_rows"] == \
            6 * count
        passes = msm.MSM_COUNTERS["inversions"] - before["inversions"]
        assert 0 < passes < msm.MSM_COUNTERS["affine_adds"] - \
            before["affine_adds"]
        assert window == [G1Point.multi_mul_windows([points], rows)[0]
                          for points in sets]
        for products in window:                 # the fold ends affine
            assert all(product._jac[2] == 1 for product in products)
        for position in sorted({0, 2 % count, count // 2, count - 1}):
            for row, product in zip(rows, window[position]):
                assert product == _fold(
                    FP_OPS, G1Point, sets[position], row), (count, row)

    def test_flat_engine_degenerate_buckets(self, session_seed):
        """P + (-P) inside a bucket and inside the fold, P + P inside a
        bucket (the tangent), and cells filed while their pair is in
        flight — once and more than once, cancelling among themselves —
        on Jacobian rungs (one set) and affine rungs (a window)."""
        rng = _sweep_rng(session_seed, 70)
        generator = G1Point.generator()
        a, b = (generator * rng.randrange(2, R) for _ in range(2))
        k = rng.randrange(R)
        cases = [
            # [k, k] cancels per bucket; [3, 1] puts A in bucket 1 and
            # -A in bucket 0, which cancel in the fold's running sum.
            ([a, -a], [[k, k], [3, 1], [1, 3], [5, 5]]),
            # Equal points under equal digits: the tangent.
            ([a, a], [[k, k], [1, 1], [3, 3], [k, 1]]),
            # Four points into one bucket at one bit: one pair in
            # flight, two waiting that cancel each other.
            ([a, b, -a, a], [[1, 1, 1, 1], [3, 3, 3, 3], [k, k, k, k],
                             [7, 1, 7, 1], [1, 0, 0, 1]]),
        ]
        for bases, rows in cases:
            for count in (1, 4):
                sets = [[point * (index + 1) for point in bases]
                        for index in range(count)]
                window = G1Point.multi_mul_windows(sets, rows)
                for points, products in zip(sets, window):
                    for row, product in zip(rows, products):
                        assert product == _fold(
                            FP_OPS, G1Point, points, row), (count, row)
                if bases[1] is not b:
                    assert window[0][0].is_identity() == (bases[1] == -a)

    # -- lane tables: the batched affine build, one build per scope ---------
    def test_affine_table_build_matches_jacobian(self, session_seed,
                                                 monkeypatch):
        """On G1 the lane tables are made in batched affine rounds; they
        must be the Jacobian odd multiples (:func:`_odd_multiples`, the
        reference) normalized, entry for entry, for affine and Z != 1
        inputs, duplicate bases, a base beside its negation, and every
        table length 1-4 in one call."""
        rng = _sweep_rng(session_seed, 80)
        generator = G1Point.generator()
        points = [generator * rng.randrange(1, R) for _ in range(6)]
        G1Point.batch_normalize(points)
        bases = [point._jac for point in points]
        bases += [bases[0], jac_neg(FP_OPS, bases[1])]      # twin, negation
        for point in points[:3]:                            # Z != 1
            lam = rng.randrange(2, P)
            x, y, z = point._jac
            bases.append((x * lam * lam % P, y * pow(lam, 3, P) % P,
                          z * lam % P))
        counts = [rng.randint(1, 4) for _ in bases]
        counts[:4] = [1, 2, 3, 4]
        expected = [jac_batch_normalize(
            FP_OPS, msm._odd_multiples(FP_OPS, base, count))
            for base, count in zip(bases, counts)]

        def refuse(*_args):
            raise AssertionError("G1 tables took the Jacobian build")

        monkeypatch.setattr(msm, "_odd_multiples", refuse)
        tables = msm._lane_tables(FP_OPS, bases, counts)
        assert [positive for positive, _ in tables] == expected
        for positive, negative in tables:
            assert negative == [(x, -y % P) for x, y in positive]
        assert msm._lane_tables(FP_OPS, [], []) == []

    @pytest.mark.parametrize("backend,which", [
        ("bn254", "g1"), ("bn254", "g2"), ("toy", "g1"),
    ], ids=["G1", "G2", "toy"])
    def test_scope_slices_match_fresh_multi_exp(self, backend, which,
                                                session_seed):
        """A localization's products through ONE scope — random slices
        under 64-bit coins and under the index-weighted ~70-bit ones,
        an identity base among them — equal fresh ``multi_exp`` calls;
        the scope holds one full table per live base, and the toy
        backend leaves it empty."""
        rng = _sweep_rng(session_seed, 81)
        group = get_group(backend)
        generator = getattr(group, f"{which}_generator")()
        size = 12 if which == "g1" else 6
        bases = [generator ** rng.randrange(1, R) for _ in range(size)]
        bases[rng.randrange(size)] = getattr(group, f"{which}_identity")()
        group.batch_normalize(bases)
        coins = [rng.getrandbits(64) for _ in bases]
        scope = {}
        slices = [(0, size)] + [tuple(sorted(rng.sample(range(size + 1), 2)))
                                for _ in range(4)]
        for lo, hi in slices:
            for weighted in (False, True):
                exponents = coins[lo:hi]
                if weighted:
                    exponents = [coin * weight for weight, coin
                                 in enumerate(exponents, lo + 1)]
                assert group.multi_exp(
                    bases[lo:hi], exponents, scope=scope
                ) == group.multi_exp(bases[lo:hi], exponents)
        if backend == "toy":
            assert scope == {}
            return
        live = {base.point._jac for base in bases if base}
        assert set(scope) == live
        assert all(len(positive) == 4 for positive, _ in scope.values())

    def test_window_interpolation_matches_per_position(self, session_seed):
        """``combine_window``'s interpolation — one MSM call per signer
        set — against per-position ``combine`` and Verify for quorums
        {1,2,3}, {3,4,5} and {4,5,1}, and against the naive fold for a
        window mixing two signer sets (a top-up) and for an identity
        partial."""
        rng = _sweep_rng(session_seed, 80)
        group = get_group("bn254")
        scheme = LJYThresholdScheme(ThresholdParams.generate(group, 2, 5))
        pk, shares, vks = scheme.dealer_keygen(rng=rng)
        messages = [b"interp:%d:" % i + rng.randbytes(6) for i in range(3)]
        signed = {quorum: scheme.share_sign_many(
            [shares[index] for index in quorum], messages)
            for quorum in ((1, 2, 3), (3, 4, 5), (4, 5, 1), (1, 2, 4))}

        def requests(*quorums):
            return [{partial.index: partial for partial in signed[quorum][i]}
                    for i, quorum in enumerate(quorums)]

        def naive(request):
            signers = tuple(sorted(request))
            weights = lagrange_coefficients(list(signers), R)
            return [_fold(FP_OPS, G1Point,
                          [getattr(request[index], name).point
                           for index in signers],
                          [weights[index] for index in signers])
                    for name in ("z", "r")]

        for quorum in ((1, 2, 3), (3, 4, 5), (4, 5, 1)):
            window = requests(quorum, quorum, quorum)
            combined = scheme._interpolate(window)
            for message, request, signature in zip(messages, window,
                                                   combined):
                assert signature.to_bytes() == scheme.combine(
                    pk, vks, message, request.values(),
                    verify_shares=False).to_bytes()
                assert scheme.verify(pk, message, signature)
        mixed = requests((1, 2, 3), (1, 2, 4), (1, 2, 3))
        forged = mixed[2][2]
        mixed[2][2] = type(forged)(index=2, z=group.g1_identity(),
                                   r=forged.r)
        for request, signature in zip(mixed, scheme._interpolate(mixed)):
            assert [signature.z.point, signature.r.point] == naive(request)
        combined = scheme._interpolate(mixed[:2])
        assert all(scheme.verify(pk, message, signature)
                   for message, signature in zip(messages, combined))
        assert not scheme.verify(pk, messages[2],
                                 scheme._interpolate(mixed)[2])

    @pytest.mark.parametrize("backend", [
        "toy", pytest.param("bn254", marks=pytest.mark.bn254)])
    def test_share_sign_many_over_messages(self, backend, session_seed):
        rng = _sweep_rng(session_seed, 42)
        group = get_group(backend)
        messages = [b"window:%d:" % i + rng.randbytes(8) for i in range(3)]
        messages.insert(2, messages[0])     # the same message twice

        def encoded(windows):
            return [[(partial.index, partial.z.to_bytes(),
                      partial.r.to_bytes()) for partial in partials]
                    for partials in windows]

        scheme = LJYThresholdScheme(ThresholdParams.generate(group, 2, 5))
        _pk, shares, _vks = scheme.dealer_keygen(rng=rng)
        chosen = [shares[index] for index in (2, 5, 1)]
        assert encoded(scheme.share_sign_many(chosen, messages)) == encoded(
            [scheme.share_sign_many(chosen, [message])[0]
             for message in messages])
        assert encoded(scheme.share_sign_many(chosen[:1], messages)) == \
            encoded([[scheme.share_sign(chosen[0], message)]
                     for message in messages])

        agg = LJYAggregateScheme(AggThresholdParams.generate(group, 2, 5))
        agg_pk, agg_shares, _vks = agg.dealer_keygen(rng=rng)
        chosen = [agg_shares[index] for index in (3, 4, 1)]
        assert encoded(agg.share_sign_many(agg_pk, chosen, messages)) == \
            encoded([[agg.share_sign(agg_pk, share, message)
                      for share in chosen] for message in messages])

    @pytest.mark.parametrize("backend", [
        "toy", pytest.param("bn254", marks=pytest.mark.bn254)])
    def test_process_sign_window_is_position_by_position(self, backend,
                                                         session_seed):
        """Share-Signing the window in one call changes nothing the
        robust path sees: the reference hands ``process_sign_window``
        every position's partials made one message at a time."""
        from repro.core.scheme import ServiceHandle
        from repro.service.faults import CorruptSignerFault
        rng = _sweep_rng(session_seed, 43)
        group = get_group(backend)
        keys = ServiceHandle.dealer(group, 2, 5, rng=rng)
        messages = [b"pos:%d:" % i + rng.randbytes(6) for i in range(6)]
        messages[4] = messages[1]           # the same message twice
        forged = {messages[1], messages[5]}

        class Recording(CorruptSignerFault):
            def __init__(self):
                super().__init__(signer_index=1, messages=forged)
                self.seen = []

            def __call__(self, shard_id, signer_index, message, partial):
                self.seen.append((message, signer_index))
                return super().__call__(shard_id, signer_index, message,
                                        partial)

        def fresh():
            return ServiceHandle(keys.scheme, keys.public_key, keys.shares,
                                 keys.verification_keys)

        windowed, stepped = Recording(), Recording()
        before = dict(msm.MSM_COUNTERS)
        outcome = fresh().process_sign_window(
            messages, fault_injector=windowed)
        if backend == "bn254":
            # The quorum's 2(t + 1) rows over all six H(M): one call.
            assert msm.MSM_COUNTERS["ladder_calls"] - \
                before["ladder_calls"] == 1
            assert msm.MSM_COUNTERS["ladder_rows"] - \
                before["ladder_rows"] == 6 * len(messages)
        handle = fresh()
        quorum = handle.quorum()
        presigned = {
            position: handle.partials_with_faults(
                [message], quorum, fault_injector=stepped)[0]
            for position, message in enumerate(messages)}
        reference = handle.process_sign_window(
            messages, fault_injector=stepped,
            presigned=presigned)
        assert [s.to_bytes() for s in outcome.signatures] == \
            [s.to_bytes() for s in reference.signatures]
        assert outcome.flagged == reference.flagged == (1, 4, 5)
        assert outcome.fallback_combines == reference.fallback_combines == 3
        assert windowed.seen == stepped.seen
        assert windowed.seen[:3 * len(messages)] == [
            (message, signer) for message in messages for signer in quorum]


@pytest.mark.bn254
class TestMixedAddition:
    """jac_add_affine against the pure-Jacobian reference formulas."""

    @pytest.mark.parametrize("ops,point_cls", [
        (FP_OPS, G1Point), (FP2_OPS, G2Point),
    ], ids=["G1", "G2"])
    def test_matches_full_addition(self, ops, point_cls):
        rng = random.Random(50)
        g = point_cls.generator()
        for _ in range(5):
            p = g * rng.randrange(2, R)
            q = g * rng.randrange(2, R)
            aff = q.affine()
            mixed = point_cls(_jac=jac_add_affine(ops, p._jac, aff))
            assert mixed == p + q

    def test_identity_accumulator(self):
        g = G1Point.generator() * 9
        aff = g.affine()
        result = G1Point(
            _jac=jac_add_affine(FP_OPS, G1Point.identity()._jac, aff))
        assert result == g

    def test_doubling_case(self):
        g = G1Point.generator() * 5
        aff = g.affine()
        result = G1Point(_jac=jac_add_affine(FP_OPS, g._jac, aff))
        assert result == g.double()

    def test_inverse_case_gives_identity(self):
        g = G1Point.generator() * 5
        aff = (-g).affine()
        result = G1Point(_jac=jac_add_affine(FP_OPS, g._jac, aff))
        assert result.is_identity()

    def test_batch_add_affine_matches_full_addition(self):
        # One fused pass mixing ordinary pairs with P + P (the tangent)
        # and a rung doubling; P + (-P) never enters a pass — the bucket
        # engine decides it when it queues — so none is passed here.
        rng = random.Random(53)
        g = G1Point.generator()
        p = g * rng.randrange(2, R)
        others = [g * rng.randrange(2, R) for _ in range(4)]
        pairs = [(p, others[0]), (p, p), (others[1], others[2]),
                 (others[3], others[3]), (others[2], -p)]
        x1s, y1s = map(list, zip(*(a.affine() for a, _ in pairs)))
        x2s, y2s = map(list, zip(*(b.affine() for _, b in pairs)))
        xs, ys = map(list, zip(others[0].affine()))
        batch_add_affine_fp(xs, ys, 1, x1s, y1s, x2s, y2s, P)
        for (a, b), x, y in zip(pairs, x1s, y1s):
            assert G1Point(x, y) == G1Point(
                _jac=jac_add(FP_OPS, a._jac, b._jac))
        assert G1Point(xs[0], ys[0]) == others[0].double()

    def test_non_normalized_accumulator(self):
        # Accumulator with Z != 1 (fresh sum) plus an affine point.
        g = G1Point.generator()
        acc = (g * 3)._jac
        acc = jac_add(FP_OPS, acc, (g * 4)._jac)   # Z != 1 now
        aff = (g * 6).affine()
        mixed = G1Point(_jac=jac_add_affine(FP_OPS, acc, aff))
        assert mixed == g * 13

    def test_batch_normalize_matches_single(self):
        rng = random.Random(51)
        g = G1Point.generator()
        jacs = []
        for _ in range(6):
            a = (g * rng.randrange(2, R))._jac
            b = (g * rng.randrange(2, R))._jac
            jacs.append(jac_add(FP_OPS, a, b))
        jacs.append((*(g * 3).affine(), 1))      # already affine
        jacs.append(G1Point.identity()._jac)
        batch = jac_batch_normalize(FP_OPS, jacs)
        singles = [jac_normalize(FP_OPS, jac) for jac in jacs]
        assert batch == singles
        assert batch[-1] is None

    def test_point_batch_normalize_preserves_value(self):
        rng = random.Random(52)
        g = G2Point.generator()
        points = [g * rng.randrange(2, R) for _ in range(4)]
        points.append(G2Point.identity())
        expected = [G2Point(_jac=p._jac) for p in points]
        G2Point.batch_normalize(points)
        for point, reference in zip(points, expected):
            assert point == reference
            assert point._affine


@pytest.mark.bn254
class TestFixedBaseTable:
    def test_matches_naive(self):
        rng = random.Random(4)
        base = G1Point.generator() * 7
        table = msm.FixedBaseTable(FP_OPS, base._jac, R, GLV)
        for scalar in EDGE_SCALARS + random_scalars(rng, 3):
            fast = G1Point(_jac=table.mul(scalar))
            naive = G1Point(
                _jac=jac_scalar_mul(FP_OPS, base._jac, scalar, R))
            assert fast == naive

    def test_identity_base(self):
        table = msm.FixedBaseTable(
            FP_OPS, G1Point.identity()._jac, R, GLV)
        assert G1Point(_jac=table.mul(12345)).is_identity()

    def test_precomputed_point_agrees(self):
        rng = random.Random(42)
        plain = G2Point.generator() * 5
        primed = (G2Point.generator() * 5).precompute()
        for scalar in [0, 1, R - 1] + random_scalars(rng, 3):
            assert plain * scalar == primed * scalar

    def test_no_comb_without_precompute(self):
        # ``*`` reads a comb only where ``precompute()`` built one: any
        # number of multiplications of one instance leaves it bare.
        scalars = list(range(1, 21))
        fresh = G1Point.generator() + G1Point.generator()
        reference = [
            G1Point(_jac=jac_scalar_mul(FP_OPS, fresh._jac, s, R))
            for s in scalars
        ]
        reused = G1Point.generator() + G1Point.generator()
        results = [reused * s for s in scalars]
        assert reused._table is None
        assert results == reference


class TestSparseLineMul:
    def test_matches_full_mul(self):
        rng = random.Random(15)

        def rf2():
            return (rng.randrange(P), rng.randrange(P))

        for _ in range(25):
            f = tuple((rf2(), rf2(), rf2()) for _ in range(2))
            l1, l3 = rf2(), rf2()
            line = wvec_to_f12(((1, 0), l1, F2_ZERO, l3, F2_ZERO, F2_ZERO))
            assert f12_eq(f12_mul(f, line), f12_mul_line(f, l1, l3))


@pytest.mark.bn254
class TestPairingFastPaths:
    def test_final_exponentiation_chain_matches_naive(self):
        rng = random.Random(16)
        for _ in range(2):
            p = G1Point.generator() * rng.randrange(2, R)
            q = G2Point.generator() * rng.randrange(2, R)
            miller = _miller_loop_naive(p.affine(), q.affine())
            assert f12_eq(final_exponentiation(miller),
                          final_exponentiation_naive(miller))

    def test_prepared_multi_pairing_matches_naive(self):
        rng = random.Random(17)
        g1, g2 = G1Point.generator(), G2Point.generator()
        pairs = [
            (g1 * rng.randrange(2, R), g2 * rng.randrange(2, R))
            for _ in range(3)
        ]
        assert multi_pairing(pairs) == multi_pairing_naive(pairs)

    def test_identity_arguments(self):
        g1, g2 = G1Point.generator(), G2Point.generator()
        pairs = [(G1Point.identity(), g2), (g1, G2Point.identity())]
        assert multi_pairing(pairs).is_one()
        assert multi_pairing([]).is_one()

    def test_explicit_prepared_argument(self):
        g1, g2 = G1Point.generator(), G2Point.generator()
        prepared = prepare_g2(g2 * 9)
        assert isinstance(prepared, PreparedG2)
        assert multi_pairing([(g1 * 4, prepared)]) == \
            multi_pairing_naive([(g1 * 4, g2 * 9)])

    def test_preparation_is_memoized(self):
        q = G2Point.generator() * 11
        assert prepare_g2(q) is prepare_g2(q)

    def test_prepared_identity(self):
        prepared = prepare_g2(G2Point.identity())
        assert prepared.is_identity
        assert multi_pairing([(G1Point.generator(), prepared)]).is_one()


class TestBackendMultiExp:
    def test_toy_matches_naive_fold(self, toy_group):
        rng = random.Random(18)
        bases = [toy_group.g1_generator() ** rng.randrange(R)
                 for _ in range(4)]
        scalars = random_scalars(rng, 4)
        expected = bases[0] ** scalars[0]
        for base, scalar in zip(bases[1:], scalars[1:]):
            expected = expected * (base ** scalar)
        assert toy_group.multi_exp(bases, scalars) == expected

    def test_toy_rejects_mixed_groups(self, toy_group):
        with pytest.raises(TypeError):
            toy_group.multi_exp(
                [toy_group.g1_generator(), toy_group.g2_generator()], [1, 2])

    def test_toy_rejects_empty(self, toy_group):
        with pytest.raises(ValueError):
            toy_group.multi_exp([], [])

    @pytest.mark.bn254
    @pytest.mark.parametrize("generator", ["g1_generator", "g2_generator"])
    def test_bn254_matches_naive_fold(self, bn254_group, generator):
        rng = random.Random(19)
        base = getattr(bn254_group, generator)()
        bases = [base ** rng.randrange(2, R) for _ in range(3)]
        scalars = random_scalars(rng, 3)
        expected = bases[0] ** scalars[0]
        for b, s in zip(bases[1:], scalars[1:]):
            expected = expected * (b ** s)
        assert bn254_group.multi_exp(bases, scalars) == expected

    @pytest.mark.bn254
    def test_bn254_precomputed_bases(self, bn254_group):
        rng = random.Random(20)
        bases = [
            (bn254_group.g2_generator() ** k).precompute() for k in (3, 5)
        ]
        scalars = random_scalars(rng, 2)
        expected = (bases[0] ** scalars[0]) * (bases[1] ** scalars[1])
        assert bn254_group.multi_exp(bases, scalars) == expected

    @pytest.mark.bn254
    def test_bn254_gt_fallback(self, bn254_group):
        e = bn254_group.pair(
            bn254_group.g1_generator(), bn254_group.g2_generator())
        assert bn254_group.multi_exp([e, e], [2, 3]) == e ** 5


@pytest.mark.bn254
class TestGTFastPaths:
    """GT powers and ``multi_exp`` against the naive ladders."""

    @pytest.fixture(scope="class")
    def gt_elements(self, bn254_group):
        g1 = bn254_group.g1_generator()
        g2 = bn254_group.g2_generator()
        return [bn254_group.pair(g1 ** k, g2) for k in (1, 5, 9)]

    def test_gt_exp_matches_generic_pow(self, gt_elements):
        rng = random.Random(60)
        element = gt_elements[1].element
        for exponent in [0, 1, 2, R - 1] + [rng.randrange(R)
                                            for _ in range(3)]:
            fast = (element ** exponent).value
            assert f12_eq(fast, f12_pow(element.value, exponent))

    def test_gt_multi_exp_matches_fold(self, bn254_group, gt_elements):
        from repro.groups.bn254_backend import BNGT
        rng = random.Random(61)
        scalars = [rng.randrange(R) for _ in gt_elements]
        fast = bn254_group.multi_exp(gt_elements, scalars)
        expected = None
        for base, scalar in zip(gt_elements, scalars):
            term = BNGT(GTElement(
                f12_cyclotomic_pow(base.element.value, scalar)))
            expected = term if expected is None else expected * term
        assert fast == expected

    def test_gt_multi_exp_zero_scalars_and_identity(self, bn254_group,
                                                    gt_elements):
        identity = bn254_group.gt_identity()
        result = bn254_group.multi_exp(
            [gt_elements[0], identity, gt_elements[1]], [0, 55, R])
        assert result.is_identity()

    def test_gt_multi_exp_negative_digits(self, bn254_group, gt_elements):
        # Scalars with w-NAF digits of both signs (conjugation path).
        a, b = gt_elements[0], gt_elements[1]
        result = bn254_group.multi_exp([a, b], [R - 3, 7])
        expected = GTElement(f12_mul(
            f12_cyclotomic_pow(a.element.value, R - 3),
            f12_cyclotomic_pow(b.element.value, 7)))
        assert result.element == expected

    def test_gt_multi_exp_length_mismatch(self, bn254_group, gt_elements):
        with pytest.raises(ValueError):
            bn254_group.multi_exp(gt_elements, [1, 2])

    def test_toy_gt_multi_exp(self, toy_group):
        g = toy_group.pair(toy_group.g1_generator(),
                           toy_group.g2_generator())
        bases = [g ** 3, g ** 8]
        assert toy_group.multi_exp(bases, [5, 7]) == g ** (15 + 56)


@pytest.mark.bn254
class TestPreparationCaches:
    def test_decoded_copies_pair_identically(self):
        # The lines are memoized on the instance: two decoded copies of
        # one point prepare their own, and pair the same.
        q = G2Point.generator() * 4321
        data = q.to_bytes()
        first = G2Point.from_bytes(data)
        second = G2Point.from_bytes(data)
        assert first is not second
        assert prepare_g2(first) is prepare_g2(first)
        assert prepare_g2(first).lines == prepare_g2(second).lines
        p = G1Point.generator() * 99
        assert multi_pairing([(p, first)]) == multi_pairing([(p, second)])

    def test_derived_generators_memoized(self):
        from repro.curves.hash_to_curve import (
            derive_generator_g1, derive_generator_g2,
        )
        assert derive_generator_g1("memo-test") is \
            derive_generator_g1("memo-test")
        assert derive_generator_g2("memo-test") is \
            derive_generator_g2("memo-test")

    def test_lagrange_at_zero_cached(self):
        from repro.math.lagrange import (
            lagrange_at_zero, lagrange_coefficients,
        )
        cached = lagrange_at_zero((1, 2, 3), 97)
        assert cached == lagrange_coefficients([1, 2, 3], 97)
        assert lagrange_at_zero((1, 2, 3), 97) is cached


class TestBatchInvert:
    def test_matches_pow(self):
        rng = random.Random(21)
        modulus = R
        values = [rng.randrange(1, modulus) for _ in range(10)]
        inverses = batch_invert(values, modulus)
        for value, inverse in zip(values, inverses):
            assert value * inverse % modulus == 1

    def test_zero_raises(self):
        with pytest.raises(ParameterError):
            batch_invert([3, R, 5], R)

    def test_empty(self):
        assert batch_invert([], R) == []

    def test_lagrange_unchanged(self):
        # The batched path must produce the classic coefficients.
        coeffs = lagrange_coefficients([1, 2, 3], 97)
        assert sum(coeffs[i] * (5 * i + 7) for i in coeffs) % 97 == 7
