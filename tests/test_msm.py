"""Property tests for the fast-exponentiation subsystem.

Every fast path (the lane MSM kernel, Pippenger, fixed-base tables,
sparse line multiplication, the BN final-exponentiation chain, prepared
pairings, backend ``multi_exp``) is compared against its naive reference
implementation on random inputs and edge cases: identity points, zero
scalars, and scalars at or beyond the group order.

``TestKernelSweep`` is the seeded differential sweep for the MSM kernels
(the lane kernel's GLV split, signed scalars and shared tables; the
ladder kernel, per base set and in its window form over many sets) and
the Share-Sign entry points above them, in the style of
``tests/test_fuzz_wire.py``: deterministic, driven by the session seed
(rerun a failure with ``--seed N``).
"""

import random

import pytest

from repro.curves import bn254
from repro.core.aggregation import AggThresholdParams, LJYAggregateScheme
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.curves.g1 import FP_OPS, GLV, G1Point
from repro.curves.g2 import FP2_OPS, G2Point
from repro.curves.pairing import (
    GTElement, PreparedG2, final_exponentiation, final_exponentiation_naive,
    gt_multi_exp, multi_pairing, multi_pairing_naive, prepare_g2,
    _miller_loop_naive,
)
from repro.curves.weierstrass import (
    batch_add_affine_fp, jac_add, jac_add_affine, jac_batch_normalize,
    jac_double, jac_normalize, jac_scalar_mul,
)
from repro.math.tower import f12_cyclotomic_pow, f12_pow
from repro.errors import ParameterError
from repro.groups import get_group
from repro.math import msm
from repro.math.lagrange import batch_invert, lagrange_coefficients
from repro.math.tower import (
    F2_ZERO, f12_eq, f12_mul, f12_mul_line, wvec_to_f12, P,
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

    def test_pippenger_matches_naive(self):
        rng = random.Random(40)
        g = G1Point.generator()
        points = [g * (i + 2) for i in range(40)]
        scalars = random_scalars(rng, 40)
        fast = G1Point(_jac=msm._pippenger(
            FP_OPS,
            [(p._jac, s % R) for p, s in zip(points, scalars) if s % R],
            R.bit_length()))
        assert fast == self._naive(points, scalars)

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
            msm.multi_scalar_mul(FP_OPS, [G1Point.generator()._jac], [1, 2], R)

    def test_colliding_buckets_and_repeated_points(self):
        # Many copies of the same point with equal scalars force repeated
        # mixed additions into the same Pippenger bucket, including the
        # doubling corner case of jac_add_affine.
        g = G1Point.generator()
        points = [g] * 12 + [g * 7] * 12 + [-g] * 6
        scalars = [5] * 12 + [5] * 12 + [5] * 6
        fast = G1Point(_jac=msm._pippenger(
            FP_OPS, [(p._jac, s) for p, s in zip(points, scalars)],
            R.bit_length()))
        assert fast == self._naive(points, scalars)

    def test_pippenger_opposite_points_cancel(self):
        # P and -P in the same bucket must fold to the identity.
        g = G1Point.generator()
        live = [(g._jac, 3), ((-g)._jac, 3)]
        result = G1Point(_jac=msm._pippenger(FP_OPS, live, R.bit_length()))
        assert result.is_identity()

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
        scalars = self.EDGES + [rng.randrange(R) for _ in range(10_000)]
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
        # 192/193 straddle the kernel/Pippenger crossover; there the
        # scalars are mostly short so the reference ladders stay cheap,
        # with a few full-size ones so every lane shape is present.
        rng = _sweep_rng(session_seed, 4 + count)
        generator = point_cls.generator()
        points = [generator * (rng.getrandbits(24) + 1)
                  for _ in range(count)]
        if count <= 16:
            scalars = [_mixed_scalar(rng, (16, 64, 128, 129, 254, 300))
                       for _ in range(count)]
        else:
            # Nonzero, so all 193 terms are live and Pippenger runs.
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
        # k*P + (k/lambda)*phi(P) = 2k*P: the two terms' lanes carry the
        # same digits against phi-related tables, so the ladder keeps
        # meeting P + P and P - P.
        rng = _sweep_rng(session_seed, 21)
        point = G1Point.generator() * rng.randrange(2, R)
        x, y = point.affine()
        image = G1Point(bn254.GLV_BETA * x % P, y)
        inverse = pow(self.LAMBDA, -1, R)
        for k in [1, 3, R - 1, self.LAMBDA, rng.randrange(R),
                  rng.getrandbits(64)]:
            scalars = [k, k * inverse % R]
            assert G1Point.multi_mul([point, image], scalars) == _fold(
                FP_OPS, G1Point, [point], [2 * k])
            # ... and the cancelling twin: k*P - (k/lambda)*phi(P) = 0.
            assert G1Point.multi_mul(
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
                point_cls(_jac=jac) for jac in msm.multi_scalar_mul_rows(
                    ops, [p._jac for p in points], rows, R,
                    GLV if point_cls is G1Point else None)]
            assert msm.MSM_COUNTERS[kernel] - before == row_count, spec
            for row, result in zip(rows, results):
                assert result == _fold(ops, point_cls, points, row), spec
            assert results[2].is_identity(), spec
            if spec == "P -P O":
                assert results[0].is_identity()     # k*P - k*P + k*O

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
        assert G1Point.multi_mul_rows(points, [coins])[0] == expected
        with pytest.raises(AssertionError):
            G1Point.multi_mul(points, [1 << 129] * 4)

    def test_rows_reject_ragged_input(self):
        g = G1Point.generator()
        with pytest.raises(ValueError):
            G1Point.multi_mul_rows([g, g], [[1, 2], [3]])

    # -- the seam: rows == per-row multi_exp; many == per-share ---------------
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
            assert group.multi_exp_rows(bases, rows) == [
                group.multi_exp(bases, row) for row in rows]

    @pytest.mark.parametrize("backend", ["toy", "bn254"])
    def test_multi_exp_rows_other_groups(self, backend, session_seed):
        rng = _sweep_rng(session_seed, 40)
        group = get_group(backend)
        bases = [group.g2_generator() ** rng.getrandbits(16)
                 for _ in range(2)]
        rows = [[rng.randrange(R), R - 3], [5, 0]]
        assert group.multi_exp_rows(bases, rows) == [
            group.multi_exp(bases, row) for row in rows]
        with pytest.raises(ValueError):
            group.multi_exp_rows(bases, [[1]])

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
            assert window == [G1Point.multi_mul_rows(points, rows)
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
            messages, fault_injector=windowed, rng=random.Random(1))
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
            messages, fault_injector=stepped, rng=random.Random(1),
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
        # One batch mixing ordinary pairs with P + P (the tangent) and
        # P + (-P) (the identity, returned as None).
        rng = random.Random(53)
        g = G1Point.generator()
        p = g * rng.randrange(2, R)
        others = [g * rng.randrange(2, R) for _ in range(4)]
        pairs = [(p, others[0]), (p, p), (others[1], others[2]),
                 (p, -p), (others[3], others[3]), (others[2], -p)]
        sums = batch_add_affine_fp(
            [(a.affine(), b.affine()) for a, b in pairs], P)
        for (a, b), aff in zip(pairs, sums):
            expected = G1Point(_jac=jac_add(FP_OPS, a._jac, b._jac))
            if aff is None:
                assert expected.is_identity()
            else:
                assert G1Point(*aff) == expected
        assert sums[3] is None
        assert [aff is None for aff in sums].count(True) == 1

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
    @pytest.mark.parametrize("window", [1, 2, 4, 6])
    def test_matches_naive(self, window):
        rng = random.Random(window)
        base = G1Point.generator() * 7
        table = msm.FixedBaseTable(FP_OPS, base._jac, R, window)
        for scalar in EDGE_SCALARS + random_scalars(rng, 3):
            fast = G1Point(_jac=table.mul(scalar))
            naive = G1Point(
                _jac=jac_scalar_mul(FP_OPS, base._jac, scalar, R))
            assert fast == naive

    def test_precomputed_point_agrees(self):
        rng = random.Random(42)
        plain = G2Point.generator() * 5
        primed = (G2Point.generator() * 5).precompute()
        for scalar in [0, 1, R - 1] + random_scalars(rng, 3):
            assert plain * scalar == primed * scalar

    def test_auto_precompute_is_transparent(self):
        scalars = list(range(1, 15))
        fresh = G1Point.generator() + G1Point.generator()
        reference = [
            G1Point(_jac=jac_scalar_mul(FP_OPS, fresh._jac, s, R))
            for s in scalars
        ]
        # Repeated use of one instance flips it to the table path mid-way.
        reused = G1Point.generator() + G1Point.generator()
        results = [reused * s for s in scalars]
        assert reused._table is not None
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
    """GT multi_exp / fixed-base agreement against the naive ladders."""

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

    def test_gt_multi_exp_negative_digits(self, gt_elements):
        # Scalars with NAF digits of both signs (conjugation path).
        a, b = gt_elements[0].element, gt_elements[1].element
        result = gt_multi_exp([a, b], [R - 3, 7])
        expected = GTElement(f12_mul(
            f12_cyclotomic_pow(a.value, R - 3),
            f12_cyclotomic_pow(b.value, 7)))
        assert result == expected

    def test_gt_multi_exp_length_mismatch(self, gt_elements):
        with pytest.raises(ValueError):
            gt_multi_exp([e.element for e in gt_elements], [1, 2])

    def test_gt_fixed_base_table(self, gt_elements):
        rng = random.Random(62)
        plain = gt_elements[2].element
        primed = GTElement(plain.value).precompute()
        for exponent in [0, 1, R - 1] + [rng.randrange(R)
                                         for _ in range(3)]:
            assert (primed ** exponent) == (GTElement(plain.value)
                                            ** exponent)

    def test_toy_gt_multi_exp(self, toy_group):
        g = toy_group.pair(toy_group.g1_generator(),
                           toy_group.g2_generator())
        bases = [g ** 3, g ** 8]
        assert toy_group.multi_exp(bases, [5, 7]) == g ** (15 + 56)


@pytest.mark.bn254
class TestPreparationCaches:
    def test_prep_shared_across_instances(self):
        # Two deserialized copies of one point share one PreparedG2 via
        # the module-scope cache.
        q = G2Point.generator() * 4321
        data = q.to_bytes()
        first = G2Point.from_bytes(data)
        second = G2Point.from_bytes(data)
        assert first is not second
        assert prepare_g2(first) is prepare_g2(second)

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
