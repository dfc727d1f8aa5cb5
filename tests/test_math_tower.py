"""Algebraic tests for the F_p2 / F_p6 / F_p12 tower."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math import tower
from repro.math.tower import (
    BN_X, F2_ONE, F2_ZERO, F6_ONE, F12_ONE, P, R, XI,
    cyclotomic_exp, f2_add, f2_conj, f2_eq, f2_inv, f2_mul, f2_mul_xi,
    f2_pow, f2_sqr, f2_sqrt, f2_sub,
    f6_add, f6_eq, f6_inv, f6_mul, f6_mul_by_v, f6_sqr, f6_sub,
    f12_compress, f12_compressed_sqr, f12_conj, f12_cyclotomic_pow,
    f12_cyclotomic_sqr, f12_decompress_batch, f12_eq, f12_frobenius,
    f12_inv, f12_is_one, f12_mul, f12_mul_line, f12_pow, f12_sqr,
    f12_to_wvec, wvec_to_f12,
)

scalars = st.integers(min_value=0, max_value=P - 1)
f2_elements = st.tuples(scalars, scalars)
f6_elements = st.tuples(f2_elements, f2_elements, f2_elements)
f12_elements = st.tuples(f6_elements, f6_elements)


class TestFp2:
    @given(a=f2_elements, b=f2_elements)
    @settings(max_examples=40)
    def test_mul_commutes(self, a, b):
        assert f2_eq(f2_mul(a, b), f2_mul(b, a))

    @given(a=f2_elements, b=f2_elements, c=f2_elements)
    @settings(max_examples=40)
    def test_mul_associates(self, a, b, c):
        assert f2_eq(f2_mul(f2_mul(a, b), c), f2_mul(a, f2_mul(b, c)))

    @given(a=f2_elements)
    @settings(max_examples=40)
    def test_sqr_matches_mul(self, a):
        assert f2_eq(f2_sqr(a), f2_mul(a, a))

    @given(a=f2_elements)
    @settings(max_examples=40)
    def test_inverse(self, a):
        if a[0] % P == 0 and a[1] % P == 0:
            return
        assert f2_eq(f2_mul(a, f2_inv(a)), F2_ONE)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            f2_inv(F2_ZERO)

    @given(a=f2_elements)
    @settings(max_examples=40)
    def test_mul_xi_matches_explicit_mul(self, a):
        assert f2_eq(f2_mul_xi(a), f2_mul(a, XI))

    @given(a=f2_elements)
    @settings(max_examples=40)
    def test_conjugation_is_frobenius(self, a):
        # a^p == conj(a) in F_p2.
        assert f2_eq(f2_pow(a, P), f2_conj(a))

    def test_u_squared_is_minus_one(self):
        u = (0, 1)
        assert f2_eq(f2_sqr(u), (P - 1, 0))

    @given(a=f2_elements)
    @settings(max_examples=20)
    def test_sqrt_roundtrip(self, a):
        square = f2_sqr(a)
        root = f2_sqrt(square)
        assert root is not None
        assert f2_eq(f2_sqr(root), square)

    def test_sqrt_of_nonsquare_is_none(self):
        # xi is a non-square in F_p2 (it generates the sextic twist).
        assert f2_sqrt(XI) is None


class TestFp6:
    @given(a=f6_elements, b=f6_elements)
    @settings(max_examples=25)
    def test_mul_commutes(self, a, b):
        assert f6_eq(f6_mul(a, b), f6_mul(b, a))

    @given(a=f6_elements, b=f6_elements, c=f6_elements)
    @settings(max_examples=15)
    def test_distributes(self, a, b, c):
        lhs = f6_mul(a, f6_add(b, c))
        rhs = f6_add(f6_mul(a, b), f6_mul(a, c))
        assert f6_eq(lhs, rhs)

    @given(a=f6_elements)
    @settings(max_examples=25)
    def test_sqr_matches_mul(self, a):
        assert f6_eq(f6_sqr(a), f6_mul(a, a))

    @given(a=f6_elements)
    @settings(max_examples=25)
    def test_inverse(self, a):
        if all(c[0] % P == 0 and c[1] % P == 0 for c in a):
            return
        assert f6_eq(f6_mul(a, f6_inv(a)), F6_ONE)

    @given(a=f6_elements)
    @settings(max_examples=25)
    def test_mul_by_v(self, a):
        v = (F2_ZERO, F2_ONE, F2_ZERO)
        assert f6_eq(f6_mul_by_v(a), f6_mul(a, v))

    def test_v_cubed_is_xi(self):
        v = (F2_ZERO, F2_ONE, F2_ZERO)
        v3 = f6_mul(f6_mul(v, v), v)
        assert f6_eq(v3, (XI, F2_ZERO, F2_ZERO))


class TestFp12:
    @given(a=f12_elements, b=f12_elements)
    @settings(max_examples=15)
    def test_mul_commutes(self, a, b):
        assert f12_eq(f12_mul(a, b), f12_mul(b, a))

    @given(a=f12_elements)
    @settings(max_examples=15)
    def test_sqr_matches_mul(self, a):
        assert f12_eq(f12_sqr(a), f12_mul(a, a))

    @given(a=f12_elements)
    @settings(max_examples=15)
    def test_inverse(self, a):
        try:
            inverse = f12_inv(a)
        except ZeroDivisionError:
            return
        assert f12_is_one(f12_mul(a, inverse))

    @given(a=f12_elements)
    @settings(max_examples=10)
    def test_wvec_roundtrip(self, a):
        assert f12_eq(wvec_to_f12(f12_to_wvec(a)), a)

    @given(a=f12_elements)
    @settings(max_examples=5)
    def test_frobenius_matches_pow(self, a):
        # The precomputed Frobenius tables must agree with raising to p.
        assert f12_eq(f12_frobenius(a, 1), f12_pow(a, P))

    @given(a=f12_elements)
    @settings(max_examples=5)
    def test_frobenius_squared(self, a):
        lhs = f12_frobenius(a, 2)
        rhs = f12_frobenius(f12_frobenius(a, 1), 1)
        assert f12_eq(lhs, rhs)

    @given(a=f12_elements)
    @settings(max_examples=5)
    def test_frobenius_cubed(self, a):
        lhs = f12_frobenius(a, 3)
        rhs = f12_frobenius(f12_frobenius(f12_frobenius(a, 1), 1), 1)
        assert f12_eq(lhs, rhs)

    @given(a=f12_elements)
    @settings(max_examples=10)
    def test_conjugation_inverts_cyclotomic(self, a):
        # After the easy part of the final exponentiation the conjugate
        # is the inverse; verify on an element mapped into that subgroup.
        try:
            eased = f12_mul(f12_conj(a), f12_inv(a))
        except ZeroDivisionError:
            return
        eased = f12_mul(f12_frobenius(eased, 2), eased)
        assert f12_is_one(f12_mul(eased, f12_conj(eased)))

    @given(a=f12_elements, e=st.integers(min_value=0, max_value=2 ** 64))
    @settings(max_examples=8)
    def test_cyclotomic_pow_matches_pow(self, a, e):
        try:
            eased = f12_mul(f12_conj(a), f12_inv(a))
        except ZeroDivisionError:
            return
        eased = f12_mul(f12_frobenius(eased, 2), eased)
        assert f12_eq(f12_cyclotomic_pow(eased, e), f12_pow(eased, e))

    def test_frobenius_bad_power(self):
        with pytest.raises(ValueError):
            f12_frobenius(F12_ONE, 4)

    def test_frobenius_tables_are_the_powers_of_xi(self):
        # Built by successive multiplication; pinned to the direct powers.
        tables = (tower._FROB_W1, tower._FROB_W2, tower._FROB_W3)
        for m, table in zip((1, 2, 3), tables):
            exponent = (P ** m - 1) // 6
            assert table == tuple(
                f2_pow(XI, k * exponent) for k in range(6)), m
        assert tower.TWIST_FROB_X == f2_pow(XI, (P - 1) // 3)
        assert tower.TWIST_FROB_Y == f2_pow(XI, (P - 1) // 2)
        assert tower.TWIST_FROB_X2 == f2_pow(XI, (P * P - 1) // 3)
        assert tower.TWIST_FROB_Y2 == f2_pow(XI, (P * P - 1) // 2)


class TestIntInlinedHotOps:
    """Agreement tests for the int-inlined Miller-loop accumulator ops
    (`f12_sqr`, `f12_mul_line` and their `_f6_mul_int` /
    `_f6_mul_sparse01_int` engines) against the generic tower
    arithmetic."""

    @given(a=f6_elements, b=f6_elements)
    @settings(max_examples=20)
    def test_f6_mul_int_matches_generic(self, a, b):
        assert f6_eq(tower._f6_mul_int(a, b), f6_mul(a, b))

    @given(a=f6_elements, b0=f2_elements, b1=f2_elements)
    @settings(max_examples=20)
    def test_f6_mul_sparse01_int_matches_composed(self, a, b0, b1):
        inlined = tower._f6_mul_sparse01_int(a, b0, b1)
        reduced = tuple((c0 % P, c1 % P) for c0, c1 in inlined)
        composed = tower._f6_mul_sparse01(a, b0, b1)
        assert f6_eq(reduced, composed)

    @given(a=f12_elements, l1=f2_elements, l3=f2_elements)
    @settings(max_examples=15)
    def test_mul_line_matches_full_mul(self, a, l1, l3):
        # Miller-loop lines are divided by y_P, so the w^0 term is 1.
        sparse = wvec_to_f12((F2_ONE, l1, F2_ZERO, l3, F2_ZERO, F2_ZERO))
        assert f12_eq(f12_mul_line(a, l1, l3), f12_mul(a, sparse))

    @given(a=f12_elements)
    @settings(max_examples=15)
    def test_sqr_against_pow(self, a):
        assert f12_eq(f12_sqr(a), f12_pow(a, 2))

    def test_unreduced_sum_inputs(self):
        # _f6_mul_int accepts one level of unreduced sums (as produced
        # inside f12_sqr); the reduction must still land on the same
        # residue.
        a = ((P + 3, 2 * P + 1), (P - 1, P + 7), (5, P + 11))
        b = ((2 * P + 2, 4), (P + 9, 3), (P + 1, P - 2))
        reduced_a = tuple((x % P, y % P) for x, y in a)
        reduced_b = tuple((x % P, y % P) for x, y in b)
        assert f6_eq(tower._f6_mul_int(a, b), f6_mul(reduced_a, reduced_b))


def _into_cyclotomic(a):
    """Map an arbitrary invertible F_p12 element into the cyclotomic
    subgroup via the easy part of the final exponentiation."""
    eased = f12_mul(f12_conj(a), f12_inv(a))
    return f12_mul(f12_frobenius(eased, 2), eased)


class TestCyclotomicFastPaths:
    """Agreement tests for the Granger-Scott / Karabina fast arithmetic
    against the generic tower operations, on random unitary elements."""

    @given(a=f12_elements)
    @settings(max_examples=10)
    def test_cyclotomic_sqr_matches_generic(self, a):
        try:
            g = _into_cyclotomic(a)
        except ZeroDivisionError:
            return
        assert f12_eq(f12_cyclotomic_sqr(g), f12_sqr(g))

    @given(a=f12_elements)
    @settings(max_examples=8)
    def test_compressed_chain_decompresses(self, a):
        try:
            g = _into_cyclotomic(a)
        except ZeroDivisionError:
            return
        chain = f12_compress(g)
        reference = g
        compressed_powers = []
        references = []
        for _ in range(4):
            chain = f12_compressed_sqr(chain)
            reference = f12_sqr(reference)
            compressed_powers.append(chain)
            references.append(reference)
        decompressed = f12_decompress_batch(compressed_powers)
        assert decompressed is not None
        for value, expected in zip(decompressed, references):
            assert f12_eq(value, expected)

    @given(a=f12_elements,
           e=st.integers(min_value=-(2 ** 70), max_value=2 ** 70))
    @settings(max_examples=10)
    def test_cyclotomic_exp_matches_naive_ladder(self, a, e):
        try:
            g = _into_cyclotomic(a)
        except ZeroDivisionError:
            return
        assert f12_eq(cyclotomic_exp(g, e), f12_cyclotomic_pow(g, e))

    @given(a=f12_elements)
    @settings(max_examples=5)
    def test_cyclotomic_exp_bn_parameter(self, a):
        # The exponent the final exponentiation actually uses.
        try:
            g = _into_cyclotomic(a)
        except ZeroDivisionError:
            return
        assert f12_eq(cyclotomic_exp(g, BN_X), f12_pow(g, BN_X))

    def test_identity_takes_degenerate_fallback(self):
        # The identity compresses to all zeros (vanishing determinant),
        # exercising the uncompressed Granger-Scott fallback.
        assert f12_decompress_batch([f12_compress(F12_ONE)]) is None
        assert f12_is_one(cyclotomic_exp(F12_ONE, 12345))
        assert f12_is_one(cyclotomic_exp(F12_ONE, R - 1))

    def test_small_exponents(self):
        g = _into_cyclotomic(
            ((( 3, 1), (4, 1), (5, 9)), ((2, 6), (5, 3), (5, 8))))
        assert f12_is_one(cyclotomic_exp(g, 0))
        assert f12_eq(cyclotomic_exp(g, 1), g)
        assert f12_eq(cyclotomic_exp(g, 2), f12_sqr(g))
        assert f12_eq(cyclotomic_exp(g, -1), f12_conj(g))
