"""Seeded differential sweep of the pairing-side fast paths.

Every fast kernel behind the verification equation is compared with the
reference still in the tree, on random and edge inputs drawn from the
session seed (rerun a failure with ``--seed N``).  Raw Miller values are
compared only after the final exponentiation: the prepared loop walks the
NAF of 6x + 2 and divides each line by y_P, which changes the raw value by
a factor in F_p6* that the final exponentiation sends to 1.
"""

import random

import pytest

from repro.curves import bn254
from repro.curves.g1 import FP_OPS, G1Point
from repro.curves.g2 import G2Point
from repro.curves.hash_to_curve import hash_to_g1_uncached
from repro.curves.pairing import (
    PAIRING_COUNTERS, _easy_part, _miller_loop_prepared_multi,
    final_exponentiation, final_exponentiation_naive, multi_pairing,
    multi_pairing_naive, pairing, prepare_g2,
)
from repro.curves.weierstrass import (
    jac_add, jac_add_fp, jac_double, jac_neg, jac_normalize,
)
from repro.groups import get_group
from repro.math.field import sqrt_mod
from repro.math.rng import hash_to_int
from repro.math.tower import (
    BN_X, F12_ONE, P, R, cyclotomic_exp, f12_cyclotomic_pow,
    f12_cyclotomic_sqr, f12_eq, f12_is_one, f12_mul, f12_sqr,
)

pytestmark = pytest.mark.bn254


def _rng(session_seed, salt):
    return random.Random((0x9A1 if session_seed is None else session_seed)
                         + salt)


def _f12(rng):
    return tuple(tuple((rng.randrange(P), rng.randrange(P))
                       for _ in range(3)) for _ in range(2))


def _cyclotomic(rng):
    """An easy-part output: a random element of the cyclotomic subgroup."""
    return _easy_part(_f12(rng))


class TestMultiPairing:
    def test_matches_naive_on_edge_products(self, session_seed):
        rng = _rng(session_seed, 1)
        g1, g2 = G1Point.generator(), G2Point.generator()
        ps = [g1 * rng.randrange(1, R) for _ in range(3)]
        qs = [g2 * rng.randrange(1, R) for _ in range(3)]
        cases = [
            [(ps[0], qs[0])],
            [(G1Point.identity(), qs[0]), (ps[1], qs[1])],
            [(ps[0], G2Point.identity()), (ps[1], qs[1])],
            [(ps[0], qs[0]), (-ps[0], qs[1]), (ps[2], qs[2])],
            [(ps[1], qs[0]), (ps[2], -qs[0])],
            [(ps[0], qs[0]), (ps[0], qs[0]), (ps[1], qs[1])],
            [(ps[2], qs[2])] + [(ps[rng.randrange(3)], qs[rng.randrange(3)])
                                for _ in range(4)],
        ]
        for pairs in cases:
            assert multi_pairing(pairs) == multi_pairing_naive(pairs)

    def test_pair_beside_its_inverse_is_one(self, session_seed):
        rng = _rng(session_seed, 2)
        p = G1Point.generator() * rng.randrange(1, R)
        q = G2Point.generator() * rng.randrange(1, R)
        for pairs in ([(p, q), (-p, q)], [(p, q), (p, -q)],
                      [(p, q), (p * 2, q), (-p, q * 3)]):
            assert multi_pairing(pairs).is_one()
            assert multi_pairing_naive(pairs).is_one()

    def test_random_products_of_one_to_five(self, session_seed):
        rng = _rng(session_seed, 3)
        g1, g2 = G1Point.generator(), G2Point.generator()
        qs = [g2 * rng.randrange(1, R) for _ in range(2)]
        for count in range(1, 6):
            pairs = [(g1 * rng.randrange(1, R), rng.choice(qs))
                     for _ in range(count)]
            assert multi_pairing(pairs) == multi_pairing_naive(pairs)

    def test_prepared_line_count(self):
        # 65 doublings, 21 nonzero NAF digits, 2 Frobenius lines.
        assert len(prepare_g2(G2Point.generator() * 7).lines) == 88

    def test_four_pair_product_counts(self):
        q = G2Point.generator() * 7
        prepare_g2(q)
        g1 = G1Point.generator()
        pairs = [(g1 * k, q) for k in (2, 3, 4, 5)]
        before = dict(PAIRING_COUNTERS)
        multi_pairing(pairs)
        assert PAIRING_COUNTERS["miller_loops"] - before["miller_loops"] == 4
        assert PAIRING_COUNTERS["final_exps"] - before["final_exps"] == 1
        assert PAIRING_COUNTERS["preparations"] == before["preparations"]


class TestFinalExponentiation:
    def test_matches_naive_on_random_elements(self, session_seed):
        rng = _rng(session_seed, 5)
        for _ in range(3):
            f = _f12(rng)
            assert f12_eq(final_exponentiation(f),
                          final_exponentiation_naive(f))

    def test_matches_naive_on_a_prepared_miller_value(self, session_seed):
        rng = _rng(session_seed, 6)
        p = G1Point.generator() * rng.randrange(1, R)
        q = G2Point.generator() * rng.randrange(1, R)
        raw = _miller_loop_prepared_multi([(p.affine(), prepare_g2(q))])
        assert f12_eq(final_exponentiation(raw),
                      final_exponentiation_naive(raw))

    def test_subfield_factors_vanish(self, session_seed):
        # Why dropped verticals and the division by y_P are exact: every
        # element of F_p6 (the w^0 half) maps to 1.
        rng = _rng(session_seed, 7)
        f6 = tuple((rng.randrange(P), rng.randrange(P)) for _ in range(3))
        scalar = ((rng.randrange(1, P), 0), (0, 0), (0, 0))
        for element in (f6, scalar):
            assert f12_is_one(final_exponentiation(
                (element, ((0, 0), (0, 0), (0, 0)))))


class TestCyclotomicSquaring:
    def test_granger_scott_matches_plain(self, session_seed):
        rng = _rng(session_seed, 8)
        for _ in range(6):
            a = _cyclotomic(rng)
            assert f12_eq(f12_cyclotomic_sqr(a), f12_sqr(a))

    def test_chains_agree(self, session_seed):
        rng = _rng(session_seed, 9)
        a = _cyclotomic(rng)
        plain = gs = a
        for _ in range(8):
            plain, gs = f12_sqr(plain), f12_cyclotomic_sqr(gs)
            assert f12_eq(plain, gs)

    def test_identity(self):
        assert f12_eq(f12_cyclotomic_sqr(F12_ONE), F12_ONE)


class TestCyclotomicExp:
    def test_matches_naive_ladder(self, session_seed):
        rng = _rng(session_seed, 10)
        exponents = [0, 1, -1, BN_X, R - 1, R, R + 1, (1 << 64) + 1,
                     rng.getrandbits(254), rng.getrandbits(254)]
        bases = [_cyclotomic(rng),
                 pairing(G1Point.generator(), G2Point.generator()).value]
        for base in bases:
            for e in exponents:
                assert f12_eq(cyclotomic_exp(base, e),
                              f12_cyclotomic_pow(base, e))

    def test_sparse_exponents(self, session_seed):
        """Exponents with one or two nonzero digits — 2^k, 2^k +- 1 and
        random weight-2 — where the w-NAF ladder is almost all
        squarings, plus BN_X, 0, 1, R - 1 and the identity as base."""
        rng = _rng(session_seed, 14)
        exponents = [0, 1, BN_X, R - 1]
        for k in sorted({1, 2, 3, 4, 5, 63, 64, 127, 253}
                        | {rng.randrange(6, 254) for _ in range(3)}):
            exponents += [1 << k, (1 << k) - 1, (1 << k) + 1,
                          (1 << k) + (1 << rng.randrange(k))]
        for base in (_cyclotomic(rng), F12_ONE):
            for e in exponents:
                assert f12_eq(cyclotomic_exp(base, e),
                              f12_cyclotomic_pow(base, e)), e


class TestGtMultiExp:
    def test_matches_fold(self, session_seed):
        """``BN254Group.multi_exp`` over G_T against the per-element
        ``f12_cyclotomic_pow`` fold."""
        rng = _rng(session_seed, 11)
        group = get_group("bn254")
        g1, g2 = group.g1_generator(), group.g2_generator()
        gts = [group.pair(g1 ** rng.randrange(1, R), g2) for _ in range(3)]
        s = rng.randrange(1, R)
        cases = [
            (gts, [0, 0, 0]),
            (gts, [s, s, rng.randrange(R)]),
            ([gts[0], gts[0], gts[1]], [s, -s, R + 5]),
            ([gts[0], group.gt_identity(), gts[2]], [-3, s, 2 * R + s]),
            (gts[:1], [R - 1]),
        ]
        for elements, scalars in cases:
            fold = F12_ONE
            for element, scalar in zip(elements, scalars):
                fold = f12_mul(fold, f12_cyclotomic_pow(
                    element.element.value, scalar % R))
            assert f12_eq(group.multi_exp(elements, scalars).element.value,
                          fold)


class TestJacAddFp:
    def test_matches_generic(self, session_seed):
        rng = _rng(session_seed, 12)
        infinity = (1, 1, 0)
        p = (G1Point.generator() * rng.randrange(1, R))._jac
        q = (G1Point.generator() * rng.randrange(1, R))._jac
        # The same points with an unnormalised Z.
        p2 = jac_double(FP_OPS, jac_double(FP_OPS, p))
        q2 = jac_add(FP_OPS, q, p)
        aff = jac_normalize(FP_OPS, p2)
        p2_affine = (aff[0], aff[1], 1)
        cases = [
            (infinity, p), (p, infinity), (infinity, infinity),
            (p, p), (p2, p2), (p2, p2_affine),
            (p, jac_neg(FP_OPS, p)), (p2, jac_neg(FP_OPS, p2_affine)),
            (p, q), (p2, q2), (q2, p2),
        ]
        assert p2[2] != 1 and q2[2] != 1
        for left, right in cases:
            assert jac_add_fp(left, right, P) == \
                jac_add(FP_OPS, left, right)


def _parent_hash_to_g1(message, domain="repro:H:G1"):
    """Try-and-increment without the Jacobi pre-test: a square root
    attempted on every candidate."""
    counter = 0
    while True:
        tag = f"{domain}:{counter}"
        x = hash_to_int(tag, message, P)
        parity = hash_to_int(tag + ":sign", message, 2)
        y = sqrt_mod((x * x * x + bn254.B) % P, P)
        if y is not None:
            if (y & 1) != parity:
                y = P - y
            return G1Point(x, y)
        counter += 1


class TestHashToG1:
    def test_pre_test_gives_the_same_points(self, session_seed):
        rng = _rng(session_seed, 13)
        for index in range(300):
            message = rng.randbytes(rng.randrange(0, 48))
            domain = f"repro:H:G1vec:{index % 2}"
            assert hash_to_g1_uncached(message, domain).to_bytes() == \
                _parent_hash_to_g1(message, domain).to_bytes()
