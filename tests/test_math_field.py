"""Unit and property tests for the prime-field layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.field import legendre_symbol, sqrt_mod

P_SMALL = 10007                       # prime, = 3 mod 4
P_TONELLI = 10009                     # prime, = 1 mod 4
BN_P = 21888242871839275222246405745257275088696311157297823662689037894645226208583


class TestSqrtMod:
    @pytest.mark.parametrize("p", [P_SMALL, P_TONELLI])
    def test_roundtrip_squares(self, p, rng):
        for _ in range(25):
            a = rng.randrange(1, p)
            square = a * a % p
            root = sqrt_mod(square, p)
            assert root is not None
            assert root * root % p == square

    @pytest.mark.parametrize("p", [P_SMALL, P_TONELLI])
    def test_non_residue_returns_none(self, p, rng):
        found = 0
        for a in range(2, 200):
            if legendre_symbol(a, p) == -1:
                assert sqrt_mod(a, p) is None
                found += 1
        assert found > 0

    def test_zero(self):
        assert sqrt_mod(0, P_SMALL) == 0

    def test_bn_prime_mod4(self):
        # The BN254 base field uses the fast p % 4 == 3 path.
        assert BN_P % 4 == 3
        root = sqrt_mod(4, BN_P)
        assert root is not None and root * root % BN_P == 4

    @pytest.mark.parametrize("p", [BN_P, P_TONELLI])
    def test_agrees_with_legendre_then_root(self, p, rng):
        """The p = 3 mod 4 branch decides residuosity by squaring its
        one candidate; the answer — None or the very same root — is
        what a Legendre symbol followed by the root formula gives."""
        values = [0, 1, p - 1] + [rng.randrange(p) for _ in range(60)]
        values += [a * a % p for a in values[3:33]]
        symbols = set()
        for a in values:
            symbol = legendre_symbol(a, p)
            symbols.add(symbol)
            root = sqrt_mod(a, p)
            if symbol == -1:
                assert root is None
            elif p % 4 == 3:
                assert root == pow(a, (p + 1) // 4, p)
            else:
                assert root * root % p == a
        assert symbols == {-1, 0, 1}


class TestLegendre:
    def test_zero(self):
        assert legendre_symbol(0, P_SMALL) == 0

    def test_square_is_one(self):
        assert legendre_symbol(4, P_SMALL) == 1

    @pytest.mark.parametrize("p", [P_SMALL, P_TONELLI, BN_P])
    def test_matches_euler_criterion(self, p, rng):
        # The Jacobi recurrence against a^((p-1)/2), unreduced inputs too.
        values = [0, 1, 2, p - 1, p, 3 * p + 2, -1, -p - 5]
        values += [rng.randrange(p) for _ in range(200)]
        for a in values:
            euler = pow(a, (p - 1) // 2, p)
            assert legendre_symbol(a, p) == (-1 if euler == p - 1 else euler)

    @given(a=st.integers(min_value=1, max_value=P_SMALL - 1),
           b=st.integers(min_value=1, max_value=P_SMALL - 1))
    @settings(max_examples=50)
    def test_multiplicative(self, a, b):
        assert (legendre_symbol(a, P_SMALL) * legendre_symbol(b, P_SMALL)
                == legendre_symbol(a * b, P_SMALL))
