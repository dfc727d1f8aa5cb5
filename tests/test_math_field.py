"""Unit and property tests for the prime-field layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math.field import Fp, legendre_symbol, sqrt_mod

P_SMALL = 10007                       # prime, = 3 mod 4
P_TONELLI = 10009                     # prime, = 1 mod 4
BN_P = 21888242871839275222246405745257275088696311157297823662689037894645226208583

elements = st.integers(min_value=0, max_value=P_SMALL - 1)


class TestFpBasics:
    def test_reduction_on_construction(self):
        assert Fp(P_SMALL + 5, P_SMALL).value == 5

    def test_negative_values_reduce(self):
        assert Fp(-1, P_SMALL).value == P_SMALL - 1

    def test_invalid_modulus_rejected(self):
        with pytest.raises(ValueError):
            Fp(1, 1)

    def test_immutability(self):
        x = Fp(3, P_SMALL)
        with pytest.raises(AttributeError):
            x.value = 4

    def test_int_coercion_in_ops(self):
        x = Fp(3, P_SMALL)
        assert (x + 1).value == 4
        assert (1 + x).value == 4
        assert (x - 1).value == 2
        assert (1 - x).value == P_SMALL - 2
        assert (x * 2).value == 6
        assert (2 * x).value == 6

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Fp(1, P_SMALL) + Fp(1, P_TONELLI)

    def test_division(self):
        x = Fp(3, P_SMALL)
        assert (x / x).value == 1
        assert (6 / Fp(3, P_SMALL)).value == 2

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fp(0, P_SMALL).inverse()

    def test_pow(self):
        x = Fp(2, P_SMALL)
        assert (x ** 10).value == 1024

    def test_equality_with_int(self):
        assert Fp(5, P_SMALL) == 5
        assert Fp(5, P_SMALL) == 5 + P_SMALL

    def test_bool(self):
        assert not Fp(0, P_SMALL)
        assert Fp(1, P_SMALL)

    def test_hash_consistency(self):
        assert hash(Fp(7, P_SMALL)) == hash(Fp(7 + P_SMALL, P_SMALL))

    def test_random_in_range(self, rng):
        for _ in range(20):
            assert 0 <= Fp.random(P_SMALL, rng).value < P_SMALL


class TestFpProperties:
    @given(a=elements, b=elements)
    def test_addition_commutes(self, a, b):
        assert Fp(a, P_SMALL) + Fp(b, P_SMALL) == Fp(b, P_SMALL) + Fp(a, P_SMALL)

    @given(a=elements, b=elements, c=elements)
    def test_distributivity(self, a, b, c):
        x, y, z = Fp(a, P_SMALL), Fp(b, P_SMALL), Fp(c, P_SMALL)
        assert x * (y + z) == x * y + x * z

    @given(a=st.integers(min_value=1, max_value=P_SMALL - 1))
    def test_inverse_is_inverse(self, a):
        x = Fp(a, P_SMALL)
        assert (x * x.inverse()).value == 1

    @given(a=elements)
    def test_negation(self, a):
        x = Fp(a, P_SMALL)
        assert (x + (-x)).value == 0

    @given(a=elements)
    def test_fermat(self, a):
        x = Fp(a, P_SMALL)
        assert x ** P_SMALL == x


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

    @given(a=st.integers(min_value=1, max_value=P_SMALL - 1),
           b=st.integers(min_value=1, max_value=P_SMALL - 1))
    @settings(max_examples=50)
    def test_multiplicative(self, a, b):
        assert (legendre_symbol(a, P_SMALL) * legendre_symbol(b, P_SMALL)
                == legendre_symbol(a * b, P_SMALL))
