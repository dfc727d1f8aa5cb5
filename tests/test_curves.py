"""Group-law, subgroup and serialization tests for G1 and G2."""

import pytest

from repro.curves import bn254
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.hash_to_curve import (
    derive_generator_g1, derive_generator_g2, hash_to_g1,
    hash_to_g1_vector, hash_to_g2,
)
from repro.errors import NotOnCurveError, SerializationError

R = bn254.R


class TestG1GroupLaw:
    def test_generator_on_curve(self):
        assert G1Point.generator().is_on_curve()

    def test_generator_order(self):
        assert (G1Point.generator() * R).is_identity()

    def test_identity_neutral(self):
        g = G1Point.generator()
        assert g + G1Point.identity() == g
        assert G1Point.identity() + g == g

    def test_add_negation(self):
        g = G1Point.generator()
        assert (g + (-g)).is_identity()

    def test_sub(self):
        g = G1Point.generator()
        assert (g * 5 - g * 3) == g * 2

    def test_double_matches_add(self):
        g = G1Point.generator()
        assert g.double() == g + g

    def test_scalar_mult_small_cases(self):
        g = G1Point.generator()
        acc = G1Point.identity()
        for k in range(1, 12):
            acc = acc + g
            assert g * k == acc
            assert (g * k).is_on_curve()

    def test_scalar_mult_reduces_mod_order(self):
        g = G1Point.generator()
        assert g * (R + 5) == g * 5
        assert (g * 0).is_identity()

    def test_scalar_mult_distributes(self):
        g = G1Point.generator()
        a, b = 123456789, 987654321
        assert g * a + g * b == g * (a + b)

    def test_off_curve_rejected(self):
        with pytest.raises(NotOnCurveError):
            G1Point(1, 3)

    def test_hash_and_eq(self):
        g = G1Point.generator()
        assert hash(g * 7) == hash(g * 7)
        assert g * 7 != g * 8


class TestG1Serialization:
    def test_roundtrip(self):
        point = G1Point.generator() * 424242
        assert G1Point.from_bytes(point.to_bytes()) == point

    def test_roundtrip_negation(self):
        point = -(G1Point.generator() * 99)
        assert G1Point.from_bytes(point.to_bytes()) == point

    def test_identity_roundtrip(self):
        identity = G1Point.identity()
        assert G1Point.from_bytes(identity.to_bytes()).is_identity()

    def test_encoded_size(self):
        assert len(G1Point.generator().to_bytes()) == 32

    def test_wrong_length_rejected(self):
        with pytest.raises(SerializationError):
            G1Point.from_bytes(b"\x00" * 31)

    def test_x_out_of_range_rejected(self):
        data = (bn254.P).to_bytes(32, "big")
        with pytest.raises(SerializationError):
            G1Point.from_bytes(data)

    def test_invalid_x_rejected(self):
        # x = 5 gives a non-square RHS on BN254.
        candidates = 0
        for x in range(2, 40):
            data = x.to_bytes(32, "big")
            try:
                G1Point.from_bytes(data)
            except NotOnCurveError:
                candidates += 1
        assert candidates > 0


class TestG2GroupLaw:
    def test_generator_on_curve(self):
        assert G2Point.generator().is_on_curve()

    def test_generator_order(self):
        assert (G2Point.generator() * R).is_identity()

    def test_generator_in_subgroup(self):
        assert G2Point.generator().in_subgroup()

    def test_cofactor_value(self):
        assert bn254.G2_COFACTOR == 2 * bn254.P - bn254.R

    def test_add_negation(self):
        g = G2Point.generator()
        assert (g + (-g)).is_identity()

    def test_scalar_mult_consistency(self):
        g = G2Point.generator()
        assert g * 6 == (g * 2) * 3
        assert g * 6 == g.double() + g.double() + g.double()

    def test_scalar_mult_stays_on_curve(self):
        g = G2Point.generator()
        for k in (2, 3, 5, 1023):
            assert (g * k).is_on_curve()


class TestG2Serialization:
    def test_roundtrip(self):
        point = G2Point.generator() * 31337
        assert G2Point.from_bytes(point.to_bytes()) == point

    def test_identity_roundtrip(self):
        assert G2Point.from_bytes(
            G2Point.identity().to_bytes()).is_identity()

    def test_encoded_size(self):
        assert len(G2Point.generator().to_bytes()) == 64

    def test_wrong_length_rejected(self):
        with pytest.raises(SerializationError):
            G2Point.from_bytes(b"\x00" * 63)


def _twist_point_outside_subgroup(rng):
    """A seeded point of the twist with a component outside G2, and the
    point of cofactor order left when its G2 component is killed."""
    from repro.curves.g2 import FP2_OPS, _twist_rhs
    from repro.curves.weierstrass import jac_scalar_mul
    from repro.math.tower import f2_sqrt
    while True:
        x = (rng.randrange(bn254.P), rng.randrange(bn254.P))
        y = f2_sqrt(_twist_rhs(x))
        if y is None:
            continue
        point = G2Point(x, y)
        # r * point through a ladder over the twist's full order: the
        # group's own ``*`` would reduce r to 0.
        small = G2Point(_jac=jac_scalar_mul(
            FP2_OPS, point._jac, R, R * bn254.G2_COFACTOR))
        if not small.is_identity():
            return point, small


class TestG2SubgroupCheck:
    """``in_subgroup`` used to compute ``self * r`` through a scalar
    multiplication that reduces modulo r — the identity for every twist
    point, so small-subgroup points decoded as valid."""

    @pytest.fixture
    def outsiders(self, session_seed):
        import random
        return _twist_point_outside_subgroup(
            random.Random(0x62 if session_seed is None else session_seed))

    def test_twist_points_outside_g2_refused(self, outsiders):
        for point in outsiders:
            assert point.is_on_curve()
            assert not point.in_subgroup()
            with pytest.raises(NotOnCurveError):
                G2Point.from_bytes(point.to_bytes())

    def test_cofactor_order_point_has_no_g2_component(self, outsiders):
        _, small = outsiders
        assert small.clear_cofactor().is_identity()

    def test_subgroup_points_still_pass(self, outsiders):
        point, _ = outsiders
        for member in (G2Point.generator(), G2Point.generator() * 31337,
                       hash_to_g2(b"member"), point.clear_cofactor(),
                       G2Point.identity()):
            assert member.in_subgroup()
            assert G2Point.from_bytes(member.to_bytes()) == member

    def test_wire_decoding_refuses_outsiders(self, outsiders):
        """Verification keys and the service context are the G_hat
        points that arrive as bytes: both decoders refuse, typed."""
        import random

        from repro.core.scheme import ServiceHandle
        from repro.groups import get_group
        from repro.serialization import (
            WireCodec, decode_service_context, encode_service_context,
        )
        group = get_group("bn254")
        handle = ServiceHandle.dealer(group, 1, 2, rng=random.Random(7))
        codec = WireCodec(group)
        vk = handle.verification_keys[1]
        blob = codec.encode_verification_key(vk)
        assert codec.decode_verification_key(blob) == vk
        context = encode_service_context(handle)
        g_z = handle.scheme.params.g_z.to_bytes()
        assert decode_service_context(context).public_key == \
            handle.public_key
        for point in outsiders:
            hostile = point.to_bytes()
            with pytest.raises(SerializationError):
                codec.decode_verification_key(
                    blob[:4] + hostile + blob[4 + len(hostile):])
            assert context.count(g_z) == 1
            with pytest.raises(SerializationError):
                decode_service_context(context.replace(g_z, hostile))


class TestHashToCurve:
    def test_g1_determinism(self):
        assert hash_to_g1(b"m") == hash_to_g1(b"m")

    def test_g1_distinct_messages(self):
        assert hash_to_g1(b"m1") != hash_to_g1(b"m2")

    def test_g1_domain_separation(self):
        assert hash_to_g1(b"m", domain="a") != hash_to_g1(b"m", domain="b")

    def test_g1_vector_components_independent(self):
        h1, h2 = hash_to_g1_vector(b"m", 2)
        assert h1 != h2
        assert h1.is_on_curve() and h2.is_on_curve()

    def test_g1_in_subgroup(self):
        assert (hash_to_g1(b"subgroup") * R).is_identity()

    def test_g2_in_subgroup(self):
        point = hash_to_g2(b"m")
        assert point.in_subgroup()
        assert not point.is_identity()

    def test_g2_determinism(self):
        assert hash_to_g2(b"m") == hash_to_g2(b"m")

    def test_derived_generators_distinct(self):
        assert derive_generator_g1("a") != derive_generator_g1("b")
        assert derive_generator_g2("g_z") != derive_generator_g2("g_r")
