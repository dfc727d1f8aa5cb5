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


class _GroupLaw:
    """The group law of one source group; run once per group by the
    subclasses below, which bind ``point``."""

    point: type

    def test_generator_on_curve(self):
        assert self.point.generator().is_on_curve()

    def test_generator_order(self):
        assert (self.point.generator() * R).is_identity()

    def test_generator_in_subgroup(self):
        assert self.point.generator().in_subgroup()

    def test_cofactor_value(self):
        assert self.point.curve.cofactor == self.cofactor

    def test_identity_neutral(self):
        g = self.point.generator()
        assert g + self.point.identity() == g
        assert self.point.identity() + g == g

    def test_add_negation(self):
        g = self.point.generator()
        assert (g + (-g)).is_identity()

    def test_sub(self):
        g = self.point.generator()
        assert (g * 5 - g * 3) == g * 2

    def test_double_matches_add(self):
        g = self.point.generator()
        assert g.double() == g + g

    def test_scalar_mult_small_cases(self):
        g = self.point.generator()
        acc = self.point.identity()
        for k in range(1, 12):
            acc = acc + g
            assert g * k == acc
            assert (g * k).is_on_curve()

    def test_scalar_mult_consistency(self):
        g = self.point.generator()
        assert g * 6 == (g * 2) * 3
        assert g * 6 == g.double() + g.double() + g.double()

    def test_scalar_mult_stays_on_curve(self):
        g = self.point.generator()
        for k in (2, 3, 5, 1023):
            assert (g * k).is_on_curve()

    def test_scalar_mult_reduces_mod_order(self):
        g = self.point.generator()
        assert g * (R + 5) == g * 5
        assert g * (-1) == -g
        assert (g * 0).is_identity()

    def test_scalar_mult_distributes(self):
        g = self.point.generator()
        a, b = 123456789, 987654321
        assert g * a + g * b == g * (a + b)
        big = R - 2
        assert g * big + g * a == g * (big + a)
        assert (g * a) * b == g * (a * b)

    def test_off_curve_rejected(self):
        x, y = self.point.generator().affine()
        ops = self.point.curve.ops
        for bad in ((x, ops.add(y, ops.one)),) + self.off_curve:
            with pytest.raises(NotOnCurveError):
                self.point(*bad)

    def test_hash_and_eq(self):
        g = self.point.generator()
        assert hash(g * 7) == hash(g * 7)
        assert g * 7 != g * 8


class TestG1GroupLaw(_GroupLaw):
    point = G1Point
    cofactor = 1
    off_curve = ((1, 3),)


class TestG2GroupLaw(_GroupLaw):
    point = G2Point
    cofactor = 2 * bn254.P - bn254.R
    off_curve = ()


def _limbs_encoding(limbs):
    """An encoding from raw 32-byte limbs, highest first."""
    return b"".join(limb.to_bytes(32, "big") for limb in limbs)


class _Serialization:
    """The compressed encoding of one source group; every hostile input
    must raise :class:`SerializationError` (``NotOnCurveError`` is a
    subclass).  Run once per group by the subclasses below."""

    point: type
    size: int

    def test_roundtrip(self):
        point = self.point.generator() * 424242
        assert self.point.from_bytes(point.to_bytes()) == point

    def test_roundtrip_negation(self):
        point = -(self.point.generator() * 99)
        assert self.point.from_bytes(point.to_bytes()) == point

    def test_identity_roundtrip(self):
        identity = self.point.identity()
        assert self.point.from_bytes(identity.to_bytes()).is_identity()

    def test_encoded_size(self):
        assert len(self.point.generator().to_bytes()) == self.size
        assert len(self.point.identity().to_bytes()) == self.size

    def test_wrong_length_rejected(self):
        for length in (0, self.size - 1, self.size + 1):
            with pytest.raises(SerializationError):
                self.point.from_bytes(b"\x00" * length)

    def test_x_out_of_range_rejected(self):
        """A limb of x at p or above — each limb, with the others zero,
        and with or without the parity bit — is refused."""
        limbs = self.size // 32
        for position in range(limbs):
            for value in (bn254.P, bn254.P + 1, (1 << 254) - 1):
                raw = [0] * limbs
                raw[position] = value
                data = _limbs_encoding(raw)
                for sign in (0, 0x80):
                    with pytest.raises(SerializationError):
                        self.point.from_bytes(
                            bytes([data[0] | sign]) + data[1:])
        # A real point's x with p added to one limb would reduce to the
        # same point: the encoding must be canonical, limb by limb.
        data = (self.point.generator() * 77).to_bytes()
        sign = data[0] & 0x80
        data = bytes([data[0] & 0x7F]) + data[1:]
        for start in range(0, self.size, 32):
            limb = int.from_bytes(data[start:start + 32], "big") + bn254.P
            shifted = (data[:start] + limb.to_bytes(32, "big")
                       + data[start + 32:])
            with pytest.raises(SerializationError, match="out of range"):
                self.point.from_bytes(
                    bytes([shifted[0] | sign]) + shifted[1:])

    def test_invalid_x_rejected(self):
        """Small x-coordinates with no curve point (about half of them)
        are refused, typed."""
        curve = self.point.curve
        refused = 0
        for x in range(2, 40):
            limbs = [x] + [0] * (self.size // 32 - 1)
            if curve.sqrt(curve.rhs(curve.from_limbs(limbs))) is None:
                with pytest.raises(NotOnCurveError):
                    self.point.from_bytes(x.to_bytes(self.size, "big"))
                refused += 1
        assert refused > 0

    def test_flag_byte_abuse_rejected(self):
        """The identity flag with the sign bit, the identity flag over a
        nonzero tail, and the identity flag on a finite point's bytes
        are not encodings."""
        zeros = bytes(self.size - 1)
        finite = (self.point.generator() * 5).to_bytes()
        hostile = [
            bytes([0xC0]) + zeros,
            bytes([0x40]) + zeros[:-1] + b"\x01",
            bytes([0x40]) + b"\x01" + zeros[1:],
            bytes([finite[0] | 0x40]) + finite[1:],
            bytes([0xFF]) * self.size,
        ]
        for data in hostile:
            with pytest.raises(SerializationError):
                self.point.from_bytes(data)


class TestG1Serialization(_Serialization):
    point = G1Point
    size = 32


class TestG2Serialization(_Serialization):
    point = G2Point
    size = 64


def _twist_point_outside_subgroup(rng):
    """A seeded point of the twist with a component outside G2, and the
    point of cofactor order left when its G2 component is killed."""
    from repro.curves.g2 import CURVE, FP2_OPS
    from repro.curves.weierstrass import jac_scalar_mul
    while True:
        x = (rng.randrange(bn254.P), rng.randrange(bn254.P))
        y = CURVE.sqrt(CURVE.rhs(x))
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
