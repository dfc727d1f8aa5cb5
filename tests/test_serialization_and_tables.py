"""Tests for size accounting, the bench table renderer, and the wire
format (round-trippable codecs for partials, signatures, verification
keys, shares, service contexts and window jobs on both backends)."""

import pathlib
import random
import re

import pytest

from repro import serialization
from repro.bench.tables import Table, format_table
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme, ServiceHandle
from repro.errors import SerializationError
from repro.serialization import (
    PartialSignJob, PartialSignOutcome, SignWindowJob, SignWindowOutcome,
    VerifyWindowJob, VerifyWindowOutcome, WireCodec, bits,
    decode_service_context, encode_service_context, measure_bls,
    measure_ljy_rom, scalar_bits,
)


class TestSizeAccounting:
    def test_scalar_bits(self, toy_group):
        assert scalar_bits(toy_group.order) == 256

    def test_section3_sizes(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partial = toy_scheme.share_sign(shares[1], b"m")
        signature = toy_scheme.combine(
            pk, vks, b"m",
            [toy_scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)])
        report = measure_ljy_rom(toy_scheme, pk, shares[1], partial,
                                 signature)
        assert report.signature_bits == 512          # the paper's claim
        assert report.share_bits == 1024             # 4 scalars, O(1) in n
        assert report.public_key_bits == 1024        # 2 G_hat elements
        assert report.partial_signature_bits == 512

    def test_bls_sizes(self, toy_group, rng):
        from repro.baselines.bls_threshold import BoldyrevaThresholdBLS
        scheme = BoldyrevaThresholdBLS(toy_group, t=1, n=3)
        pk, shares, vks = scheme.dealer_keygen(rng=rng)
        partial = scheme.share_sign(1, shares[1], b"m")
        signature = scheme.combine(
            vks, b"m", [scheme.share_sign(i, shares[i], b"m")
                        for i in (1, 2)])
        report = measure_bls(toy_group, pk, partial, signature)
        assert report.signature_bits == 256
        assert report.share_bits == 256

    def test_bits_helper(self, toy_group):
        assert bits(toy_group.g1_generator()) == 256
        assert bits(toy_group.g2_generator()) == 512

    def test_as_row(self, toy_scheme, toy_keys):
        pk, shares, vks = toy_keys
        partial = toy_scheme.share_sign(shares[1], b"m")
        signature = toy_scheme.combine(
            pk, vks, b"m",
            [toy_scheme.share_sign(shares[i], b"m") for i in (1, 2, 3)])
        row = measure_ljy_rom(toy_scheme, pk, shares[1], partial,
                              signature).as_row()
        assert set(row) == {"scheme", "signature_bits", "public_key_bits",
                            "share_bits", "partial_bits"}


# ---------------------------------------------------------------------------
# Wire format round trips (both backends)
# ---------------------------------------------------------------------------

#: Messages chosen to stress the framing: empty, binary, long, and
#: byte strings that look like the format's own field markers.
WIRE_MESSAGES = [b"", b"plain", b"\x00" * 7, b"\xff\x00S V P", b"x" * 3000]


def _handles(request):
    """A (handle, codec, rng) triple on the requested backend."""
    group = request.getfixturevalue(
        "bn254_group" if request.param == "bn254" else "toy_group")
    handle = ServiceHandle.dealer(group, 2, 5, rng=random.Random(99))
    return handle, WireCodec(group), random.Random(7)


@pytest.fixture(params=["toy", pytest.param("bn254",
                                            marks=pytest.mark.bn254)])
def wire(request):
    return _handles(request)


class TestWireRoundTrips:
    """encode -> decode -> encode identity for every wire object.

    Both directions are asserted: the decoded object equals the
    original (object identity of the value), and re-encoding the
    decoded object reproduces the blob byte for byte (encoding
    canonicity — what lets a combiner hash/deduplicate blobs).
    """

    def test_partial_signature(self, wire):
        handle, codec, _ = wire
        for message in WIRE_MESSAGES:
            for partial in handle.partials_for(message):
                blob = codec.encode_partial(partial)
                decoded = codec.decode_partial(blob)
                assert decoded == partial
                assert codec.encode_partial(decoded) == blob

    def test_signature(self, wire):
        handle, codec, _ = wire
        for message in WIRE_MESSAGES:
            signature = handle.sign(message)
            blob = codec.encode_signature(signature)
            decoded = codec.decode_signature(blob)
            assert decoded == signature
            assert codec.encode_signature(decoded) == blob
            assert handle.verify(message, decoded)

    def test_verification_key(self, wire):
        handle, codec, _ = wire
        for vk in handle.verification_keys.values():
            blob = codec.encode_verification_key(vk)
            decoded = codec.decode_verification_key(blob)
            assert decoded == vk
            assert codec.encode_verification_key(decoded) == blob

    def test_private_key_share(self, wire):
        handle, codec, _ = wire
        order = handle.scheme.group.order
        for share in handle.shares.values():
            blob = codec.encode_share(share)
            decoded = codec.decode_share(blob)
            assert decoded == share.reduce(order)
            assert codec.encode_share(decoded) == blob

    def test_window_jobs(self, wire):
        handle, codec, rng = wire
        jobs = [
            SignWindowJob(shard_id=3, messages=tuple(WIRE_MESSAGES),
                          quorum=tuple(handle.quorum())),
            SignWindowJob(shard_id=0, messages=(), quorum=()),
            VerifyWindowJob(
                shard_id=1, messages=tuple(WIRE_MESSAGES),
                signatures=tuple(handle.sign(message)
                                 for message in WIRE_MESSAGES)),
            PartialSignJob(shard_id=2, message=b"\x00partial",
                           signers=(5, 1, 3)),
        ]
        for job in jobs:
            blob = codec.encode_job(job)
            decoded = codec.decode_job(blob)
            assert decoded == job
            assert codec.encode_job(decoded) == blob

    def test_window_outcomes(self, wire):
        handle, codec, rng = wire
        signatures = [handle.sign(message) for message in WIRE_MESSAGES]
        outcomes = [
            SignWindowOutcome(
                signatures=(signatures[0], None, signatures[2]),
                flagged=(1, 2), failures=((1, "no quorum: bad shares"),),
                fallback_combines=2),
            VerifyWindowOutcome(verdicts=(True, False, True, True)),
            VerifyWindowOutcome(verdicts=()),
            PartialSignOutcome(partials=tuple(
                handle.partials_for(b"outcome partials"))),
        ]
        for outcome in outcomes:
            blob = codec.encode_outcome(outcome)
            decoded = codec.decode_outcome(blob)
            assert decoded == outcome
            assert codec.encode_outcome(decoded) == blob

    def test_service_context(self, wire):
        handle, codec, _ = wire
        blob = encode_service_context(handle)
        rebuilt = decode_service_context(blob)
        # Same keys, same parameters, and interoperable artifacts:
        # a signature produced by the rebuilt handle verifies under the
        # original and vice versa.
        assert rebuilt.public_key.g_1 == handle.public_key.g_1
        assert rebuilt.verification_keys == handle.verification_keys
        assert sorted(rebuilt.shares) == sorted(handle.shares)
        assert encode_service_context(rebuilt) == blob
        message = b"cross-process interop"
        assert handle.verify(message, rebuilt.sign(message))
        assert rebuilt.verify(message, handle.sign(message))

    def test_truncated_and_trailing_blobs_rejected(self, wire):
        handle, codec, _ = wire
        blob = codec.encode_partial(handle.partials_for(b"m")[0])
        with pytest.raises(SerializationError):
            codec.decode_partial(blob[:-1])
        with pytest.raises(SerializationError):
            codec.decode_partial(blob + b"\x00")
        with pytest.raises(SerializationError):
            codec.decode_job(b"Z" + blob)

    def test_sign_outcome_requires_failure_reason_for_none(self, wire):
        handle, codec, _ = wire
        incomplete = SignWindowOutcome(
            signatures=(None,), flagged=(0,), failures=(),
            fallback_combines=1)
        with pytest.raises(SerializationError):
            codec.encode_outcome(incomplete)


def test_kind_tags_match_the_wire_format_doc():
    """Every one-byte ``KIND_*`` tag the codec defines heads a grammar
    production in docs/WIRE_FORMAT.md, every frame kind has a row in
    its frame table, and vice versa — a half-removed or undocumented
    kind fails here."""
    doc = (pathlib.Path(__file__).resolve().parent.parent
           / "docs" / "WIRE_FORMAT.md").read_text()
    blob_kinds = {value.decode()
                  for name, value in vars(serialization).items()
                  if name.startswith("KIND_")}
    assert blob_kinds == set(re.findall(r'(?::=|\|) "(\w)" \|\|', doc))
    assert {kind.decode() for kind in serialization.FRAME_KINDS} \
        == set(re.findall(r"^\| `(\w)` ", doc, re.MULTILINE))


class TestTables:
    def test_render_basic(self):
        table = Table("demo", ["a", "b"])
        table.add_row(a=1, b="x")
        table.add_row(a=2.5, b="y")
        text = table.render()
        assert "demo" in text
        assert "2.500" in text
        assert text.count("\n") == 4

    def test_missing_column_rejected(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(a=1)

    def test_float_formats(self):
        text = format_table("t", ["v"], [{"v": 0.000001}, {"v": 1234.5},
                                         {"v": 0}, {"v": 0.5}])
        assert "1.00e-06" in text
        assert "1234.5" in text

    def test_empty_table_renders(self):
        assert "t" in format_table("t", ["col"], [])
