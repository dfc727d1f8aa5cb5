"""Property-based fuzz tests for the wire codec and the v3 frame layer.

No hypothesis dependency — the sweeps are deterministic, driven by the
session-seeded ``random.Random`` (rerun a failure with ``--seed N``;
the effective seed is printed in the terminal summary).  Three
properties, each swept over a corpus covering every wire type:

* **round trip** — ``decode(encode(x)) == x`` and
  ``encode(decode(blob)) == blob`` (canonicity);
* **truncation** — every strict prefix of every blob is a typed
  :class:`~repro.errors.SerializationError`, at *every* boundary, not
  just "one byte short";
* **bit flips** — a single flipped bit anywhere in a blob either
  raises :class:`~repro.errors.SerializationError` or decodes to a
  well-typed value of the expected class.  Never a hang, never a
  foreign exception (``UnicodeDecodeError``, ``ValueError``, ...).

The bit-flip sweep deliberately does **not** assert canonical
re-encoding of a successfully decoded mutant: the toy backend's group
decoding is non-validating by design (``g1_from_bytes`` accepts any
fixed-width field, ``decode_scalar`` does not reduce mod the order),
so a flipped element byte can decode to a non-canonical value.  The
``bn254`` variant of the sweep runs the same corpus through the real
curve, where point decoding *does* validate.
"""

import random

import pytest

from repro.core.keys import PrivateKeyShare
from repro.core.scheme import ServiceHandle
from repro.errors import SerializationError
from repro.serialization import (
    FRAME_HEADER_BYTES, FRAME_KIND_JOB, FRAME_KINDS, FRAME_MAGIC,
    FRAME_VERSION, MAX_FRAME_BYTES, PartialSignJob, PartialSignOutcome,
    SignWindowJob, SignWindowOutcome, VerifyWindowJob, VerifyWindowOutcome,
    WalAdmitRecord, WalDoneRecord, WireCodec, decode_frame_header,
    encode_frame,
)


def _corpus(handle, codec, rng):
    """(value, encode, decode) triples covering every wire type, with
    messages sized to keep the quadratic truncation sweep fast."""
    messages = [b"", rng.randbytes(1), rng.randbytes(33),
                rng.randbytes(200), b"\xff\x00S V P q w"]
    message = rng.randbytes(48)
    partials = handle.partials_for(message)
    signature = handle.sign(message)
    vk = next(iter(handle.verification_keys.values()))
    share = next(iter(handle.shares.values()))
    quorum = tuple(handle.quorum())

    jobs = [
        SignWindowJob(shard_id=rng.randrange(1 << 16), messages=tuple(
            messages), quorum=quorum, epoch=rng.randrange(4)),
        SignWindowJob(shard_id=0, messages=(), quorum=()),
        VerifyWindowJob(shard_id=1, messages=(message,),
                        signatures=(signature,)),
        PartialSignJob(shard_id=2, message=messages[3], signers=quorum),
    ]
    outcomes = [
        SignWindowOutcome(signatures=(signature, None, signature),
                          flagged=(1, 2),
                          failures=((1, "no quorum: bad shares"),),
                          fallback_combines=2),
        VerifyWindowOutcome(verdicts=(True, False, True)),
        PartialSignOutcome(partials=tuple(partials)),
    ]
    wal_records = [
        WalAdmitRecord(request_id=rng.randrange(1 << 48),
                       message=messages[3], epoch=2),
        WalDoneRecord(request_id=7, signature=signature),
        WalDoneRecord(request_id=8, signature=None, reason="replayed"),
    ]

    triples = [(partials[0], codec.encode_partial, codec.decode_partial),
               (signature, codec.encode_signature, codec.decode_signature),
               (vk, codec.encode_verification_key,
                codec.decode_verification_key),
               (share, codec.encode_share, codec.decode_share)]
    triples += [(job, codec.encode_job, codec.decode_job) for job in jobs]
    triples += [(outcome, codec.encode_outcome, codec.decode_outcome)
                for outcome in outcomes]
    triples += [(record, codec.encode_wal_record, codec.decode_wal_record)
                for record in wal_records]
    return triples


def _wire(group, session_seed):
    seed = 0xF022 if session_seed is None else session_seed
    rng = random.Random(f"fuzz-wire:{seed}")
    handle = ServiceHandle.dealer(group, 2, 5, rng=rng)
    return _corpus(handle, WireCodec(group), rng), rng


@pytest.fixture
def toy_wire(toy_group, session_seed):
    return _wire(toy_group, session_seed)


@pytest.fixture
def bn254_wire(bn254_group, session_seed):
    return _wire(bn254_group, session_seed)


def _flip_bit(blob: bytes, bit: int) -> bytes:
    mutated = bytearray(blob)
    mutated[bit // 8] ^= 1 << (bit % 8)
    return bytes(mutated)


def _assert_round_trips(corpus, codec):
    for value, encode, decode in corpus:
        blob = encode(value)
        decoded = decode(blob)
        if not isinstance(value, PrivateKeyShare):
            assert decoded == value
        else:
            # Shares decode reduced mod the group order.
            assert decoded == value.reduce(codec.group.order)
        assert encode(decoded) == blob  # canonical on both backends


def _assert_truncations_rejected(corpus):
    for value, encode, decode in corpus:
        blob = encode(value)
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                decode(blob[:cut])
        with pytest.raises(SerializationError):
            decode(blob + b"\x00")


#: A flipped bit in the one-byte kind tag can lawfully turn one kind
#: into a *different valid kind* (``W`` and ``w`` differ by one bit),
#: so a surviving mutant may be any type its decoder can emit.
_JOB_TYPES = (SignWindowJob, VerifyWindowJob, PartialSignJob)
_OUTCOME_TYPES = (SignWindowOutcome, VerifyWindowOutcome,
                  PartialSignOutcome)
_WAL_TYPES = (WalAdmitRecord, WalDoneRecord)


def _allowed_types(value):
    for family in (_JOB_TYPES, _OUTCOME_TYPES, _WAL_TYPES):
        if isinstance(value, family):
            return family
    return (type(value),)


def _assert_bit_flips_typed(corpus, rng):
    for value, encode, decode in corpus:
        blob = encode(value)
        bits = len(blob) * 8
        # Every bit of the first 24 bytes (kind tags, counts, status
        # flags — the control plane), plus a seeded sample of the rest.
        positions = set(range(min(bits, 24 * 8)))
        positions.update(rng.sample(range(bits), min(bits, 256)))
        allowed = _allowed_types(value)
        for bit in sorted(positions):
            try:
                decoded = decode(_flip_bit(blob, bit))
            except SerializationError:
                continue
            # A surviving mutant must still be well-typed — a flipped
            # payload byte changes the value (or the kind tag, within
            # the decoder's family), never the shape, and never
            # escapes as a foreign exception.
            assert isinstance(decoded, allowed), (
                f"{type(value).__name__} bit {bit} decoded to "
                f"{type(decoded).__name__}")


class TestWireFuzzToy:
    def test_round_trip_and_size_accounting(self, toy_wire, toy_group):
        corpus, _rng = toy_wire
        _assert_round_trips(corpus, WireCodec(toy_group))

    def test_truncation_at_every_boundary(self, toy_wire):
        corpus, _rng = toy_wire
        _assert_truncations_rejected(corpus)

    def test_single_bit_flips_are_typed(self, toy_wire):
        corpus, rng = toy_wire
        _assert_bit_flips_typed(corpus, rng)

    def test_retired_request_kinds_are_unknown(self, toy_group):
        """Well-formed payloads of the four retired per-request kinds
        (``Q``/``R`` jobs, ``q``/``r`` outcomes — what a pre-removal
        peer would send) get the unknown-kind refusal, not a decode."""
        codec = WireCodec(toy_group)
        handle = ServiceHandle.dealer(toy_group, 2, 5,
                                      rng=random.Random(0xF055))
        signature = codec.encode_signature(handle.sign(b"legacy"))

        def u32(value):
            return value.to_bytes(4, "big")
        header = u32(3) + u32(handle.epoch) + u32(6) + b"legacy"
        quorum = handle.quorum()
        for blob in (
                b"Q" + header + u32(len(quorum))
                + b"".join(u32(index) for index in quorum),
                b"R" + header + signature):
            with pytest.raises(SerializationError,
                               match="unknown job kind"):
                codec.decode_job(blob)
        for blob in (b"q\x01\x00" + signature, b"r\x01"):
            with pytest.raises(SerializationError,
                               match="unknown outcome kind"):
                codec.decode_outcome(blob)


@pytest.mark.bn254
class TestWireFuzzBn254:
    def test_round_trip_and_size_accounting(self, bn254_wire, bn254_group):
        corpus, _rng = bn254_wire
        _assert_round_trips(corpus, WireCodec(bn254_group))

    def test_truncation_at_every_boundary(self, bn254_wire):
        corpus, _rng = bn254_wire
        _assert_truncations_rejected(corpus)

    def test_single_bit_flips_are_typed(self, bn254_wire):
        corpus, rng = bn254_wire
        _assert_bit_flips_typed(corpus, rng)


# ---------------------------------------------------------------------------
# the v3 frame layer
# ---------------------------------------------------------------------------

class TestFrameFuzz:
    def test_header_round_trip(self, session_seed):
        rng = random.Random(0xF033 if session_seed is None
                            else session_seed)
        for _ in range(64):
            kind = rng.choice(FRAME_KINDS)
            request_id = rng.randrange(1 << 64)
            payload = rng.randbytes(rng.randrange(64))
            frame = encode_frame(kind, payload, request_id=request_id)
            assert len(frame) == FRAME_HEADER_BYTES + len(payload)
            decoded = decode_frame_header(frame[:FRAME_HEADER_BYTES])
            assert decoded == (kind, request_id, len(payload))

    def test_header_wrong_length_rejected(self):
        frame = encode_frame(FRAME_KIND_JOB, b"payload")
        for cut in range(FRAME_HEADER_BYTES):
            with pytest.raises(SerializationError):
                decode_frame_header(frame[:cut])
        with pytest.raises(SerializationError):
            decode_frame_header(frame[:FRAME_HEADER_BYTES + 1])

    def test_header_bit_flips_are_typed(self, session_seed):
        rng = random.Random(0xF044 if session_seed is None
                            else session_seed)
        header = encode_frame(FRAME_KIND_JOB, b"x" * 100,
                              request_id=rng.randrange(1 << 64)
                              )[:FRAME_HEADER_BYTES]
        for bit in range(FRAME_HEADER_BYTES * 8):
            try:
                kind, request_id, length = decode_frame_header(
                    _flip_bit(header, bit))
            except SerializationError:
                # Magic, version, kind and the length cap are all
                # enforced; flips there must be refused.
                assert bit < 6 * 8 or bit >= 14 * 8
                continue
            # Flips in the request-id / length words survive (the
            # stream layer catches length mismatches) but the decoded
            # fields stay in-contract.
            assert kind in FRAME_KINDS
            assert 0 <= length <= MAX_FRAME_BYTES

    def test_unknown_kind_and_oversize_rejected(self):
        with pytest.raises(SerializationError):
            encode_frame(b"Z", b"")
        header = (FRAME_MAGIC + bytes([FRAME_VERSION]) + b"Z"
                  + (0).to_bytes(8, "big") + (0).to_bytes(4, "big"))
        with pytest.raises(SerializationError):
            decode_frame_header(header)
        oversize = (FRAME_MAGIC + bytes([FRAME_VERSION]) + FRAME_KIND_JOB
                    + (0).to_bytes(8, "big")
                    + (MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(SerializationError):
            decode_frame_header(oversize)

    def test_stale_version_refused(self):
        frame = bytearray(encode_frame(FRAME_KIND_JOB, b""))
        frame[4] = FRAME_VERSION - 1
        with pytest.raises(SerializationError, match="frame version"):
            decode_frame_header(bytes(frame[:FRAME_HEADER_BYTES]))
