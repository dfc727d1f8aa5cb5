"""Property-based fuzz tests for the wire codec, the v3 frame layer and
the HTTP edge.

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

The corpus names the declared record (:data:`repro.serialization.
RECORDS`) behind every entry, and a record with no entry fails the
sweep: a newly declared record is fuzzed from the day it lands.

The bit-flip sweep deliberately does **not** assert canonical
re-encoding of a successfully decoded mutant: the toy backend's group
decoding is non-validating by design (``g1_from_bytes`` accepts any
fixed-width field), so a flipped element byte can decode to a
non-canonical value.  The ``bn254`` variant of the sweep runs the same
corpus through the real curve, where point decoding *does* validate.

``TestHttpEdgeFuzz`` takes the same two mutations to the gateway's
HTTP parser: every truncation and a seeded sample of bit flips of real
requests (sign, verify, each admin route, a keep-alive pair), each
sent on a fresh connection to a live gateway on the toy backend.
"""

import asyncio
import json
import random
import re
from typing import Optional

import pytest

from repro.core.keys import PrivateKeyShare
from repro.core.scheme import ServiceHandle
from repro.errors import SerializationError
from repro.service import (
    HttpGateway, ServiceConfig, SigningService, TenantConfig,
)
from repro.serialization import (
    FRAME_HEADER_BYTES, FRAME_KIND_JOB, FRAME_KINDS, FRAME_MAGIC,
    FRAME_VERSION, MAX_FRAME_BYTES, RECORDS, Hello, PartialSignJob,
    PartialSignOutcome, SignWindowJob, SignWindowOutcome, VerifyWindowJob,
    VerifyWindowOutcome, WalAdmitRecord, WalDoneRecord, WireCodec,
    decode_frame_header, decode_hello, decode_service_context,
    encode_frame, encode_hello, encode_service_context, hello_mac,
    service_context_digest,
)


def _corpus(handle, codec, rng):
    """``(record name, value, encode, decode)`` entries covering every
    declared record, with messages sized to keep the quadratic
    truncation sweep fast."""
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

    digest = service_context_digest(encode_service_context(handle))
    hellos = [Hello(handle.scheme.group.name, digest),
              Hello("toy", digest, hello_mac(rng.randbytes(16), digest))]

    def unpacked(encode):
        return lambda hello: encode(*hello)

    entries = [("partial", partials[0], codec.encode_partial,
                codec.decode_partial),
               ("signature", signature, codec.encode_signature,
                codec.decode_signature),
               ("verification_key", vk, codec.encode_verification_key,
                codec.decode_verification_key),
               ("share", share, codec.encode_share, codec.decode_share),
               ("context", handle, encode_service_context,
                decode_service_context)]
    entries += [(name, job, codec.encode_job, codec.decode_job)
                for name, job in zip(
                    ("sign_job", "sign_job", "verify_job", "partial_job"),
                    jobs)]
    entries += [(name, outcome, codec.encode_outcome, codec.decode_outcome)
                for name, outcome in zip(
                    ("sign_outcome", "verify_outcome", "partial_outcome"),
                    outcomes)]
    entries += [(name, record, codec.encode_wal_record,
                 codec.decode_wal_record)
                for name, record in zip(
                    ("wal_admit", "wal_done", "wal_done"), wal_records)]
    entries += [("hello", hello, unpacked(encode_hello), decode_hello)
                for hello in hellos]
    return entries


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


def _assert_every_record_fuzzed(corpus):
    assert {name for name, *_ in corpus} == set(RECORDS)


def _assert_round_trips(corpus, codec):
    for _name, value, encode, decode in corpus:
        blob = encode(value)
        decoded = decode(blob)
        if isinstance(value, PrivateKeyShare):
            # Shares decode reduced mod the group order.
            assert decoded == value.reduce(codec.group.order)
        elif not isinstance(value, ServiceHandle):
            # (A handle has no equality; its re-encoding below compares
            # every field.)
            assert decoded == value
        assert encode(decoded) == blob  # canonical on both backends


#: On BN254 one context decode checks 14 G_hat points for subgroup
#: membership (~60 ms), so the bn254 sweeps take a seeded sample of
#: ``_SAMPLE`` positions of that entry (plus, for truncation, every cut
#: in its first 24 bytes); the toy sweeps, over the same grammar, take
#: every position.
_SAMPLED_ON_BN254 = frozenset({"context"})
_SAMPLE = 48


def _assert_truncations_rejected(corpus, rng=None, sampled=frozenset()):
    for name, value, encode, decode in corpus:
        blob = encode(value)
        cuts = range(len(blob))
        if name in sampled:
            cuts = sorted(set(range(24)) | set(rng.sample(cuts, _SAMPLE)))
        for cut in cuts:
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


def _assert_bit_flips_typed(corpus, rng, sampled=frozenset()):
    for name, value, encode, decode in corpus:
        blob = encode(value)
        bits = len(blob) * 8
        # Every bit of the first 24 bytes (kind tags, counts, status
        # flags — the control plane), plus a seeded sample of the rest.
        positions = set(range(min(bits, 24 * 8)))
        positions.update(rng.sample(range(bits), min(bits, 256)))
        if name in sampled:
            positions = set(rng.sample(range(bits), _SAMPLE))
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
    def test_every_declared_record_in_corpus(self, toy_wire):
        corpus, _rng = toy_wire
        _assert_every_record_fuzzed(corpus)

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
        corpus, rng = bn254_wire
        _assert_truncations_rejected(corpus, rng, _SAMPLED_ON_BN254)

    def test_single_bit_flips_are_typed(self, bn254_wire):
        corpus, rng = bn254_wire
        _assert_bit_flips_typed(corpus, rng, _SAMPLED_ON_BN254)


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


# ---------------------------------------------------------------------------
# The HTTP edge: real requests, truncated and bit-flipped
# ---------------------------------------------------------------------------

#: How long one mutant may take to be answered or closed.
_HTTP_DEADLINE_S = 5.0
_ADMIN_KEY = "alpha-key"


def _http_request(path: str, payload: Optional[dict],
                  keep_alive: bool = False) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    head = [f"POST {path} HTTP/1.1", "Host: fuzz",
            f"X-Api-Key: {_ADMIN_KEY}", "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _http_corpus(handle, rng):
    """``(name, requests, signed messages)`` entries: sign, verify, each
    admin route, and a keep-alive pair of signs on one connection.  The
    messages are what each request would admit, one per request
    (``None`` for an admin route)."""
    codec = WireCodec(handle.scheme.group)
    message, first, second = (rng.randbytes(12) for _ in range(3))
    signature = codec.encode_signature(handle.sign(message))
    return [
        ("sign", [_http_request("/v1/sign", {"message": message.hex()})],
         [message]),
        ("verify", [_http_request("/v1/verify", {
            "message": message.hex(), "signature": signature.hex()})],
         [message]),
        ("refresh", [_http_request("/admin/refresh", None)], [None]),
        ("reshare", [_http_request("/admin/reshare", {
            "threshold": 2, "indices": [1, 2, 3, 4, 5]})], [None]),
        ("resize", [_http_request("/admin/resize", {"shards": 2})], [None]),
        ("keep_alive_pair",
         [_http_request("/v1/sign", {"message": first.hex()},
                        keep_alive=True),
          _http_request("/v1/sign", {"message": second.hex()})],
         [first, second]),
    ]


def _http_flips(request: bytes, rng, per_part: int = 16):
    """A seeded sample of bit positions in each of the request line,
    the headers (through the blank line) and the body."""
    line_end = request.index(b"\r\n") + 2
    head_end = request.index(b"\r\n\r\n") + 4
    bits = []
    for lo, hi in ((0, line_end), (line_end, head_end),
                   (head_end, len(request))):
        span = range(lo * 8, hi * 8)
        bits += rng.sample(span, min(len(span), per_part))
    return sorted(bits)


async def _http_exchange(gateway, blob: bytes):
    """Send ``blob``, end the stream, read to EOF: the response's status
    codes in order (``[]`` for a bare close)."""
    reader, writer = await asyncio.open_connection(
        gateway.host, gateway.port)
    try:
        writer.write(blob)
        await writer.drain()
        writer.write_eof()
        response = await asyncio.wait_for(reader.read(), _HTTP_DEADLINE_S)
    except ConnectionResetError:
        response = b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    codes = []
    while response:
        head, _, rest = response.partition(b"\r\n\r\n")
        code = int(head.split(b" ", 2)[1])
        length = re.search(rb"\r\nContent-Length: (\d+)", head)
        response = rest[int(length.group(1)) if length else 0:]
        if code != 100:
            codes.append(code)
    return codes


class TestHttpEdgeFuzz:
    """Every truncation and a seeded sample of bit flips of real
    requests, each on a fresh connection to a live gateway (toy
    backend) with a spy on ``SigningService._admit``:

    * each mutant is answered with 2xx/4xx codes or closed within
      :data:`_HTTP_DEADLINE_S` — never a 5xx, never a hang;
    * a truncated request never reaches ``_admit``: what is admitted is
      exactly the messages of the whole requests before the cut;
    * a flipped request reaches ``_admit`` only with a message spelled
      whole, as a JSON hex string, in the mutant's own bytes.  A flip
      inside the hex message, in the HTTP version (which the gateway
      does not read) or in a header it ignores leaves a well-formed
      request, and serving that one is right; what no flip may do is
      get a message admitted that the bytes do not carry.
    """

    def test_truncations_and_bit_flips(self, toy_group, session_seed,
                                       monkeypatch):
        seed = 0x477 if session_seed is None else session_seed
        rng = random.Random(f"fuzz-http:{seed}")
        handle = ServiceHandle.dealer(toy_group, 2, 5, rng=rng)
        corpus = _http_corpus(handle, rng)
        admitted = []
        admit = SigningService._admit

        def spy(service, request):
            admitted.append(request.message)
            return admit(service, request)

        monkeypatch.setattr(SigningService, "_admit", spy)

        async def sweep():
            service = SigningService(handle, ServiceConfig(
                num_shards=2, max_batch=4, max_wait_ms=1.0,
                queue_depth=256))
            await service.start()
            gateway = HttpGateway(service, tenants=[TenantConfig(
                name="alpha", api_key=_ADMIN_KEY, admin=True)])
            await gateway.start()
            try:
                for name, requests, messages in corpus:
                    await self._sweep_entry(gateway, admitted, rng, name,
                                            requests, messages)
            finally:
                await gateway.stop()
                await service.stop()

        asyncio.run(sweep())

    @staticmethod
    async def _sweep_entry(gateway, admitted, rng, name, requests,
                           messages):
        blob = b"".join(requests)
        del admitted[:]
        assert await _http_exchange(gateway, blob) == [200] * len(requests)
        assert admitted == [m for m in messages if m is not None], name
        ends = [sum(map(len, requests[:count + 1]))
                for count in range(len(requests))]
        for cut in range(len(blob)):
            del admitted[:]
            codes = await _http_exchange(gateway, blob[:cut])
            whole = sum(end <= cut for end in ends)
            assert codes == [200] * whole, (name, cut, codes)
            assert admitted == [m for m in messages[:whole]
                                if m is not None], (name, cut)
        offset = 0
        for request in requests:
            for bit in _http_flips(request, rng):
                mutant = _flip_bit(blob, offset * 8 + bit)
                del admitted[:]
                codes = await _http_exchange(gateway, mutant)
                context = (name, offset * 8 + bit, codes)
                assert all(200 <= code < 300 or 400 <= code < 500
                           for code in codes), context
                assert len(admitted) <= len(requests), context
                for message in admitted:
                    assert b'"%s"' % message.hex().encode() in \
                        mutant.lower(), context
            offset += len(request)
