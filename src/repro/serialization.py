"""Canonical sizes, encodings and the service wire format.

Two layers live here:

* **Size accounting** (the original contents): the paper's size claims
  (Section 3.1 and Section 4) are stated for Barreto-Naehrig curves at
  the 128-bit level: G elements take 256 bits, G_hat elements 512 bits.
  The ``measure_*`` functions report the *actual* encoded sizes of this
  library's objects so the experiment tables report measured numbers
  rather than constants copied from the paper.

* **The wire format** (:class:`WireCodec` and the job dataclasses): a
  round-trippable byte encoding for partial signatures, signatures,
  verification keys, key shares and the window-sized jobs the
  worker tier (:mod:`repro.service.transport`) ships across process
  and machine boundaries.  Group elements already know their
  canonical encodings (``to_bytes`` / ``g1_from_bytes`` /
  ``g2_from_bytes``); the codec frames them with fixed-width element
  fields, 4-byte big-endian integers and length-prefixed byte strings,
  so ``decode(encode(x))`` reproduces ``x`` and
  ``encode(decode(blob)) == blob`` on both backends.

* **The TCP frame layer** (``encode_frame`` / ``decode_frame_header``
  and the HELLO handshake payload): a length-prefixed, versioned
  framing for shipping the wire-format blobs over a byte stream — what
  the transport puts on real sockets.  Byte-level spec:
  ``docs/WIRE_FORMAT.md``.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.keys import PartialSignature, PrivateKeyShare, Signature, \
    VerificationKey
from repro.errors import SerializationError
from repro.groups.api import BilinearGroup


@dataclass(frozen=True)
class SizeReport:
    """Measured sizes of one scheme's artifacts, in bits."""

    scheme: str
    signature_bits: int
    public_key_bits: int
    share_bits: int
    partial_signature_bits: int

    def as_row(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "signature_bits": self.signature_bits,
            "public_key_bits": self.public_key_bits,
            "share_bits": self.share_bits,
            "partial_bits": self.partial_signature_bits,
        }


def bits(obj) -> int:
    """Encoded size in bits of anything exposing ``to_bytes``."""
    return len(obj.to_bytes()) * 8


def scalar_bits(order: int) -> int:
    """Canonical encoded size of one Z_p scalar (rounded up to bytes)."""
    return ((order.bit_length() + 7) // 8) * 8


def measure_ljy_rom(scheme, public_key, share, partial, signature
                    ) -> SizeReport:
    """Sizes for the Section 3 scheme (share = 4 scalars)."""
    order = scheme.group.order
    return SizeReport(
        scheme="LJY14 Section 3 (ROM)",
        signature_bits=bits(signature),
        public_key_bits=bits(public_key),
        share_bits=4 * scalar_bits(order),
        partial_signature_bits=bits(partial),
    )


def measure_ljy_standard(scheme, public_key, share, partial, signature
                         ) -> SizeReport:
    """Sizes for the Section 4 scheme (share = 2 scalars)."""
    order = scheme.group.order
    return SizeReport(
        scheme="LJY14 Section 4 (standard model)",
        signature_bits=bits(signature),
        public_key_bits=bits(public_key),
        share_bits=2 * scalar_bits(order),
        partial_signature_bits=bits(partial),
    )


def measure_dlin(scheme, public_key, share, partial, signature) -> SizeReport:
    """Sizes for the Appendix F scheme (share = 9 scalars)."""
    order = scheme.group.order
    partial_total = sum(
        len(getattr(partial, name).to_bytes()) * 8
        for name in ("z", "r", "u"))
    return SizeReport(
        scheme="LJY14 Appendix F (DLIN)",
        signature_bits=bits(signature),
        public_key_bits=bits(public_key),
        share_bits=9 * scalar_bits(order),
        partial_signature_bits=partial_total,
    )


def measure_bls(group, public_key, partial, signature) -> SizeReport:
    return SizeReport(
        scheme="Boldyreva'03 threshold BLS (static)",
        signature_bits=bits(signature),
        public_key_bits=bits(public_key),
        share_bits=scalar_bits(group.order),
        partial_signature_bits=bits(partial),
    )


def measure_shoup(scheme, public_key, partial, signature) -> SizeReport:
    modulus_bits = public_key.modulus_bits
    return SizeReport(
        scheme=f"Shoup'00 threshold RSA ({modulus_bits}-bit N)",
        signature_bits=bits(signature),
        public_key_bits=bits(public_key),
        share_bits=((modulus_bits + 7) // 8) * 8,
        partial_signature_bits=bits(partial),
    )


# ---------------------------------------------------------------------------
# The wire format
# ---------------------------------------------------------------------------

#: Job/outcome kind tags (one byte each).  Uppercase = job, lowercase =
#: the matching outcome, ``C`` = a full service context, ``W``/``w`` =
#: the write-ahead log's admit/done records (uppercase opens an
#: obligation, lowercase settles it — same convention as job/outcome).
KIND_SIGN_JOB = b"S"
KIND_VERIFY_JOB = b"V"
KIND_PARTIAL_JOB = b"P"
KIND_SIGN_OUTCOME = b"s"
KIND_VERIFY_OUTCOME = b"v"
KIND_PARTIAL_OUTCOME = b"p"
KIND_CONTEXT = b"C"
KIND_WAL_ADMIT = b"W"
KIND_WAL_DONE = b"w"


@dataclass(frozen=True)
class SignWindowJob:
    """One batch window of sign requests: produce a full signature per
    message using the given signer quorum (partial signing, the
    cross-message window check and the robust fallback all happen on the
    executing side — the job carries only what a dispatcher knows).

    ``epoch`` stamps the key-lifecycle generation the dispatcher formed
    the window under; an executor holding a different epoch's shares
    must refuse the job rather than sign with dead key material.
    """

    shard_id: int
    messages: Tuple[bytes, ...]
    quorum: Tuple[int, ...]
    epoch: int = 0


@dataclass(frozen=True)
class VerifyWindowJob:
    """One batch window of verify requests."""

    shard_id: int
    messages: Tuple[bytes, ...]
    signatures: Tuple[Signature, ...]
    epoch: int = 0


@dataclass(frozen=True)
class PartialSignJob:
    """Produce the partial signatures of ``signers`` on one message —
    the building block for a combiner that is *not* co-located with the
    signers (a distributed deployment over real sockets)."""

    shard_id: int
    message: bytes
    signers: Tuple[int, ...]
    epoch: int = 0


@dataclass(frozen=True)
class SignWindowOutcome:
    """Result of a :class:`SignWindowJob`.

    ``signatures[i]`` is ``None`` exactly when position ``i`` appears in
    ``failures``; ``flagged`` lists the positions that needed the robust
    path (those not in ``failures`` still completed), and
    ``fallback_combines`` counts the requests that needed partial
    signatures from beyond their quorum.
    """

    signatures: Tuple[Optional[Signature], ...]
    flagged: Tuple[int, ...]
    failures: Tuple[Tuple[int, str], ...]
    fallback_combines: int

    @property
    def faults_localized(self) -> int:
        return len(self.flagged)


@dataclass(frozen=True)
class VerifyWindowOutcome:
    """Result of a :class:`VerifyWindowJob`: one verdict per message."""

    verdicts: Tuple[bool, ...]


@dataclass(frozen=True)
class PartialSignOutcome:
    """Result of a :class:`PartialSignJob`."""

    partials: Tuple[PartialSignature, ...]


@dataclass(frozen=True)
class WalAdmitRecord:
    """One admitted sign request: a durable obligation.

    Appended by the service frontend the moment a request clears
    backpressure; until a :class:`WalDoneRecord` with the same
    ``request_id`` lands, a restart must replay the message through the
    normal signing path (partial signing is deterministic, so a replay
    of an already-signed-but-unacknowledged request reproduces the
    identical signature — idempotence by construction).

    ``epoch`` records the key-lifecycle generation the request was
    admitted under.  Signatures are unique per message, so replaying an
    old-epoch admit under newer shares settles identically; the epoch
    exists so a restart can *refuse* to run with key material older
    than what the log has seen (a crash mid-transition must not resume
    on the pre-transition shares).
    """

    request_id: int
    message: bytes
    epoch: int = 0


@dataclass(frozen=True)
class WalDoneRecord:
    """Settles one :class:`WalAdmitRecord`.

    ``signature`` is set iff the request completed; a shed or failed
    request settles with ``signature=None`` and a human-readable
    ``reason`` (also a settlement — the obligation was *answered*, with
    a typed rejection, and must not be replayed).
    """

    request_id: int
    signature: Optional[Signature] = None
    reason: str = ""


class _Reader:
    """Sequential reader over one wire blob (bounds-checked)."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, length: int) -> bytes:
        end = self.offset + length
        if end > len(self.data):
            raise SerializationError(
                f"truncated wire blob: wanted {length} bytes at offset "
                f"{self.offset}, have {len(self.data) - self.offset}")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def packed(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self.offset != len(self.data):
            raise SerializationError(
                f"{len(self.data) - self.offset} trailing bytes after "
                "wire blob")


def _u32(value: int) -> bytes:
    if value < 0 or value >= 1 << 32:
        raise SerializationError(f"field {value} does not fit in u32")
    return value.to_bytes(4, "big")


def _u64(value: int) -> bytes:
    if value < 0 or value >= 1 << 64:
        raise SerializationError(f"field {value} does not fit in u64")
    return value.to_bytes(8, "big")


def _packed(data: bytes) -> bytes:
    return _u32(len(data)) + data


def _utf8(data: bytes) -> str:
    """Decode a wire string; malformed UTF-8 is a typed rejection like
    any other malformed field (the fuzz sweeps in
    ``tests/test_fuzz_wire.py`` pin this — a flipped bit in a reason
    string must never escape as :class:`UnicodeDecodeError`)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(
            f"invalid UTF-8 in wire string: {exc}") from exc


class WireCodec:
    """Round-trippable codecs for one bilinear-group backend.

    Element fields are fixed-width (``group.g1_bytes`` /
    ``group.g2_bytes`` — both backends define canonical fixed-size
    encodings), scalars take the group order's byte length, everything
    else is framed with 4-byte big-endian integers.
    """

    def __init__(self, group: BilinearGroup):
        self.group = group
        self.scalar_bytes = scalar_bits(group.order) // 8

    # -- scalars ------------------------------------------------------------
    def encode_scalar(self, value: int) -> bytes:
        return (value % self.group.order).to_bytes(self.scalar_bytes, "big")

    def decode_scalar(self, reader: _Reader) -> int:
        return int.from_bytes(reader.take(self.scalar_bytes), "big")

    # -- protocol objects ---------------------------------------------------
    def encode_partial(self, partial: PartialSignature) -> bytes:
        return _u32(partial.index) + partial.z.to_bytes() + \
            partial.r.to_bytes()

    def _read_partial(self, reader: _Reader) -> PartialSignature:
        index = reader.u32()
        z = self.group.g1_from_bytes(reader.take(self.group.g1_bytes))
        r = self.group.g1_from_bytes(reader.take(self.group.g1_bytes))
        return PartialSignature(index=index, z=z, r=r)

    def decode_partial(self, blob: bytes) -> PartialSignature:
        reader = _Reader(blob)
        partial = self._read_partial(reader)
        reader.done()
        return partial

    def encode_signature(self, signature: Signature) -> bytes:
        return signature.z.to_bytes() + signature.r.to_bytes()

    def _read_signature(self, reader: _Reader) -> Signature:
        z = self.group.g1_from_bytes(reader.take(self.group.g1_bytes))
        r = self.group.g1_from_bytes(reader.take(self.group.g1_bytes))
        return Signature(z=z, r=r)

    def decode_signature(self, blob: bytes) -> Signature:
        reader = _Reader(blob)
        signature = self._read_signature(reader)
        reader.done()
        return signature

    def encode_verification_key(self, vk: VerificationKey) -> bytes:
        return _u32(vk.index) + vk.v_1.to_bytes() + vk.v_2.to_bytes()

    def _read_verification_key(self, reader: _Reader) -> VerificationKey:
        index = reader.u32()
        v_1 = self.group.g2_from_bytes(reader.take(self.group.g2_bytes))
        v_2 = self.group.g2_from_bytes(reader.take(self.group.g2_bytes))
        return VerificationKey(index=index, v_1=v_1, v_2=v_2)

    def decode_verification_key(self, blob: bytes) -> VerificationKey:
        reader = _Reader(blob)
        vk = self._read_verification_key(reader)
        reader.done()
        return vk

    def encode_share(self, share: PrivateKeyShare) -> bytes:
        return _u32(share.index) + b"".join(
            self.encode_scalar(value)
            for value in (share.a_1, share.b_1, share.a_2, share.b_2))

    def _read_share(self, reader: _Reader) -> PrivateKeyShare:
        index = reader.u32()
        a_1, b_1, a_2, b_2 = (self.decode_scalar(reader) for _ in range(4))
        return PrivateKeyShare(index=index, a_1=a_1, b_1=b_1,
                               a_2=a_2, b_2=b_2)

    def decode_share(self, blob: bytes) -> PrivateKeyShare:
        reader = _Reader(blob)
        share = self._read_share(reader)
        reader.done()
        return share

    # -- window jobs ----------------------------------------------------------
    def encode_job(self, job) -> bytes:
        if isinstance(job, SignWindowJob):
            return KIND_SIGN_JOB + _u32(job.shard_id) + _u32(job.epoch) + \
                _u32(len(job.messages)) + \
                b"".join(_packed(message) for message in job.messages) + \
                _u32(len(job.quorum)) + \
                b"".join(_u32(index) for index in job.quorum)
        if isinstance(job, VerifyWindowJob):
            if len(job.messages) != len(job.signatures):
                raise SerializationError(
                    "verify job needs one signature per message")
            return KIND_VERIFY_JOB + _u32(job.shard_id) + _u32(job.epoch) + \
                _u32(len(job.messages)) + \
                b"".join(
                    _packed(message) + self.encode_signature(signature)
                    for message, signature
                    in zip(job.messages, job.signatures))
        if isinstance(job, PartialSignJob):
            return KIND_PARTIAL_JOB + _u32(job.shard_id) + \
                _u32(job.epoch) + \
                _packed(job.message) + _u32(len(job.signers)) + \
                b"".join(_u32(index) for index in job.signers)
        raise SerializationError(f"unknown job type {type(job).__name__}")

    def decode_job(self, blob: bytes):
        reader = _Reader(blob)
        kind = reader.take(1)
        shard_id = reader.u32()
        epoch = reader.u32()
        if kind == KIND_SIGN_JOB:
            messages = tuple(reader.packed() for _ in range(reader.u32()))
            quorum = tuple(reader.u32() for _ in range(reader.u32()))
            job = SignWindowJob(shard_id=shard_id, messages=messages,
                                quorum=quorum, epoch=epoch)
        elif kind == KIND_VERIFY_JOB:
            count = reader.u32()
            messages, signatures = [], []
            for _ in range(count):
                messages.append(reader.packed())
                signatures.append(self._read_signature(reader))
            job = VerifyWindowJob(shard_id=shard_id,
                                  messages=tuple(messages),
                                  signatures=tuple(signatures),
                                  epoch=epoch)
        elif kind == KIND_PARTIAL_JOB:
            message = reader.packed()
            signers = tuple(reader.u32() for _ in range(reader.u32()))
            job = PartialSignJob(shard_id=shard_id, message=message,
                                 signers=signers, epoch=epoch)
        else:
            raise SerializationError(f"unknown job kind {kind!r}")
        reader.done()
        return job

    # -- job outcomes ---------------------------------------------------------
    def encode_outcome(self, outcome) -> bytes:
        if isinstance(outcome, SignWindowOutcome):
            failures = dict(outcome.failures)
            body = [_u32(len(outcome.signatures))]
            for position, signature in enumerate(outcome.signatures):
                if signature is None:
                    if position not in failures:
                        raise SerializationError(
                            f"missing signature at position {position} "
                            "without a failure record")
                    body.append(b"\x00" + _packed(
                        failures[position].encode("utf-8")))
                else:
                    body.append(b"\x01" + self.encode_signature(signature))
            body.append(_u32(len(outcome.flagged)))
            body.extend(_u32(position) for position in outcome.flagged)
            body.append(_u32(outcome.fallback_combines))
            return KIND_SIGN_OUTCOME + b"".join(body)
        if isinstance(outcome, VerifyWindowOutcome):
            return KIND_VERIFY_OUTCOME + _u32(len(outcome.verdicts)) + \
                bytes(1 if verdict else 0 for verdict in outcome.verdicts)
        if isinstance(outcome, PartialSignOutcome):
            return KIND_PARTIAL_OUTCOME + _u32(len(outcome.partials)) + \
                b"".join(self.encode_partial(partial)
                         for partial in outcome.partials)
        raise SerializationError(
            f"unknown outcome type {type(outcome).__name__}")

    def decode_outcome(self, blob: bytes):
        reader = _Reader(blob)
        kind = reader.take(1)
        if kind == KIND_SIGN_OUTCOME:
            count = reader.u32()
            signatures: List[Optional[Signature]] = []
            failures = []
            for position in range(count):
                status = reader.take(1)
                if status == b"\x00":
                    signatures.append(None)
                    failures.append(
                        (position, _utf8(reader.packed())))
                elif status == b"\x01":
                    signatures.append(self._read_signature(reader))
                else:
                    # Strict one-byte flags keep the encoding canonical
                    # (encode(decode(blob)) == blob), like the rejection
                    # of unknown kinds and trailing bytes.
                    raise SerializationError(
                        f"invalid sign-outcome status byte {status!r}")
            flagged = tuple(reader.u32() for _ in range(reader.u32()))
            fallback_combines = reader.u32()
            outcome = SignWindowOutcome(
                signatures=tuple(signatures), flagged=flagged,
                failures=tuple(failures),
                fallback_combines=fallback_combines)
        elif kind == KIND_VERIFY_OUTCOME:
            flags = reader.take(reader.u32())
            if any(byte > 1 for byte in flags):
                raise SerializationError(
                    "invalid verdict byte in verify outcome")
            outcome = VerifyWindowOutcome(verdicts=tuple(
                byte == 1 for byte in flags))
        elif kind == KIND_PARTIAL_OUTCOME:
            outcome = PartialSignOutcome(partials=tuple(
                self._read_partial(reader) for _ in range(reader.u32())))
        else:
            raise SerializationError(f"unknown outcome kind {kind!r}")
        reader.done()
        return outcome

    # -- write-ahead-log records ----------------------------------------------
    def encode_wal_record(self, record) -> bytes:
        """One WAL record payload (the on-disk log adds its own
        length+CRC storage framing on top — see
        :mod:`repro.service.wal` and ``docs/WIRE_FORMAT.md``)."""
        if isinstance(record, WalAdmitRecord):
            return KIND_WAL_ADMIT + _u64(record.request_id) + \
                _u32(record.epoch) + _packed(record.message)
        if isinstance(record, WalDoneRecord):
            if record.signature is not None:
                return KIND_WAL_DONE + _u64(record.request_id) + b"\x01" + \
                    self.encode_signature(record.signature)
            return KIND_WAL_DONE + _u64(record.request_id) + b"\x00" + \
                _packed(record.reason.encode("utf-8"))
        raise SerializationError(
            f"unknown WAL record type {type(record).__name__}")

    def decode_wal_record(self, blob: bytes):
        reader = _Reader(blob)
        kind = reader.take(1)
        if kind == KIND_WAL_ADMIT:
            record = WalAdmitRecord(request_id=reader.u64(),
                                    epoch=reader.u32(),
                                    message=reader.packed())
        elif kind == KIND_WAL_DONE:
            request_id = reader.u64()
            status = reader.take(1)
            if status == b"\x01":
                record = WalDoneRecord(request_id=request_id,
                                       signature=self._read_signature(reader))
            elif status == b"\x00":
                record = WalDoneRecord(
                    request_id=request_id, signature=None,
                    reason=_utf8(reader.packed()))
            else:
                # Strict one-byte flags, like the sign-outcome codec:
                # the encoding stays canonical.
                raise SerializationError(
                    f"invalid WAL done-record status byte {status!r}")
        else:
            raise SerializationError(f"unknown WAL record kind {kind!r}")
        reader.done()
        return record


def encode_service_context(handle) -> bytes:
    """Serialize everything a worker process needs to rebuild a
    :class:`~repro.core.scheme.ServiceHandle`: the key-lifecycle epoch,
    backend name, threshold parameters (with the derived generators
    inline, so no derivation assumptions survive the wire), public key,
    key shares and verification keys.

    This is the simulation's stand-in for deployment provisioning; a
    real deployment ships each server only its own share.

    Only a :class:`~repro.core.scheme.LJYThresholdScheme` handle is
    carried (:class:`TypeError` otherwise): the context has no field for
    a subclass's hash, so a decoded Appendix G context would sign
    ``H(M)`` where its handle signs ``H(PK || M)``.
    """
    from repro.core.scheme import LJYThresholdScheme

    scheme = handle.scheme
    if type(scheme) is not LJYThresholdScheme:
        raise TypeError(
            f"the service context carries LJYThresholdScheme handles "
            f"only, not {type(scheme).__name__}")
    group = scheme.group
    params = scheme.params
    codec = WireCodec(group)
    body = [
        KIND_CONTEXT,
        _u32(handle.epoch),
        _packed(group.name.encode("utf-8")),
        _u32(params.t), _u32(params.n),
        _packed(params.hash_domain.encode("utf-8")),
        params.g_z.to_bytes(), params.g_r.to_bytes(),
        handle.public_key.g_1.to_bytes(), handle.public_key.g_2.to_bytes(),
        _u32(len(handle.shares)),
    ]
    body.extend(codec.encode_share(share)
                for _, share in sorted(handle.shares.items()))
    body.append(_u32(len(handle.verification_keys)))
    body.extend(codec.encode_verification_key(vk)
                for _, vk in sorted(handle.verification_keys.items()))
    return b"".join(body)


def decode_service_context(blob: bytes):
    """Rebuild a :class:`~repro.core.scheme.ServiceHandle` from
    :func:`encode_service_context` output (used as the per-process
    warm-state seed by :mod:`repro.service.remote_worker`)."""
    from repro.core.keys import PublicKey, ThresholdParams
    from repro.core.scheme import LJYThresholdScheme, ServiceHandle
    from repro.groups import get_group

    reader = _Reader(blob)
    if reader.take(1) != KIND_CONTEXT:
        raise SerializationError("not a service-context blob")
    epoch = reader.u32()
    group = get_group(_utf8(reader.packed()))
    codec = WireCodec(group)
    t, n = reader.u32(), reader.u32()
    hash_domain = _utf8(reader.packed())
    g_z = group.g2_from_bytes(reader.take(group.g2_bytes))
    g_r = group.g2_from_bytes(reader.take(group.g2_bytes))
    g_1 = group.g2_from_bytes(reader.take(group.g2_bytes))
    g_2 = group.g2_from_bytes(reader.take(group.g2_bytes))
    params = ThresholdParams(group=group, t=t, n=n, g_z=g_z, g_r=g_r,
                             hash_domain=hash_domain)
    shares = {}
    for _ in range(reader.u32()):
        share = codec._read_share(reader)
        shares[share.index] = share
    verification_keys = {}
    for _ in range(reader.u32()):
        vk = codec._read_verification_key(reader)
        verification_keys[vk.index] = vk
    reader.done()
    scheme = LJYThresholdScheme(params)
    public_key = PublicKey(params=params, g_1=g_1, g_2=g_2)
    return ServiceHandle(scheme, public_key, shares, verification_keys,
                         epoch=epoch)


# ---------------------------------------------------------------------------
# The TCP frame layer
# ---------------------------------------------------------------------------
#
# A frame is a fixed 18-byte header followed by the payload:
#
#   offset  size  field        notes
#   0       4     magic        b"LJYW"
#   4       1     version      0x03 (FRAME_VERSION)
#   5       1     kind         H (hello) | J (job) | O (outcome) |
#                              E (error) | C (context update)
#   6       8     request id   u64 big-endian; pairs an outcome/error
#                              with the job that caused it, so one
#                              connection can hold many in-flight jobs
#                              (out-of-order completion).  0 for frames
#                              outside any request (HELLO, and the
#                              errors that refuse a broken handshake).
#   14      4     length       payload bytes, u32 BE, <= MAX_FRAME_BYTES
#   18      ...   payload      a WireCodec blob (J/O), a HELLO payload
#                              (H), a service-context blob (C) or a
#                              UTF-8 error message (E)
#
# The header carries everything a receiver needs to reject garbage
# *before* touching the payload: a wrong magic or version means the
# peer speaks a different protocol (close the connection — stream
# framing cannot be trusted past this point), an oversized length means
# a corrupt or hostile peer (never allocate it).  See
# ``docs/WIRE_FORMAT.md`` for the full spec and the compatibility rule.
#
# Version history: v1 had no C frame; v2 added it for live epoch
# transitions (a dispatcher pushing refreshed key material to running
# workers) and stamped jobs with the epoch; v3 added the request-id
# field and the optional PSK MAC in HELLO.  (v3 also briefly carried
# per-request job kinds ``Q``/``R``/``q``/``r``; they are retired and
# refused as unknown kinds — the header did not change, so the version
# did not either.)  Per the compatibility rule there is no negotiation — both
# ends upgrade together.  The version byte sits at the same offset in
# every version, so an old peer is always refused with a typed
# version-mismatch error, never parsed as garbage.

FRAME_MAGIC = b"LJYW"
FRAME_VERSION = 3
FRAME_HEADER_BYTES = 18
#: Upper bound on one frame's payload.  The largest legitimate payload
#: is a service context (a few KiB at n in the hundreds); 16 MiB leaves
#: three orders of magnitude of headroom while keeping a hostile length
#: field from turning into an allocation attack.
MAX_FRAME_BYTES = 16 * 1024 * 1024

FRAME_KIND_HELLO = b"H"
FRAME_KIND_JOB = b"J"
FRAME_KIND_OUTCOME = b"O"
FRAME_KIND_ERROR = b"E"
#: A context update pushed over a live connection: the payload is a full
#: service-context blob at a *newer* epoch.  The worker re-warms its
#: handle and answers with a fresh HELLO (its new digest) — the
#: in-place analogue of re-provisioning, so an epoch transition does
#: not tear down the worker fleet.
FRAME_KIND_CONTEXT = b"C"
FRAME_KINDS = (FRAME_KIND_HELLO, FRAME_KIND_JOB, FRAME_KIND_OUTCOME,
               FRAME_KIND_ERROR, FRAME_KIND_CONTEXT)


def encode_frame(kind: bytes, payload: bytes,
                 request_id: int = 0) -> bytes:
    """One wire frame: header (magic, version, kind, request id,
    length) + payload."""
    if kind not in FRAME_KINDS:
        raise SerializationError(f"unknown frame kind {kind!r}")
    if len(payload) > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    return FRAME_MAGIC + bytes([FRAME_VERSION]) + kind + \
        _u64(request_id) + _u32(len(payload)) + payload


def decode_frame_header(header: bytes) -> Tuple[bytes, int, int]:
    """Validate a frame header; returns ``(kind, request_id,
    payload_length)``.

    Raises :class:`~repro.errors.SerializationError` on anything that
    is not a well-formed current-version header.  A failure here means
    the byte stream cannot be re-synchronized (the length field is
    untrustworthy), so transports must close the connection rather than
    skip the frame.  The magic and version checks come first and sit at
    version-independent offsets, so a peer speaking an older frame
    version is refused with the version-mismatch error below — a typed
    refusal, never a misparse of its differently-shaped header.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise SerializationError(
            f"truncated frame header: {len(header)} of "
            f"{FRAME_HEADER_BYTES} bytes")
    if header[:4] != FRAME_MAGIC:
        raise SerializationError(
            f"bad frame magic {header[:4]!r} (expected {FRAME_MAGIC!r})")
    version = header[4]
    if version != FRAME_VERSION:
        raise SerializationError(
            f"unsupported frame version {version} (this end speaks "
            f"{FRAME_VERSION}; both ends must upgrade together)")
    kind = header[5:6]
    if kind not in FRAME_KINDS:
        raise SerializationError(f"unknown frame kind {kind!r}")
    request_id = int.from_bytes(header[6:14], "big")
    length = int.from_bytes(header[14:18], "big")
    if length > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
            "cap")
    return kind, request_id, length


def service_context_digest(context_blob: bytes) -> bytes:
    """SHA-256 of an encoded service context — the handshake's identity.

    Two endpoints agree on scheme, curve, threshold parameters, public
    key, shares and verification keys iff their context blobs are
    byte-identical (the encoding is canonical), so comparing digests at
    HELLO time catches every misprovisioning — wrong keys, wrong
    backend, stale committee — before any job is accepted.
    """
    return hashlib.sha256(context_blob).digest()


def hello_mac(psk: bytes, digest: bytes) -> bytes:
    """The HELLO authenticator: HMAC-SHA256 of the context digest under
    a pre-shared key.

    The digest already binds the whole service context, so MACing it
    proves the peer holds the deployment's PSK without adding a round
    trip — closing the gap where anyone who could *observe* a context
    blob (it contains no secrets a worker doesn't need, but it is not
    secret either) could speak the protocol.  An empty MAC field means
    "no PSK configured"; both ends must agree, exactly like the digest.
    """
    return hmac.new(psk, digest, hashlib.sha256).digest()


def encode_hello(group_name: str, digest: bytes,
                 mac: bytes = b"") -> bytes:
    """The HELLO frame payload: backend name + service-context digest +
    the (possibly empty) PSK authenticator from :func:`hello_mac`."""
    if len(digest) != 32:
        raise SerializationError(
            f"context digest must be 32 bytes, got {len(digest)}")
    if len(mac) not in (0, 32):
        raise SerializationError(
            f"hello MAC must be empty or 32 bytes, got {len(mac)}")
    return _packed(group_name.encode("utf-8")) + _packed(digest) + \
        _packed(mac)


def decode_hello(payload: bytes) -> Tuple[str, bytes, bytes]:
    """Parse a HELLO payload; returns ``(group_name, digest, mac)``."""
    reader = _Reader(payload)
    group_name = _utf8(reader.packed())
    digest = reader.packed()
    mac = reader.packed()
    reader.done()
    if len(digest) != 32:
        raise SerializationError(
            f"context digest must be 32 bytes, got {len(digest)}")
    if len(mac) not in (0, 32):
        raise SerializationError(
            f"hello MAC must be empty or 32 bytes, got {len(mac)}")
    return group_name, digest, mac
