"""Canonical sizes, encodings and the service wire format.

Two layers live here:

* **Size accounting** (the original contents): the paper's size claims
  (Section 3.1 and Section 4) are stated for Barreto-Naehrig curves at
  the 128-bit level: G elements take 256 bits, G_hat elements 512 bits.
  The ``measure_*`` functions report the *actual* encoded sizes of this
  library's objects so the experiment tables report measured numbers
  rather than constants copied from the paper.

* **The wire format** (:class:`WireCodec`, the job dataclasses and the
  record declarations): every record that crosses a process boundary —
  partials, signatures, verification keys, key shares, window jobs and
  outcomes, the write-ahead log's records, the service context and the
  HELLO payload — is declared once, as a :class:`Record` listing its
  fields in wire order, and one writer/reader pair (``_write`` /
  ``_read``) interprets every declaration.  ``decode(encode(x))``
  reproduces ``x`` and ``encode(decode(blob)) == blob`` on both
  backends.

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
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.keys import PartialSignature, PrivateKeyShare, PublicKey, \
    Signature, ThresholdParams, VerificationKey
from repro.core.scheme import LJYThresholdScheme, ServiceHandle
from repro.errors import ParameterError, SerializationError
from repro.groups import get_group
from repro.groups.api import BilinearGroup
from repro.sharing.shamir import validate_threshold


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


class Hello(NamedTuple):
    """A HELLO frame's payload: backend name, service-context digest
    and the (possibly empty) PSK authenticator from :func:`hello_mac`."""

    group_name: str
    digest: bytes
    mac: bytes = b""


class _Reader:
    """Bounds-checked reader over one blob; elements and scalars are
    read in ``group``."""

    __slots__ = ("data", "offset", "group")

    def __init__(self, data: bytes, group: Optional[BilinearGroup]):
        self.data = data
        self.offset = 0
        self.group = group

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


# -- field types --------------------------------------------------------------

class FieldType(NamedTuple):
    """A primitive: ``write(value, group) -> bytes``, ``read(reader)``."""

    write: Callable
    read: Callable


def _read_flag(reader: _Reader) -> bool:
    # Strict one-byte flags keep the encoding canonical, like the
    # refusal of unknown kinds and trailing bytes.
    flag = reader.take(1)
    if flag not in (b"\x00", b"\x01"):
        raise SerializationError(f"invalid status byte {flag!r}")
    return flag == b"\x01"


def _read_scalar(reader: _Reader) -> int:
    # Every encoder reduces mod the order, so a larger value would be a
    # second encoding of a canonical one.
    order = reader.group.order
    value = int.from_bytes(reader.take(scalar_bits(order) // 8), "big")
    if value >= order:
        raise SerializationError("scalar field is not below the group order")
    return value


def _read_group(reader: _Reader) -> BilinearGroup:
    try:
        reader.group = get_group(_utf8(reader.packed()))
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc
    return reader.group


def _sized(*lengths: int) -> FieldType:
    """Packed bytes whose length is one of ``lengths``."""
    def check(data: bytes) -> bytes:
        if len(data) not in lengths:
            raise SerializationError(
                f"field of {len(data)} bytes, expected one of {lengths}")
        return data
    return FieldType(lambda value, group: _packed(check(value)),
                     lambda reader: check(reader.packed()))


U32 = FieldType(lambda value, group: _u32(value), _Reader.u32)
U64 = FieldType(lambda value, group: _u64(value),
                lambda reader: int.from_bytes(reader.take(8), "big"))
BYTES = FieldType(lambda value, group: _packed(value), _Reader.packed)
STR = FieldType(lambda value, group: _packed(value.encode("utf-8")),
                lambda reader: _utf8(reader.packed()))
BOOL = FieldType(lambda value, group: b"\x01" if value else b"\x00",
                 _read_flag)
SCALAR = FieldType(lambda value, group: (value % group.order).to_bytes(
    scalar_bits(group.order) // 8, "big"), _read_scalar)
G1 = FieldType(lambda value, group: value.to_bytes(),
               lambda reader: reader.group.g1_from_bytes(
                   reader.take(reader.group.g1_bytes)))
G2 = FieldType(lambda value, group: value.to_bytes(),
               lambda reader: reader.group.g2_from_bytes(
                   reader.take(reader.group.g2_bytes)))
#: The backend, as its UTF-8 name; later elements are read in it.
GROUP = FieldType(lambda value, group: _packed(value.name.encode("utf-8")),
                  _read_group)


class Either:
    """A strict flag byte, then the ``(name, type)`` field ``if_1``
    (flag 0x01) when its value is not None, else ``if_0`` (flag 0x00).
    Decoding leaves the other name unset."""

    def __init__(self, if_0: tuple, if_1: tuple):
        self.if_0, self.if_1 = if_0, if_1
        self.names = (if_0[0], if_1[0])


class ListOf:
    """A u32 count, then that many rows of ``fields``.  Each field name
    holds a column: a tuple with one value per row (None where an
    :class:`Either` left it unset)."""

    def __init__(self, *fields):
        self.fields = fields
        self.names = tuple(name for field in fields for name in (
            (field[0],) if type(field) is tuple else field.names))


class Record:
    """The one declaration of a record: its name, kind tag (``b""`` when
    untagged), the class it decodes to, and its fields in wire order —
    each a ``(name, type)`` pair (the type a :class:`FieldType` or an
    untagged nested :class:`Record`), an :class:`Either` or a
    :class:`ListOf`.  ``to_wire`` maps a value to its field values and
    ``from_wire`` takes them back as keyword arguments: ``vars`` and the
    class itself for a dataclass whose attributes are its fields.
    """

    def __init__(self, name: str, kind: bytes, cls, fields: tuple,
                 to_wire: Callable = vars,
                 from_wire: Optional[Callable] = None):
        self.name, self.kind, self.cls, self.fields = name, kind, cls, fields
        self.to_wire = to_wire
        self.from_wire = from_wire or cls

    def encode(self, value, group: Optional[BilinearGroup]) -> bytes:
        out = [self.kind]
        _write(self.fields, self.to_wire(value), group, out)
        return b"".join(out)

    def decode(self, blob: bytes, group: Optional[BilinearGroup]):
        reader = _Reader(blob, group)
        if reader.take(len(self.kind)) != self.kind:
            raise SerializationError(f"not a {self.name} blob")
        value = self.from_wire(**_read(self.fields, reader, {}))
        reader.done()
        return value


def _write(fields, values: dict, group, out: list) -> None:
    """Append the encoding of ``values`` under ``fields`` to ``out``."""
    for field in fields:
        if type(field) is tuple:
            name, kind = field
            if type(kind) is Record:
                out.append(kind.encode(values[name], group))
            else:
                out.append(kind.write(values[name], group))
        elif type(field) is Either:
            chosen = field.if_1 if values[field.if_1[0]] is not None \
                else field.if_0
            if values[chosen[0]] is None:
                raise SerializationError(
                    f"either-of field needs {field.if_1[0]} or "
                    f"{field.if_0[0]}")
            out.append(b"\x01" if chosen is field.if_1 else b"\x00")
            _write((chosen,), values, group, out)
        else:
            columns = [values[name] for name in field.names]
            count = len(columns[0])
            if any(len(column) != count for column in columns):
                raise SerializationError(
                    f"list columns {field.names} differ in length")
            out.append(_u32(count))
            for row in zip(*columns):
                _write(field.fields, dict(zip(field.names, row)), group, out)


def _read(fields, reader: _Reader, values: dict) -> dict:
    """Read ``fields`` into ``values``; returns ``values``."""
    for field in fields:
        if type(field) is tuple:
            name, kind = field
            if type(kind) is Record:
                values[name] = kind.from_wire(**_read(kind.fields, reader, {}))
            else:
                values[name] = kind.read(reader)
        elif type(field) is Either:
            _read((field.if_1 if _read_flag(reader) else field.if_0,),
                  reader, values)
        else:
            rows = [_read(field.fields, reader, {})
                    for _ in range(reader.u32())]
            for name in field.names:
                values[name] = tuple(row.get(name) for row in rows)
    return values


class _Family:
    """Records sharing one kind-tag namespace: encoding dispatches on
    the value's class, decoding on the leading tag byte."""

    def __init__(self, name: str, *records: Record):
        self.name = name
        self.by_kind = {record.kind: record for record in records}
        self.by_class = {record.cls: record for record in records}

    def encode(self, value, group) -> bytes:
        record = self.by_class.get(type(value))
        if record is None:
            raise SerializationError(
                f"unknown {self.name} type {type(value).__name__}")
        return record.encode(value, group)

    def decode(self, blob: bytes, group):
        record = self.by_kind.get(blob[:1])
        if record is None:
            raise SerializationError(f"unknown {self.name} kind {blob[:1]!r}")
        return record.decode(blob, group)


# -- the records --------------------------------------------------------------

def _sign_outcome_to_wire(outcome: SignWindowOutcome) -> dict:
    """Per position: the signature, or else its failure reason."""
    reasons = dict(outcome.failures)
    return {**vars(outcome), "failures": tuple(
        reasons.get(position) for position in range(len(outcome.signatures)))}


def _sign_outcome_from_wire(failures, **fields) -> SignWindowOutcome:
    return SignWindowOutcome(failures=tuple(
        (position, reason) for position, reason in enumerate(failures)
        if reason is not None), **fields)


def _context_to_wire(handle: ServiceHandle) -> dict:
    # Only an LJYThresholdScheme handle is carried: the context has no
    # field for a subclass's hash, so a decoded Appendix G context would
    # sign H(M) where its handle signs H(PK || M).
    scheme = handle.scheme
    if type(scheme) is not LJYThresholdScheme:
        raise TypeError(
            f"the service context carries LJYThresholdScheme handles "
            f"only, not {type(scheme).__name__}")
    # t, n, hash_domain, the group and generators from the parameters,
    # g_1 and g_2 from the public key (their other attributes go unread).
    return {**vars(scheme.params), **vars(handle.public_key),
            "epoch": handle.epoch,
            "shares": tuple(dict(sorted(handle.shares.items())).values()),
            "verification_keys": tuple(
                dict(sorted(handle.verification_keys.items())).values())}


def _context_from_wire(epoch, group, t, n, hash_domain, g_z, g_r, g_1, g_2,
                       shares, verification_keys) -> ServiceHandle:
    try:
        validate_threshold(t, n)
    except ParameterError as exc:
        raise SerializationError(f"service context: {exc}") from exc
    for label, items in (("share", shares),
                         ("verification key", verification_keys)):
        indices = [item.index for item in items]
        if indices != sorted(set(indices)) or not all(
                1 <= index <= n for index in indices):
            raise SerializationError(
                f"service context {label} indices {indices} are not "
                f"distinct, ascending and within 1..{n}")
    params = ThresholdParams(group=group, t=t, n=n, g_z=g_z, g_r=g_r,
                             hash_domain=hash_domain)
    return ServiceHandle(
        LJYThresholdScheme(params), PublicKey(params=params, g_1=g_1, g_2=g_2),
        {share.index: share for share in shares},
        {vk.index: vk for vk in verification_keys}, epoch=epoch)


PARTIAL = Record("partial", b"", PartialSignature,
                 (("index", U32), ("z", G1), ("r", G1)))
SIGNATURE = Record("signature", b"", Signature, (("z", G1), ("r", G1)))
VERIFICATION_KEY = Record("verification_key", b"", VerificationKey,
                          (("index", U32), ("v_1", G2), ("v_2", G2)))
SHARE = Record("share", b"", PrivateKeyShare,
               (("index", U32), ("a_1", SCALAR), ("b_1", SCALAR),
                ("a_2", SCALAR), ("b_2", SCALAR)))
SIGN_JOB = Record("sign_job", KIND_SIGN_JOB, SignWindowJob, (
    ("shard_id", U32), ("epoch", U32),
    ListOf(("messages", BYTES)), ListOf(("quorum", U32))))
VERIFY_JOB = Record("verify_job", KIND_VERIFY_JOB, VerifyWindowJob, (
    ("shard_id", U32), ("epoch", U32),
    ListOf(("messages", BYTES), ("signatures", SIGNATURE))))
PARTIAL_JOB = Record("partial_job", KIND_PARTIAL_JOB, PartialSignJob, (
    ("shard_id", U32), ("epoch", U32), ("message", BYTES),
    ListOf(("signers", U32))))
SIGN_OUTCOME = Record(
    "sign_outcome", KIND_SIGN_OUTCOME, SignWindowOutcome, (
        ListOf(Either(("failures", STR), ("signatures", SIGNATURE))),
        ListOf(("flagged", U32)), ("fallback_combines", U32)),
    to_wire=_sign_outcome_to_wire, from_wire=_sign_outcome_from_wire)
VERIFY_OUTCOME = Record("verify_outcome", KIND_VERIFY_OUTCOME,
                        VerifyWindowOutcome, (ListOf(("verdicts", BOOL)),))
PARTIAL_OUTCOME = Record("partial_outcome", KIND_PARTIAL_OUTCOME,
                         PartialSignOutcome, (ListOf(("partials", PARTIAL)),))
#: The write-ahead log's records; the on-disk log adds its own
#: length+CRC storage framing on top (:mod:`repro.service.wal`).
WAL_ADMIT = Record("wal_admit", KIND_WAL_ADMIT, WalAdmitRecord, (
    ("request_id", U64), ("epoch", U32), ("message", BYTES)))
WAL_DONE = Record("wal_done", KIND_WAL_DONE, WalDoneRecord, (
    ("request_id", U64), Either(("reason", STR), ("signature", SIGNATURE))))
#: Everything a worker process needs to rebuild a ServiceHandle: the
#: key-lifecycle epoch, backend, threshold parameters (with the derived
#: generators inline, so no derivation assumptions survive the wire),
#: public key, key shares and verification keys, both sorted by index.
CONTEXT = Record("context", KIND_CONTEXT, ServiceHandle, (
    ("epoch", U32), ("group", GROUP), ("t", U32), ("n", U32),
    ("hash_domain", STR), ("g_z", G2), ("g_r", G2), ("g_1", G2), ("g_2", G2),
    ListOf(("shares", SHARE)), ListOf(("verification_keys", VERIFICATION_KEY))),
    to_wire=_context_to_wire, from_wire=_context_from_wire)
HELLO = Record("hello", b"", Hello, (
    ("group_name", STR), ("digest", _sized(32)), ("mac", _sized(0, 32))),
    to_wire=Hello._asdict)

#: Every declared record, by name.
RECORDS: Dict[str, Record] = {record.name: record for record in (
    PARTIAL, SIGNATURE, VERIFICATION_KEY, SHARE, SIGN_JOB, VERIFY_JOB,
    PARTIAL_JOB, SIGN_OUTCOME, VERIFY_OUTCOME, PARTIAL_OUTCOME, WAL_ADMIT,
    WAL_DONE, CONTEXT, HELLO)}

_JOBS = _Family("job", SIGN_JOB, VERIFY_JOB, PARTIAL_JOB)
_OUTCOMES = _Family("outcome", SIGN_OUTCOME, VERIFY_OUTCOME, PARTIAL_OUTCOME)
_WAL_RECORDS = _Family("WAL record", WAL_ADMIT, WAL_DONE)
_CONTEXTS = _Family("service context", CONTEXT)


def _codec_pair(declaration):
    """:class:`WireCodec`'s ``(encode, decode)`` methods for one record
    or family."""
    return (lambda self, value: declaration.encode(value, self.group),
            lambda self, blob: declaration.decode(blob, self.group))


class WireCodec:
    """The declared records' codecs for one bilinear-group backend
    (element fields are ``group.g1_bytes`` / ``group.g2_bytes`` wide,
    scalars the group order's byte length)."""

    def __init__(self, group: BilinearGroup):
        self.group = group

    encode_partial, decode_partial = _codec_pair(PARTIAL)
    encode_signature, decode_signature = _codec_pair(SIGNATURE)
    encode_verification_key, decode_verification_key = \
        _codec_pair(VERIFICATION_KEY)
    encode_share, decode_share = _codec_pair(SHARE)
    encode_job, decode_job = _codec_pair(_JOBS)
    encode_outcome, decode_outcome = _codec_pair(_OUTCOMES)
    encode_wal_record, decode_wal_record = _codec_pair(_WAL_RECORDS)


def encode_service_context(handle: ServiceHandle) -> bytes:
    """The :data:`CONTEXT` blob of ``handle`` — the simulation's
    stand-in for provisioning (a real deployment ships each server only
    its own share).  Raises :class:`TypeError` for a handle whose scheme
    is not exactly :class:`~repro.core.scheme.LJYThresholdScheme`."""
    return _CONTEXTS.encode(handle, handle.scheme.group)


def decode_service_context(blob: bytes) -> ServiceHandle:
    """Rebuild the :class:`~repro.core.scheme.ServiceHandle` of an
    :func:`encode_service_context` blob.  An unknown backend, an invalid
    ``(t, n)``, or share or VK indices that are repeated, unsorted or
    outside 1..n are refused with :class:`SerializationError`."""
    return _CONTEXTS.decode(blob, None)


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
# Version history (v1 no C frame, v2 epochs, v3 request ids and the
# PSK MAC) is in the doc.  There is no negotiation: both ends upgrade
# together, and the version byte sits at the same offset in every
# version, so an old peer is refused with a typed version mismatch.

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
    """The :data:`HELLO` frame payload: a 32-byte context digest and an
    empty or 32-byte MAC."""
    return HELLO.encode(Hello(group_name, digest, mac), None)


def decode_hello(payload: bytes) -> Hello:
    """Parse a HELLO payload; returns ``(group_name, digest, mac)``."""
    return HELLO.decode(payload, None)
