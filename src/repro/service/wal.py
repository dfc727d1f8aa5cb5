"""Crash-safe write-ahead log for admitted sign requests.

The service's durability contract (the gap this module closes): a
request that cleared admission control is an *obligation*.  Before this
log existed, a crash of the service process silently dropped every
queued and in-flight request; now each admitted sign request is
appended as a :class:`~repro.serialization.WalAdmitRecord`, each
settlement (signature delivered, or a typed rejection) as a
:class:`~repro.serialization.WalDoneRecord`, and
:class:`~repro.service.frontend.SigningService` start-up replays every
unsettled admit through the normal signing path.  LJY partial signing
is deterministic, so replaying a request that was signed but not yet
acknowledged reproduces the byte-identical signature — a crash between
sign and ack can never produce a lost *or* double-served request.

**Storage framing.**  The log is append-only; each record is::

    offset  size  field
    0       4     length   payload bytes, u32 big-endian
    4       4     crc32    zlib.crc32(payload), u32 big-endian
    8       ...   payload  a WireCodec WAL record blob ("W" admit /
                           "w" done — byte layout: docs/WIRE_FORMAT.md)

A SIGKILL or power loss mid-append leaves a torn tail: a short header or
payload, a CRC mismatch, or zeros (length 0; no record is empty).
:meth:`WriteAheadLog.open` scans from the start, keeps the longest valid
prefix, and truncates the rest — a torn record is by definition one whose
admit was never acknowledged to any caller, so discarding it is correct,
not lossy.  A CRC-valid record that does not decode was written whole:
the scan refuses it (:class:`SerializationError`, naming its offset).

**Fsync batching.**  Appends go to the OS via a buffered file; nothing
is forced to disk per request.  The shard worker calls :meth:`sync`
once per *closed window* — before anything of it is combined (its
Share-Sign may already have run while the window formed; a crash
discards that) — so one ``fsync`` covers every admit and the admit is
durable before any completion can be observed.  Done records ride the
next window's sync (or the close on shutdown); losing a done record to
a crash costs one idempotent replay, never correctness.
"""

from __future__ import annotations

import os
import pathlib
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.serialization import (
    MAX_FRAME_BYTES, WalAdmitRecord, WalDoneRecord, WireCodec, _u32,
)
from repro.errors import SerializationError

#: Per-record storage header: u32 payload length + u32 CRC-32.
RECORD_HEADER_BYTES = 8
#: Payload cap, shared with the TCP frame layer: a corrupt length field
#: must never turn into a 4 GiB allocation.
MAX_RECORD_BYTES = MAX_FRAME_BYTES


@dataclass
class WalStats:
    """Durability accounting for one log instance."""

    #: Admit records appended by this instance.
    admits: int = 0
    #: Done records appended by this instance.
    dones: int = 0
    #: fsync calls issued (one per closed window, not per record).
    syncs: int = 0
    #: Unsettled admits found at open — the replay obligation.
    recovered: int = 0
    #: Done records at open with no matching admit (settled in a
    #: previous incarnation whose admit was already compacted away, or
    #: an artifact of manual surgery; tolerated, counted, ignored).
    orphan_dones: int = 0
    #: Bytes of torn tail discarded at open (0 after a clean shutdown).
    torn_bytes: int = 0


def frame_record(payload: bytes) -> bytes:
    """Wrap one WAL payload in the storage framing (length + CRC)."""
    if len(payload) > MAX_RECORD_BYTES:
        raise SerializationError(
            f"WAL record payload of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte cap")
    return _u32(len(payload)) + _u32(zlib.crc32(payload)) + payload


def scan_records(path, codec: WireCodec
                 ) -> Tuple[List[object], int, int]:
    """Scan a WAL file; returns ``(records, good_bytes, torn_bytes)``.

    ``records`` is every record in append order; ``good_bytes`` is the
    offset of the first byte that fails the storage framing (short
    header/payload, empty or oversized length, CRC mismatch) — the torn
    tail.  A CRC-valid record that does not decode raises
    :class:`SerializationError`.  A missing file scans as empty.
    """
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0, 0
    records: List[object] = []
    offset = 0
    while offset + RECORD_HEADER_BYTES <= len(data):
        length = int.from_bytes(data[offset:offset + 4], "big")
        crc = int.from_bytes(data[offset + 4:offset + 8], "big")
        end = offset + RECORD_HEADER_BYTES + length
        if length == 0 or length > MAX_RECORD_BYTES or end > len(data):
            break
        payload = data[offset + RECORD_HEADER_BYTES:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(codec.decode_wal_record(payload))
        except SerializationError as exc:
            raise SerializationError(
                f"WAL record at offset {offset} of {path} passes its CRC "
                f"but does not decode: {exc}") from exc
        offset = end
    return records, offset, len(data) - offset


@dataclass
class WalLedger:
    """One fold over a scanned WAL, read by replay and by every audit:
    the first admit per id (in admit order) and each id's settlements."""

    admits: Dict[int, WalAdmitRecord] = field(default_factory=dict)
    settlements: Dict[int, List[WalDoneRecord]] = field(default_factory=dict)
    duplicate_admits: List[int] = field(default_factory=list)
    #: Settlements with no earlier admit (tolerated, counted).
    orphan_dones: int = 0
    highest_id: int = 0
    max_epoch: int = 0
    torn_bytes: int = 0

    @classmethod
    def read(cls, path, codec: WireCodec) -> "WalLedger":
        records, _, torn_bytes = scan_records(path, codec)
        ledger = cls(torn_bytes=torn_bytes)
        for record in records:
            request_id = record.request_id
            ledger.highest_id = max(ledger.highest_id, request_id)
            if isinstance(record, WalDoneRecord):
                ledger.settlements.setdefault(request_id, []).append(record)
                ledger.orphan_dones += request_id not in ledger.admits
                continue
            ledger.max_epoch = max(ledger.max_epoch, record.epoch)
            if request_id in ledger.admits:
                ledger.duplicate_admits.append(request_id)
            ledger.admits.setdefault(request_id, record)
        return ledger

    @property
    def pending(self) -> Dict[int, bytes]:
        """Unsettled admits, ``request_id -> message``, in admit order."""
        return {request_id: admit.message
                for request_id, admit in self.admits.items()
                if request_id not in self.settlements}

    def violations(self, verify: Callable[[bytes, object], bool]
                   ) -> List[str]:
        """Each breach by request id: a second admit, an admit not settled
        exactly once, a settlement not verifying under ``verify`` (one key
        for all epochs) on its admit's message, a drop in admit epoch."""
        found = [f"request {request_id} admitted twice"
                 for request_id in self.duplicate_admits]
        newest = 0
        for request_id, admit in self.admits.items():
            if admit.epoch < newest:
                found.append(f"request {request_id} admitted at epoch "
                             f"{admit.epoch} after an epoch-{newest} admit")
            newest = max(newest, admit.epoch)
            dones = self.settlements.get(request_id, [])
            if len(dones) != 1:
                found.append(f"request {request_id} settled {len(dones)} "
                             "times (exactly-once violated)")
            found += [f"request {request_id} settled without a verifying "
                      "signature" for done in dones if done.signature is None
                      or not verify(admit.message, done.signature)]
        return found


class WriteAheadLog:
    """Append-only durability log for one :class:`SigningService`.

    Use :meth:`open` (it scans, truncates the torn tail, and computes
    the replay set); the constructor alone does not touch the disk.
    """

    def __init__(self, path, codec: WireCodec, ledger: WalLedger):
        self.path = pathlib.Path(path)
        self.codec = codec
        #: Unsettled admits, maintained live (tests watch them drain).
        self.pending: Dict[int, bytes] = ledger.pending
        self.stats = WalStats(recovered=len(self.pending),
                              orphan_dones=ledger.orphan_dones,
                              torn_bytes=ledger.torn_bytes)
        #: Highest key-lifecycle epoch any admit in this log carries
        #: (scanned records and live appends alike).  A restart must
        #: refuse to serve with key material older than this — see
        #: ``SigningService.start`` — or a crash mid-transition would
        #: silently resume on pre-transition shares.
        self.max_epoch_seen = ledger.max_epoch
        self._file = None
        self._dirty = False
        self._next_id = ledger.highest_id + 1

    @classmethod
    def open(cls, path, codec: WireCodec) -> "WriteAheadLog":
        """Open (creating if absent), discard any torn tail, and build
        the replay state from the surviving records."""
        ledger = WalLedger.read(path, codec)
        wal = cls(path, codec, ledger)
        wal.path.parent.mkdir(parents=True, exist_ok=True)
        wal._file = open(wal.path, "a+b")
        if ledger.torn_bytes:
            # The torn tail is a record nobody was ever acknowledged
            # for; drop it so the next append starts on a boundary.
            wal._file.truncate(wal.path.stat().st_size - ledger.torn_bytes)
        wal._file.seek(0, os.SEEK_END)
        return wal

    @property
    def closed(self) -> bool:
        return self._file is None

    # -- appends (buffered; durable at the next sync) ------------------------
    def append_admit(self, message: bytes, epoch: int = 0) -> int:
        """Record one admitted sign request; returns its request id."""
        request_id = self._next_id
        self._next_id += 1
        self._append(self.codec.encode_wal_record(
            WalAdmitRecord(request_id=request_id, message=message,
                           epoch=epoch)))
        self.pending[request_id] = message
        self.max_epoch_seen = max(self.max_epoch_seen, epoch)
        self.stats.admits += 1
        return request_id

    def append_done(self, request_id: int,
                    signature=None, reason: str = "") -> None:
        """Settle one admit: a signature, or a typed-rejection reason."""
        self._append(self.codec.encode_wal_record(WalDoneRecord(
            request_id=request_id, signature=signature, reason=reason)))
        self.pending.pop(request_id, None)
        self.stats.dones += 1

    def _append(self, payload: bytes) -> None:
        if self._file is None:
            raise SerializationError("write-ahead log is closed")
        self._file.write(frame_record(payload))
        self._dirty = True

    # -- durability barrier ---------------------------------------------------
    def sync(self) -> None:
        """Force buffered appends to disk (no-op when nothing is
        pending — an idle window must not cost an fsync)."""
        if self._file is None or not self._dirty:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._dirty = False
        self.stats.syncs += 1

    def close(self) -> None:
        if self._file is None:
            return
        self.sync()
        self._file.close()
        self._file = None
