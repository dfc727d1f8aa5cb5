"""Tests for the crash-safe durability layer: WAL record codecs, the
on-disk log (torn tails, orphan settlements, replay bookkeeping),
service-level recovery on both group backends, and request deadlines.

The crash simulations write admit records without settlements — exactly
the disk state a SIGKILL leaves behind — then start a service against
the same path and check the recovery contract: every obligation settles
exactly once, with a signature that verifies under the unchanged public
key, and a second restart has nothing left to replay.
"""

import asyncio
import random
import zlib

import pytest

from repro.core.scheme import LJYThresholdScheme, ServiceHandle
from repro.errors import SerializationError
from repro.serialization import WalAdmitRecord, WalDoneRecord, WireCodec
from repro.service import (
    RequestExpiredError, ServiceConfig, SigningService, WriteAheadLog,
)
from repro.service.wal import frame_record, scan_records


@pytest.fixture
def handle(toy_group):
    return ServiceHandle.dealer(toy_group, 2, 5, rng=random.Random(11))


@pytest.fixture
def codec(toy_group):
    return WireCodec(toy_group)


def run(coroutine):
    return asyncio.run(coroutine)


def write_admits(path, codec, messages, start_id=1):
    """Craft the post-SIGKILL disk state: admits, no settlements."""
    with open(path, "ab") as log:
        for offset, message in enumerate(messages):
            log.write(frame_record(codec.encode_wal_record(
                WalAdmitRecord(request_id=start_id + offset,
                               message=message))))


# ---------------------------------------------------------------------------
# Record codecs
# ---------------------------------------------------------------------------

class TestWalRecordCodec:
    def test_admit_round_trip(self, codec):
        record = WalAdmitRecord(request_id=7, message=b"durable doc")
        blob = codec.encode_wal_record(record)
        assert codec.decode_wal_record(blob) == record
        assert codec.encode_wal_record(codec.decode_wal_record(blob)) == blob

    def test_done_round_trips_signature_and_rejection(self, codec, handle):
        signature = handle.sign(b"signed")
        done = WalDoneRecord(request_id=7, signature=signature)
        decoded = codec.decode_wal_record(codec.encode_wal_record(done))
        assert decoded.request_id == 7
        assert codec.encode_signature(decoded.signature) == \
            codec.encode_signature(signature)

        shed = WalDoneRecord(request_id=9, reason="deadline exceeded")
        decoded = codec.decode_wal_record(codec.encode_wal_record(shed))
        assert decoded == shed
        assert decoded.signature is None

    def test_truncation_trailing_and_bad_kind_rejected(self, codec):
        blob = codec.encode_wal_record(
            WalAdmitRecord(request_id=1, message=b"m"))
        with pytest.raises(SerializationError):
            codec.decode_wal_record(blob[:-1])
        with pytest.raises(SerializationError):
            codec.decode_wal_record(blob + b"\x00")
        with pytest.raises(SerializationError):
            codec.decode_wal_record(b"?" + blob[1:])

    def test_bad_done_status_byte_rejected(self, codec):
        blob = bytearray(codec.encode_wal_record(
            WalDoneRecord(request_id=1, reason="r")))
        blob[9] = 2                 # kind(1) + u64 id(8), then status
        with pytest.raises(SerializationError, match="status"):
            codec.decode_wal_record(bytes(blob))


# ---------------------------------------------------------------------------
# The on-disk log
# ---------------------------------------------------------------------------

class TestLogScan:
    def test_missing_and_empty_files_scan_clean(self, tmp_path, codec):
        records, good, torn = scan_records(tmp_path / "absent.wal", codec)
        assert (records, good, torn) == ([], 0, 0)
        empty = tmp_path / "empty.wal"
        empty.write_bytes(b"")
        assert scan_records(empty, codec) == ([], 0, 0)

    @pytest.mark.parametrize("torn_tail", [
        b"\x00\x00",                             # short storage header
        b"\x00\x00\x00\x40\x00\x00\x00\x00ab",   # short payload
        b"\xff\xff\xff\xff\x00\x00\x00\x00",     # oversized length field
    ])
    def test_torn_tail_keeps_valid_prefix(self, tmp_path, codec,
                                          torn_tail):
        path = tmp_path / "torn.wal"
        write_admits(path, codec, [b"one", b"two"])
        good_bytes = path.stat().st_size
        with open(path, "ab") as log:
            log.write(torn_tail)
        records, good, torn = scan_records(path, codec)
        assert [record.message for record in records] == [b"one", b"two"]
        assert good == good_bytes
        assert torn == len(torn_tail)

    def test_crc_mismatch_cuts_the_scan(self, tmp_path, codec):
        path = tmp_path / "flipped.wal"
        write_admits(path, codec, [b"ok", b"corrupted"])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF            # flip a bit in the last payload
        path.write_bytes(bytes(data))
        records, _, torn = scan_records(path, codec)
        assert [record.message for record in records] == [b"ok"]
        assert torn > 0

    def test_open_truncates_torn_tail_once(self, tmp_path, codec):
        path = tmp_path / "truncate.wal"
        write_admits(path, codec, [b"kept"])
        with open(path, "ab") as log:
            log.write(b"\x00\x00\x00\x08\xde\xad\xbe\xef")
        wal = WriteAheadLog.open(path, codec)
        assert wal.stats.torn_bytes == 8
        assert list(wal.pending.values()) == [b"kept"]
        wal.append_admit(b"appended after truncation")
        wal.close()
        records, _, torn = scan_records(path, codec)
        assert torn == 0            # the tail was cut, appends align
        assert [record.message for record in records] == \
            [b"kept", b"appended after truncation"]

    @pytest.fixture
    def three_records(self, codec, handle):
        """A log holding an admit, a done with a signature and a done
        with a reason (an orphan): its bytes and each record's end."""
        records = [
            WalAdmitRecord(request_id=1, message=b"swept", epoch=2),
            WalDoneRecord(request_id=1, signature=handle.sign(b"swept")),
            WalDoneRecord(request_id=7, reason="shed: déjà vu"),
        ]
        data, ends = b"", []
        for record in records:
            data += frame_record(codec.encode_wal_record(record))
            ends.append(len(data))
        return data, ends

    @staticmethod
    def _open_and_check(path, codec, data, kept):
        """``WriteAheadLog.open`` over ``data``: exactly the first
        ``kept`` records survive, and the file is cut back to them."""
        path.write_bytes(data)
        records, good, torn = scan_records(path, codec)
        assert len(records) == kept
        assert good + torn == len(data)
        wal = WriteAheadLog.open(path, codec)
        try:
            assert wal.stats.torn_bytes == torn
            assert wal.pending == ({1: b"swept"} if kept == 1 else {})
            assert wal.max_epoch_seen == (2 if kept else 0)
            assert wal.stats.orphan_dones == (1 if kept == 3 else 0)
        finally:
            wal.close()
        assert path.stat().st_size == good
        return good

    def test_every_cut_keeps_the_longest_valid_prefix(
            self, tmp_path, codec, three_records):
        data, ends = three_records
        path = tmp_path / "cut.wal"
        for cut in range(len(data) + 1):
            kept = sum(1 for end in ends if end <= cut)
            good = self._open_and_check(path, codec, data[:cut], kept)
            assert good == ([0] + ends)[kept], cut

    def test_every_flipped_byte_cuts_at_its_record(
            self, tmp_path, codec, three_records):
        data, ends = three_records
        path = tmp_path / "flipped.wal"
        for position in range(len(data)):
            flipped = bytearray(data)
            flipped[position] ^= 0xFF
            kept = sum(1 for end in ends if end <= position)
            good = self._open_and_check(path, codec, bytes(flipped), kept)
            assert good == ([0] + ends)[kept], position

    @pytest.mark.parametrize("backend", [
        "toy", pytest.param("bn254", marks=pytest.mark.bn254)])
    def test_record_decoder_refuses_with_a_type(self, backend):
        """Behind the CRC the decoder sees only whole payloads; still,
        every cut and every flipped byte of each kind of payload either
        decodes or is a :class:`SerializationError`."""
        from repro.groups import get_group
        group = get_group(backend)
        codec = WireCodec(group)
        signer = ServiceHandle.dealer(group, 1, 3, rng=random.Random(4))
        for record in (
                WalAdmitRecord(request_id=3, message=b"m\xff", epoch=1),
                WalDoneRecord(request_id=3, signature=signer.sign(b"m")),
                WalDoneRecord(request_id=3, reason="réason")):
            blob = codec.encode_wal_record(record)
            variants = [blob[:cut] for cut in range(len(blob))]
            for position in range(len(blob)):
                flipped = bytearray(blob)
                flipped[position] ^= 0xFF
                variants.append(bytes(flipped))
            for variant in variants:
                try:
                    codec.decode_wal_record(variant)
                except SerializationError:
                    pass

    def test_orphan_done_is_tolerated_and_counted(self, tmp_path, codec):
        path = tmp_path / "orphan.wal"
        with open(path, "ab") as log:
            log.write(frame_record(codec.encode_wal_record(
                WalDoneRecord(request_id=42, reason="no admit"))))
        wal = WriteAheadLog.open(path, codec)
        assert wal.stats.orphan_dones == 1
        assert wal.stats.recovered == 0
        assert not wal.pending
        # Ids keep climbing past the orphan — no reuse.
        assert wal.append_admit(b"next") == 43
        wal.close()

    def test_pending_tracks_admits_until_settled(self, tmp_path, codec,
                                                 handle):
        wal = WriteAheadLog.open(tmp_path / "pending.wal", codec)
        first = wal.append_admit(b"first")
        second = wal.append_admit(b"second")
        assert list(wal.pending) == [first, second]
        wal.append_done(first, signature=handle.sign(b"first"))
        wal.append_done(second, reason="shed")
        assert not wal.pending
        wal.sync()
        assert wal.stats.syncs == 1
        wal.sync()                  # clean log: no second fsync
        assert wal.stats.syncs == 1
        wal.close()


# ---------------------------------------------------------------------------
# Service-level recovery
# ---------------------------------------------------------------------------

class TestServiceRecovery:
    @pytest.fixture(params=[
        "toy", pytest.param("bn254", marks=pytest.mark.bn254)])
    def backend_handle(self, request, toy_group, bn254_group):
        group = toy_group if request.param == "toy" else bn254_group
        return ServiceHandle.dealer(group, 2, 5, rng=random.Random(11))

    def config(self, wal_path, **overrides):
        settings = dict(num_shards=2, max_batch=4, max_wait_ms=2.0,
                        wal_path=wal_path)
        settings.update(overrides)
        return ServiceConfig(**settings)

    def test_clean_run_leaves_no_pending_obligations(self, handle,
                                                     tmp_path):
        wal_path = tmp_path / "service.wal"

        async def scenario():
            async with SigningService(handle,
                                      self.config(wal_path)) as service:
                results = await asyncio.gather(
                    *(service.sign(b"doc %d" % i) for i in range(10)))
                await service.verify(results[0].message,
                                     results[0].signature)
            return service

        service = run(scenario())
        assert service.stats.completed == 11
        wal = WriteAheadLog.open(wal_path, WireCodec(handle.scheme.group))
        assert not wal.pending
        # Verify requests are stateless reads: 10 admits, not 11.
        assert sum(1 for r in scan_records(wal_path, wal.codec)[0]
                   if isinstance(r, WalAdmitRecord)) == 10
        wal.close()

    def test_one_fsync_per_closed_window_not_per_request(self, handle,
                                                        tmp_path):
        total = 16

        async def scenario():
            config = self.config(tmp_path / "sync.wal", num_shards=1)
            async with SigningService(handle, config) as service:
                wal = service.wal
                await asyncio.gather(
                    *(service.sign(b"doc %d" % i) for i in range(total)))
            return wal.stats, service.stats.shards[0].windows

        wal_stats, windows = run(scenario())
        assert wal_stats.admits == wal_stats.dones == total
        assert windows >= total // 4
        # The barrier rides the window close (plus one sync at close()
        # for the last window's done records).
        assert wal_stats.syncs <= windows + 1
        assert wal_stats.syncs < total

    def test_nothing_is_combined_or_settled_before_the_windows_sync(
            self, handle, tmp_path, monkeypatch):
        """Share-Sign of an admitted request may run before its admit
        is durable (at arrival, while the window forms); Combine and the
        done record may not.  Trickled arrivals, so windows pre-sign."""
        events = []

        def spy(owner, name, label):
            original = getattr(owner, name)

            def recorder(self, *args, **kwargs):
                events.append(label(*args, **kwargs))
                return original(self, *args, **kwargs)
            monkeypatch.setattr(owner, name, recorder)

        spy(ServiceHandle, "partials_with_faults",
            lambda messages, *a, **k: ("partials", tuple(messages)))
        spy(ServiceHandle, "process_sign_window",
            lambda messages, **k: ("window", tuple(messages)))
        spy(LJYThresholdScheme, "combine_window",
            lambda pk, vks, windows, **k: (
                "combine", tuple(m for m, _ in windows)))
        spy(WriteAheadLog, "sync", lambda: ("sync",))
        spy(WriteAheadLog, "append_admit",
            lambda message, **k: ("admit", message))
        spy(WriteAheadLog, "append_done", lambda request_id, **k: ("done",))
        messages = [b"ordered %d" % i for i in range(9)]

        async def one(service, message, delay):
            await asyncio.sleep(delay)
            return await service.sign(message)

        async def scenario():
            config = self.config(tmp_path / "order.wal", num_shards=1,
                                 max_batch=3, max_wait_ms=5.0)
            async with SigningService(handle, config) as service:
                await asyncio.gather(*(
                    one(service, message, 0.001 * position)
                    for position, message in enumerate(messages)))
            return service.stats.shards[0]

        stats = run(scenario())
        assert stats.presigned > 0
        durable, admitted, dones = set(), [], 0
        for event in events:
            if event[0] == "admit":
                admitted.append(event[1])
            elif event[0] == "sync":
                durable.update(admitted)
            elif event[0] in ("window", "combine"):
                assert set(event[1]) <= durable, event
            elif event[0] == "done":
                dones += 1
                assert dones <= len(durable)
        windows = [e for e in events if e[0] == "window"]
        assert len(windows) == stats.windows
        assert sorted(m for w in windows for m in w[1]) == sorted(messages)
        # Every message is Share-Signed exactly once, early or at close.
        assert sorted(m for e in events if e[0] == "partials"
                      for m in e[1]) == sorted(messages)
        # Each window's process_sign_window directly follows its sync.
        for position, event in enumerate(events):
            if event[0] == "window":
                assert events[position - 1] == ("sync",)

    def test_replay_settles_crashed_admits_on_both_backends(
            self, backend_handle, tmp_path):
        """The tentpole contract end to end: unacknowledged admits are
        replayed through the normal signing path at start-up and every
        signature verifies under the unchanged public key."""
        handle = backend_handle
        group = handle.scheme.group
        codec = WireCodec(group)
        wal_path = tmp_path / "crash.wal"
        messages = [b"lost %d" % i for i in range(6)]
        write_admits(wal_path, codec, messages)

        async def scenario():
            async with SigningService(handle,
                                      self.config(wal_path)) as service:
                stats = service.stats.recovered
            return service, stats

        service, recovered = run(scenario())
        assert recovered == 6
        assert service.stats.completed == 6
        records, _, _ = scan_records(wal_path, codec)
        dones = {r.request_id: r for r in records
                 if isinstance(r, WalDoneRecord)}
        admits = [r for r in records if isinstance(r, WalAdmitRecord)]
        assert len(admits) == 6 and len(dones) == 6
        for admit in admits:
            assert handle.verify(admit.message,
                                 dones[admit.request_id].signature)

    def test_double_replay_is_idempotent(self, handle, tmp_path):
        """A crash between sign and ack replays the request; the replay
        reproduces the byte-identical signature (deterministic partial
        signing), and a second restart finds nothing to do."""
        codec = WireCodec(handle.scheme.group)
        first_wal = tmp_path / "first.wal"
        second_wal = tmp_path / "second.wal"
        write_admits(first_wal, codec, [b"sign once"])
        write_admits(second_wal, codec, [b"sign once"])

        async def recover(wal_path):
            async with SigningService(handle,
                                      self.config(wal_path)) as service:
                pass
            return service.stats.recovered

        assert run(recover(first_wal)) == 1
        assert run(recover(second_wal)) == 1
        for path in (first_wal, second_wal):
            assert run(recover(path)) == 0      # nothing left to replay
        signatures = []
        for path in (first_wal, second_wal):
            records, _, _ = scan_records(path, codec)
            done = next(r for r in records if isinstance(r, WalDoneRecord))
            signatures.append(codec.encode_signature(done.signature))
        assert signatures[0] == signatures[1]

    def test_recovery_after_torn_tail(self, handle, tmp_path):
        codec = WireCodec(handle.scheme.group)
        wal_path = tmp_path / "torn-crash.wal"
        write_admits(wal_path, codec, [b"whole"])
        with open(wal_path, "ab") as log:
            log.write(b"\x00\x00\x01\x00partial write then SIGKILL")

        async def scenario():
            async with SigningService(handle,
                                      self.config(wal_path)) as service:
                pass
            return service

        service = run(scenario())
        assert service.stats.recovered == 1
        assert service.stats.completed == 1
        records, _, torn = scan_records(wal_path, codec)
        assert torn == 0
        done = next(r for r in records if isinstance(r, WalDoneRecord))
        assert handle.verify(b"whole", done.signature)


# ---------------------------------------------------------------------------
# Request deadlines
# ---------------------------------------------------------------------------

class TestRequestDeadlines:
    def test_expired_request_is_shed_with_typed_error(self, handle):
        """A request whose deadline passes while it queues is shed at
        window formation — typed error, counted, never signed late."""
        config = ServiceConfig(num_shards=1, max_batch=16,
                               max_wait_ms=150.0, request_deadline_s=0.02)

        async def scenario():
            async with SigningService(handle, config) as service:
                with pytest.raises(RequestExpiredError, match="deadline"):
                    await service.sign(b"too late")
            return service

        service = run(scenario())
        assert service.stats.expired == 1
        assert service.stats.failed == 0
        assert sum(s.expired for s in service.stats.shards.values()) == 1

    def test_unexpired_requests_sign_normally(self, handle):
        config = ServiceConfig(num_shards=1, max_batch=4, max_wait_ms=2.0,
                               request_deadline_s=30.0)

        async def scenario():
            async with SigningService(handle, config) as service:
                results = await asyncio.gather(
                    *(service.sign(b"on time %d" % i) for i in range(4)))
            return service, results

        service, results = run(scenario())
        assert all(handle.verify(r.message, r.signature) for r in results)
        assert service.stats.expired == 0

    def test_expired_request_settles_its_wal_obligation(self, handle,
                                                        tmp_path):
        """Expiry is an *answer*: the WAL obligation settles with a
        rejection reason, so a restart does not resurrect the request."""
        wal_path = tmp_path / "expired.wal"
        config = ServiceConfig(num_shards=1, max_batch=16,
                               max_wait_ms=150.0, request_deadline_s=0.02,
                               wal_path=wal_path)

        async def scenario():
            async with SigningService(handle, config) as service:
                with pytest.raises(RequestExpiredError):
                    await service.sign(b"expired but settled")

        run(scenario())
        codec = WireCodec(handle.scheme.group)
        wal = WriteAheadLog.open(wal_path, codec)
        assert not wal.pending
        wal.close()
        records, _, _ = scan_records(wal_path, codec)
        done = next(r for r in records if isinstance(r, WalDoneRecord))
        assert done.signature is None
        assert "RequestExpiredError" in done.reason
