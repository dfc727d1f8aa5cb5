"""Tests for the TCP worker transport (framing, handshake, the remote
worker pool, crash recovery, the standalone worker entry point).

Most tests run an in-process :class:`WorkerServer` on the loopback —
real sockets, same event loop — on the toy backend.  The crash-recovery
tests run actual subprocess workers (the ``WorkerCrashFault`` sentinel
pattern); the end-to-end and frame-rejection tests run on both backends
(the wire payloads are backend-specific even though the frame header is
not).
"""

import asyncio
import random

import pytest

from repro.core.scheme import ServiceHandle
from repro.errors import SerializationError
from repro.serialization import (
    FRAME_HEADER_BYTES, FRAME_KIND_CONTEXT, FRAME_KIND_ERROR,
    FRAME_KIND_HELLO, FRAME_KIND_JOB, FRAME_KIND_OUTCOME, FRAME_MAGIC,
    FRAME_VERSION, MAX_FRAME_BYTES,
    PartialSignJob, SignWindowJob, WireCodec,
    decode_frame_header, decode_hello, encode_frame, encode_hello,
    encode_service_context, hello_mac, service_context_digest,
)
from repro.service import (
    CorruptSignerFault, HandshakeError, RemoteJobError, RemoteWorkerPool,
    RequestFailedError, ServiceConfig, SigningService, TransportError,
    WorkerServer,
)
from repro.service import transport
from repro.service.transport import (
    execute_job, parse_address, read_frame, start_worker_process,
    write_frame,
)


@pytest.fixture
def handle(toy_group):
    return ServiceHandle.dealer(toy_group, 2, 5, rng=random.Random(11))


def run(coroutine):
    return asyncio.run(coroutine)


def tune(monkeypatch, **constants):
    """Set :class:`RemoteWorkerPool`'s tuning constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(transport, name, value)


def legacy_sign_request_blob(handle, message: bytes) -> bytes:
    """A well-formed payload of the retired per-request sign job (kind
    ``Q``: shard id, epoch, one packed message, the quorum), assembled
    by hand — the codec no longer knows the shape."""
    def u32(value):
        return value.to_bytes(4, "big")
    quorum = handle.quorum()
    return (b"Q" + u32(0) + u32(handle.epoch) + u32(len(message)) + message
            + u32(len(quorum)) + b"".join(u32(index) for index in quorum))


# ---------------------------------------------------------------------------
# Frame encoding
# ---------------------------------------------------------------------------

class TestFrameLayer:
    def test_frame_round_trip(self):
        frame = encode_frame(FRAME_KIND_JOB, b"payload bytes",
                             request_id=7042)
        kind, request_id, length = decode_frame_header(
            frame[:FRAME_HEADER_BYTES])
        assert kind == FRAME_KIND_JOB
        assert request_id == 7042
        assert length == len(b"payload bytes")
        assert frame[FRAME_HEADER_BYTES:] == b"payload bytes"

    def test_request_id_defaults_to_zero_and_is_bounded(self):
        frame = encode_frame(FRAME_KIND_HELLO, b"")
        assert decode_frame_header(frame[:FRAME_HEADER_BYTES])[1] == 0
        top = (1 << 64) - 1
        frame = encode_frame(FRAME_KIND_JOB, b"x", request_id=top)
        assert decode_frame_header(frame[:FRAME_HEADER_BYTES])[1] == top
        with pytest.raises(SerializationError):
            encode_frame(FRAME_KIND_JOB, b"x", request_id=1 << 64)
        with pytest.raises(SerializationError):
            encode_frame(FRAME_KIND_JOB, b"x", request_id=-1)

    def test_header_rejects_bad_magic(self):
        frame = bytearray(encode_frame(FRAME_KIND_JOB, b"x"))
        frame[:4] = b"EVIL"
        with pytest.raises(SerializationError, match="magic"):
            decode_frame_header(bytes(frame[:FRAME_HEADER_BYTES]))

    def test_header_rejects_future_version(self):
        frame = bytearray(encode_frame(FRAME_KIND_JOB, b"x"))
        frame[4] = FRAME_VERSION + 1
        with pytest.raises(SerializationError, match="version"):
            decode_frame_header(bytes(frame[:FRAME_HEADER_BYTES]))

    def test_header_rejects_unknown_kind(self):
        frame = bytearray(encode_frame(FRAME_KIND_JOB, b"x"))
        frame[5] = ord("?")
        with pytest.raises(SerializationError, match="kind"):
            decode_frame_header(bytes(frame[:FRAME_HEADER_BYTES]))

    def test_header_rejects_oversized_length(self):
        header = FRAME_MAGIC + bytes([FRAME_VERSION]) + FRAME_KIND_JOB + \
            (0).to_bytes(8, "big") + (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(SerializationError, match="cap"):
            decode_frame_header(header)

    def test_header_rejects_truncation(self):
        frame = encode_frame(FRAME_KIND_JOB, b"x")
        with pytest.raises(SerializationError, match="truncated"):
            decode_frame_header(frame[:FRAME_HEADER_BYTES - 1])

    def test_encode_rejects_unknown_kind_and_oversize(self):
        with pytest.raises(SerializationError):
            encode_frame(b"?", b"x")
        with pytest.raises(SerializationError):
            encode_frame(FRAME_KIND_JOB, b"\x00" * (MAX_FRAME_BYTES + 1))

    def test_hello_round_trip_and_digest(self, handle):
        blob = encode_service_context(handle)
        digest = service_context_digest(blob)
        assert len(digest) == 32
        name, parsed, mac = decode_hello(encode_hello("toy", digest))
        assert (name, parsed, mac) == ("toy", digest, b"")
        authenticator = hello_mac(b"secret", digest)
        assert len(authenticator) == 32
        name, parsed, mac = decode_hello(
            encode_hello("toy", digest, mac=authenticator))
        assert mac == authenticator
        with pytest.raises(SerializationError):
            decode_hello(encode_hello("toy", digest) + b"extra")
        with pytest.raises(SerializationError):
            encode_hello("toy", b"short")
        with pytest.raises(SerializationError):
            encode_hello("toy", digest, mac=b"short-mac")

    def test_parse_address(self):
        assert parse_address("worker-3.local:9000") == \
            ("worker-3.local", 9000)
        assert parse_address("::1:9000") == ("::1", 9000)
        assert parse_address("[::1]:9000") == ("::1", 9000)
        for bad in ("no-port", "host:", ":8000", "[]:8000", "host:0",
                    "host:99999", "host:abc"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ---------------------------------------------------------------------------
# Truncated wire payloads are rejected on both backends
# ---------------------------------------------------------------------------

class TestTruncatedPayloadRejection:
    """A frame can be intact while its payload is truncated or garbled;
    the codec must reject it (never return a short window) on both
    backends — their element widths differ, so both deserve the check."""

    @pytest.fixture(params=[
        "toy", pytest.param("bn254", marks=pytest.mark.bn254)])
    def codec_handle(self, request, toy_group, bn254_group):
        group = toy_group if request.param == "toy" else bn254_group
        handle = ServiceHandle.dealer(group, 1, 3, rng=random.Random(7))
        return WireCodec(group), handle

    def test_truncated_job_and_outcome_rejected(self, codec_handle):
        codec, handle = codec_handle
        job_blob = codec.encode_job(SignWindowJob(
            shard_id=0, messages=(b"a", b"bb"),
            quorum=tuple(handle.quorum())))
        outcome = handle.process_sign_window([b"a"])
        outcome_blob = codec.encode_outcome(outcome)
        for blob, decode in ((job_blob, codec.decode_job),
                             (outcome_blob, codec.decode_outcome)):
            with pytest.raises(SerializationError):
                decode(blob[:-1])
            with pytest.raises(SerializationError):
                decode(blob + b"\x00")

    @pytest.mark.parametrize("bad", ["truncated", "retired-kind"])
    def test_server_reports_bad_job_payload_without_dying(self,
                                                          codec_handle,
                                                          bad):
        """A truncated job — or a well-formed payload of the retired
        ``Q`` request kind, which a pre-removal dispatcher could still
        send — inside a valid frame gets an E frame back and the
        connection keeps serving (the stream is still in sync)."""
        codec, handle = codec_handle
        good_job = codec.encode_job(SignWindowJob(
            shard_id=0, messages=(b"doc",), quorum=tuple(handle.quorum())))
        bad_job = (good_job[:-1] if bad == "truncated"
                   else legacy_sign_request_blob(handle, b"doc"))

        async def scenario():
            server = await WorkerServer(handle).start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                hello = encode_hello(
                    handle.scheme.group.name,
                    service_context_digest(encode_service_context(handle)))
                write_frame(writer, FRAME_KIND_HELLO, hello)
                await writer.drain()
                kind, _, _ = await read_frame(reader)
                assert kind == FRAME_KIND_HELLO
                write_frame(writer, FRAME_KIND_JOB, bad_job,
                            request_id=1)
                await writer.drain()
                error_kind, error_id, error_payload = \
                    await read_frame(reader)
                write_frame(writer, FRAME_KIND_JOB, good_job,
                            request_id=2)
                await writer.drain()
                ok_kind, ok_id, ok_payload = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return (error_kind, error_id, error_payload,
                    ok_kind, ok_id, ok_payload)

        (error_kind, error_id, error_payload,
         ok_kind, ok_id, ok_payload) = run(scenario())
        assert error_kind == FRAME_KIND_ERROR
        assert error_id == 1                # answered under the job's id
        assert b"SerializationError" in error_payload
        if bad == "retired-kind":
            assert b"unknown job kind b'Q'" in error_payload
        assert ok_kind == FRAME_KIND_OUTCOME
        assert ok_id == 2
        outcome = codec.decode_outcome(ok_payload)
        assert handle.verify(b"doc", outcome.signatures[0])

    def test_truncated_header_closes_cleanly_and_server_survives(
            self, codec_handle):
        """A connection that dies mid-header (10 of 18 bytes, then EOF)
        is dropped without an error frame — there is no id to answer
        under — and the server keeps accepting fresh connections."""
        codec, handle = codec_handle
        good_job = codec.encode_job(SignWindowJob(
            shard_id=0, messages=(b"doc",), quorum=tuple(handle.quorum())))
        hello = encode_hello(
            handle.scheme.group.name,
            service_context_digest(encode_service_context(handle)))

        async def scenario():
            server = await WorkerServer(handle).start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                write_frame(writer, FRAME_KIND_HELLO, hello)
                await writer.drain()
                kind, _, _ = await read_frame(reader)
                assert kind == FRAME_KIND_HELLO
                partial = encode_frame(FRAME_KIND_JOB, good_job,
                                       request_id=3)[:10]
                writer.write(partial)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # The server must still serve a fresh connection.
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                write_frame(writer, FRAME_KIND_HELLO, hello)
                await writer.drain()
                kind, _, _ = await read_frame(reader)
                assert kind == FRAME_KIND_HELLO
                write_frame(writer, FRAME_KIND_JOB, good_job,
                            request_id=4)
                await writer.drain()
                kind, request_id, payload = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return kind, request_id, payload

        kind, request_id, payload = run(scenario())
        assert kind == FRAME_KIND_OUTCOME
        assert request_id == 4
        outcome = codec.decode_outcome(payload)
        assert handle.verify(b"doc", outcome.signatures[0])


# ---------------------------------------------------------------------------
# Server protocol violations
# ---------------------------------------------------------------------------

class TestWorkerServerProtocol:
    def test_garbage_frame_refused_and_connection_closed(self, handle):
        async def scenario():
            server = await WorkerServer(handle).start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"GET / HTTP/1.1\r\nHost: worker\r\n\r\n")
                await writer.drain()
                kind, _, payload = await read_frame(reader)
                trailing = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return kind, payload, trailing

        kind, payload, trailing = run(scenario())
        assert kind == FRAME_KIND_ERROR
        assert b"magic" in payload
        assert trailing == b""     # server hung up after refusing

    def test_job_before_hello_refused(self, handle):
        async def scenario():
            server = await WorkerServer(handle).start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                write_frame(writer, FRAME_KIND_JOB, b"too eager")
                await writer.drain()
                kind, _, payload = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return kind, payload

        kind, payload = run(scenario())
        assert kind == FRAME_KIND_ERROR
        assert b"HELLO" in payload

    def test_context_mismatch_refused(self, handle, toy_group, monkeypatch):
        other = ServiceHandle.dealer(toy_group, 2, 5,
                                     rng=random.Random(99))
        tune(monkeypatch, DIAL_DEADLINE_S=2.0)

        async def scenario():
            server = await WorkerServer(handle).start()
            pool = RemoteWorkerPool(other, [server.address])
            pool.start()
            try:
                with pytest.raises(HandshakeError, match="context"):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"x",
                        signers=tuple(other.quorum())))
            finally:
                await pool.aclose()
                await server.aclose()

        run(scenario())


# ---------------------------------------------------------------------------
# The remote worker pool end to end (in-process server, real sockets)
# ---------------------------------------------------------------------------

class TestRemoteWorkerPool:
    @pytest.fixture(params=[
        "toy", pytest.param("bn254", marks=pytest.mark.bn254)])
    def backend_handle(self, request, toy_group, bn254_group):
        group = toy_group if request.param == "toy" else bn254_group
        return ServiceHandle.dealer(group, 2, 5, rng=random.Random(11))

    def test_service_sign_and_verify_through_tcp(self, backend_handle):
        """remote_workers=[...] serves the same contract as the
        in-process tier on both backends (the wire format carries real
        curve points): every signature produced across the wire
        verifies in the dispatcher, with jobs accounted in the stats."""
        handle = backend_handle

        async def scenario():
            servers = [await WorkerServer(handle).start()
                       for _ in range(2)]
            config = ServiceConfig(
                num_shards=2, max_batch=4, max_wait_ms=10.0,
                remote_workers=[server.address for server in servers])
            try:
                async with SigningService(handle, config) as service:
                    results = await asyncio.gather(*(
                        service.sign(b"tcp svc %d" % i) for i in range(12)))
                    verdicts = await asyncio.gather(*(
                        service.verify(result.message, result.signature)
                        for result in results))
            finally:
                for server in servers:
                    await server.aclose()
            return service, results, verdicts, servers

        service, results, verdicts, servers = run(scenario())
        assert all(handle.verify(r.message, r.signature) for r in results)
        assert all(v.valid for v in verdicts)
        stats = service.snapshot_stats()
        assert stats.failed == 0
        assert stats.workers is not None
        assert stats.workers.workers == 2
        assert stats.workers.jobs > 0
        assert stats.workers.crashes == 0
        # Both endpoints actually served (round-robin dispatch).
        assert all(server.jobs_served > 0 for server in servers)

    def test_partial_sign_job_over_tcp_combines_in_dispatcher(self,
                                                              handle):
        """The split signer/combiner deployment: partials produced on a
        remote worker, shipped back over the wire, combined locally."""
        async def scenario():
            server = await WorkerServer(handle).start()
            pool = RemoteWorkerPool(handle, [server.address])
            pool.start()
            try:
                outcome = await pool.run_job(PartialSignJob(
                    shard_id=0, message=b"remote partials",
                    signers=tuple(handle.quorum())))
            finally:
                await pool.aclose()
                await server.aclose()
            return outcome

        outcome = run(scenario())
        assert [p.index for p in outcome.partials] == handle.quorum()
        signature = handle.scheme.combine(
            handle.public_key, handle.verification_keys,
            b"remote partials", list(outcome.partials))
        assert handle.verify(b"remote partials", signature)

    def test_unreachable_endpoints_raise_typed_error(self, handle,
                                                     monkeypatch):
        tune(monkeypatch, DIAL_DEADLINE_S=0.3, BACKOFF_INITIAL_S=0.01)

        async def scenario():
            # Port 1 on loopback: nothing listens there.
            pool = RemoteWorkerPool(handle, ["127.0.0.1:1"])
            pool.start()
            try:
                with pytest.raises(TransportError, match="reachable"):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"x",
                        signers=tuple(handle.quorum())))
            finally:
                await pool.aclose()

        run(scenario())

    def test_pool_not_running_raises(self, handle):
        async def scenario():
            pool = RemoteWorkerPool(handle, ["127.0.0.1:1"])
            with pytest.raises(TransportError, match="not running"):
                await pool.run_job(PartialSignJob(
                    shard_id=0, message=b"x", signers=(1,)))

        run(scenario())

    def test_pool_rejects_bad_configuration(self, handle, toy_group):
        with pytest.raises(ValueError):
            RemoteWorkerPool(handle, [])
        with pytest.raises(ValueError):
            RemoteWorkerPool(handle, ["host:port-less"])

        # Both ends refuse a scheme without window entry points at
        # construction, not on the first job.
        from repro.core.aggregation import (
            AggThresholdParams, LJYAggregateScheme,
        )
        scheme = LJYAggregateScheme(
            AggThresholdParams.generate(toy_group, t=1, n=3))
        agg_handle = ServiceHandle(
            scheme, *scheme.dealer_keygen(rng=random.Random(23)))
        with pytest.raises(TypeError):
            RemoteWorkerPool(agg_handle, ["127.0.0.1:1"])
        with pytest.raises(TypeError):
            WorkerServer(agg_handle)

        # An injector is not shipped over the wire: configuring one
        # that would never run is refused, not silently dropped.
        async def scenario():
            config = ServiceConfig(
                fault_injector=CorruptSignerFault(signer_index=1),
                remote_workers=["127.0.0.1:1"])
            service = SigningService(handle, config)
            with pytest.raises(ValueError, match="fault_injector"):
                await service.start()
            assert not service.running

        run(scenario())

    def test_corrupt_signer_localized_inside_remote_worker(self, handle):
        """The injector runs where the partials are signed — inside the
        worker: the forgery is localized there and the fallback
        accounting flows back in the outcome."""
        fault = CorruptSignerFault(signer_index=1, shard_id=0)

        async def scenario():
            server = await WorkerServer(
                handle, fault_injector=fault).start()
            config = ServiceConfig(num_shards=1, max_batch=8,
                                   max_wait_ms=50.0,
                                   remote_workers=[server.address])
            try:
                async with SigningService(handle, config) as service:
                    results = await asyncio.gather(*(
                        service.sign(b"tcp fault %d" % i)
                        for i in range(8)))
            finally:
                await server.aclose()
            return service, results

        service, results = run(scenario())
        for result in results:
            assert handle.verify(result.message, result.signature)
        stats = service.snapshot_stats()
        assert fault.injected
        assert stats.shards[0].faults_localized > 0
        assert stats.shards[0].fallback_combines > 0
        assert stats.failed == 0

    def test_failed_sign_half_does_not_fail_the_verify_half(self, handle):
        """A mixed window is two independent jobs: when the sign job is
        refused by the worker, the verify requests whose verdicts
        arrived are still answered."""
        def offline(shard_id, signer_index, message, partial):
            raise RuntimeError("signer offline")

        signature = handle.sign(b"already signed")

        async def scenario():
            server = await WorkerServer(
                handle, fault_injector=offline).start()
            config = ServiceConfig(num_shards=1, max_batch=2,
                                   max_wait_ms=200.0,
                                   remote_workers=[server.address])
            try:
                async with SigningService(handle, config) as service:
                    return await asyncio.gather(
                        service.sign(b"doomed"),
                        service.verify(b"already signed", signature),
                        return_exceptions=True)
            finally:
                await server.aclose()

        signed, verified = run(scenario())
        assert isinstance(signed, RequestFailedError)
        assert "signer offline" in str(signed)
        assert verified.valid and verified.batch_size == 2


# ---------------------------------------------------------------------------
# Crash recovery with real worker processes
# ---------------------------------------------------------------------------

class TestRemoteWorkerCrashRecovery:
    def test_worker_killed_mid_window_recovered_by_resubmission(
            self, handle, tmp_path):
        """One of two subprocess workers dies hard (os._exit) on the first
        partial it signs; the pool must detect the dropped connection,
        resubmit the window to the surviving worker, and every request
        must still complete with a valid signature."""
        context_path = tmp_path / "ctx.bin"
        context_path.write_bytes(encode_service_context(handle))
        sentinel = tmp_path / "crashed.sentinel"
        crasher, crasher_address = start_worker_process(
            context_path, crash_sentinel=sentinel)
        survivor, survivor_address = start_worker_process(context_path)

        async def scenario():
            config = ServiceConfig(
                num_shards=1, max_batch=8, max_wait_ms=50.0,
                remote_workers=[crasher_address, survivor_address])
            async with SigningService(handle, config) as service:
                results = await asyncio.gather(*(
                    service.sign(b"crash %d" % i) for i in range(8)))
            return service, results

        try:
            service, results = run(scenario())
        finally:
            crasher.wait(timeout=10)
            survivor.terminate()
            survivor.wait(timeout=10)
        assert sentinel.exists()
        assert len(results) == 8
        for result in results:
            assert handle.verify(result.message, result.signature)
        stats = service.snapshot_stats()
        assert stats.failed == 0
        assert stats.workers.crashes >= 1
        assert stats.workers.resubmissions >= 1

    def test_killed_worker_respawned_on_same_port_is_reconnected(
            self, handle, tmp_path):
        """The single-worker deployment under a supervisor: the only
        worker dies mid-window, a replacement comes up on the same
        port, and the pool's dial-with-backoff loop finds it and
        resubmits — no request is lost."""
        context_path = tmp_path / "ctx.bin"
        context_path.write_bytes(encode_service_context(handle))
        sentinel = tmp_path / "crashed.sentinel"
        process, address = start_worker_process(
            context_path, crash_sentinel=sentinel)
        port = parse_address(address)[1]
        replacements = []

        async def respawn_when_dead():
            loop = asyncio.get_running_loop()
            while process.poll() is None:
                await asyncio.sleep(0.05)
            replacement, _ = await loop.run_in_executor(
                None, lambda: start_worker_process(
                    context_path, port=port, crash_sentinel=sentinel))
            replacements.append(replacement)

        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=8,
                                   max_wait_ms=50.0,
                                   remote_workers=[address])
            async with SigningService(handle, config) as service:
                watcher = asyncio.ensure_future(respawn_when_dead())
                results = await asyncio.gather(*(
                    service.sign(b"respawn %d" % i) for i in range(8)))
                await watcher
            return service, results

        try:
            service, results = run(scenario())
        finally:
            process.wait(timeout=10)
            for replacement in replacements:
                replacement.terminate()
                replacement.wait(timeout=10)
        assert sentinel.exists()
        assert len(results) == 8
        for result in results:
            assert handle.verify(result.message, result.signature)
        stats = service.snapshot_stats()
        assert stats.failed == 0
        assert stats.workers.crashes >= 1
        assert stats.workers.resubmissions >= 1
        assert stats.workers.reconnects >= 1


# ---------------------------------------------------------------------------
# The entry point
# ---------------------------------------------------------------------------

class TestRemoteWorkerCli:
    def test_write_context_mode_round_trips(self, tmp_path):
        from repro.serialization import decode_service_context
        from repro.service.remote_worker import main

        context_path = tmp_path / "ctx.bin"
        assert main(["--write-context", str(context_path),
                     "--backend", "toy", "--t", "1", "--n", "3",
                     "--seed", "5"]) == 0
        rebuilt = decode_service_context(context_path.read_bytes())
        assert rebuilt.scheme.params.t == 1
        assert rebuilt.scheme.params.n == 3
        signature = rebuilt.sign(b"provisioned")
        assert rebuilt.verify(b"provisioned", signature)

    def test_missing_context_file_is_a_clean_error(self, tmp_path):
        from repro.service.remote_worker import main

        assert main(["--context", str(tmp_path / "absent.bin")]) == 2

    @pytest.mark.parametrize("failure", ["exited", "timed-out"])
    def test_failed_start_reaps_the_child(self, tmp_path, monkeypatch,
                                          failure):
        """A worker that exits before its ready line, or misses the
        ready deadline, is reaped and its stdout pipe closed before the
        TransportError."""
        spawned = []
        real_popen = transport.subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(real_popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(transport.subprocess, "Popen", recording_popen)
        # A missing context file exits with code 2; a zero deadline
        # expires before the child can print anything.
        timeout_s = 60.0 if failure == "exited" else 0.0
        with pytest.raises(TransportError,
                           match="exited with code 2" if failure == "exited"
                           else "did not become ready"):
            start_worker_process(tmp_path / "absent.bin",
                                 timeout_s=timeout_s)
        [child] = spawned
        assert child.returncode is not None
        assert child.stdout.closed


# ---------------------------------------------------------------------------
# Hung-worker detection (stalled, not crashed)
# ---------------------------------------------------------------------------

async def start_stall_server(handle):
    """A worker that completes the HELLO and then never answers a job —
    hung, not crashed: the connection stays open, so before the per-job
    timeout existed this blocked its window forever (only EOFError /
    OSError triggered resubmission)."""
    hello = encode_hello(
        handle.scheme.group.name,
        service_context_digest(encode_service_context(handle)))

    async def serve(reader, writer):
        try:
            kind, _, _ = await read_frame(reader)
            if kind != FRAME_KIND_HELLO:
                return
            write_frame(writer, FRAME_KIND_HELLO, hello)
            await writer.drain()
            while await reader.read(65536):
                pass                    # swallow jobs, answer nothing
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return server, f"127.0.0.1:{port}"


class TestHungWorkerDetection:
    def test_stalled_worker_times_out_and_job_is_resubmitted(self, handle,
                                                             monkeypatch):
        """The acceptance scenario: a stalled remote worker is detected
        by the per-job read timeout, treated like a dropped connection
        (timeout counted, connection discarded), and its job completes
        on the healthy endpoint."""
        tune(monkeypatch, BACKOFF_INITIAL_S=0.01, JOB_TIMEOUT_S=0.3)

        async def scenario():
            stall, stall_address = await start_stall_server(handle)
            worker = await WorkerServer(handle).start()
            pool = RemoteWorkerPool(handle, [stall_address, worker.address])
            pool.start()
            try:
                outcomes = []
                for i in range(4):
                    outcomes.append(await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"hung %d" % i,
                        signers=tuple(handle.quorum()))))
            finally:
                await pool.aclose()
                stall.close()
                await stall.wait_closed()
                await worker.aclose()
            return pool, outcomes

        pool, outcomes = run(scenario())
        assert len(outcomes) == 4
        for i, outcome in enumerate(outcomes):
            signature = handle.scheme.combine(
                handle.public_key, handle.verification_keys,
                b"hung %d" % i, list(outcome.partials))
            assert handle.verify(b"hung %d" % i, signature)
        assert pool.stats.timeouts >= 1
        assert pool.stats.resubmissions >= 1
        assert pool.stats.jobs == 4

    def test_service_over_a_hung_worker_completes_every_request(
            self, handle, monkeypatch):
        """A service backed by a stalled + a healthy worker times the
        stalled one out and completes every request."""
        tune(monkeypatch, JOB_TIMEOUT_S=0.3)

        async def scenario():
            stall, stall_address = await start_stall_server(handle)
            worker = await WorkerServer(handle).start()
            config = ServiceConfig(
                num_shards=1, max_batch=4, max_wait_ms=10.0,
                remote_workers=[stall_address, worker.address])
            try:
                async with SigningService(handle, config) as service:
                    results = await asyncio.gather(*(
                        service.sign(b"svc hung %d" % i) for i in range(6)))
            finally:
                stall.close()
                await stall.wait_closed()
                await worker.aclose()
            return service, results

        service, results = run(scenario())
        assert all(handle.verify(r.message, r.signature) for r in results)
        stats = service.snapshot_stats()
        assert stats.failed == 0
        assert stats.workers.timeouts >= 1


# ---------------------------------------------------------------------------
# The circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_chronically_hung_endpoint_is_quarantined(self, handle,
                                                      monkeypatch):
        """With a cooldown longer than the test, one trip takes the
        stalled endpoint out of the rotation: exactly one job pays the
        timeout, the rest go straight to the healthy worker."""
        tune(monkeypatch, BREAKER_THRESHOLD=1, BREAKER_COOLDOWN_S=60.0,
             BACKOFF_INITIAL_S=0.01, JOB_TIMEOUT_S=0.2)

        async def scenario():
            stall, stall_address = await start_stall_server(handle)
            worker = await WorkerServer(handle).start()
            pool = RemoteWorkerPool(handle, [stall_address, worker.address])
            pool.start()
            try:
                for i in range(5):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"breaker %d" % i,
                        signers=tuple(handle.quorum())))
            finally:
                await pool.aclose()
                stall.close()
                await stall.wait_closed()
                await worker.aclose()
            return pool

        pool = run(scenario())
        assert pool.stats.breaker_trips == 1
        assert pool.stats.timeouts == 1     # only the tripping job paid
        assert pool.stats.jobs == 5

    def test_dead_endpoint_trips_breaker_on_dial_failures(self, handle,
                                                          monkeypatch):
        """Repeated refused dials count against the breaker too — a
        dead endpoint stops being re-dialed on every round-robin pass."""
        tune(monkeypatch, BREAKER_THRESHOLD=2, BREAKER_COOLDOWN_S=60.0,
             BACKOFF_INITIAL_S=0.01)

        async def scenario():
            worker = await WorkerServer(handle).start()
            pool = RemoteWorkerPool(
                handle, ["127.0.0.1:1", worker.address])
            pool.start()
            try:
                for i in range(6):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"dead %d" % i,
                        signers=tuple(handle.quorum())))
            finally:
                await pool.aclose()
                await worker.aclose()
            return pool

        pool = run(scenario())
        assert pool.stats.breaker_trips >= 1
        assert pool.stats.jobs == 6
        dead = pool._endpoints[0]
        assert dead.open_until > 0.0        # quarantined, not retried

    def test_breaker_reopens_after_cooldown(self, handle, monkeypatch):
        """Half-open: after the cooldown the endpoint is probed again
        and a recovered worker rejoins the rotation."""
        tune(monkeypatch, BREAKER_THRESHOLD=1, BREAKER_COOLDOWN_S=0.05,
             BACKOFF_INITIAL_S=0.01)

        async def scenario():
            worker = await WorkerServer(handle).start()
            # Reserve a port, then release it so the first dials fail.
            placeholder = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0)
            port = placeholder.sockets[0].getsockname()[1]
            placeholder.close()
            await placeholder.wait_closed()
            flaky_address = f"127.0.0.1:{port}"
            pool = RemoteWorkerPool(
                handle, [flaky_address, worker.address])
            pool.start()
            try:
                await pool.run_job(PartialSignJob(
                    shard_id=0, message=b"trip", signers=(1,)))
                assert pool.stats.breaker_trips >= 1
                # The worker comes back on the reserved port.
                late = await WorkerServer(
                    handle, port=port).start()
                await asyncio.sleep(0.1)    # let the cooldown lapse
                for i in range(4):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"again %d" % i,
                        signers=(1,)))
                served_late = late.jobs_served
                await late.aclose()
            finally:
                await pool.aclose()
                await worker.aclose()
            return pool, served_late

        pool, served_late = run(scenario())
        assert served_late >= 1             # rejoined the rotation
        assert pool._endpoints[0].open_until == 0.0


# ---------------------------------------------------------------------------
# Misprovisioned-endpoint accounting
# ---------------------------------------------------------------------------

class TestMisprovisionedEndpoints:
    def test_all_endpoints_mismatched_fails_fast(self, handle, toy_group,
                                                 monkeypatch):
        """Every endpoint refusing the HELLO is a configuration error:
        the pool raises after one round-robin pass instead of burning
        DIAL_DEADLINE_S re-dialing hopeless endpoints."""
        other = ServiceHandle.dealer(toy_group, 2, 5,
                                     rng=random.Random(99))
        tune(monkeypatch, DIAL_DEADLINE_S=60.0)

        async def scenario():
            servers = [await WorkerServer(handle).start()
                       for _ in range(2)]
            pool = RemoteWorkerPool(
                other, [server.address for server in servers])
            pool.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            try:
                with pytest.raises(HandshakeError,
                                   match="misprovisioned"):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"x",
                        signers=tuple(other.quorum())))
            finally:
                elapsed = loop.time() - started
                await pool.aclose()
                for server in servers:
                    await server.aclose()
            return elapsed

        elapsed = run(scenario())
        assert elapsed < 5.0                # nowhere near DIAL_DEADLINE_S

    def test_mismatched_endpoint_is_sticky_quarantined(self, handle,
                                                       toy_group):
        """A mixed fleet keeps serving: the mismatched endpoint is
        quarantined for the pool's lifetime and every job lands on the
        correctly provisioned worker."""
        other = ServiceHandle.dealer(toy_group, 2, 5,
                                     rng=random.Random(99))

        async def scenario():
            wrong = await WorkerServer(other).start()
            right = await WorkerServer(handle).start()
            pool = RemoteWorkerPool(handle,
                                    [wrong.address, right.address])
            pool.start()
            try:
                for i in range(4):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"mixed %d" % i,
                        signers=tuple(handle.quorum())))
            finally:
                await pool.aclose()
                served = (wrong.jobs_served, right.jobs_served)
                await wrong.aclose()
                await right.aclose()
            return pool, served

        pool, (wrong_served, right_served) = run(scenario())
        assert wrong_served == 0
        assert right_served == 4
        assert pool._endpoints[0].misprovisioned is not None
        assert "context" in pool._endpoints[0].misprovisioned


# ---------------------------------------------------------------------------
# Wire format v2: version negotiation across releases
# ---------------------------------------------------------------------------

class TestVersionNegotiation:
    """Old and new peers must refuse each other with a typed error, not
    a desynchronised stream.  The version byte sits at the same offset
    in every release of the header, so each side can tell a versioned
    peer from garbage."""

    def test_v1_client_refused_by_v2_server(self, handle):
        """A pre-pipelining client (10-byte header: magic, version,
        kind, u32 length — no request id) gets a typed refusal."""
        old_payload = b"\x00" * 32      # enough bytes to fill our header
        old_frame = FRAME_MAGIC + bytes([1]) + FRAME_KIND_HELLO + \
            len(old_payload).to_bytes(4, "big") + old_payload

        async def scenario():
            server = await WorkerServer(handle).start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(old_frame)
                await writer.drain()
                kind, _, payload = await read_frame(reader)
                trailing = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return kind, payload, trailing

        kind, payload, trailing = run(scenario())
        assert kind == FRAME_KIND_ERROR
        assert b"version" in payload and b"upgrade" in payload
        assert trailing == b""          # server hung up after refusing

    def test_v2_pool_refuses_v1_server(self, handle, monkeypatch):
        """Dialing a worker from the previous release raises a typed
        HandshakeError (misprovisioning, never retried) instead of
        misparsing the old header."""
        tune(monkeypatch, DIAL_DEADLINE_S=5.0)

        async def serve_v1(reader, writer):
            await reader.read(1024)     # swallow whatever the pool says
            payload = b"\x00" * 32
            writer.write(FRAME_MAGIC + bytes([1]) + FRAME_KIND_HELLO +
                         len(payload).to_bytes(4, "big") + payload)
            await writer.drain()

        async def scenario():
            server = await asyncio.start_server(
                serve_v1, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = RemoteWorkerPool(handle, [f"127.0.0.1:{port}"])
            pool.start()
            try:
                with pytest.raises(HandshakeError):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"x",
                        signers=tuple(handle.quorum())))
                refusal = pool._endpoints[0].misprovisioned
            finally:
                await pool.aclose()
                server.close()
                await server.wait_closed()
            return refusal

        refusal = run(scenario())
        assert refusal is not None
        assert "version" in refusal and "upgrade" in refusal


# ---------------------------------------------------------------------------
# Pre-shared-key handshake authentication
# ---------------------------------------------------------------------------

class TestPresharedKey:
    def test_matching_psk_serves_jobs(self, handle):
        async def scenario():
            server = await WorkerServer(handle, psk=b"wire-psk").start()
            pool = RemoteWorkerPool(handle, [server.address],
                                    psk="wire-psk")
            pool.start()
            try:
                outcome = await pool.run_job(PartialSignJob(
                    shard_id=0, message=b"authenticated",
                    signers=tuple(handle.quorum())))
            finally:
                await pool.aclose()
                await server.aclose()
            return outcome

        outcome = run(scenario())
        signature = handle.scheme.combine(
            handle.public_key, handle.verification_keys,
            b"authenticated", list(outcome.partials))
        assert handle.verify(b"authenticated", signature)

    @pytest.mark.parametrize("server_psk,pool_psk", [
        (b"worker-only", None),         # worker requires, pool has none
        (None, "pool-only"),            # pool offers, worker has none
        (b"alpha", "bravo"),            # both configured, keys differ
    ])
    def test_psk_mismatch_is_typed_misprovisioning(self, handle,
                                                   server_psk, pool_psk,
                                                   monkeypatch):
        tune(monkeypatch, DIAL_DEADLINE_S=5.0)

        async def scenario():
            server = await WorkerServer(handle, psk=server_psk).start()
            pool = RemoteWorkerPool(handle, [server.address],
                                    psk=pool_psk)
            pool.start()
            try:
                with pytest.raises(HandshakeError):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"x",
                        signers=tuple(handle.quorum())))
                refusal = pool._endpoints[0].misprovisioned
            finally:
                await pool.aclose()
                await server.aclose()
            return refusal

        refusal = run(scenario())
        assert refusal is not None
        assert "PSK" in refusal or "pre-shared" in refusal

    def test_pool_rejects_forged_server_authenticator(self, handle,
                                                      monkeypatch):
        """The check is mutual: a server that accepts our HELLO but
        answers with a wrong authenticator is refused by the pool."""
        tune(monkeypatch, DIAL_DEADLINE_S=5.0)

        digest = service_context_digest(encode_service_context(handle))
        group_name = handle.scheme.group.name

        async def serve_forged(reader, writer):
            kind, _, _ = await read_frame(reader)
            assert kind == FRAME_KIND_HELLO
            write_frame(writer, FRAME_KIND_HELLO, encode_hello(
                group_name, digest, mac=hello_mac(b"not-the-psk",
                                                  digest)))
            await writer.drain()
            await reader.read(65536)

        async def scenario():
            server = await asyncio.start_server(
                serve_forged, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = RemoteWorkerPool(handle, [f"127.0.0.1:{port}"],
                                    psk="the-real-psk")
            pool.start()
            try:
                with pytest.raises(HandshakeError):
                    await pool.run_job(PartialSignJob(
                        shard_id=0, message=b"x",
                        signers=tuple(handle.quorum())))
                refusal = pool._endpoints[0].misprovisioned
            finally:
                await pool.aclose()
                server.close()
                await server.wait_closed()
            return refusal

        refusal = run(scenario())
        assert refusal is not None
        assert "PSK" in refusal


# ---------------------------------------------------------------------------
# Request-id framing: several jobs in flight on one connection
# ---------------------------------------------------------------------------

async def handshaken(server, handle):
    """Open a raw connection to ``server`` and complete the HELLO."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    write_frame(writer, FRAME_KIND_HELLO, encode_hello(
        handle.scheme.group.name,
        service_context_digest(encode_service_context(handle))))
    await writer.drain()
    kind, _, _ = await read_frame(reader)
    assert kind == FRAME_KIND_HELLO
    return reader, writer


async def serve_one(reader, writer, job: bytes):
    """Send one job frame under id 1 and read its answer."""
    write_frame(writer, FRAME_KIND_JOB, job, request_id=1)
    await writer.drain()
    return await read_frame(reader)


class TestRequestIdFraming:
    def test_out_of_order_completion_resolves_by_request_id(self, handle):
        """A worker may answer the second in-flight job first; the pool
        must route each outcome to its own caller by request id, not by
        arrival order."""
        codec = WireCodec(handle.scheme.group)
        hello = encode_hello(
            handle.scheme.group.name,
            service_context_digest(encode_service_context(handle)))

        async def serve_reversed(reader, writer):
            kind, _, _ = await read_frame(reader)
            assert kind == FRAME_KIND_HELLO
            write_frame(writer, FRAME_KIND_HELLO, hello)
            await writer.drain()
            jobs = []
            for _ in range(2):
                kind, request_id, payload = await read_frame(reader)
                assert kind == FRAME_KIND_JOB
                jobs.append((request_id, codec.decode_job(payload)))
            assert len({request_id for request_id, _ in jobs}) == 2
            for request_id, job in reversed(jobs):
                write_frame(writer, FRAME_KIND_OUTCOME,
                            codec.encode_outcome(execute_job(handle, job)),
                            request_id=request_id)
            await writer.drain()
            await reader.read(65536)

        async def scenario():
            server = await asyncio.start_server(
                serve_reversed, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = RemoteWorkerPool(handle, [f"127.0.0.1:{port}"])
            pool.start()
            try:
                first, second = await asyncio.gather(
                    pool.run_job(PartialSignJob(
                        shard_id=0, message=b"first",
                        signers=tuple(handle.quorum()))),
                    pool.run_job(PartialSignJob(
                        shard_id=0, message=b"second",
                        signers=tuple(handle.quorum()))))
            finally:
                await pool.aclose()
                server.close()
                await server.wait_closed()
            return pool, first, second

        pool, first, second = run(scenario())
        for message, outcome in ((b"first", first), (b"second", second)):
            signature = handle.scheme.combine(
                handle.public_key, handle.verification_keys,
                message, list(outcome.partials))
            assert handle.verify(message, signature)
        assert pool.stats.max_inflight == 2

    def test_duplicate_request_id_answered_in_order(self, handle):
        """The worker runs one frame at a time, so no two jobs are ever
        in flight on it: two jobs under one id get two outcomes, in
        arrival order, and the stream stays open."""
        codec = WireCodec(handle.scheme.group)
        jobs = [codec.encode_job(SignWindowJob(
            shard_id=0, messages=(message,), quorum=tuple(handle.quorum())))
            for message in (b"dup one", b"dup two")]

        async def scenario():
            server = await WorkerServer(handle).start()
            try:
                reader, writer = await handshaken(server, handle)
                writer.write(b"".join(encode_frame(FRAME_KIND_JOB, job, 9)
                                      for job in jobs))
                await writer.drain()
                answers = [await read_frame(reader) for _ in jobs]
                answers.append(await serve_one(reader, writer, jobs[0]))
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return answers

        answers = run(scenario())
        for (kind, request_id, payload), expected in zip(
                answers, ((9, b"dup one"), (9, b"dup two"), (1, b"dup one"))):
            assert (kind, request_id) == (FRAME_KIND_OUTCOME, expected[0])
            outcome = codec.decode_outcome(payload)
            assert outcome.failures == ()
            assert handle.verify(expected[1], outcome.signatures[0])

    def test_context_push_waits_for_the_job_ahead_of_it(self, handle):
        """A job and then a context push in one write: the job runs
        under the epoch it was stamped with, then the push is applied —
        the push never overtakes a job sent before it."""
        codec = WireCodec(handle.scheme.group)
        job = codec.encode_job(SignWindowJob(
            shard_id=0, epoch=0, messages=(b"before the push",),
            quorum=tuple(handle.quorum())))
        fresh = encode_service_context(handle.refreshed(
            rng=random.Random(81)))

        async def scenario():
            server = await WorkerServer(handle).start()
            try:
                reader, writer = await handshaken(server, handle)
                writer.write(encode_frame(FRAME_KIND_JOB, job, 7)
                             + encode_frame(FRAME_KIND_CONTEXT, fresh, 8))
                await writer.drain()
                answers = [await read_frame(reader) for _ in range(2)]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return answers, server

        (job_answer, push_answer), server = run(scenario())
        kind, request_id, payload = job_answer
        assert (kind, request_id) == (FRAME_KIND_OUTCOME, 7)
        outcome = codec.decode_outcome(payload)
        assert handle.verify(b"before the push", outcome.signatures[0])
        kind, request_id, payload = push_answer
        assert (kind, request_id) == (FRAME_KIND_HELLO, 8)
        assert decode_hello(payload)[1] == service_context_digest(fresh)
        assert server._handle.epoch == 1

    def test_foreign_push_refused_and_old_epoch_keeps_serving(
            self, handle, toy_group):
        """A push under another public key gets an E frame under its id;
        the worker keeps its epoch-0 keys and serves the next job."""
        codec = WireCodec(handle.scheme.group)
        job = codec.encode_job(SignWindowJob(
            shard_id=0, epoch=0, messages=(b"old epoch",),
            quorum=tuple(handle.quorum())))
        foreign = ServiceHandle.dealer(toy_group, 2, 5,
                                       rng=random.Random(99)).refreshed(
                                           rng=random.Random(82))

        async def scenario():
            server = await WorkerServer(handle).start()
            try:
                reader, writer = await handshaken(server, handle)
                write_frame(writer, FRAME_KIND_CONTEXT,
                            encode_service_context(foreign), request_id=5)
                await writer.drain()
                refusal = await read_frame(reader)
                served = await serve_one(reader, writer, job)
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return refusal, served

        (kind, request_id, payload), served = run(scenario())
        assert (kind, request_id) == (FRAME_KIND_ERROR, 5)
        assert b"public key" in payload
        kind, request_id, payload = served
        assert (kind, request_id) == (FRAME_KIND_OUTCOME, 1)
        outcome = codec.decode_outcome(payload)
        assert handle.verify(b"old epoch", outcome.signatures[0])

    def test_retired_request_kind_is_a_remote_job_error(self, handle,
                                                        monkeypatch):
        """A dispatcher that still ships the retired ``Q`` kind gets a
        typed RemoteJobError — not a resubmission loop (identical bytes
        cannot succeed elsewhere) — and the connection serves the next
        job."""
        async def scenario():
            server = await WorkerServer(handle).start()
            pool = RemoteWorkerPool(handle, [server.address])
            pool.start()
            job = SignWindowJob(shard_id=0, messages=(b"doc",),
                                quorum=tuple(handle.quorum()))
            try:
                with monkeypatch.context() as patched:
                    patched.setattr(
                        pool._codec, "encode_job",
                        lambda _: legacy_sign_request_blob(handle, b"doc"))
                    with pytest.raises(RemoteJobError,
                                       match="unknown job kind b'Q'"):
                        await pool.run_job(job)
                outcome = await pool.run_job(job)
            finally:
                await pool.aclose()
                await server.aclose()
            return pool, outcome

        pool, outcome = run(scenario())
        assert handle.verify(b"doc", outcome.signatures[0])
        assert pool.stats.resubmissions == 0
        assert pool.stats.reconnects == 0
        assert pool.stats.jobs == 1


# ---------------------------------------------------------------------------
# Crash recovery with several ids in flight: each settles exactly once
# ---------------------------------------------------------------------------

class TestInflightCrashRecovery:
    def test_mid_stream_kill_resubmits_every_inflight_request(
            self, handle, tmp_path):
        """With several shards' window jobs in flight on one connection
        (four shards round-robin over two endpoints), the worker dies
        hard; the pool fails every pending id, resubmits each to the
        surviving worker, and every request settles exactly once."""
        context_path = tmp_path / "ctx.bin"
        context_path.write_bytes(encode_service_context(handle))
        sentinel = tmp_path / "crashed.sentinel"
        crasher, crasher_address = start_worker_process(
            context_path, crash_sentinel=sentinel)
        survivor, survivor_address = start_worker_process(context_path)

        async def scenario():
            config = ServiceConfig(
                num_shards=4, max_batch=1, max_wait_ms=1.0,
                remote_workers=[crasher_address, survivor_address])
            async with SigningService(handle, config) as service:
                results = await asyncio.gather(*(
                    service.sign(b"inflight crash %d" % i)
                    for i in range(12)))
            return service, results

        try:
            service, results = run(scenario())
        finally:
            crasher.wait(timeout=10)
            survivor.terminate()
            survivor.wait(timeout=10)
        assert sentinel.exists()
        # Exactly once: one result per message, every one valid.
        assert sorted(r.message for r in results) == \
            sorted(b"inflight crash %d" % i for i in range(12))
        for result in results:
            assert handle.verify(result.message, result.signature)
        stats = service.snapshot_stats()
        assert stats.failed == 0
        assert stats.workers.crashes >= 1
        assert stats.workers.resubmissions >= 1
        assert stats.workers.max_inflight >= 2
