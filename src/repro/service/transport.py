"""TCP transport for the worker tier: shard workers on other cores and
other machines.

A shard that does not run its windows on its own event loop ships them
as canonical wire bytes (:mod:`repro.serialization`) to standalone
worker processes — one per core on this machine (loopback) or one per
machine.  This module is both ends of that:

* :func:`read_frame` / :func:`write_frame` — length-prefixed, versioned
  framing over asyncio streams (header layout and compatibility rule:
  ``docs/WIRE_FORMAT.md``; the byte-level codecs live in
  :mod:`repro.serialization`).
* :func:`warm_handle` / :func:`execute_job` — what a worker does with a
  service context (warm the pairing and fixed-base caches once) and
  with a decoded job (the one job -> ``ServiceHandle`` dispatch, epoch
  fenced).
* :class:`WorkerServer` — the accept loop a standalone worker process
  (:mod:`repro.service.remote_worker`) runs: handshake, then one frame
  at a time per connection — each is acted on and answered, under its
  request id, before the next is read, so answers come back in
  arrival order.
* :class:`RemoteWorkerPool` — the dispatcher side behind the shard
  workers (``ServiceConfig(remote_workers=["host:port", ...])``):
  round-robin over configured endpoints, lazy dialing, every shard's
  window jobs concurrently in flight on one connection (a
  per-connection reader task matches answers to them by request id),
  and crash recovery — a dropped connection fails every in-flight
  request id at once, each owning call re-dials/resubmits exactly its
  own job, so a killed worker costs latency, never a lost or
  double-served request.

**Handshake.**  A connection is useless unless both ends hold the same
service context (scheme, curve, threshold parameters, keys), so the
first frame each way is a HELLO carrying the backend name and the
SHA-256 digest of the encoded context
(:func:`~repro.serialization.service_context_digest`).  When a
pre-shared key is configured the HELLO also carries
``HMAC-SHA256(psk, digest)`` (:func:`~repro.serialization.hello_mac`),
checked in both directions — holding the context blob is no longer
enough to speak the protocol.  A mismatch (digest, backend, frame
version or PSK) is misprovisioning, not a transient fault: the server
refuses with an error frame and the client raises a typed
:class:`~repro.service.types.HandshakeError` instead of retrying.

**Failure taxonomy:**

===========================  ============================================
observation                  reaction
===========================  ============================================
dial refused / timed out     try the next endpoint; backoff when all down
connection drops mid-job     count a crash, re-dial, resubmit the job
no answer within             count a timeout, discard the connection
``JOB_TIMEOUT_S`` (a hung,   (a late answer would desync the stream),
still-connected worker)      resubmit — hung is treated like dropped
garbage frame (bad magic,    the stream cannot be re-synchronized: close
version, oversized length)   the connection, resubmit elsewhere
``E`` frame from the server  :class:`~repro.service.types.RemoteJobError`
                             — resubmitting identical bytes cannot help
repeated failures on one     circuit breaker: quarantine the endpoint
endpoint                     for ``BREAKER_COOLDOWN_S``, then re-probe
                             (half-open); it must serve to close
HELLO mismatch               sticky quarantine (misprovisioning cannot
                             heal); when *every* endpoint mismatches, a
                             typed HandshakeError after one round-robin
                             pass — not ``DIAL_DEADLINE_S`` of retries
retry budget exhausted       :class:`~repro.service.types.TransportError`
===========================  ============================================
"""

from __future__ import annotations

import asyncio
import hmac
import os
import pathlib
import select
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SerializationError
from repro.serialization import (
    FRAME_HEADER_BYTES, FRAME_KIND_CONTEXT, FRAME_KIND_ERROR,
    FRAME_KIND_HELLO, FRAME_KIND_JOB, FRAME_KIND_OUTCOME,
    PartialSignJob, PartialSignOutcome, SignWindowJob, VerifyWindowJob,
    VerifyWindowOutcome, WireCodec, decode_frame_header, decode_hello,
    decode_service_context, encode_frame, encode_hello,
    encode_service_context, hello_mac, service_context_digest,
)
from repro.service.types import (
    HandshakeError, RemoteJobError, StaleEpochError, TransportError,
    WorkerPoolStats,
)

#: Errors that mean "this connection is gone" (``IncompleteReadError``
#: is an ``EOFError``; ``ConnectionError`` and timeouts are ``OSError``
#: subclasses or raised alongside them).
_CONNECTION_ERRORS = (OSError, EOFError)

#: :class:`RemoteWorkerPool` tuning, read at use.  A job is resubmitted
#: at most ``MAX_RETRIES`` times after its first attempt.
MAX_RETRIES = 4
#: Bound on one TCP connect, and on the HELLO answer after it.
DIAL_TIMEOUT_S = 5.0
#: How long a job keeps re-dialing while every endpoint is down, with
#: exponential backoff from ``BACKOFF_INITIAL_S`` capped at
#: ``BACKOFF_MAX_S`` between round-robin passes.
DIAL_DEADLINE_S = 30.0
BACKOFF_INITIAL_S = 0.05
BACKOFF_MAX_S = 1.0
#: Circuit breaker: after ``BREAKER_THRESHOLD`` consecutive failures an
#: endpoint is quarantined for ``BREAKER_COOLDOWN_S`` instead of being
#: re-dialed on every round-robin pass.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 2.0
#: Hung-worker bound: a connected worker that has not answered a job (or
#: a context push) this long after it was *sent* is treated as dead —
#: the connection is discarded (a late answer would desync the stream)
#: and the job resubmitted elsewhere.  A worker runs jobs in arrival
#: order, so the bound also covers waiting behind up to 2 * num_shards
#: - 1 other window jobs (every shard's sign and verify halves) queued
#: on the same worker: it is sized for that many windows, not one.
JOB_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# Stream framing
# ---------------------------------------------------------------------------

async def read_frame(reader: asyncio.StreamReader
                     ) -> Tuple[bytes, int, bytes]:
    """Read one frame; returns ``(kind, request_id, payload)``.

    Raises :class:`asyncio.IncompleteReadError` when the peer closes
    (cleanly between frames or mid-frame — the transport treats both as
    a drop) and :class:`~repro.errors.SerializationError` on a header
    that fails validation, after which the stream must be closed: the
    length field of a garbage header cannot be trusted, so there is no
    way to find the next frame boundary.
    """
    header = await reader.readexactly(FRAME_HEADER_BYTES)
    kind, request_id, length = decode_frame_header(header)
    payload = await reader.readexactly(length)
    return kind, request_id, payload


def write_frame(writer: asyncio.StreamWriter, kind: bytes,
                payload: bytes, request_id: int = 0) -> None:
    """Queue one frame on the writer (callers ``await writer.drain()``)."""
    writer.write(encode_frame(kind, payload, request_id))


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (the last colon, so bare IPv6 literals
    work; the conventional bracketed form ``[::1]:9401`` is unwrapped —
    ``getaddrinfo`` wants the brackets gone)."""
    host, sep, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host or not 0 < port < 65536:
        raise ValueError(
            f"remote worker address must look like 'host:port', "
            f"got {address!r}")
    return host, port


def _hello_payload(group_name: str, digest: bytes,
                   psk: Optional[bytes]) -> bytes:
    """This end's HELLO: backend, context digest and, with a PSK, its
    authenticator over the digest."""
    mac = hello_mac(psk, digest) if psk else b""
    return encode_hello(group_name, digest, mac)


def _psk_agrees(psk: Optional[bytes], mac: bytes, digest: bytes) -> bool:
    """Constant-time check of the peer's HELLO authenticator — mutual
    authentication, so neither end serves a peer that merely replayed a
    digest.  Both ends must agree on *whether* a PSK is configured,
    exactly like they must agree on the digest itself."""
    if not psk:
        return not mac
    return len(mac) == 32 and hmac.compare_digest(mac, hello_mac(psk, digest))


# ---------------------------------------------------------------------------
# The server side (what a remote worker process runs)
# ---------------------------------------------------------------------------

def warm_handle(handle) -> None:
    """Warm every cache a window job's hot path touches repeatedly:
    pairing preparation (Miller-loop line coefficients) for all fixed
    G_hat arguments and fixed-base combs for the derived
    generators.  ``ThresholdParams`` already prepares ``g_z``/``g_r`` on
    construction; the public key and verification keys are prepared
    explicitly because every window check pairs against them.

    Run once per worker process before it binds
    (:mod:`repro.service.remote_worker`) and again on every accepted
    context push — jobs then pay only their own crypto.
    """
    group = handle.scheme.group
    params = handle.scheme.params
    group.prepare_pair(handle.public_key.g_1)
    group.prepare_pair(handle.public_key.g_2)
    for vk in handle.verification_keys.values():
        group.prepare_pair(vk.v_1)
        group.prepare_pair(vk.v_2)
    params.g_z.precompute()
    params.g_r.precompute()


def execute_job(handle, job, fault_injector=None):
    """Run one decoded window job against a handle; returns the outcome.

    Jobs are epoch-stamped: a job formed under key-lifecycle epoch e
    must never execute against epoch-e' key material (the shares would
    be dead, the partial checks wrong).  The dispatcher re-warms every
    worker inside the ``begin_epoch`` barrier, so a mismatch here means
    a provisioning bug — refuse loudly rather than sign quietly.
    """
    job_epoch = getattr(job, "epoch", 0)
    if job_epoch != handle.epoch:
        raise StaleEpochError(job_epoch, handle.epoch)
    if isinstance(job, SignWindowJob):
        return handle.process_sign_window(
            list(job.messages), quorum=list(job.quorum),
            fault_injector=fault_injector, shard_id=job.shard_id)
    if isinstance(job, VerifyWindowJob):
        return VerifyWindowOutcome(verdicts=tuple(handle.verify_window(
            list(job.messages), list(job.signatures))))
    if isinstance(job, PartialSignJob):
        return PartialSignOutcome(partials=tuple(
            handle.partials_with_faults(
                [job.message], job.signers, fault_injector=fault_injector,
                shard_id=job.shard_id)[0]))
    raise TypeError(f"unknown job type {type(job).__name__}")


class WorkerServer:
    """Serve window jobs over TCP for one service context.

    One instance per worker process; any number of dispatcher
    connections, each served by one coroutine.  After the handshake it
    reads one frame and acts on it before it reads the next: a job is
    decoded, run inline on the loop (a worker process exists to burn
    its core on pairings) and answered; a context push is validated,
    applied and acknowledged.  So a connection's frames are answered in
    arrival order, one at a time, each under the request id of the
    frame that caused it.
    """

    def __init__(self, handle, host: str = "127.0.0.1", port: int = 0,
                 fault_injector=None, psk: Optional[bytes] = None):
        # Raises TypeError for a scheme the context cannot carry —
        # fail at construction, not on the first job.
        self._digest = service_context_digest(encode_service_context(handle))
        self._handle = handle
        self._codec = WireCodec(handle.scheme.group)
        self._group_name = handle.scheme.group.name
        self._psk = psk or None
        self.host = host
        self.port = port
        self.fault_injector = fault_injector
        self.jobs_served = 0
        self._server: Optional[asyncio.base_events.Server] = None
        # Accepted connections still being served: the serving task and
        # its writer, so aclose can close and await them.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> "WorkerServer":
        """Bind and start accepting; resolves ``port`` when it was 0."""
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, then close every accepted connection and
        await its serving task: ``Server.close`` leaves accepted
        connections open, so without this their tasks and sockets would
        outlive the server.  A client reads EOF once this returns."""
        if self._server is not None:
            self._server.close()
            connections = dict(self._connections)
            for writer in connections.values():
                writer.close()
            await asyncio.gather(*connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, kind: bytes,
                    payload: bytes, request_id: int = 0) -> None:
        """Write one frame.  Send failures are swallowed: a connection
        dying with an answer unsent is the dispatcher's crash-recovery
        problem (it resubmits elsewhere)."""
        if writer.is_closing():
            return
        try:
            write_frame(writer, kind, payload, request_id)
            await writer.drain()
        except _CONNECTION_ERRORS:
            pass

    # -- per-connection protocol -------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            refusal = await self._handshake(reader)
            if refusal is None:
                await self._send(writer, FRAME_KIND_HELLO, _hello_payload(
                    self._group_name, self._digest, self._psk))
                refusal = await self._serve_frames(reader, writer)
            # A refusal closes the connection after a best-effort
            # explanation under id 0.
            await self._send(writer, FRAME_KIND_ERROR,
                             refusal.encode("utf-8"))
        except _CONNECTION_ERRORS:
            pass                                # dispatcher went away
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except _CONNECTION_ERRORS + (asyncio.CancelledError,):
                # Loop teardown can cancel this task while it drains
                # the close handshake; the socket is closed either way.
                pass
            del self._connections[task]

    async def _serve_frames(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> str:
        """Answer job and context-push frames in arrival order until a
        frame breaks the protocol; returns why."""
        while True:
            try:
                kind, request_id, payload = await read_frame(reader)
            except SerializationError as exc:
                return str(exc)     # garbage header: framing is lost
            if kind == FRAME_KIND_JOB:
                answer = self._run_job(payload)
            elif kind == FRAME_KIND_CONTEXT:
                answer = self._apply_context_push(payload)
            else:
                return f"expected a job frame, got {kind!r}"
            await self._send(writer, *answer, request_id)

    def _run_job(self, payload: bytes) -> Tuple[bytes, bytes]:
        """Decode and run one job; returns its answer frame."""
        try:
            outcome_blob = self._codec.encode_outcome(execute_job(
                self._handle, self._codec.decode_job(payload),
                fault_injector=self.fault_injector))
        except Exception as exc:
            # The frame arrived intact, so the stream is still in sync:
            # report the failure — an undecodable payload (e.g. a
            # retired job kind) or a job-level refusal — and keep
            # serving (the dispatcher raises RemoteJobError instead of
            # resubmitting).
            return (FRAME_KIND_ERROR,
                    f"{type(exc).__name__}: {exc}".encode("utf-8"))
        self.jobs_served += 1
        return FRAME_KIND_OUTCOME, outcome_blob

    def _apply_context_push(self, payload: bytes) -> Tuple[bytes, bytes]:
        """Validate and install a pushed new-epoch service context;
        returns the answer frame.

        Live re-provisioning: a key-lifecycle transition pushes the new
        epoch's context in place instead of tearing the worker down.
        Three invariants gate the swap — each one distinguishes a
        legitimate lifecycle transition from misprovisioning (or a
        replayed stale push after a crash): the backend must match, the
        public key bytes must be *identical* (refresh/reshare never
        change the master key), and the epoch must be strictly newer.
        On success the caches are re-warmed and the new HELLO (with the
        new context digest) is the acknowledgement; a refused push is
        answered with an E frame and the *old* epoch keeps serving.
        """
        try:
            handle = decode_service_context(payload)
        except SerializationError as exc:
            return FRAME_KIND_ERROR, f"bad context push: {exc}".encode("utf-8")
        problem = None
        if handle.scheme.group.name != self._group_name:
            problem = (f"context push is for backend "
                       f"{handle.scheme.group.name!r}, this worker "
                       f"serves {self._group_name!r}")
        elif (handle.public_key.to_bytes()
                != self._handle.public_key.to_bytes()):
            problem = ("context push changes the public key — a "
                       "lifecycle transition must preserve it")
        elif handle.epoch <= self._handle.epoch:
            problem = (f"stale context push: epoch {handle.epoch} is "
                       f"not newer than epoch {self._handle.epoch}")
        if problem is not None:
            return FRAME_KIND_ERROR, problem.encode("utf-8")
        warm_handle(handle)
        self._handle = handle
        self._digest = service_context_digest(payload)
        return FRAME_KIND_HELLO, _hello_payload(
            self._group_name, self._digest, self._psk)

    async def _handshake(self, reader: asyncio.StreamReader
                         ) -> Optional[str]:
        """First frame must be a HELLO matching our context digest (and
        PSK authenticator, when a pre-shared key is configured); returns
        the refusal, or None."""
        try:
            kind, _, payload = await read_frame(reader)
        except SerializationError as exc:
            return str(exc)
        if kind != FRAME_KIND_HELLO:
            return f"expected HELLO as the first frame, got {kind!r}"
        try:
            group_name, digest, mac = decode_hello(payload)
        except SerializationError as exc:
            return f"bad HELLO payload: {exc}"
        if group_name != self._group_name or digest != self._digest:
            return (f"service-context mismatch: this worker serves backend "
                    f"{self._group_name!r} with context digest "
                    f"{self._digest.hex()[:16]}..., dispatcher offered "
                    f"{group_name!r}/{digest.hex()[:16]}...")
        if not _psk_agrees(self._psk, mac, digest):
            return ("pre-shared-key mismatch: the dispatcher's HELLO "
                    "authenticator does not match this worker's PSK "
                    "configuration")
        return None


# ---------------------------------------------------------------------------
# The dispatcher side (what the shard pool runs)
# ---------------------------------------------------------------------------

class _Endpoint:
    """One configured remote worker address plus its live connection,
    in-flight requests and circuit-breaker state."""

    __slots__ = ("host", "port", "reader", "writer", "pending",
                 "reader_task", "dial_lock", "dialed_once", "failures",
                 "open_until", "misprovisioned")

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        #: In-flight request ids -> the futures their answers resolve.
        #: Several shards' jobs ride the connection concurrently (the
        #: callers bound how many: one sign and one verify window per
        #: shard).
        self.pending: Dict[int, asyncio.Future] = {}
        #: Per-connection reader: drains answer frames and resolves
        #: ``pending`` futures by id.
        self.reader_task: Optional[asyncio.Task] = None
        #: One dial at a time, so concurrent shards cannot open
        #: duplicate connections to the same worker.
        self.dial_lock = asyncio.Lock()
        self.dialed_once = False
        #: Consecutive failures (dial refused, drop mid-job, job
        #: timeout) since the last success; resets on any success.
        self.failures = 0
        #: Circuit breaker: loop-clock instant until which the endpoint
        #: is quarantined (skipped by the round-robin).  After it
        #: passes, the next acquire re-probes (half-open).
        self.open_until = 0.0
        #: HELLO refusal reason.  Misprovisioning (wrong backend, keys,
        #: committee, PSK) is a *configuration* error, not a transient
        #: fault: the quarantine is sticky for the pool's lifetime.
        self.misprovisioned: Optional[str] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return self.writer is not None and not self.writer.is_closing()


class RemoteWorkerPool:
    """A pool of TCP remote workers serving window jobs.

    The worker tier behind :class:`~repro.service.shards.ShardWorker`
    (``run_job`` / ``start`` / ``aclose`` / ``update_handle`` /
    ``stats``): the in-process and remote tiers both serve the
    ``ServiceHandle.process_sign_window`` contract.

    Connections are dialed lazily (on the first job, and again after
    any drop), with exponential backoff while every endpoint is down —
    a worker restarted by its supervisor is picked up automatically,
    which is what lets ``serve-smoke`` kill a worker mid-window and
    still complete every request.
    """

    def __init__(self, handle, addresses: Sequence[str],
                 psk: Optional[bytes] = None):
        if not addresses:
            raise ValueError("need at least one remote worker address")
        if isinstance(psk, str):
            psk = psk.encode("utf-8")
        # Raises TypeError for a scheme the context cannot carry.
        self._digest = service_context_digest(encode_service_context(handle))
        self._group_name = handle.scheme.group.name
        self._psk = psk or None
        self._codec = WireCodec(handle.scheme.group)
        self._endpoints: List[_Endpoint] = [
            _Endpoint(*parse_address(address)) for address in addresses]
        #: Monotonic request-id source, shared by every endpoint (ids
        #: are scoped per connection by the protocol, but a pool-wide
        #: counter costs nothing and makes traces unambiguous).  Id 0
        #: is reserved for handshake-phase frames.
        self._request_counter = 0
        self.stats = WorkerPoolStats(workers=len(self._endpoints))
        self._next = 0
        self._running = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Mark the pool live.  Dialing is lazy: a worker that is still
        booting (or being restarted) must not fail service start-up —
        the first job waits for it inside the backoff loop instead."""
        self._running = True

    async def aclose(self) -> None:
        self._running = False
        for endpoint in self._endpoints:
            await self._discard(endpoint)

    async def update_handle(self, handle) -> None:
        """Push new-epoch key material to every endpoint in place (a
        ``C`` context-push frame, acknowledged by a HELLO carrying the
        new digest).  Called from inside the ``begin_epoch`` barrier,
        so no job shares a connection with the push.

        An endpoint that cannot be updated (unreachable, or it refuses
        the push) still holds the *old* shares — dead key material —
        so it is sticky-quarantined like any misprovisioned worker.
        Raises :class:`TransportError` when no endpoint took the push.
        """
        context = encode_service_context(handle)
        digest = service_context_digest(context)
        updated = 0
        for endpoint in self._endpoints:
            if endpoint.misprovisioned is not None:
                continue
            pushed = False
            try:
                if endpoint.connected or await self._dial(endpoint):
                    pushed = await self._push_context(
                        endpoint, context, digest)
            except HandshakeError as exc:
                endpoint.misprovisioned = str(exc)
                await self._discard(endpoint)
                continue
            except _CONNECTION_ERRORS + (SerializationError,
                                         asyncio.TimeoutError):
                pushed = False
            if pushed:
                updated += 1
            else:
                await self._discard(endpoint)
                endpoint.misprovisioned = (
                    f"unreachable during the epoch-{handle.epoch} context "
                    f"push; it still holds stale key material")
        if not updated:
            raise TransportError(
                f"no remote worker accepted the epoch-{handle.epoch} "
                f"context push (endpoints: "
                f"{', '.join(e.address for e in self._endpoints)})")
        self._digest = digest
        self.stats.rewarms += 1

    async def _push_context(self, endpoint: "_Endpoint", context: bytes,
                            digest: bytes) -> bool:
        if not endpoint.connected:
            return False
        kind, payload = await asyncio.wait_for(
            self._roundtrip(endpoint, FRAME_KIND_CONTEXT, context),
            JOB_TIMEOUT_S)
        self._check_hello(endpoint, "the context push", kind, payload,
                          digest)
        return True

    def _check_hello(self, endpoint: "_Endpoint", what: str, kind: bytes,
                     payload: bytes, digest: bytes) -> None:
        """Raise :class:`~repro.service.types.HandshakeError` unless a
        worker answered ``what`` (the handshake or a context push) with
        a HELLO for ``digest`` under this pool's backend and PSK —
        misprovisioning, which retrying cannot fix."""
        worker = f"remote worker {endpoint.address}"
        if kind == FRAME_KIND_ERROR:
            raise HandshakeError(
                f"{worker} refused {what}: "
                f"{payload.decode('utf-8', 'replace')}")
        if kind != FRAME_KIND_HELLO:
            raise HandshakeError(
                f"{worker} answered {what} with frame kind {kind!r}")
        try:
            group_name, answered, mac = decode_hello(payload)
        except SerializationError as exc:
            raise HandshakeError(
                f"{worker} answered {what} with a bad HELLO payload: "
                f"{exc}") from None
        if group_name != self._group_name or answered != digest:
            raise HandshakeError(
                f"{worker} answered {what} for a different service "
                f"context ({group_name!r}/{answered.hex()[:16]}..., "
                f"expected {self._group_name!r}/{digest.hex()[:16]}...)")
        if not _psk_agrees(self._psk, mac, answered):
            raise HandshakeError(
                f"{worker} answered {what} with a bad PSK authenticator "
                f"(pre-shared keys differ, or only one side has one "
                f"configured)")

    # -- connection management ----------------------------------------------
    def _fail_pending(self, endpoint: _Endpoint) -> bool:
        """Fail every unresolved in-flight future on a dead connection
        (their owning ``run_job`` calls each resubmit exactly their own
        job).  Returns True when at least one request really was in
        flight — the connection died mid-job, not idle."""
        had_inflight = False
        for future in list(endpoint.pending.values()):
            if not future.done():
                future.set_exception(ConnectionResetError(
                    f"connection to {endpoint.address} lost with the "
                    f"request in flight"))
                had_inflight = True
        return had_inflight

    async def _discard(self, endpoint: _Endpoint) -> bool:
        """Tear down a (broken) connection.  Returns True only for the
        caller that actually closed it, so one worker death breaking a
        whole window of in-flight requests is counted as one crash.
        The reader task tears its own connection down when the socket
        dies under it, so callers arriving here afterwards get False."""
        writer = endpoint.writer
        reader_task = endpoint.reader_task
        endpoint.reader = endpoint.writer = None
        endpoint.reader_task = None
        if writer is None:
            return False
        if reader_task is not None and \
                reader_task is not asyncio.current_task():
            reader_task.cancel()
            try:
                await reader_task
            except asyncio.CancelledError:
                pass
        self._fail_pending(endpoint)
        writer.close()
        try:
            await writer.wait_closed()
        except _CONNECTION_ERRORS:
            pass
        return True

    async def _reader_loop(self, endpoint: _Endpoint) -> None:
        """Drain answer frames from one connection for as long as it
        lives, resolving in-flight futures by request id (the worker
        answers in arrival order, but nothing here relies on that).

        When the socket dies (drop, EOF, garbage frame) *this* task
        owns the teardown: every in-flight future fails at once with
        ``ConnectionResetError`` and each owning call resubmits its own
        job — so a killed worker fails everything in flight in one
        instant instead of one ``JOB_TIMEOUT_S`` at a time.  Dying
        mid-job counts as one crash; a drop while idle is just churn.
        """
        reader, writer = endpoint.reader, endpoint.writer
        try:
            while True:
                kind, request_id, payload = await read_frame(reader)
                future = endpoint.pending.get(request_id)
                if future is not None and not future.done():
                    future.set_result((kind, payload))
                # An unknown id is an answer whose owner already gave
                # up (timed out and discarded) — by then this reader is
                # cancelled, so in practice: ignore and keep draining.
        except asyncio.CancelledError:
            raise               # _discard owns this teardown
        except _CONNECTION_ERRORS + (SerializationError,):
            pass
        if endpoint.writer is not writer:
            return              # somebody else already tore it down
        endpoint.reader = endpoint.writer = None
        endpoint.reader_task = None
        if self._fail_pending(endpoint):
            self.stats.crashes += 1
            self._record_failure(endpoint, asyncio.get_running_loop())
        writer.close()
        try:
            await writer.wait_closed()
        except _CONNECTION_ERRORS:
            pass

    async def _roundtrip(self, endpoint: _Endpoint, kind: bytes,
                         blob: bytes) -> Tuple[bytes, bytes]:
        """Ship one frame and await its answer ``(kind, payload)``,
        matched by request id.  Concurrent callers interleave freely:
        each frame is one synchronous ``write``, so frames never
        interleave on the stream (and ``drain`` takes any number of
        concurrent waiters)."""
        self._request_counter += 1
        request_id = self._request_counter
        future = asyncio.get_running_loop().create_future()
        endpoint.pending[request_id] = future
        inflight = len(endpoint.pending)
        if inflight > self.stats.max_inflight:
            self.stats.max_inflight = inflight
        try:
            if not endpoint.connected:
                # The connection died since the caller acquired it; the
                # caller discards (a no-op for non-first observers) and
                # resubmits.
                raise ConnectionResetError(
                    f"connection to {endpoint.address} lost before "
                    "dispatch")
            write_frame(endpoint.writer, kind, blob, request_id)
            await endpoint.writer.drain()
            return await future
        finally:
            endpoint.pending.pop(request_id, None)

    async def _dial(self, endpoint: _Endpoint) -> bool:
        """(Re)connect one endpoint and run the HELLO handshake.

        Returns False on unreachable/dropped (the caller moves on to
        the next endpoint); raises
        :class:`~repro.service.types.HandshakeError` on a live worker
        that answers with the wrong version, backend or context digest
        (retrying cannot fix misprovisioning).
        """
        async with endpoint.dial_lock:
            if endpoint.connected:
                return True
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(endpoint.host, endpoint.port),
                    DIAL_TIMEOUT_S)
            except _CONNECTION_ERRORS + (asyncio.TimeoutError,):
                return False
            try:
                write_frame(writer, FRAME_KIND_HELLO, _hello_payload(
                    self._group_name, self._digest, self._psk))
                await writer.drain()
                kind, _, payload = await asyncio.wait_for(
                    read_frame(reader), DIAL_TIMEOUT_S)
                self._check_hello(endpoint, "the handshake", kind, payload,
                                  self._digest)
            except _CONNECTION_ERRORS + (asyncio.TimeoutError,):
                writer.close()
                return False
            except SerializationError as exc:
                writer.close()
                raise HandshakeError(
                    f"remote worker {endpoint.address} sent a malformed "
                    f"handshake frame: {exc}")
            except HandshakeError:
                writer.close()
                raise
            endpoint.reader, endpoint.writer = reader, writer
            endpoint.reader_task = asyncio.get_running_loop().create_task(
                self._reader_loop(endpoint),
                name=f"remote-worker-reader-{endpoint.address}")
            if endpoint.dialed_once:
                self.stats.reconnects += 1
            endpoint.dialed_once = True
            return True

    def _record_failure(self, endpoint: _Endpoint, loop) -> None:
        """Count one failure against the endpoint's breaker; trip the
        breaker (quarantine for ``BREAKER_COOLDOWN_S``) at the
        threshold.  A tripped endpoint re-trips on a single half-open
        failure — a worker must actually serve something to close it."""
        endpoint.failures += 1
        if endpoint.failures >= BREAKER_THRESHOLD:
            endpoint.open_until = loop.time() + BREAKER_COOLDOWN_S
            # Half-open probes that fail re-trip immediately.
            endpoint.failures = BREAKER_THRESHOLD - 1
            self.stats.breaker_trips += 1

    @staticmethod
    def _record_success(endpoint: _Endpoint) -> None:
        endpoint.failures = 0
        endpoint.open_until = 0.0

    async def _acquire(self) -> _Endpoint:
        """A connected endpoint, round-robin; dial-with-backoff until
        one answers or the dial deadline expires.

        Quarantined endpoints (breaker open, or sticky-misprovisioned
        after a HELLO refusal) are skipped.  When *every* endpoint is
        misprovisioned the pool raises a typed
        :class:`~repro.service.types.HandshakeError` after one full
        round-robin pass — re-dialing a worker provisioned with the
        wrong service context for ``DIAL_DEADLINE_S`` cannot fix a
        configuration error.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DIAL_DEADLINE_S
        backoff = BACKOFF_INITIAL_S
        while True:
            if not self._running:
                raise TransportError("remote worker pool is not running")
            now = loop.time()
            for _ in range(len(self._endpoints)):
                endpoint = self._endpoints[self._next
                                           % len(self._endpoints)]
                self._next += 1
                if endpoint.misprovisioned is not None or \
                        endpoint.open_until > now:
                    continue
                if endpoint.connected:
                    return endpoint
                try:
                    if await self._dial(endpoint):
                        self._record_success(endpoint)
                        return endpoint
                except HandshakeError as exc:
                    endpoint.misprovisioned = str(exc)
                    continue
                self._record_failure(endpoint, loop)
            if all(e.misprovisioned is not None for e in self._endpoints):
                raise HandshakeError(
                    "every remote worker endpoint refused the HELLO "
                    "handshake (misprovisioned): " + "; ".join(
                        e.misprovisioned for e in self._endpoints))
            if loop.time() >= deadline:
                raise TransportError(
                    f"no remote worker reachable within "
                    f"{DIAL_DEADLINE_S:.1f}s (endpoints: "
                    f"{', '.join(e.address for e in self._endpoints)})")
            await asyncio.sleep(backoff)
            backoff = min(2 * backoff, BACKOFF_MAX_S)

    # -- job dispatch -------------------------------------------------------
    async def run_job(self, job):
        """Dispatch one window job to a remote worker and decode its
        outcome, reconnecting and resubmitting on dropped or hung
        connections (bounded by ``MAX_RETRIES``)."""
        if not self._running:
            raise TransportError("remote worker pool is not running")
        blob = self._codec.encode_job(job)
        loop = asyncio.get_running_loop()
        last_error = None
        for attempt in range(MAX_RETRIES + 1):
            endpoint = await self._acquire()
            try:
                outcome_blob = await asyncio.wait_for(
                    self._request(endpoint, blob), JOB_TIMEOUT_S)
            except asyncio.TimeoutError:
                # Hung worker: connected but silent past the job
                # timeout.  Its event loop is stuck, so every job on
                # the connection is doomed — discard it and resubmit
                # (the breaker keeps a chronically hung endpoint out
                # of the rotation).
                last_error = TransportError(
                    f"remote worker {endpoint.address} did not "
                    f"answer a job within {JOB_TIMEOUT_S:.1f}s")
                if await self._discard(endpoint):
                    self.stats.timeouts += 1
                    self._record_failure(endpoint, loop)
                if attempt < MAX_RETRIES:
                    self.stats.resubmissions += 1
                continue
            except _CONNECTION_ERRORS + (SerializationError,) as exc:
                # The worker died or the stream desynchronized.  The
                # reader task usually observes the death first and
                # already tore the connection down (counting the one
                # crash for every job in flight); _discard is then a
                # no-op.  Everyone resubmits exactly their own job.
                last_error = exc
                if await self._discard(endpoint):
                    self.stats.crashes += 1
                    self._record_failure(endpoint, loop)
                if attempt < MAX_RETRIES:
                    self.stats.resubmissions += 1
                continue
            self.stats.jobs += 1
            self._record_success(endpoint)
            return self._codec.decode_outcome(outcome_blob)
        raise TransportError(
            f"job failed after {MAX_RETRIES + 1} attempts on "
            f"dropped or unresponsive remote-worker connections: "
            f"{last_error}")

    async def _request(self, endpoint: _Endpoint, blob: bytes) -> bytes:
        kind, payload = await self._roundtrip(
            endpoint, FRAME_KIND_JOB, blob)
        if kind == FRAME_KIND_ERROR:
            raise RemoteJobError(
                f"remote worker {endpoint.address} rejected the job: "
                f"{payload.decode('utf-8', 'replace')}")
        if kind != FRAME_KIND_OUTCOME:
            raise SerializationError(
                f"expected an outcome frame, got {kind!r}")
        return payload


# ---------------------------------------------------------------------------
# Spawning local worker processes (tests, smoke, benchmarks, demos)
# ---------------------------------------------------------------------------

READY_MARKER = "remote-worker listening on "


def start_worker_process(context_path, host: str = "127.0.0.1",
                         port: int = 0, crash_sentinel=None,
                         timeout_s: float = 120.0,
                         psk: Optional[str] = None
                         ) -> "Tuple[subprocess.Popen, str]":
    """Spawn ``python -m repro.service.remote_worker`` on this machine
    and block until its ready line; returns ``(process, "host:port")``
    with the process's stdout pipe already closed.

    The deployment story is one worker per machine under a supervisor;
    this helper is the loopback stand-in the tests, ``serve-smoke`` and
    the ``svc_tcp_*`` benchmarks share.  ``port=0`` lets the worker
    pick an ephemeral port (parsed from the ready line);
    ``crash_sentinel`` forwards ``--crash-sentinel`` for the
    kill-mid-window acts; ``psk`` forwards the handshake authenticator
    key.
    """
    import repro
    src_dir = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-m", "repro.service.remote_worker",
               "--context", str(context_path),
               "--host", host, "--listen", str(port)]
    if crash_sentinel is not None:
        command += ["--crash-sentinel", str(crash_sentinel)]
    if psk is not None:
        command += ["--psk", psk]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=env, text=True)
    deadline = time.monotonic() + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            failure = (f"remote worker did not become ready within "
                       f"{timeout_s:.0f}s")
            break
        if process.poll() is not None:
            failure = (f"remote worker exited with code "
                       f"{process.returncode} before becoming ready")
            break
        readable, _, _ = select.select([process.stdout], [], [],
                                       min(remaining, 0.25))
        if readable:
            line = process.stdout.readline()
            if READY_MARKER in line:
                # The ready line is the worker's last stdout write: the
                # caller gets the process with its pipe closed.
                process.stdout.close()
                address = line.split(READY_MARKER, 1)[1].strip()
                return process, address
    # Reap the child (a no-op kill when it already exited) and close
    # its pipe, so a failed start leaves no zombie and no open fd.
    process.kill()
    process.wait()
    process.stdout.close()
    raise TransportError(failure)
