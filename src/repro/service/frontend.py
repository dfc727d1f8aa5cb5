"""The service frontend: admission control, backpressure, lifecycle.

``SigningService`` is the single entry point: ``await service.sign(msg)``
/ ``await service.verify(msg, sig)`` from any number of client
coroutines.  Admission is O(1): route by consistent hash, try a
non-blocking put into the shard's bounded queue, and either return a
future or shed the request with a typed
:class:`~repro.service.types.ServiceOverloadedError` — the service never
buffers unboundedly and never blocks the caller on a full queue
(backpressure is explicit, so an open-loop client sees rejections rather
than silently growing latency).

Every epoch transition, resize included, is one JSON line at INFO on
this module's logger (``event``, ``epoch``, ``kind`` — one of
:data:`~repro.service.types.TRANSITION_KINDS` — ``pause_ms``,
``derive_ms`` — null for a caller-supplied handle — and ``carried``),
and one count of its kind in ``ljy_epoch_transitions_total``.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.keys import Signature
from repro.core.scheme import ServiceHandle
from repro.net.metrics import estimate_size
from repro.serialization import WireCodec
from repro.service.shards import ShardPool
from repro.service.types import (
    PendingRequest, RequestExpiredError, RequestKind, ServiceClosedError,
    ServiceError, ServiceOverloadedError, ServiceStats, SignResult,
    VerifyResult,
)
from repro.service.wal import WriteAheadLog

_LOG = logging.getLogger(__name__)


@dataclass
class ServiceConfig:
    """Everything settable about a :class:`SigningService`; each field
    is documented where it is defined."""

    #: Shard count; traffic partitions by consistent hashing on the
    #: message digest.
    num_shards: int = 2
    #: The batch-window close triggers: count or age, whichever first.
    max_batch: int = 16
    max_wait_ms: float = 5.0
    #: Per-shard admission bound; beyond it requests are shed with
    #: :class:`~repro.service.types.ServiceOverloadedError`.
    queue_depth: int = 256
    #: The worker tier.  Empty (the default) runs every window on the
    #: event loop; otherwise windows are dispatched through
    #: :class:`~repro.service.transport.RemoteWorkerPool` to these
    #: "host:port" addresses of standalone workers (``python -m
    #: repro.service.remote_worker``) provisioned with the same service
    #: context (the HELLO handshake enforces the match) — one per core
    #: on loopback to use this machine's cores, or on other machines —
    #: so up to min(2 * num_shards, len(remote_workers)) window jobs
    #: run in parallel.
    remote_workers: Sequence[str] = ()
    #: Optional fault injector (see :mod:`repro.service.faults`) for
    #: the in-process tier.  Injectors are not shipped over the wire —
    #: a remote worker configures its own (``WorkerServer(
    #: fault_injector=...)``, ``--crash-sentinel``) — so combining it
    #: with ``remote_workers`` is refused at start-up.
    fault_injector: Optional[Callable] = None
    #: Durability: path of the write-ahead log file.  None (the
    #: default) keeps the pre-WAL behavior — admitted requests die with
    #: the process.  Set, every admitted *sign* request is logged
    #: before its future resolves and replayed on the next
    #: ``start()`` against the same path (see
    #: :mod:`repro.service.wal`; verify requests are stateless reads
    #: and are not logged).
    wal_path: Optional[object] = None
    #: End-to-end deadline per request, seconds.  A request still
    #: queued when its deadline passes is shed with a typed
    #: :class:`~repro.service.types.RequestExpiredError` instead of
    #: signed late.  None disables deadlines.
    request_deadline_s: Optional[float] = None
    #: Pre-shared key for the TCP tier's HELLO authenticator
    #: (``HMAC-SHA256(psk, context digest)``, both directions).  Both
    #: ends must configure the same key — or neither; a mismatch is
    #: refused as misprovisioning.  str or bytes.
    remote_psk: Optional[object] = None
    #: Scheduled proactive share refresh: every this-many seconds the
    #: running service performs a live refresh through the
    #: ``begin_epoch`` barrier, as deployment policy (the
    #: proactive-security model assumes a bounded exposure window per
    #: share, and this knob *is* that bound).  None (the default) never
    #: refreshes on a timer.  The
    #: DKG math runs outside the barrier and transitions serialize
    #: with any concurrent admin-driven lifecycle call, so load sees
    #: only the bounded pause, never a rejection.
    refresh_every_s: Optional[float] = None


class SigningService:
    """Long-lived async facade over a :class:`ServiceHandle`."""

    def __init__(self, handle: ServiceHandle,
                 config: Optional[ServiceConfig] = None):
        self.handle = handle
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        #: The durability log, open while running (None when
        #: ``config.wal_path`` is unset).
        self.wal: Optional[WriteAheadLog] = None
        self._pool: Optional[ShardPool] = None
        self._outstanding = 0
        #: Serializes key-lifecycle transitions: a scheduled refresh
        #: firing while an admin-driven reshare is mid-barrier would
        #: otherwise compute its new handle from a stale epoch and be
        #: refused by the epoch-advance check.  Transitions queue here
        #: instead (created lazily — it must belong to the running
        #: loop).
        self._transition_lock: Optional[asyncio.Lock] = None
        self._refresh_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._pool is not None

    async def start(self) -> None:
        """Start the shard pool; when a WAL is configured, open it and
        replay every unacknowledged admit through the normal signing
        path before returning — a restarted service finishes its
        predecessor's obligations before taking new ones."""
        if self.running:
            raise ServiceClosedError("service already started")
        config = self.config
        if config.wal_path is not None:
            self.wal = WriteAheadLog.open(
                config.wal_path, WireCodec(self.handle.scheme.group))
            if self.wal.max_epoch_seen > self.handle.epoch:
                # A crash mid-transition must not silently resume on
                # pre-transition shares: the log proves a newer epoch
                # was already admitting, so this handle's key material
                # is dead.  Refuse; restart with the post-transition
                # context (which replays the same obligations).
                stale_from = self.wal.max_epoch_seen
                self.wal.close()
                self.wal = None
                raise ServiceError(
                    f"write-ahead log {config.wal_path} carries admits "
                    f"from key-lifecycle epoch {stale_from}, but this "
                    f"service holds epoch-{self.handle.epoch} key "
                    f"material — refusing to sign with stale shares")
        self._pool = ShardPool(
            self.handle, config.num_shards, config.max_batch,
            config.max_wait_ms, config.queue_depth,
            fault_injector=config.fault_injector,
            remote_workers=config.remote_workers, wal=self.wal,
            remote_psk=config.remote_psk)
        self._pool.start()
        self._transition_lock = asyncio.Lock()
        if self.wal is not None and self.wal.pending:
            await self._replay(dict(self.wal.pending))
        if config.refresh_every_s is not None:
            self._refresh_task = asyncio.get_running_loop().create_task(
                self._scheduled_refresh(config.refresh_every_s),
                name="scheduled-refresh")

    async def _replay(self, pending) -> None:
        """Re-admit recovered obligations.  They bypass load shedding
        (``queue.put``, not ``put_nowait``): these requests were already
        accepted — by a previous incarnation — and a durable obligation
        is not shed, it is served."""
        loop = asyncio.get_running_loop()
        futures = []
        for request_id, message in pending.items():
            request = PendingRequest(
                kind=RequestKind.SIGN, message=message,
                enqueued_at=loop.time(), future=loop.create_future(),
                deadline=self._deadline_from(loop),
                request_id=request_id)
            await self._pool.worker_for(message).queue.put(request)
            self._register(request)
            self.stats.recovered += 1
            futures.append(request.future)
        # Replay is synchronous with start-up: the caller gets a
        # service whose inherited obligations are already settled.
        await asyncio.gather(*futures, return_exceptions=True)

    async def _scheduled_refresh(self, every_s: float) -> None:
        """The ``refresh_every_s`` driver: a live proactive refresh on
        a fixed cadence, for as long as the service runs.  Runs as a
        background task; ``stop()`` cancels it before draining."""
        while True:
            await asyncio.sleep(every_s)
            if not self.running:
                return
            await self.refresh()

    async def stop(self) -> None:
        """Graceful shutdown: finish every accepted request, then halt."""
        if not self.running:
            return
        if self._refresh_task is not None:
            # Cancel the refresh cadence first: a transition firing
            # while the pool is being torn down would race the drain.
            self._refresh_task.cancel()
            try:
                await self._refresh_task
            except asyncio.CancelledError:
                pass
            self._refresh_task = None
        pool, self._pool = self._pool, None   # reject new admissions now
        while self._outstanding:
            await asyncio.sleep(0.001)
        await pool.stop()
        self.stats.shards = pool.stats()
        if pool.worker_pool is not None:
            self.stats.workers = pool.worker_pool.stats
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    async def __aenter__(self) -> "SigningService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- key lifecycle -------------------------------------------------------
    async def begin_epoch(self, new_handle: ServiceHandle) -> float:
        """Transition the live service to new-epoch key material with
        zero lifecycle rejections; returns the barrier pause in ms.

        The barrier: acquire every shard's lifecycle lock (draining all
        in-flight windows — admission keeps queueing throughout, so
        nothing is shed because of the transition), swap the handle and
        every shard's quorum, re-provision the worker tier (a ``C``
        context push), then release.  Requests queued
        across the swap are served under the new shares — byte-identical
        signatures, because a transition provably preserves the master
        key (which is also validated here, along with the epoch being
        exactly one step forward).

        Transitions serialize: a caller that brings a pre-computed
        handle while another transition is mid-flight waits its turn —
        and is then refused by the epoch-advance check if its handle
        was derived from the superseded epoch (compute the handle under
        the same serialization by using the :meth:`refresh` /
        :meth:`reshare` wrappers instead).
        """
        async with self._serialized_transitions():
            return await self._begin_epoch(new_handle, "swap")

    def _serialized_transitions(self):
        if self._transition_lock is None:
            raise ServiceClosedError("service is not running")
        return self._transition_lock

    async def _derived_epoch(self, kind: str, derive) -> float:
        """Derive the new handle with ``derive()`` on this loop, under
        the transition lock and *outside* the barrier, timing it into
        ``EpochStats.derive_ms``; then the epoch swap."""
        async with self._serialized_transitions():
            loop = asyncio.get_running_loop()
            started = loop.time()
            new_handle = derive()
            return await self._begin_epoch(
                new_handle, kind, (loop.time() - started) * 1000.0)

    async def _begin_epoch(self, new_handle: ServiceHandle, kind: str,
                           derive_ms: Optional[float] = None) -> float:
        if not self.running:
            raise ServiceClosedError("service is not running")
        if new_handle.epoch != self.handle.epoch + 1:
            raise ServiceError(
                f"epoch transition must advance by exactly one "
                f"(current {self.handle.epoch}, offered "
                f"{new_handle.epoch})")
        if (new_handle.public_key.to_bytes()
                != self.handle.public_key.to_bytes()):
            raise ServiceError(
                "epoch transition changes the public key — a "
                "refresh/reshare must preserve it")
        loop = asyncio.get_running_loop()
        started = loop.time()
        paused = await self._pool.pause_all()
        carried = self._pool.queued()
        self.handle = new_handle
        try:
            self._pool.swap_handle(new_handle)
            if self._pool.worker_pool is not None:
                await self._pool.worker_pool.update_handle(new_handle)
        finally:
            self._pool.resume_all(paused)
            # The epoch has moved even when the worker push failed:
            # account the transition before the error propagates.
            pause_ms = (loop.time() - started) * 1000.0
            self._record_transition(kind, pause_ms, derive_ms, carried)
        return pause_ms

    def _record_transition(self, kind: str, pause_ms: float,
                           derive_ms: Optional[float], carried: int) -> None:
        """Account one transition or resize in ``EpochStats`` and log
        it: one pause, one count of its kind, one line."""
        epochs = self.stats.epochs
        epochs.epoch = self.handle.epoch
        epochs.transitions[kind] += 1
        epochs.requests_carried += carried
        epochs.pauses_ms.append(pause_ms)
        if derive_ms is not None:
            epochs.derive_ms.append(derive_ms)
        _LOG.info("%s", json.dumps({
            "event": "epoch_transition", "epoch": self.handle.epoch,
            "kind": kind, "pause_ms": round(pause_ms, 3),
            "derive_ms": None if derive_ms is None else round(derive_ms, 3),
            "carried": carried}))

    async def refresh(self, rng=None, adversary=None) -> float:
        """Proactive share refresh as a live epoch transition: run the
        refresh protocol (on this loop, *outside* the barrier — only
        the swap pauses shards), then the epoch swap.  The new handle
        is derived *under* the transition lock, so a refresh queued
        behind another transition re-derives from the then-current
        epoch instead of being refused."""
        return await self._derived_epoch("refresh", lambda: (
            self.handle.refreshed(rng=rng, adversary=adversary)))

    async def reshare(self, new_t: int, new_indices,
                      rng=None, adversary=None) -> float:
        """Reshare to a new ``(new_t, new_indices)`` committee (signer
        join/leave) as a live epoch transition."""
        return await self._derived_epoch("reshare", lambda: (
            self.handle.reshared(
                new_t, new_indices, rng=rng, adversary=adversary)))

    async def retire_signer(self, index: int) -> float:
        """Drop a crashed/compromised signer's share from the live
        quorum rotation (its verification key stays, so
        :meth:`recover_signer` can later re-derive the share)."""
        return await self._derived_epoch(
            "retire", lambda: self.handle.without_signer(index))

    async def recover_signer(self, index: int) -> float:
        """Re-derive a retired signer's share from t+1 helpers and fold
        the player back into the live quorum rotation."""
        return await self._derived_epoch(
            "recover", lambda: self.handle.with_recovered(index))

    async def resize(self, num_shards: int) -> int:
        """Live shard-ring resize; returns the number of queued
        requests migrated between shards (none are dropped — see
        :meth:`ShardPool.resize <repro.service.shards.ShardPool.resize>`)."""
        if not self.running:
            raise ServiceClosedError("service is not running")
        loop = asyncio.get_running_loop()
        started = loop.time()
        async with self._serialized_transitions():
            migrated = await self._pool.resize(num_shards)
        self.config.num_shards = num_shards
        self._record_transition(
            "resize", (loop.time() - started) * 1000.0, None, migrated)
        return migrated

    # -- admission ----------------------------------------------------------
    def _admit(self, request: PendingRequest) -> None:
        if not self.running:
            raise ServiceClosedError("service is not running")
        worker = self._pool.worker_for(request.message)
        try:
            worker.queue.put_nowait(request)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise ServiceOverloadedError(
                worker.shard_id, worker.queue.qsize()) from None
        if self.wal is not None and request.kind is RequestKind.SIGN:
            # Logged only past backpressure: a shed request was never
            # an obligation.  The append is buffered; the shard worker
            # fsyncs once per closed window, before anything of it is
            # combined, so the admit is durable before any completion.
            request.request_id = self.wal.append_admit(
                request.message, epoch=self.handle.epoch)
        self.stats.accepted += 1
        if request.tenant is not None:
            self.stats.tenant_accepted[request.tenant] = \
                self.stats.tenant_accepted.get(request.tenant, 0) + 1
        self._register(request)

    def _register(self, request: PendingRequest) -> None:
        self._outstanding += 1
        request.future.add_done_callback(
            lambda future, request=request: self._on_done(request, future))

    def _on_done(self, request: PendingRequest,
                 future: asyncio.Future) -> None:
        self._outstanding -= 1
        if future.cancelled():
            self.stats.failed += 1
            self._settle(request, reason="cancelled by caller")
            return
        exc = future.exception()
        if exc is not None:
            if isinstance(exc, RequestExpiredError):
                self.stats.expired += 1
            else:
                self.stats.failed += 1
            self._settle(request, reason=f"{type(exc).__name__}: {exc}")
        else:
            self.stats.completed += 1
            result = future.result()
            self.stats.egress_messages += 1
            self.stats.egress_bytes += estimate_size(result)
            self._settle(request,
                         signature=getattr(result, "signature", None))

    def _settle(self, request: PendingRequest, signature=None,
                reason: str = "") -> None:
        """Append the WAL done record for a logged request.  Every
        resolution path settles — a failure or expiry is an *answered*
        obligation and must not replay forever."""
        if self.wal is None or request.request_id is None or \
                self.wal.closed:
            return
        self.wal.append_done(request.request_id, signature=signature,
                             reason=reason)

    def _deadline_from(self, loop) -> Optional[float]:
        if self.config.request_deadline_s is None:
            return None
        return loop.time() + self.config.request_deadline_s

    # -- the request API ----------------------------------------------------
    async def sign(self, message: bytes, *,
                   tenant: Optional[str] = None) -> SignResult:
        """Request a full threshold signature on ``message``.

        ``tenant`` labels the request for multi-tenant accounting.

        Raises :class:`ServiceOverloadedError` (shed at admission),
        :class:`ServiceClosedError`, :class:`RequestFailedError`
        (fewer than t+1 valid shares even via the robust fallback), or
        :class:`~repro.service.types.RequestExpiredError` when
        ``config.request_deadline_s`` passed before the window ran.
        """
        loop = asyncio.get_running_loop()
        request = PendingRequest(
            kind=RequestKind.SIGN, message=message,
            enqueued_at=loop.time(), future=loop.create_future(),
            deadline=self._deadline_from(loop), tenant=tenant)
        self.stats.ingress_messages += 1
        self.stats.ingress_bytes += estimate_size(message)
        self._admit(request)
        return await request.future

    async def verify(self, message: bytes, signature: Signature, *,
                     tenant: Optional[str] = None) -> VerifyResult:
        """Request verification of ``(message, signature)``."""
        loop = asyncio.get_running_loop()
        request = PendingRequest(
            kind=RequestKind.VERIFY, message=message,
            enqueued_at=loop.time(), future=loop.create_future(),
            signature=signature, deadline=self._deadline_from(loop),
            tenant=tenant)
        self.stats.ingress_messages += 1
        self.stats.ingress_bytes += estimate_size((message, signature))
        self._admit(request)
        return await request.future

    # -- telemetry ----------------------------------------------------------
    def snapshot_stats(self) -> ServiceStats:
        """Current stats (shard breakdown live while running)."""
        if self._pool is not None:
            self.stats.shards = self._pool.stats()
            if self._pool.worker_pool is not None:
                self.stats.workers = self._pool.worker_pool.stats
        return self.stats
