"""The shard pool: consistent hashing, signer quorums, window workers.

Each shard is one asyncio worker with a bounded queue, a
:class:`~repro.service.accumulator.BatchAccumulator`, and a rotated t+1
signer quorum, so signing load spreads across all n servers while any
single window is produced by one quorum (one Lagrange coefficient set,
memoized across windows).  Requests are routed by **consistent hashing**
on the SHA-256 digest of the message: adding or removing a shard remaps
only ~1/N of the key space, which is what lets a deployment resize the
pool without a global reshuffle (and is why the ring, not ``hash % N``,
is used even in this in-process simulation).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.scheme import ServiceHandle
from repro.serialization import SignWindowJob, VerifyWindowJob
from repro.service.accumulator import BatchAccumulator
from repro.service.transport import RemoteWorkerPool
from repro.service.types import (
    PendingRequest, RequestExpiredError, RequestFailedError, RequestKind,
    ShardStats, SignResult, VerifyResult,
)
from repro.service.wal import WriteAheadLog

#: Virtual nodes per shard on the hash ring; enough that load imbalance
#: between shards stays within a few percent.
VNODES_PER_SHARD = 64


def _ring_position(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping message digests to shard ids."""

    def __init__(self, shard_ids: Sequence[int]):
        if not shard_ids:
            raise ValueError("need at least one shard")
        points = []
        for shard_id in shard_ids:
            for vnode in range(VNODES_PER_SHARD):
                points.append((_ring_position(
                    b"shard:%d:vnode:%d" % (shard_id, vnode)), shard_id))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [shard_id for _, shard_id in points]

    def shard_for(self, message: bytes) -> int:
        """First shard clockwise from the message's ring position."""
        position = _ring_position(message)
        index = bisect.bisect_right(self._positions, position)
        if index == len(self._positions):
            index = 0
        return self._owners[index]


class ShardWorker:
    """One shard: queue -> batch windows -> amortized crypto calls."""

    def __init__(self, shard_id: int, handle: ServiceHandle,
                 max_batch: int, max_wait_ms: float, queue_depth: int,
                 fault_injector: Optional[Callable] = None,
                 worker_pool: Optional[RemoteWorkerPool] = None,
                 wal: Optional[WriteAheadLog] = None):
        self.shard_id = shard_id
        self.handle = handle
        self.queue: "asyncio.Queue[PendingRequest]" = asyncio.Queue(
            maxsize=queue_depth)
        # A remote window's crypto belongs to its worker: no hook there.
        self.accumulator = BatchAccumulator(
            self.queue, max_batch, max_wait_ms,
            prepare=self._presign if worker_pool is None else None)
        self.max_batch = max_batch
        self.stats = ShardStats(shard_id=shard_id)
        self.fault_injector = fault_injector
        #: When set, windows are encoded into wire jobs and dispatched
        #: to the shared remote workers instead of running on this loop.
        self.worker_pool = worker_pool
        #: The service-wide write-ahead log (shared across shards;
        #: this worker fsyncs it once per closed window).
        self.wal = wal
        #: Quorum rotation: shard i starts its signer window at offset i,
        #: so different shards exercise different (overlapping) quorums.
        self.quorum = handle.quorum(rotation=shard_id)
        #: The epoch barrier: held across each window's [sync, shed,
        #: process] sequence, never across the blocking wait for the
        #: next window (an idle shard must not block a key swap).
        #: ``begin_epoch``/``resize`` acquire every shard's lock, which
        #: drains all in-flight windows, then mutate under the barrier.
        self.lifecycle = asyncio.Lock()
        self._task: Optional[asyncio.Task] = None

    def swap_handle(self, handle: ServiceHandle) -> None:
        """Install new-epoch key material (caller holds ``lifecycle``).

        A window formed under the old epoch but processed after the
        swap signs under the new shares — correct because LJY
        signatures are deterministic and a refresh/reshare provably
        preserves the master key, so the bytes are identical."""
        self.handle = handle
        self.quorum = handle.quorum(rotation=self.shard_id)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name=f"shard-{self.shard_id}")

    async def stop(self) -> None:
        """Cancel the worker.  The frontend waits for all outstanding
        requests to resolve before calling this, so no accepted request
        is ever dropped mid-window."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    # -- request processing -------------------------------------------------
    def _presign(self, request: PendingRequest) -> bool:
        """The accumulator's ``prepare`` hook: Share-Sign is
        non-interactive, so a sign request's quorum partials are made
        while its window forms instead of after the timer — outside the
        lifecycle barrier, hence :meth:`_fence_holds`."""
        if request.kind is not RequestKind.SIGN or request.future.done():
            return False
        clock = asyncio.get_running_loop().time
        started = clock()
        try:
            request.presigned = (
                self.handle, self.quorum, self.handle.partials_with_faults(
                    [request.message], self.quorum,
                    fault_injector=self.fault_injector,
                    shard_id=self.shard_id)[0])
        except Exception:  # the close re-raises it under the window's guard
            pass
        self.stats.busy_ms += (clock() - started) * 1000.0
        return True

    def _fence_holds(self, request: PendingRequest) -> bool:
        """Early partials are used only under the very handle and quorum
        they were made with: after an epoch swap, resize or putback they
        are re-made (an honest old-epoch partial checked against
        new-epoch verification keys would be read as a forgery)."""
        made = request.presigned
        return made is not None and made[0] is self.handle \
            and made[1] is self.quorum

    async def _run(self) -> None:
        while True:
            window = await self.accumulator.next_window()
            # The lifecycle barrier: if an epoch transition holds the
            # lock, this window waits it out and is then processed
            # under the *new* handle (safe — see ``swap_handle``).  A
            # cancellation while waiting (a shard leaving during a
            # resize) puts the window back for migration.
            try:
                await self.lifecycle.acquire()
            except asyncio.CancelledError:
                self.accumulator.putback(window)
                raise
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                if self.wal is not None:
                    # Durability barrier: one fsync covers every admit
                    # buffered up to this window's close, so each
                    # request's admit record hits the disk before its
                    # signature can be observed (done records ride the
                    # *next* window's sync — losing one costs an
                    # idempotent replay).
                    self.wal.sync()
                window = self._shed_expired(window, loop)
                if window:
                    self._record_window(window)
                    try:
                        if self.worker_pool is None:
                            self._process_window(window, loop)
                        else:
                            await self._process_window_remote(window, loop)
                    except Exception as exc:  # defensive: fail requests,
                        for request in window:  # not the shard
                            if not request.future.done():
                                request.future.set_exception(
                                    RequestFailedError(str(exc)))
                    self.stats.busy_ms += (loop.time() - started) * 1000.0
            finally:
                self.lifecycle.release()
            # One cooperative yield per window so admission and other
            # shards interleave with the (synchronous) crypto calls.
            await asyncio.sleep(0)

    def _shed_expired(self, window: List[PendingRequest],
                      loop) -> List[PendingRequest]:
        """Drop requests whose end-to-end deadline passed while they
        queued: a late signature is wasted crypto, and under sustained
        overload expiry keeps window capacity for requests that can
        still make their deadlines."""
        now = loop.time()
        live = []
        for request in window:
            if request.deadline is not None and now >= request.deadline:
                self.stats.expired += 1
                self._resolve(request, RequestExpiredError(
                    self.shard_id, (now - request.deadline) * 1000.0))
            else:
                live.append(request)
        return live

    def _record_window(self, window: List[PendingRequest]) -> None:
        self.stats.windows += 1
        size = len(window)
        self.stats.batched_requests += size
        self.stats.requests += size
        self.stats.max_batch_seen = max(self.stats.max_batch_seen, size)
        if size >= self.max_batch:
            self.stats.full_windows += 1
        for request in window:
            if request.tenant is not None:
                tenants = self.stats.tenant_requests
                tenants[request.tenant] = \
                    tenants.get(request.tenant, 0) + 1

    @staticmethod
    def _split(window: List[PendingRequest]):
        signs = [r for r in window if r.kind is RequestKind.SIGN]
        verifies = [r for r in window if r.kind is RequestKind.VERIFY]
        return signs, verifies

    def _process_window(self, window: List[PendingRequest], loop) -> None:
        """In-process mode: run the window's crypto on this event loop."""
        signs, verifies = self._split(window)
        if signs:
            self.stats.sign_requests += len(signs)
            presigned = {
                position: request.presigned[2]
                for position, request in enumerate(signs)
                if self._fence_holds(request)}
            self.stats.presigned += len(presigned)
            outcome = self.handle.process_sign_window(
                [request.message for request in signs], quorum=self.quorum,
                fault_injector=self.fault_injector,
                shard_id=self.shard_id, presigned=presigned)
            self._apply_sign_outcome(signs, outcome, len(window), loop)
        if verifies:
            self.stats.verify_requests += len(verifies)
            verdicts = self.handle.verify_window(
                [request.message for request in verifies],
                [request.signature for request in verifies])
            self._apply_verify_verdicts(verifies, verdicts,
                                        len(window), loop)

    async def _process_window_remote(self, window: List[PendingRequest],
                                     loop) -> None:
        """Remote mode: encode the window into wire jobs and dispatch
        them to the shared worker pool.  The sign and verify halves of
        a mixed window are independent jobs (possibly on different
        workers): they run concurrently and each settles on its own
        outcome, so one half failing does not fail the other."""
        signs, verifies = self._split(window)
        halves = []
        if signs:
            self.stats.sign_requests += len(signs)
            halves.append((signs, SignWindowJob(
                shard_id=self.shard_id, epoch=self.handle.epoch,
                messages=tuple(request.message for request in signs),
                quorum=tuple(self.quorum))))
        if verifies:
            self.stats.verify_requests += len(verifies)
            halves.append((verifies, VerifyWindowJob(
                shard_id=self.shard_id, epoch=self.handle.epoch,
                messages=tuple(request.message for request in verifies),
                signatures=tuple(
                    request.signature for request in verifies))))
        outcomes = await asyncio.gather(
            *(self.worker_pool.run_job(job) for _, job in halves),
            return_exceptions=True)
        for (requests, job), outcome in zip(halves, outcomes):
            if isinstance(outcome, BaseException):
                for request in requests:
                    self._resolve(request, RequestFailedError(str(outcome)))
            elif isinstance(job, SignWindowJob):
                self._apply_sign_outcome(requests, outcome,
                                         len(window), loop)
            else:
                self._apply_verify_verdicts(requests, outcome.verdicts,
                                            len(window), loop)

    @staticmethod
    def _resolve(request: PendingRequest, result) -> None:
        """Complete a request future unless the client already gave up
        (a cancelled/timed-out awaiter must not poison the window)."""
        if request.future.done():
            return
        if isinstance(result, Exception):
            request.future.set_exception(result)
        else:
            request.future.set_result(result)

    def _apply_sign_outcome(self, requests: List[PendingRequest],
                            outcome, window_size: int, loop) -> None:
        """Resolve sign futures from a SignWindowOutcome (either mode)."""
        self.stats.faults_localized += outcome.faults_localized
        self.stats.fallback_combines += outcome.fallback_combines
        flagged_set = set(outcome.flagged)
        failures = dict(outcome.failures)
        for position, request in enumerate(requests):
            signature = outcome.signatures[position]
            if signature is None:
                self._resolve(request, RequestFailedError(
                    failures.get(position, "sign request failed")))
                continue
            latency_ms = (loop.time() - request.enqueued_at) * 1000.0
            self._resolve(request, SignResult(
                message=request.message, signature=signature,
                shard_id=self.shard_id, batch_size=window_size,
                fallback=position in flagged_set, latency_ms=latency_ms))

    def _apply_verify_verdicts(self, requests: List[PendingRequest],
                               verdicts: Sequence[bool],
                               window_size: int, loop) -> None:
        invalid = sum(1 for verdict in verdicts if not verdict)
        self.stats.faults_localized += invalid
        for request, verdict in zip(requests, verdicts):
            latency_ms = (loop.time() - request.enqueued_at) * 1000.0
            self._resolve(request, VerifyResult(
                message=request.message, valid=verdict,
                shard_id=self.shard_id, batch_size=window_size,
                latency_ms=latency_ms))


class ShardPool:
    """All shard workers plus the consistent-hash routing between them."""

    def __init__(self, handle: ServiceHandle, num_shards: int,
                 max_batch: int, max_wait_ms: float, queue_depth: int,
                 fault_injector: Optional[Callable] = None,
                 remote_workers: Sequence[str] = (),
                 wal: Optional[WriteAheadLog] = None,
                 remote_job_timeout_s: float = 60.0,
                 remote_psk: Optional[object] = None):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if fault_injector is not None and remote_workers:
            raise ValueError(
                "fault_injector runs on the in-process tier only: with "
                "remote_workers=[...] the partials are signed on the "
                "workers and an injector is not shipped over the wire — "
                "configure it there (WorkerServer(fault_injector=...))")
        # ``remote_workers`` moves every window's crypto off this loop
        # onto standalone ``repro.service.remote_worker`` processes
        # (loopback for the cores of this machine, or other machines),
        # shared by all shards.
        self.worker_pool: Optional[RemoteWorkerPool] = (
            RemoteWorkerPool(handle, remote_workers,
                             job_timeout_s=remote_job_timeout_s,
                             psk=remote_psk)
            if remote_workers else None)
        # Kept for live resize: added shards are built from the same
        # recipe (and the *current* handle, which swap_handle tracks).
        self._handle = handle
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.queue_depth = queue_depth
        self.fault_injector = fault_injector
        self.wal = wal
        self.workers: Dict[int, ShardWorker] = {
            shard_id: ShardWorker(
                shard_id, handle, max_batch, max_wait_ms, queue_depth,
                fault_injector=fault_injector,
                worker_pool=self.worker_pool, wal=wal)
            for shard_id in range(num_shards)
        }
        self.ring = HashRing(sorted(self.workers))

    def worker_for(self, message: bytes) -> ShardWorker:
        return self.workers[self.ring.shard_for(message)]

    def worker_at(self, rotation: int) -> ShardWorker:
        """The shard whose rotated signer quorum has offset
        ``rotation`` — the per-tenant quorum-pinning policy
        (:class:`~repro.service.tenants.TenantConfig.quorum_rotation`):
        every shard's quorum is ``handle.quorum(rotation=shard_id)``,
        so pinning a rotation pins the signer subset.  Wraps modulo the
        current shard count, so the policy survives live resizes
        (though the *pinned* quorum may change when the ring does)."""
        shard_ids = sorted(self.workers)
        return self.workers[shard_ids[rotation % len(shard_ids)]]

    # -- key-lifecycle barrier ----------------------------------------------
    async def pause_all(self) -> List[ShardWorker]:
        """Acquire every shard's lifecycle lock (in shard-id order, so
        concurrent barriers cannot deadlock).  Returns the locked
        workers; pass them to :meth:`resume_all`.  Acquiring the set
        drains all in-flight windows — admission keeps queueing, so a
        paused pool sheds nothing."""
        workers = [self.workers[sid] for sid in sorted(self.workers)]
        for worker in workers:
            await worker.lifecycle.acquire()
        return workers

    def resume_all(self, workers: List[ShardWorker]) -> None:
        for worker in reversed(workers):
            worker.lifecycle.release()

    def queued(self) -> int:
        """Requests currently sitting in shard queues (the set a
        barrier carries across an epoch swap)."""
        return sum(w.queue.qsize() for w in self.workers.values())

    def swap_handle(self, handle: ServiceHandle) -> None:
        """Install new-epoch key material on every shard.  Caller must
        hold every lifecycle lock (:meth:`pause_all`) so no window is
        mid-crypto during the swap."""
        self._handle = handle
        for worker in self.workers.values():
            worker.swap_handle(handle)

    async def resize(self, num_shards: int) -> int:
        """Live ring resize: grow or shrink to ``num_shards`` shards,
        migrating queued requests instead of stranding them.

        Under the all-shards barrier: departing workers are stopped
        (cancellation puts their forming windows back), every queue is
        drained, the new worker set and hash ring are built, and each
        drained request is re-routed through the *new* ring — counted
        in :attr:`ShardStats.migrated` at its destination when it
        changed shards.  Returns the number of migrated requests.
        """
        if num_shards < 1:
            raise ValueError("need at least one shard")
        paused = await self.pause_all()
        started_before = any(w._task is not None for w in paused)
        try:
            removed = [w for sid, w in self.workers.items()
                       if sid >= num_shards]
            for worker in removed:
                # Safe mid-barrier: we hold its lock, so the worker is
                # parked either in next_window or at the lock — both
                # cancellation points put taken requests back.
                await worker.stop()
            drained: List = []  # (source shard id, request)
            for sid in sorted(self.workers):
                worker = self.workers[sid]
                spill = worker.accumulator.spilled
                for request in spill:
                    drained.append((sid, request))
                spill.clear()
                while True:
                    try:
                        drained.append((sid, worker.queue.get_nowait()))
                    except asyncio.QueueEmpty:
                        break
            self.workers = {
                sid: self.workers.get(sid) or ShardWorker(
                    sid, self._handle, self.max_batch, self.max_wait_ms,
                    self.queue_depth, fault_injector=self.fault_injector,
                    worker_pool=self.worker_pool, wal=self.wal)
                for sid in range(num_shards)
            }
            self.ring = HashRing(sorted(self.workers))
            migrated = 0
            for source, request in drained:
                dest = self.worker_for(request.message)
                if dest.queue.full():
                    self._grow_queue(dest)
                dest.queue.put_nowait(request)
                if dest.shard_id != source:
                    dest.stats.migrated += 1
                    migrated += 1
            if started_before:
                for worker in self.workers.values():
                    if worker._task is None:
                        worker.start()
        finally:
            self.resume_all(paused)
        return migrated

    @staticmethod
    def _grow_queue(worker: ShardWorker) -> None:
        """A destination queue filled up mid-migration: rebuild it with
        double the depth (migration must not shed — the requests were
        already admitted).  The accumulator holds a queue reference, so
        it is repointed too; safe because the worker is paused."""
        grown: "asyncio.Queue[PendingRequest]" = asyncio.Queue(
            maxsize=max(1, worker.queue.maxsize) * 2)
        while True:
            try:
                grown.put_nowait(worker.queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        worker.queue = grown
        worker.accumulator.queue = grown

    def start(self) -> None:
        if self.worker_pool is not None:
            self.worker_pool.start()
        for worker in self.workers.values():
            worker.start()

    async def stop(self) -> None:
        await asyncio.gather(
            *(worker.stop() for worker in self.workers.values()))
        if self.worker_pool is not None:
            # Closes the connections; the worker processes themselves
            # live on — they belong to their supervisors, not to us.
            await self.worker_pool.aclose()

    def stats(self) -> Dict[int, ShardStats]:
        return {
            shard_id: worker.stats
            for shard_id, worker in self.workers.items()
        }
