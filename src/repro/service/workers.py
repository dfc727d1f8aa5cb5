"""The process-parallel execution tier: a pool of warm worker processes.

PR 3's shard pool runs every window on one asyncio event loop, so the
multi-pairing work of the crypto layer never uses more than one core.
:class:`WorkerPool` adds the missing tier: shard workers encode their
batch windows into the wire format of :mod:`repro.serialization` and
dispatch them to a :class:`concurrent.futures.ProcessPoolExecutor` via
``loop.run_in_executor``, so N windows run on N cores while the event
loop keeps admitting and batching requests.

Three properties the pool guarantees:

* **Warm per-process state.**  Each worker process decodes the service
  context (scheme, keys, quorum material) exactly once, in the executor
  initializer — and immediately warms the hot caches: the Miller-loop
  line coefficients (``PreparedG2``) of every fixed pairing argument
  (``g_z``, ``g_r``, the public key and all verification keys) and the
  fixed-base window tables of the derived generators.  Jobs then pay
  only their own crypto, never per-job setup.
* **A real wire format.**  Jobs and results cross the process boundary
  as canonical bytes (:class:`~repro.serialization.WireCodec`), not as
  pickled object graphs — the exact encoding a multi-*machine*
  deployment would put on a socket, which keeps the job inputs trivially
  picklable and the format testable.
* **Crash detection and resubmission.**  A worker process dying
  mid-window breaks the executor (``BrokenProcessPool``); the pool
  detects it, rebuilds the executor (fresh warm workers) and resubmits
  the job, bounded by ``max_retries`` — so a crashed worker costs
  latency, never a lost request.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from repro.serialization import (
    PartialSignJob, SignWindowJob, VerifyWindowJob, VerifyWindowOutcome,
    PartialSignOutcome, WireCodec, decode_service_context,
    encode_service_context,
)
from repro.service.types import (
    StaleEpochError, WorkerCrashError, WorkerPoolStats,
)

#: Per-process worker state: (codec, handle, fault_injector).  Set once
#: by :func:`_init_worker`, read by every job the process executes.
_WORKER_STATE = None


def warm_handle(handle) -> None:
    """Warm every cache a window job's hot path touches repeatedly:
    pairing preparation (Miller-loop line coefficients) for all fixed
    G_hat arguments and fixed-base window tables for the derived
    generators.  ``ThresholdParams`` already prepares ``g_z``/``g_r`` on
    construction; the public key and verification keys are prepared
    explicitly because every window check pairs against them.

    Shared by the process tier (executor initializer, once per process)
    and the TCP tier (:mod:`repro.service.remote_worker`, once per
    server process) — jobs then pay only their own crypto.
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

    The single dispatch both worker tiers execute — a process worker
    (:func:`_run_job`) and a TCP remote worker
    (:mod:`repro.service.transport`) must serve byte-identical
    contracts, so they share this function rather than each reimplement
    the job -> ``ServiceHandle`` mapping.

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
                job.message, job.signers, fault_injector=fault_injector,
                shard_id=job.shard_id)))
    raise TypeError(f"unknown job type {type(job).__name__}")


def _init_worker(context_blob: bytes, fault_injector) -> None:
    """Executor initializer: rebuild the handle and warm the caches.

    Runs once per worker *process* (not per job); see
    :func:`warm_handle` for what gets prepared.
    """
    global _WORKER_STATE
    handle = decode_service_context(context_blob)
    warm_handle(handle)
    _WORKER_STATE = (WireCodec(handle.scheme.group), handle, fault_injector)


def _run_job(job_blob: bytes) -> bytes:
    """Execute one encoded window job; runs inside a worker process."""
    codec, handle, fault_injector = _WORKER_STATE
    outcome = execute_job(handle, codec.decode_job(job_blob),
                          fault_injector=fault_injector)
    return codec.encode_outcome(outcome)


def _worker_pid() -> int:
    """Identify the executing worker process (tests and diagnostics)."""
    return os.getpid()


class WorkerPool:
    """A shared pool of warm worker processes serving window jobs."""

    def __init__(self, handle, workers: int,
                 fault_injector: Optional[Callable] = None,
                 max_retries: int = 2):
        if workers < 1:
            raise ValueError("need at least one worker process")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        # Raises TypeError for schemes without window entry points —
        # fail at construction, not from deep inside a worker process.
        self._context = encode_service_context(handle)
        self._codec = WireCodec(handle.scheme.group)
        self._fault_injector = fault_injector
        self.workers = workers
        self.max_retries = max_retries
        self.stats = WorkerPoolStats(workers=workers)
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._executor is not None

    def start(self) -> None:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker,
                initargs=(self._context, self._fault_injector))

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    async def aclose(self) -> None:
        """Async shutdown (the common worker-tier interface shared with
        :class:`~repro.service.transport.RemoteWorkerPool`).  Joining N
        worker processes can take a while; run it off-loop so the event
        loop stays cooperative."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.shutdown)

    async def update_handle(self, handle) -> None:
        """Re-provision every worker process with new-epoch key
        material.  Called from inside the ``begin_epoch`` barrier (all
        shards paused, no jobs in flight), so the executor can simply
        be replaced: the next job lands on a process whose initializer
        decoded — and warmed — the new context.  Async for interface
        parity with the TCP tier, whose re-warm really does await
        network round-trips."""
        self._context = encode_service_context(handle)
        if self._executor is not None:
            self._restart(self._executor)
        self.stats.rewarms += 1

    def _restart(self, broken: ProcessPoolExecutor) -> bool:
        """Replace a broken executor (idempotent under concurrent
        callers: asyncio is single-threaded, so the identity check and
        the swap run atomically between awaits — the first coroutine to
        observe the break rebuilds, later ones see a fresh executor).
        Returns True for the coroutine that actually performed the
        swap, so one worker death is counted once even when it breaks
        many in-flight jobs."""
        if self._executor is not broken:
            return False
        broken.shutdown(wait=False, cancel_futures=True)
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_worker,
            initargs=(self._context, self._fault_injector))
        return True

    # -- job dispatch -------------------------------------------------------
    async def run_job(self, job):
        """Dispatch one window job to a worker process and decode its
        outcome, resubmitting (to a rebuilt pool) on worker crashes."""
        if self._executor is None:
            raise WorkerCrashError("worker pool is not running")
        blob = self._codec.encode_job(job)
        loop = asyncio.get_running_loop()
        last_error = None
        for attempt in range(self.max_retries + 1):
            executor = self._executor
            try:
                outcome_blob = await loop.run_in_executor(
                    executor, _run_job, blob)
            except BrokenProcessPool as exc:
                # A worker died mid-job (OOM-kill, segfault, os._exit);
                # the whole executor is poisoned and must be rebuilt.
                # One death breaks every in-flight job, so only the
                # coroutine that performs the rebuild counts the crash.
                last_error = exc
                if self._restart(executor):
                    self.stats.crashes += 1
                if attempt < self.max_retries:
                    self.stats.resubmissions += 1
                continue
            self.stats.jobs += 1
            return self._codec.decode_outcome(outcome_blob)
        raise WorkerCrashError(
            f"job failed after {self.max_retries + 1} attempts on "
            f"crashing workers: {last_error}")

    async def worker_pids(self) -> set:
        """PIDs of (a sample of) live worker processes."""
        if self._executor is None:
            raise WorkerCrashError("worker pool is not running")
        loop = asyncio.get_running_loop()
        pids = await asyncio.gather(*(
            loop.run_in_executor(self._executor, _worker_pid)
            for _ in range(2 * self.workers)))
        return set(pids)
