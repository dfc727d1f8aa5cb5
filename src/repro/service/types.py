"""Request/response types, typed errors and stats for the signing service.

The service promises *typed* failure modes: an overloaded shard rejects
at admission (:class:`ServiceOverloadedError`, the load-shedding path), a
stopped service rejects immediately (:class:`ServiceClosedError`), and a
sign request that cannot reach t+1 valid partial signatures even through
the robust fallback fails with :class:`RequestFailedError`.  Anything
else is a bug, not an error code.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.keys import Signature
from repro.errors import ReproError
from repro.net.metrics import TrafficCounter


class ServiceError(ReproError):
    """Base class for signing-service errors."""


class ServiceOverloadedError(ServiceError):
    """Admission control shed the request (bounded queue was full)."""

    def __init__(self, shard_id: int, depth: int):
        super().__init__(
            f"shard {shard_id} queue full ({depth} pending requests)")
        self.shard_id = shard_id
        self.depth = depth


class ServiceClosedError(ServiceError):
    """The service is not accepting requests (not started, or stopped)."""


class RequestFailedError(ServiceError):
    """A sign request could not be completed (not enough valid shares)."""


class StaleEpochError(ServiceError):
    """An executor holding epoch-e key material received a job stamped
    with a different epoch.  Signing with dead shares must never happen
    silently: the job is refused and the dispatcher re-warms the worker
    (``update_handle``) before resubmitting."""

    def __init__(self, job_epoch: int, handle_epoch: int):
        super().__init__(
            f"job is stamped epoch {job_epoch} but this worker holds "
            f"epoch {handle_epoch} key material")
        self.job_epoch = job_epoch
        self.handle_epoch = handle_epoch


class RequestExpiredError(ServiceError):
    """The request's end-to-end deadline passed before its window ran;
    it was shed instead of served late (a signature delivered after the
    caller's deadline is wasted crypto — worse, under load it steals
    window capacity from requests that can still make theirs)."""

    def __init__(self, shard_id: int, overdue_ms: float):
        super().__init__(
            f"request deadline exceeded by {overdue_ms:.1f}ms before "
            f"shard {shard_id} could serve it")
        self.shard_id = shard_id
        self.overdue_ms = overdue_ms


class TransportError(ServiceError):
    """The remote-worker tier could not serve a job: the pool is not
    running, every configured endpoint stayed unreachable past the dial
    deadline, or the retry budget was exhausted on dropped connections
    (each drop is detected and the job resubmitted first — this is the
    gave-up error)."""


class HandshakeError(TransportError):
    """A remote worker answered the HELLO with a different protocol
    version, backend or service-context digest.  This is
    misprovisioning, not a transient fault — the pool quarantines the
    endpoint for its lifetime, and raises this (after a single
    round-robin pass, not ``dial_deadline_s`` of retries) once every
    configured endpoint has refused."""


class RemoteJobError(TransportError):
    """A remote worker reported a job-level error (an ``E`` frame): the
    frame arrived intact but the payload could not be decoded or
    executed.  Resubmitting the same bytes cannot help, so the pool
    fails the job instead of retrying."""


class RequestKind(enum.Enum):
    SIGN = "sign"
    VERIFY = "verify"


@dataclass(frozen=True)
class SignResult:
    """Outcome of one sign request."""

    message: bytes
    signature: Signature
    shard_id: int
    batch_size: int
    #: True when the window check flagged this request and it was
    #: re-combined through the robust path (forged partials localized,
    #: missing ones topped up).
    fallback: bool
    latency_ms: float


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one verify request."""

    message: bytes
    valid: bool
    shard_id: int
    batch_size: int
    latency_ms: float


@dataclass
class ShardStats:
    """Per-shard scheduling and amortization accounting."""

    shard_id: int
    requests: int = 0
    sign_requests: int = 0
    verify_requests: int = 0
    windows: int = 0
    full_windows: int = 0
    max_batch_seen: int = 0
    #: Sum of window sizes; ``requests_per_window`` derives the mean.
    batched_requests: int = 0
    faults_localized: int = 0
    fallback_combines: int = 0
    #: Requests shed at window formation because their deadline passed
    #: while they sat in the queue (:class:`RequestExpiredError`).
    expired: int = 0
    #: Queued requests that arrived on this shard by live migration —
    #: re-routed off a departing shard during a ``resize`` instead of
    #: being stranded there (counted at the destination).
    migrated: int = 0
    #: Requests this shard served per tenant (requests carrying no
    #: tenant label — library callers, WAL replay — are not counted
    #: here; the aggregate counters above cover them).
    tenant_requests: Dict[str, int] = field(default_factory=dict)
    #: Sign requests served from partials made before their window
    #: closed (Share-Sign while the window formed).
    presigned: int = 0
    #: Wall-clock ms spent on windows, pre-signing included.
    busy_ms: float = 0.0

    @property
    def requests_per_window(self) -> float:
        return self.batched_requests / self.windows if self.windows else 0.0


@dataclass
class WorkerPoolStats:
    """Worker-tier accounting
    (:class:`~repro.service.transport.RemoteWorkerPool`)."""

    #: Configured worker endpoints.
    workers: int = 0
    #: Window jobs that completed on a worker.
    jobs: int = 0
    #: Worker deaths observed: a connection dropped mid-job.
    crashes: int = 0
    #: Jobs resubmitted (to the re-dialed or another endpoint) after a
    #: crash, connection drop or timeout.
    resubmissions: int = 0
    #: Successful re-dials after a connection was lost.
    reconnects: int = 0
    #: Jobs abandoned because a *connected* worker did not answer
    #: within the per-job timeout — the hung-worker detector; each one
    #: also discards the connection and resubmits.
    timeouts: int = 0
    #: Circuit-breaker openings: an endpoint quarantined after repeated
    #: dial/job failures instead of staying in the round-robin.
    breaker_trips: int = 0
    #: Live context re-warms: workers handed new-epoch key material in
    #: place (a ``C`` context-push frame) instead of being torn down.
    rewarms: int = 0
    #: High-water mark of concurrently in-flight requests on one
    #: connection — evidence that several shards' window jobs really do
    #: share a connection instead of serializing.
    max_inflight: int = 0


def percentile(samples, q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank method."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class EpochStats:
    """Key-lifecycle accounting: what epoch transitions cost.

    The contract ``begin_epoch`` is measured against: no request is
    *rejected* because of a transition (admission keeps queueing while
    shards drain), so the entire lifecycle cost is a bounded pause —
    recorded per transition — plus the queued requests carried across
    the swap and served under the new shares.  Deriving the new key
    material (the refresh or reshare DKG) precedes the pause and holds
    the event loop for its own, recorded, time.
    """

    #: Current key-lifecycle generation.
    epoch: int = 0
    #: Completed transitions, by kind.
    transitions: int = 0
    refreshes: int = 0
    reshares: int = 0
    recoveries: int = 0
    #: Shard-pool resizes (ring changes are lifecycle events too: they
    #: take the same all-shards barrier as a key swap).
    resizes: int = 0
    #: Requests that were sitting in shard queues at swap time and were
    #: served under the new epoch's key material.
    requests_carried: int = 0
    #: Wall-clock ms each barrier held the shards paused.
    pauses_ms: list = field(default_factory=list)
    #: Wall-clock ms each refresh / reshare / retire / recover spent
    #: deriving its new handle on the loop before the barrier (none for
    #: a caller-supplied ``begin_epoch`` handle or a resize).
    derive_ms: list = field(default_factory=list)

    @property
    def pause_p99_ms(self) -> float:
        return percentile(self.pauses_ms, 99.0) if self.pauses_ms else 0.0

    @property
    def pause_max_ms(self) -> float:
        return max(self.pauses_ms) if self.pauses_ms else 0.0


@dataclass
class ServiceStats:
    """Aggregated service telemetry (admission + shards + traffic)."""

    accepted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    #: Requests shed past admission because their deadline expired.
    expired: int = 0
    #: Unacknowledged WAL entries replayed at start-up.
    recovered: int = 0
    #: Admissions per tenant label (the service-side half of the
    #: multi-tenant accounting; the edge-side half — quota rejections
    #: the service never sees — lives in
    #: :class:`~repro.service.tenants.TenantStats`).
    tenant_accepted: Dict[str, int] = field(default_factory=dict)
    ingress: TrafficCounter = field(default_factory=TrafficCounter)
    egress: TrafficCounter = field(default_factory=TrafficCounter)
    shards: Dict[int, ShardStats] = field(default_factory=dict)
    #: Present when the service runs the worker tier
    #: (``remote_workers``); None in-process.
    workers: Optional[WorkerPoolStats] = None
    #: Key-lifecycle accounting (epoch transitions, barrier pauses).
    epochs: EpochStats = field(default_factory=EpochStats)

    def summary(self) -> Dict[str, object]:
        summary = {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "expired": self.expired,
            "recovered": self.recovered,
            "ingress": self.ingress.summary(),
            "egress": self.egress.summary(),
            "windows": sum(s.windows for s in self.shards.values()),
            "faults_localized": sum(
                s.faults_localized for s in self.shards.values()),
            "mean_batch": (
                sum(s.batched_requests for s in self.shards.values())
                / max(1, sum(s.windows for s in self.shards.values()))),
        }
        if self.workers is not None:
            summary["worker_jobs"] = self.workers.jobs
            summary["worker_crashes"] = self.workers.crashes
            summary["worker_reconnects"] = self.workers.reconnects
            summary["worker_timeouts"] = self.workers.timeouts
            summary["worker_breaker_trips"] = self.workers.breaker_trips
        if self.tenant_accepted:
            summary["tenants"] = dict(self.tenant_accepted)
        if self.epochs.transitions or self.epochs.resizes:
            summary["epoch"] = self.epochs.epoch
            summary["epoch_transitions"] = self.epochs.transitions
            summary["epoch_pause_p99_ms"] = round(
                self.epochs.pause_p99_ms, 3)
            summary["requests_carried"] = self.epochs.requests_carried
        return summary


@dataclass
class PendingRequest:
    """A queued request: payload plus its completion future and clock."""

    kind: RequestKind
    message: bytes
    enqueued_at: float
    future: "object"
    signature: Optional[Signature] = None
    #: Loop-clock instant after which the request is shed instead of
    #: served (None = no deadline configured).
    deadline: Optional[float] = None
    #: Write-ahead-log id of the admit record (None when the WAL is
    #: off, or for verify requests — stateless reads are not logged).
    request_id: Optional[int] = None
    #: Tenant label for multi-tenant accounting (None for library
    #: callers and WAL replay — the label is edge metadata, not an
    #: obligation, so it is deliberately NOT persisted).
    tenant: Optional[str] = None
    #: ``(handle, quorum, partials)`` when a shard Share-Signed this
    #: request while its window formed; used at close only by a shard
    #: still holding exactly that handle and quorum.
    presigned: Optional[tuple] = None
