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
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.keys import Signature
from repro.errors import ReproError
from repro.net.metrics import metric, walked


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
    round-robin pass, not ``DIAL_DEADLINE_S`` of retries) once every
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
    """Per-shard scheduling and amortization accounting.  Its samples
    carry the ``shard`` label of :attr:`ServiceStats.shards`."""

    #: The sum of window sizes.
    batched_requests: int = metric("ljy_shard_requests_total",
                                   "Requests served, by shard.")
    windows: int = metric("ljy_shard_windows_total",
                          "Batch windows executed, by shard.")
    full_windows: int = metric(
        "ljy_shard_full_windows_total",
        "Batch windows closed full (max_batch requests), by shard.")
    expired: int = metric(
        "ljy_shard_expired_total",
        "Requests shed at window formation (deadline), by shard.")
    #: Counted at the destination shard of a ``resize``.
    migrated: int = metric(
        "ljy_shard_migrated_total",
        "Queued requests received by live resize migration.")
    presigned: int = metric(
        "ljy_shard_presigned_total",
        "Sign requests served from partials made before their window "
        "closed, by shard.")
    busy_ms: float = metric(
        "ljy_shard_busy_ms_total",
        "Wall-clock ms spent pre-signing and executing windows, by "
        "shard.", default=0.0)
    #: ``SignWindowOutcome.faults_localized`` plus invalid verdicts.
    faults_localized: int = metric(
        "ljy_shard_faults_localized_total",
        "Sign requests the window check flagged and signatures found "
        "invalid, by shard.")
    fallback_combines: int = metric(
        "ljy_shard_fallback_combines_total",
        "Sign requests combined with partials from beyond their quorum, "
        "by shard.")


@dataclass
class WorkerPoolStats:
    """Worker-tier accounting
    (:class:`~repro.service.transport.RemoteWorkerPool`)."""

    workers: int = metric("ljy_worker_endpoints",
                          "Configured worker endpoints.", "gauge")
    jobs: int = metric("ljy_worker_jobs_total", "Window jobs completed.")
    #: A connection dropped mid-job.
    crashes: int = metric("ljy_worker_crashes_total",
                          "Worker deaths observed.")
    #: To the re-dialed or another endpoint, after a crash, connection
    #: drop or timeout.
    resubmissions: int = metric(
        "ljy_worker_resubmissions_total",
        "Jobs resubmitted after a crash or dropped connection.")
    reconnects: int = metric(
        "ljy_worker_reconnects_total",
        "Successful re-dials after a lost connection.")
    #: A *connected* worker that did not answer within the per-job
    #: timeout; each one also discards the connection and resubmits.
    timeouts: int = metric("ljy_worker_timeouts_total",
                           "Jobs abandoned on a hung worker.")
    #: An endpoint quarantined after repeated dial/job failures instead
    #: of staying in the round-robin.
    breaker_trips: int = metric("ljy_worker_breaker_trips_total",
                                "Endpoint quarantines (circuit breaker).")
    #: Workers handed new-epoch key material in place (a ``C``
    #: context-push frame) instead of being torn down.
    rewarms: int = metric("ljy_worker_rewarms_total",
                          "Live worker context re-warms on epoch swaps.")
    #: Evidence that several shards' window jobs really do share a
    #: connection instead of serializing.
    max_inflight: int = metric(
        "ljy_worker_max_inflight",
        "High-water mark of requests in flight on one worker connection.",
        "gauge")


#: The kinds of key-lifecycle transition: a caller-supplied
#: ``begin_epoch`` handle, the four derived ones, and a shard-ring
#: resize (it takes the same all-shards barrier).  The
#: ``epoch_transition`` log line and ``ljy_epoch_transitions_total``
#: both use exactly these words.
TRANSITION_KINDS = ("swap", "refresh", "reshare", "retire", "recover",
                    "resize")


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

    epoch: int = metric("ljy_epoch", "Current key-lifecycle generation.",
                        "gauge")
    #: Every transition counts once under its kind, so the kinds sum
    #: to the pauses recorded.
    transitions: Dict[str, int] = metric(
        "ljy_epoch_transitions_total",
        "Completed lifecycle transitions, resizes included, by kind.",
        key="kind", default_factory=lambda: dict.fromkeys(
            TRANSITION_KINDS, 0))
    #: Served under the new epoch's key material.
    requests_carried: int = metric(
        "ljy_epoch_requests_carried_total",
        "Requests carried across epoch swaps in shard queues.")
    pauses_ms: list = metric("ljy_epoch_pause_ms",
                             "Barrier pause per lifecycle transition.",
                             "histogram")
    #: None for a caller-supplied ``begin_epoch`` handle or a resize.
    derive_ms: list = metric(
        "ljy_epoch_derive_ms",
        "Time deriving the new key material on the loop before the "
        "barrier, per derived transition.", "histogram")

    @property
    def pause_p99_ms(self) -> float:
        return percentile(self.pauses_ms, 99.0) if self.pauses_ms else 0.0


@dataclass
class ServiceStats:
    """Aggregated service telemetry (admission + shards + traffic)."""

    accepted: int = metric("ljy_service_accepted_total",
                           "Requests admitted into shard queues.")
    rejected: int = metric("ljy_service_rejected_total",
                           "Requests shed at admission (queue full).")
    completed: int = metric("ljy_service_completed_total",
                            "Requests completed with a result.")
    failed: int = metric("ljy_service_failed_total",
                         "Requests failed past admission.")
    expired: int = metric("ljy_service_expired_total",
                          "Requests shed because their deadline passed.")
    recovered: int = metric("ljy_service_recovered_total",
                            "WAL admits replayed at start-up.")
    #: Payload sizes by :func:`~repro.net.metrics.estimate_size`.
    ingress_messages: int = metric("ljy_service_ingress_messages_total",
                                   "Request payloads received.")
    ingress_bytes: int = metric(
        "ljy_service_ingress_bytes_total",
        "Estimated request payload bytes received.")
    egress_messages: int = metric("ljy_service_egress_messages_total",
                                  "Results returned.")
    egress_bytes: int = metric("ljy_service_egress_bytes_total",
                               "Estimated result bytes returned.")
    #: The service-side half of the multi-tenant accounting; the
    #: edge-side half — quota rejections the service never sees — is
    #: :class:`~repro.service.tenants.TenantStats`.
    tenant_accepted: Dict[str, int] = metric(
        "ljy_service_tenant_accepted_total",
        "Admissions into shard queues, by tenant label.", key="tenant")
    shards: Dict[int, ShardStats] = walked("shard", default_factory=dict)
    #: Present when the service runs the worker tier
    #: (``remote_workers``); None in-process.
    workers: Optional[WorkerPoolStats] = walked(default=None)
    epochs: EpochStats = walked(default_factory=EpochStats)


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
