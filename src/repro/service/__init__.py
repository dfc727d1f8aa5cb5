"""Async threshold-signing service: sharded request pipeline with
batch-window amortization.

PRs 1-2 made the cryptography fast in *batch* form (`batch_verify`,
batch Share-Verify, MSM Combine) but every caller still drove the scheme
one request at a time, so none of the amortization was realized end to
end.  This package turns the scheme into a long-lived server in the
Thetacrypt mold:

* :class:`~repro.service.frontend.SigningService` — the asyncio frontend
  accepting sign/verify requests with admission control and
  backpressure: a bounded per-shard queue, load shedding with typed
  errors (:class:`~repro.service.types.ServiceOverloadedError`).
* :class:`~repro.service.accumulator.BatchAccumulator` — closes a batch
  window on ``max_batch`` requests or ``max_wait_ms`` elapsed, whichever
  comes first, so latency is bounded while full windows pay one
  amortized crypto call for the whole batch; the in-process shard
  Share-Signs requests while their window forms (its ``prepare`` hook),
  so the wait is not idle and only Combine is left for the close.
* :class:`~repro.service.shards.ShardPool` — partitions signer quorums
  and request traffic across N workers by consistent hashing on the
  message digest; per-shard stats.
* :class:`~repro.service.loadgen.LoadGenerator` — open-loop Poisson
  arrivals and closed-loop concurrency, reporting p50/p99 latency and
  throughput; :class:`~repro.service.loadgen.GatewayClient` drives the
  same load through the HTTP front door.
* :class:`~repro.service.gateway.HttpGateway` — the production front
  door: a dependency-free asyncio HTTP/1.1 server exposing ``POST
  /v1/sign`` / ``/v1/verify``, admin key-lifecycle routes
  (``/admin/refresh`` / ``/admin/reshare`` / ``/admin/resize``) and a
  Prometheus ``GET /metrics`` endpoint.  API keys resolve to tenants
  (:mod:`~repro.service.tenants`) with token-bucket rate quotas,
  and in-flight caps; typed shedding maps to
  HTTP 429/503/504 with ``Retry-After``.
* :mod:`~repro.service.transport` — the worker tier: shard workers
  encode their windows into the wire format of
  :mod:`repro.serialization` and ship them over framed asyncio TCP
  (``ServiceConfig(remote_workers=["host:port", ...])``) to standalone
  ``python -m repro.service.remote_worker`` processes — one per core on
  loopback, or on other machines — with a context-digest handshake and
  reconnect-with-backoff + resubmission on dropped connections.
* :mod:`~repro.service.wal` — the crash-safe durability layer: every
  admitted sign request is appended to a write-ahead log (length+CRC
  record framing, fsync batched per closed window) and replayed
  idempotently on the next ``start()`` against the same
  ``ServiceConfig(wal_path=...)``, so a SIGKILL of the service process
  never loses an admitted request; per-request deadlines
  (``request_deadline_s``) shed stale requests with a typed
  :class:`~repro.service.types.RequestExpiredError` instead of signing
  late.
* :mod:`~repro.service.faults` — failure injection: a shard returning
  forged partial signatures exercises the robust path (quotient
  localization of the forged partials, top-up from the next signers)
  without poisoning neighbors in the same window; a worker process
  dying mid-window (:class:`~repro.service.faults.WorkerCrashFault`)
  exercises the pool's crash recovery; random live lifecycle churn
  (:class:`~repro.service.faults.ChurnFault`) exercises the epoch
  barrier under load.
* **Key lifecycle** — live epoch transitions with zero lifecycle
  rejections: ``SigningService.begin_epoch`` drains in-flight windows
  behind per-shard barriers, swaps shares/quorums/worker contexts
  (a ``C`` context-push frame to every remote worker) and resumes —
  requests queued across the swap are served under the new shares
  with byte-identical signatures.  ``refresh`` / ``reshare``
  / ``retire_signer`` / ``recover_signer`` wrap the DKG protocols of
  :mod:`repro.dkg`; ``resize`` re-rings the shard pool live, migrating
  queued requests.  Telemetry in
  :class:`~repro.service.types.EpochStats`.

Scheduling policy, amortization and (with ``remote_workers``) process
parallelism are real; only the client/server network is simulated away.
"""

from repro.service.accumulator import BatchAccumulator
from repro.service.faults import (
    ChurnFault, CorruptSignerFault, WorkerCrashFault,
)
from repro.service.frontend import ServiceConfig, SigningService
from repro.service.gateway import HttpGateway
from repro.service.loadgen import GatewayClient, LoadGenerator, LoadReport
from repro.service.shards import HashRing, ShardPool
from repro.service.tenants import (
    TenantConfig, TenantQuotaError, TenantRegistry, TenantStats,
    TokenBucket, UnknownTenantError,
)
from repro.service.transport import RemoteWorkerPool, WorkerServer
from repro.service.types import (
    EpochStats, HandshakeError, RemoteJobError, RequestExpiredError,
    RequestFailedError, ServiceClosedError, ServiceError,
    ServiceOverloadedError, ServiceStats, ShardStats, SignResult,
    StaleEpochError, TransportError, VerifyResult, WorkerPoolStats,
)
from repro.service.wal import WalStats, WriteAheadLog

__all__ = [
    "BatchAccumulator", "ChurnFault", "CorruptSignerFault", "EpochStats",
    "GatewayClient", "HandshakeError", "HashRing", "HttpGateway",
    "LoadGenerator", "LoadReport", "RemoteJobError", "RemoteWorkerPool",
    "RequestExpiredError", "RequestFailedError", "ServiceClosedError",
    "ServiceConfig", "ServiceError", "ServiceOverloadedError",
    "ServiceStats", "ShardPool", "ShardStats", "SigningService",
    "SignResult", "StaleEpochError", "TenantConfig", "TenantQuotaError",
    "TenantRegistry", "TenantStats", "TokenBucket", "TransportError",
    "UnknownTenantError", "VerifyResult", "WalStats", "WorkerCrashFault",
    "WorkerPoolStats", "WorkerServer", "WriteAheadLog",
]
