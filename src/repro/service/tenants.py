"""Multi-tenancy: API keys and per-tenant quotas.

The gateway multiplexes many applications onto one signing core — the
Thetacrypt deployment shape.  Each application is a *tenant*: an API key
resolving to a :class:`TenantConfig` that bounds what the tenant may
take from the shared service (token-bucket request rate, max in-flight
requests).  Quota enforcement happens at the *edge*, before
admission: an over-quota request costs one token-bucket check, never a
queue slot or a crypto cycle, and is answered with a typed
:class:`TenantQuotaError` that the HTTP layer maps to ``429`` with a
``Retry-After`` the client can actually honor.

Quotas here are per-process state (the token bucket lives in the
gateway), which is the right scope for this repo's single-front-door
deployment; a multi-gateway deployment would move the bucket into a
shared store and keep this module's interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.net.metrics import metric
from repro.service.types import ServiceOverloadedError


class TenantQuotaError(ServiceOverloadedError):
    """The tenant's own quota shed the request (token bucket empty, or
    the in-flight cap reached) — the *edge* analogue of the service's
    queue-full shedding, so it subclasses
    :class:`~repro.service.types.ServiceOverloadedError` and every
    load-report path that counts rejections counts these too.
    ``retry_after_s`` is the earliest instant a retry can succeed
    (token-bucket refill time; one window for the in-flight cap)."""

    def __init__(self, tenant: str, reason: str, retry_after_s: float):
        # Bypass ServiceOverloadedError.__init__ — there is no shard
        # yet; the request never reached admission.
        Exception.__init__(
            self, f"tenant {tenant!r} over {reason} quota "
            f"(retry after {retry_after_s:.2f}s)")
        self.tenant = tenant
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.shard_id = -1
        self.depth = 0


class UnknownTenantError(Exception):
    """The presented API key resolves to no tenant (HTTP 401)."""


@dataclass
class TokenBucket:
    """The classic rate limiter: ``burst`` capacity refilled at
    ``rate_rps`` tokens per second.  ``try_acquire`` is O(1) and
    clock-driven (the caller passes ``loop.time()``), so tests can pin
    time and the bucket never needs a background task."""

    rate_rps: float
    burst: float
    tokens: float = field(default=-1.0)
    updated_at: float = field(default=-1.0)

    def __post_init__(self):
        if self.rate_rps <= 0 or self.burst <= 0:
            raise ValueError("rate_rps and burst must be positive")
        if self.tokens < 0:
            self.tokens = float(self.burst)

    def try_acquire(self, now: float) -> float:
        """Take one token.  Returns 0.0 on success, else the seconds
        until one token will be available (the ``Retry-After`` value)."""
        if self.updated_at >= 0:
            elapsed = max(0.0, now - self.updated_at)
            self.tokens = min(float(self.burst),
                              self.tokens + elapsed * self.rate_rps)
        self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate_rps


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's contract with the service.

    * ``rate_rps`` / ``burst`` — token-bucket admission quota at the
      edge.  ``rate_rps=None`` disables rate limiting for the tenant.
    * ``max_inflight`` — concurrent requests the tenant may hold open
      (``None`` = unbounded); the cheap defense against a single tenant
      saturating every shard queue.
    * ``admin`` — whether the key may drive the key-lifecycle routes
      (``/admin/refresh`` / ``/admin/reshare`` / ``/admin/resize``).
    """

    name: str
    api_key: str
    rate_rps: Optional[float] = None
    burst: float = 1.0
    max_inflight: Optional[int] = None
    admin: bool = False


#: One family, two declarations: each quota's rejections, by reason.
_REJECTED = "ljy_tenant_rejected_total"


@dataclass
class TenantStats:
    """Edge-side accounting for one tenant; its samples carry the
    ``tenant`` label.  The service-side view is
    ``ServiceStats.tenant_accepted``."""

    admitted: int = metric("ljy_tenant_admitted_total",
                           "Requests admitted past the tenant's edge quota.")
    completed: int = metric("ljy_tenant_completed_total",
                            "Requests answered with a result.")
    shed: int = metric("ljy_tenant_shed_total",
                       "Requests shed by the service's bounded queues (503).")
    failed: int = metric(
        "ljy_tenant_failed_total",
        "Requests failed or expired inside the service (5xx).")
    rejected_quota: int = metric(
        _REJECTED, "Requests shed by the tenant's own quota (429), by "
        "reason.", labels={"reason": "rate"})
    rejected_inflight: int = metric(_REJECTED, "",
                                    labels={"reason": "in-flight"})
    #: Released by :meth:`TenantState.release`; a cap, not a counter.
    inflight: int = metric("ljy_tenant_inflight",
                           "Requests the tenant currently holds open.",
                           "gauge")


class TenantState:
    """Live per-tenant state: the quota clocks plus the counters."""

    def __init__(self, config: TenantConfig):
        self.config = config
        self.bucket = (TokenBucket(config.rate_rps, config.burst)
                       if config.rate_rps is not None else None)
        self.stats = TenantStats()

    def admit(self, now: float) -> None:
        """Edge admission: charge the quota or raise
        :class:`TenantQuotaError`.  On success the caller MUST pair
        this with :meth:`release` (the in-flight count is a cap, not a
        counter that may drift)."""
        config = self.config
        if config.max_inflight is not None and \
                self.stats.inflight >= config.max_inflight:
            self.stats.rejected_inflight += 1
            raise TenantQuotaError(config.name, "in-flight", 1.0)
        if self.bucket is not None:
            retry_after = self.bucket.try_acquire(now)
            if retry_after > 0.0:
                self.stats.rejected_quota += 1
                raise TenantQuotaError(
                    config.name, "rate", retry_after)
        self.stats.inflight += 1
        self.stats.admitted += 1

    def release(self) -> None:
        self.stats.inflight = max(0, self.stats.inflight - 1)


class TenantRegistry:
    """API key -> :class:`TenantState` resolution for the gateway."""

    def __init__(self, tenants: Iterable[TenantConfig] = ()):
        self._by_key: Dict[str, TenantState] = {}
        self._by_name: Dict[str, TenantState] = {}
        for config in tenants:
            self.add(config)

    def add(self, config: TenantConfig) -> TenantState:
        if config.api_key in self._by_key:
            raise ValueError(
                f"duplicate API key for tenant {config.name!r}")
        if config.name in self._by_name:
            raise ValueError(f"duplicate tenant name {config.name!r}")
        state = TenantState(config)
        self._by_key[config.api_key] = state
        self._by_name[config.name] = state
        return state

    def resolve(self, api_key: Optional[str]) -> TenantState:
        """The tenant behind ``api_key``; raises
        :class:`UnknownTenantError` for a missing or unknown key."""
        if api_key is None or api_key not in self._by_key:
            raise UnknownTenantError("unknown or missing API key")
        return self._by_key[api_key]

    def states(self) -> Dict[str, TenantState]:
        """All tenants by name (stable iteration for ``/metrics``)."""
        return dict(self._by_name)

    @staticmethod
    def retry_after_header(retry_after_s: float) -> str:
        """``Retry-After`` is an integer number of seconds; round up so
        an honoring client never retries early."""
        return str(max(1, int(math.ceil(retry_after_s))))
