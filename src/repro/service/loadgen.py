"""Client-side load generation and latency measurement.

Two classic load models:

* **closed loop** — ``concurrency`` virtual clients, each issuing its
  next request the moment the previous one completes.  Offered load
  adapts to service speed; this is the model that fills batch windows
  deterministically and measures peak throughput.
* **open loop** — Poisson arrivals at ``rate_rps``, independent of
  completions (the "millions of users" model: users do not wait for each
  other).  Under overload the bounded queues shed requests, which the
  report counts rather than hides.

Latency is measured per request from submission to completion and
reported as p50/p99 plus throughput over the wall-clock span.

The generator is execution-tier agnostic: the same workload drives an
in-process service or the remote-worker tier — the knob is
``ServiceConfig(remote_workers=[...])`` on the service under test,
which is how ``tools/bench_snapshot.py`` (``svc_tcp_*``) measures
multi-core scaling at fixed offered load.  It is also
*transport* agnostic: :class:`GatewayClient` wraps the HTTP front door
(:class:`~repro.service.gateway.HttpGateway`) in the same
``sign``/``verify`` shape with the same typed errors, so a workload
closure swaps between in-process and HTTP by swapping the client
object (the ``sign_http`` workload of ``perf/``).
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.service.tenants import TenantQuotaError
from repro.service.types import (
    RequestExpiredError, RequestFailedError, ServiceClosedError,
    ServiceOverloadedError, SignResult, VerifyResult, percentile,
)


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    sent: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    #: Requests shed past admission because their deadline expired
    #: while queued (only with ``ServiceConfig(request_deadline_s=...)``).
    expired: int = 0
    invalid: int = 0
    duration_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: Each completed request's result, by ordinal.
    results: Dict[int, object] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99)


#: A workload maps the request ordinal to an awaitable service call.
Workload = Callable[[int], Awaitable[object]]


class LoadGenerator:
    """Drives a workload against the service and measures it."""

    def __init__(self, workload: Workload, rng: Optional[random.Random] = None):
        self.workload = workload
        self.rng = rng or random.Random()

    async def _issue(self, ordinal: int, report: LoadReport,
                     loop) -> None:
        report.sent += 1
        started = loop.time()
        try:
            result = await self.workload(ordinal)
        except ServiceOverloadedError:
            report.rejected += 1
            return
        except RequestExpiredError:
            report.expired += 1
            return
        except RequestFailedError:
            report.failed += 1
            return
        report.completed += 1
        report.latencies_ms.append((loop.time() - started) * 1000.0)
        report.results[ordinal] = result
        if isinstance(result, VerifyResult) and not result.valid:
            report.invalid += 1

    async def run_closed(self, total: int, concurrency: int) -> LoadReport:
        """Closed loop: ``concurrency`` clients, ``total`` requests."""
        report = LoadReport()
        loop = asyncio.get_running_loop()
        counter = iter(range(total))
        started = loop.time()

        async def client() -> None:
            for ordinal in counter:
                await self._issue(ordinal, report, loop)

        await asyncio.gather(*(client() for _ in range(concurrency)))
        report.duration_s = loop.time() - started
        return report

    async def run_open(self, total: int, rate_rps: float) -> LoadReport:
        """Open loop: Poisson arrivals at ``rate_rps``, ``total`` requests.

        Inter-arrival gaps are exponential with mean ``1/rate_rps``;
        requests are fired without waiting for completions, so queueing
        delay and load shedding show up instead of throttling the
        source.
        """
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        report = LoadReport()
        loop = asyncio.get_running_loop()
        started = loop.time()
        tasks = []
        for ordinal in range(total):
            tasks.append(loop.create_task(
                self._issue(ordinal, report, loop)))
            if ordinal + 1 < total:
                await asyncio.sleep(self.rng.expovariate(rate_rps))
        await asyncio.gather(*tasks)
        report.duration_s = loop.time() - started
        return report


class GatewayError(Exception):
    """An HTTP error from the gateway with no richer typed mapping:
    400/401/403/404/405/413 (caller bugs, not load outcomes), 501, and
    any 500 other than a failed request (``lifecycle-failed`` from
    ``/admin/*``)."""

    def __init__(self, status: int, error: str, detail: str = ""):
        super().__init__(f"HTTP {status} {error}: {detail}")
        self.status = status
        self.error = error
        self.detail = detail


class GatewayClient:
    """A keep-alive HTTP client for the gateway, shaped so the same
    :class:`LoadGenerator` workloads drive the HTTP front door.

    ``sign``/``verify`` raise the *same* typed errors as the in-process
    service API — ``429`` becomes :class:`TenantQuotaError`, ``503``
    :class:`ServiceOverloadedError`, ``504`` :class:`RequestExpiredError`
    and a ``500`` with error ``failed`` :class:`RequestFailedError` — so
    load reports count HTTP shedding exactly as they count in-process
    shedding; every other status is a :class:`GatewayError`.  Connections are
    pooled per client; a pooled connection the server closed between
    requests (drain, idle timeout) is retried once on a fresh socket —
    only when EOF arrives before any response byte, so a request is
    never replayed past the point the server might have answered it.

    ``codec`` (a :class:`~repro.serialization.WireCodec`) decodes
    signature hex into :class:`~repro.core.keys.Signature` objects; with
    ``codec=None`` the :class:`SignResult` carries the raw hex string.
    """

    def __init__(self, host: str, port: int, api_key: str, codec=None):
        self.host = host
        self.port = port
        self.api_key = api_key
        self.codec = codec
        self._idle: List[Tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    # -- the service-shaped API ---------------------------------------------
    async def sign(self, message: bytes) -> SignResult:
        payload = await self.request(
            "POST", "/v1/sign", {"message": message.hex()})
        signature = payload["signature"]
        if self.codec is not None:
            signature = self.codec.decode_signature(
                bytes.fromhex(signature))
        return SignResult(
            message=message, signature=signature,
            shard_id=payload["shard_id"], batch_size=payload["batch_size"],
            fallback=payload["fallback"], latency_ms=payload["latency_ms"])

    async def verify(self, message: bytes, signature) -> VerifyResult:
        if self.codec is not None and not isinstance(signature, str):
            signature = self.codec.encode_signature(signature).hex()
        payload = await self.request(
            "POST", "/v1/verify",
            {"message": message.hex(), "signature": signature})
        return VerifyResult(
            message=message, valid=payload["valid"],
            shard_id=payload["shard_id"], batch_size=payload["batch_size"],
            latency_ms=payload["latency_ms"])

    async def healthz(self) -> dict:
        return await self.request("GET", "/healthz")

    async def metrics(self) -> str:
        return await self.request("GET", "/metrics")

    async def admin_refresh(self) -> dict:
        return await self.request("POST", "/admin/refresh", {})

    async def admin_reshare(self, threshold: int, indices) -> dict:
        return await self.request(
            "POST", "/admin/reshare",
            {"threshold": threshold, "indices": list(indices)})

    async def admin_resize(self, shards: int) -> dict:
        return await self.request(
            "POST", "/admin/resize", {"shards": shards})

    async def close(self) -> None:
        while self._idle:
            _, writer = self._idle.pop()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- HTTP plumbing ------------------------------------------------------
    async def request(self, method: str, path: str,
                      payload: Optional[dict] = None):
        """One HTTP exchange; returns the decoded response body and
        raises the typed error the status code maps to."""
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else b"")
        pooled = bool(self._idle)
        reader, writer = (self._idle.pop() if pooled
                          else await self._connect())
        try:
            status, headers, response = await self._exchange(
                reader, writer, method, path, body)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            writer.close()
            if not pooled:
                raise
            # A stale pooled connection: the server closed it while it
            # sat idle.  Nothing of this request was answered, so one
            # retry on a fresh socket is safe.
            reader, writer = await self._connect()
            status, headers, response = await self._exchange(
                reader, writer, method, path, body)
        if headers.get("connection", "").lower() == "keep-alive":
            self._idle.append((reader, writer))
        else:
            writer.close()
        if headers.get("content-type", "").startswith("application/json"):
            decoded = json.loads(response.decode("utf-8"))
        else:
            decoded = response.decode("utf-8")
        if status == 200:
            return decoded
        raise self._error_for(status, headers, decoded)

    async def _connect(self):
        return await asyncio.open_connection(self.host, self.port)

    async def _exchange(self, reader, writer, method: str, path: str,
                        body: bytes):
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"X-API-Key: {self.api_key}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionResetError("connection closed by gateway")
        status = int(status_line.decode("ascii").split()[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        response = await reader.readexactly(length) if length else b""
        return status, headers, response

    @staticmethod
    def _error_for(status: int, headers: Dict[str, str], decoded):
        error = (decoded.get("error", "unknown")
                 if isinstance(decoded, dict) else "unknown")
        detail = (decoded.get("detail", "")
                  if isinstance(decoded, dict) else str(decoded))
        if status == 429:
            retry_after = float(headers.get("retry-after", "1"))
            reason = "rate" if "rate" in detail else "in-flight"
            return TenantQuotaError("remote", reason, retry_after)
        if status == 503:
            if error == "closed":
                return ServiceClosedError(detail)
            return ServiceOverloadedError(-1, 0)
        if status == 504:
            return RequestExpiredError(-1, 0.0)
        if status == 500 and error == "failed":
            return RequestFailedError(detail)
        return GatewayError(status, error, detail)
