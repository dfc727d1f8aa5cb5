"""The production front door: a dependency-free asyncio HTTP gateway.

Everything below :class:`~repro.service.frontend.SigningService` speaks
Python — callers ``await service.sign(...)`` in-process.  Real
deployments (Thetacrypt's REST front end is the model) put the signing
core behind HTTP so heterogeneous applications can reach it.  This
module is that layer, built directly on ``asyncio.start_server`` with a
small HTTP/1.1 implementation (request line, headers, Content-Length
bodies, keep-alive) — no web framework, per the repo's
no-new-dependencies rule.

The route table:

* ``POST /v1/sign`` / ``POST /v1/verify`` — the data plane.  JSON in
  (hex-encoded message bytes; signatures in the
  :class:`~repro.serialization.WireCodec` encoding), JSON out, with a
  server-assigned request id echoed in ``X-Request-Id``.
* ``GET /healthz`` — liveness (unauthenticated).
* ``GET /metrics`` — Prometheus text exposition (unauthenticated),
  rendering the whole telemetry surface: gateway route counters and
  latency histograms, per-tenant quota accounting, service admission
  counters, per-shard window stats, worker-tier stats and epoch
  lifecycle stats.
* ``POST /admin/refresh`` / ``/admin/reshare`` / ``/admin/resize`` —
  the control plane: the PR 7 live key-lifecycle machinery driven over
  the wire (requires a tenant with ``admin=True``).

Typed shedding maps onto HTTP status codes: a tenant over its own quota
gets ``429`` with a ``Retry-After`` derived from its token bucket; a
request shed by the service's bounded queues gets ``503``; a deadline
miss gets ``504``; an exhausted robust fallback gets ``500``.  Every
error body is JSON with a stable ``error`` discriminator.

Graceful drain: :meth:`HttpGateway.stop` closes the listener, lets
every in-flight request finish and be answered, then closes idle
keep-alive connections — so the shutdown order *gateway drain, then
service stop* loses nothing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.curves.hash_to_curve import HASH_COUNTERS
from repro.curves.pairing import PAIRING_COUNTERS
from repro.errors import ReproError
from repro.math.msm import MSM_COUNTERS
from repro.sharing.pedersen_vss import DKG_COUNTERS
from repro.net.metrics import (
    Histogram, Metric, MetricFamily, collect, metric, render_prometheus,
)
from repro.serialization import WireCodec
from repro.service.frontend import SigningService
from repro.service.tenants import (
    TenantConfig, TenantQuotaError, TenantRegistry, TenantState,
    UnknownTenantError,
)
from repro.service.types import (
    RequestExpiredError, RequestFailedError, ServiceClosedError,
    ServiceOverloadedError,
)

#: Request bodies larger than this are refused with ``413`` before the
#: service sees them (a sign request is a digest-sized message; anything
#: megabyte-scale is a client bug or abuse).
MAX_BODY_BYTES = 1 << 20

#: From a request's first byte to its last body byte, a client has this
#: long; a request still incomplete then is closed without dispatch,
#: like a truncated one, so a stalled client cannot hold a connection.
#: The wait for the first byte (an idle keep-alive connection) is not
#: timed.
REQUEST_DEADLINE_S = 10.0

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _HttpError(Exception):
    """An error with a ready HTTP mapping, raised by route handlers."""

    def __init__(self, status: int, error: str, detail: str = "",
                 headers: Iterable[Tuple[str, str]] = ()):
        super().__init__(detail or error)
        self.status = status
        self.error = error
        self.detail = detail
        self.headers = list(headers)


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body", "request_id")

    def __init__(self, method: str, path: str,
                 headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.request_id = ""

    def json(self) -> dict:
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, "bad-json",
                             f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "bad-json",
                             "request body must be a JSON object")
        return payload


def _hex_field(payload: dict, field: str) -> bytes:
    value = payload.get(field)
    if not isinstance(value, str):
        raise _HttpError(400, "missing-field",
                         f"field {field!r} must be a hex string")
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise _HttpError(400, "bad-hex",
                         f"field {field!r} is not valid hex") from None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:      # the line outgrew the reader's buffer limit
        raise _HttpError(400, "line-too-long",
                         "request or header line too long") from None


def _int_field(payload: dict, field: str) -> int:
    value = payload.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _HttpError(400, "missing-field",
                         f"field {field!r} must be an integer")
    return value


@dataclass
class GatewayStats:
    """The gateway's own telemetry.  Routes are the table patterns,
    ``other`` for 404s and unparseable requests."""

    requests_total: Dict[Tuple[str, int], int] = metric(
        "ljy_gateway_requests_total",
        "HTTP requests served, by route and status code.",
        key=("route", "code"))
    inflight: int = metric("ljy_gateway_inflight",
                           "HTTP requests currently being served.", "gauge")
    request_ms: Dict[str, Histogram] = metric(
        "ljy_gateway_request_ms",
        "HTTP request latency (parse to response written), by route.",
        "histogram", key="route")


#: ``ljy_crypto_ops_total``: the process-wide crypto counters, each dict
#: with the ``op`` label of each of its keys (:data:`CRYPTO_COUNTERS`).
CRYPTO_OPS = Metric(
    "ljy_crypto_ops_total", "counter",
    "Pairing, MSM, hash-to-G1 and DKG share-check operations run in this "
    "process, by op (MSM rows by the kernel that served them).",
    key=("op",))
CRYPTO_COUNTERS = (
    (PAIRING_COUNTERS, {"miller_loops": "miller_loops",
                        "final_exps": "final_exps",
                        "preparations": "g2_preparations"}),
    (MSM_COUNTERS, {key: f"msm_{key}" for key in MSM_COUNTERS}),
    (HASH_COUNTERS, {key: f"hash_{key}" for key in HASH_COUNTERS}),
    (DKG_COUNTERS, {key: f"dkg_{key}" for key in DKG_COUNTERS}),
)


class _Connection:
    """Per-connection bookkeeping for the drain protocol."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class HttpGateway:
    """HTTP/1.1 front end for a :class:`SigningService`.

    The gateway does not own the service: ``start``/``stop`` manage only
    the listener, so the correct shutdown order is ``await
    gateway.stop()`` (drain the HTTP edge) then ``await service.stop()``
    (close the signing barrier).  ``port=0`` binds an ephemeral port;
    the bound address is available as :attr:`host`/:attr:`port` after
    :meth:`start`.
    """

    def __init__(self, service: SigningService,
                 tenants: Iterable[TenantConfig] = (),
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.tenants = TenantRegistry(tenants)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[asyncio.Task, _Connection] = {}
        self._draining = False
        self._next_request_id = 0
        self.stats = GatewayStats()
        self._codec: Optional[WireCodec] = None

    # -- lifecycle ----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def requests_total(self) -> Dict[Tuple[str, int], int]:
        """``(route, status) -> count`` (:class:`GatewayStats`)."""
        return self.stats.requests_total

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("gateway already started")
        if not self.service.running:
            raise ServiceClosedError(
                "start the signing service before the gateway")
        self._codec = WireCodec(self.service.handle.scheme.group)
        self._draining = False
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]

    async def stop(self) -> None:
        """Graceful drain: stop accepting, answer every in-flight
        request, then close idle keep-alive connections."""
        if self._server is None:
            return
        server, self._server = self._server, None
        self._draining = True
        server.close()
        await server.wait_closed()
        # Idle connections are parked in readline(); closing the socket
        # wakes them with EOF.  Busy ones finish their response first —
        # their handler loop re-checks _draining before the next read.
        for conn in self._connections.values():
            if not conn.busy:
                conn.writer.close()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # -- connection handling ------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        task = asyncio.current_task()
        self._connections[task] = conn
        try:
            while not self._draining:
                request = await self._read_request(reader, writer)
                if request is None:
                    return
                conn.busy = True
                self.stats.inflight += 1
                try:
                    keep_alive = await self._dispatch(request, writer)
                finally:
                    self.stats.inflight -= 1
                    conn.busy = False
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
            self, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter) -> Optional[_Request]:
        """Parse one request off the connection; ``None`` on EOF, or once
        malformed framing is answered with its typed 4xx (the caller
        then closes the connection).  EOF anywhere before the blank line
        that ends the head — a request or header line without its
        ``\\n`` — is a truncated request: ``None``, never dispatched,
        exactly like a body cut short.  So is a request whose last
        body byte has not arrived :data:`REQUEST_DEADLINE_S` after its
        first byte."""
        first = await reader.read(1)
        if not first:
            return None
        try:
            async with asyncio.timeout(REQUEST_DEADLINE_S):
                return await self._read_rest(first, reader, writer)
        except TimeoutError:
            return None

    async def _read_rest(
            self, first: bytes, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter) -> Optional[_Request]:
        """:meth:`_read_request` after the request's ``first`` byte."""
        try:
            line = first if first == b"\n" else first + await _read_line(
                reader)
            if not line.endswith(b"\n"):
                return None
            try:
                method, path, version = line.decode("ascii").split()
            except ValueError:
                raise _HttpError(400, "bad-request-line",
                                 "malformed HTTP request line") from None
            headers: Dict[str, str] = {}
            while True:
                raw = await _read_line(reader)
                if not raw.endswith(b"\n"):
                    return None
                if raw in (b"\r\n", b"\n"):
                    break
                name, colon, value = raw.decode("latin-1").partition(":")
                name, value = name.strip().lower(), value.strip()
                if not colon or not name:
                    raise _HttpError(400, "bad-header",
                                     "header line is not 'name: value'")
                # RFC 9112 section 6.3: differing lengths are refused,
                # never resolved by picking one.
                if name == "content-length" and \
                        headers.get(name, value) != value:
                    raise _HttpError(400, "conflicting-content-length",
                                     "Content-Length given twice, differing")
                headers[name] = value
            if "transfer-encoding" in headers:
                # No transfer coding is implemented, so a chunked body
                # could only be misread as the next request.
                raise _HttpError(501, "unsupported-transfer-encoding",
                                 "bodies must be framed by Content-Length")
            declared = headers.get("content-length", "0") or "0"
            if not (declared.isascii() and declared.isdigit()):
                raise _HttpError(
                    400, "bad-content-length",
                    f"Content-Length {declared!r} is not a byte count")
            length = int(declared)
            if length > MAX_BODY_BYTES:
                raise _HttpError(
                    413, "payload-too-large",
                    f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        except _HttpError as exc:
            await self._write_error(writer, None, exc.status, exc.error,
                                    exc.detail)
            return None
        if headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        request = _Request(method.upper(), path.split("?", 1)[0],
                           headers, body)
        self._next_request_id += 1
        request.request_id = f"gw-{self._next_request_id}"
        return request

    # -- routing ------------------------------------------------------------
    def _routes(self):
        return {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/v1/sign"): self._handle_sign,
            ("POST", "/v1/verify"): self._handle_verify,
            ("POST", "/admin/refresh"): self._handle_refresh,
            ("POST", "/admin/reshare"): self._handle_reshare,
            ("POST", "/admin/resize"): self._handle_resize,
        }

    async def _dispatch(self, request: _Request,
                        writer: asyncio.StreamWriter) -> bool:
        loop = asyncio.get_running_loop()
        started = loop.time()
        routes = self._routes()
        handler = routes.get((request.method, request.path))
        route = request.path if handler is not None else "other"
        if handler is not None:
            try:
                status, payload = await handler(request)
                headers: List[Tuple[str, str]] = []
            except _HttpError as exc:
                status, payload, headers = exc.status, {
                    "error": exc.error, "detail": exc.detail,
                    "request_id": request.request_id,
                }, exc.headers
        elif any(path == request.path for _, path in routes):
            allowed = ", ".join(sorted(
                method for method, path in routes if path == request.path))
            status, payload, headers = 405, {
                "error": "method-not-allowed",
                "detail": f"{request.method} not supported",
                "request_id": request.request_id,
            }, [("Allow", allowed)]
        else:
            status, payload, headers = 404, {
                "error": "not-found",
                "detail": f"no route {request.path!r}",
                "request_id": request.request_id,
            }, []
        if request.path == "/metrics" and status == 200:
            body = payload.encode("utf-8")
            content_type = _PROMETHEUS
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = _JSON
        keep_alive = (
            not self._draining and
            request.headers.get("connection", "").lower() != "close")
        await self._write_response(
            writer, status, body, content_type, keep_alive,
            [("X-Request-Id", request.request_id), *headers])
        counts = self.stats.requests_total
        counts[(route, status)] = counts.get((route, status), 0) + 1
        self.stats.request_ms.setdefault(route, Histogram()).observe(
            (loop.time() - started) * 1000.0)
        return keep_alive

    async def _write_response(
            self, writer: asyncio.StreamWriter, status: int, body: bytes,
            content_type: str, keep_alive: bool,
            headers: Iterable[Tuple[str, str]] = ()) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    async def _write_error(self, writer, request_id, status, error,
                           detail) -> None:
        payload = {"error": error, "detail": detail}
        if request_id:
            payload["request_id"] = request_id
        await self._write_response(
            writer, status, json.dumps(payload).encode("utf-8"),
            _JSON, keep_alive=False)
        counts = self.stats.requests_total
        counts[("other", status)] = counts.get(("other", status), 0) + 1

    # -- auth ---------------------------------------------------------------
    def _authorize(self, request: _Request,
                   admin: bool = False) -> TenantState:
        try:
            state = self.tenants.resolve(request.headers.get("x-api-key"))
        except UnknownTenantError as exc:
            raise _HttpError(401, "unauthorized", str(exc)) from None
        if admin and not state.config.admin:
            raise _HttpError(
                403, "forbidden",
                f"tenant {state.config.name!r} may not use admin routes")
        return state

    # -- data plane ---------------------------------------------------------
    async def _handle_sign(self, request: _Request):
        state = self._authorize(request)
        message = _hex_field(request.json(), "message")
        return await self._submit(
            request, state, self.service.sign(
                message, tenant=state.config.name),
            self._sign_payload)

    async def _handle_verify(self, request: _Request):
        state = self._authorize(request)
        payload = request.json()
        message = _hex_field(payload, "message")
        try:
            signature = self._codec.decode_signature(
                _hex_field(payload, "signature"))
        except _HttpError:
            raise
        except (ReproError, ValueError) as exc:
            raise _HttpError(400, "bad-signature",
                             f"signature does not decode: {exc}") from None
        return await self._submit(
            request, state, self.service.verify(
                message, signature, tenant=state.config.name),
            self._verify_payload)

    async def _submit(self, request: _Request, state: TenantState,
                      operation, render):
        """Shared sign/verify tail: edge quota, service call, typed
        error mapping, per-tenant accounting."""
        loop = asyncio.get_running_loop()
        try:
            state.admit(loop.time())
        except TenantQuotaError as exc:
            operation.close()
            raise _HttpError(
                429, "over-quota", str(exc),
                [("Retry-After",
                  TenantRegistry.retry_after_header(exc.retry_after_s))],
            ) from None
        try:
            result = await operation
        except ServiceClosedError as exc:
            state.stats.shed += 1
            raise _HttpError(503, "closed", str(exc)) from None
        except ServiceOverloadedError as exc:
            state.stats.shed += 1
            raise _HttpError(503, "overloaded", str(exc),
                             [("Retry-After", "1")]) from None
        except RequestExpiredError as exc:
            state.stats.failed += 1
            raise _HttpError(504, "expired", str(exc)) from None
        except ReproError as exc:
            state.stats.failed += 1
            raise _HttpError(500, "failed",
                             f"{type(exc).__name__}: {exc}") from None
        finally:
            state.release()
        state.stats.completed += 1
        return 200, render(request, state, result)

    def _sign_payload(self, request: _Request, state: TenantState,
                      result) -> dict:
        return {
            "request_id": request.request_id,
            "tenant": state.config.name,
            "signature": self._codec.encode_signature(
                result.signature).hex(),
            "shard_id": result.shard_id,
            "batch_size": result.batch_size,
            "fallback": result.fallback,
            "latency_ms": round(result.latency_ms, 3),
            "epoch": self.service.handle.epoch,
        }

    def _verify_payload(self, request: _Request, state: TenantState,
                        result) -> dict:
        return {
            "request_id": request.request_id,
            "tenant": state.config.name,
            "valid": result.valid,
            "shard_id": result.shard_id,
            "batch_size": result.batch_size,
            "latency_ms": round(result.latency_ms, 3),
            "epoch": self.service.handle.epoch,
        }

    # -- control plane ------------------------------------------------------
    async def _handle_refresh(self, request: _Request):
        self._authorize(request, admin=True)
        pause_ms = await self._lifecycle(request, self.service.refresh())
        return 200, {
            "request_id": request.request_id,
            "epoch": self.service.handle.epoch,
            "pause_ms": round(pause_ms, 3),
        }

    async def _handle_reshare(self, request: _Request):
        self._authorize(request, admin=True)
        payload = request.json()
        threshold = _int_field(payload, "threshold")
        indices = payload.get("indices")
        if not isinstance(indices, list) or \
                not all(isinstance(i, int) for i in indices):
            raise _HttpError(400, "missing-field",
                             "field 'indices' must be a list of integers")
        pause_ms = await self._lifecycle(
            request, self.service.reshare(threshold, indices))
        return 200, {
            "request_id": request.request_id,
            "epoch": self.service.handle.epoch,
            "pause_ms": round(pause_ms, 3),
            "threshold": self.service.handle.threshold,
            "signers": sorted(self.service.handle.shares),
        }

    async def _handle_resize(self, request: _Request):
        self._authorize(request, admin=True)
        shards = _int_field(request.json(), "shards")
        migrated = await self._lifecycle(
            request, self.service.resize(shards))
        return 200, {
            "request_id": request.request_id,
            "shards": shards,
            "migrated": migrated,
        }

    async def _lifecycle(self, request: _Request, operation):
        try:
            return await operation
        except ServiceClosedError as exc:
            raise _HttpError(503, "closed", str(exc)) from None
        except (ReproError, ValueError) as exc:
            # Bad lifecycle parameters (threshold out of range, unknown
            # signer indices, shards < 1) are caller errors.
            raise _HttpError(400, "bad-lifecycle",
                             f"{type(exc).__name__}: {exc}") from None

    # -- observability ------------------------------------------------------
    async def _handle_healthz(self, request: _Request):
        return 200, {
            "status": "ok" if self.service.running else "stopped",
            "epoch": self.service.handle.epoch,
            "draining": self._draining,
        }

    async def _handle_metrics(self, request: _Request):
        return 200, render_prometheus(self.metric_families())

    def metric_families(self) -> List[MetricFamily]:
        """The full telemetry surface as Prometheus metric families:
        the declarations of this gateway's :class:`GatewayStats`, of
        every tenant's stats and of the service's
        :meth:`~SigningService.snapshot_stats`, then
        :data:`CRYPTO_OPS`."""
        families = collect(self.stats)
        for name, state in sorted(self.tenants.states().items()):
            collect(state.stats, (("tenant", name),), families)
        collect(self.service.snapshot_stats(), (), families)
        CRYPTO_OPS.add_to(families, (), [
            (op, counters[key]) for counters, ops in CRYPTO_COUNTERS
            for key, op in ops.items()])
        return list(families.values())
