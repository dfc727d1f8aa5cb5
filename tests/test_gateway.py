"""Tests for the HTTP gateway, multi-tenancy and Prometheus exposition.

The gateway binds an ephemeral loopback port per test; protocol logic
runs on the toy backend with one end-to-end test (marked ``bn254``) on
the real pairing.  The Prometheus tests parse the exposition output
line-by-line — including label unescaping — and reconcile every counter
against ``snapshot_stats()`` exactly (``ljy_crypto_ops_total`` against
the ``PAIRING_COUNTERS`` / ``MSM_COUNTERS`` / ``HASH_COUNTERS`` /
``DKG_COUNTERS`` dicts), which is the same
gate ``tools/serve_smoke.py`` act 7 enforces.
"""

import asyncio
import json
import random
import time

import pytest

from repro.core.scheme import ServiceHandle
from repro.curves.hash_to_curve import HASH_COUNTERS
from repro.curves.pairing import PAIRING_COUNTERS
from repro.math.msm import MSM_COUNTERS
from repro.net.metrics import parse_prometheus
from repro.serialization import WireCodec
from repro.service import (
    GatewayClient, HttpGateway, ServiceConfig,
    SigningService, TenantConfig, TenantQuotaError, TenantRegistry,
    TokenBucket, UnknownTenantError,
)
from repro.service.loadgen import GatewayError
from repro.sharing.pedersen_vss import DKG_COUNTERS


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def handle(toy_group):
    return ServiceHandle.dealer(toy_group, 2, 5, rng=random.Random(31))


def service_config(**overrides):
    defaults = dict(num_shards=2, max_batch=4, max_wait_ms=2.0,
                    queue_depth=256)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


TENANTS = [
    TenantConfig(name="alpha", api_key="alpha-key", admin=True),
    TenantConfig(name="beta", api_key="beta-key", rate_rps=1.0, burst=2.0),
]


class gateway_running:
    """Async context manager: a started service + gateway, torn down in
    drain-then-barrier order."""

    def __init__(self, handle, tenants=TENANTS, config=None):
        self.service = SigningService(handle, config or service_config())
        self.tenants = tenants

    async def __aenter__(self):
        await self.service.start()
        self.gateway = HttpGateway(self.service, tenants=self.tenants)
        await self.gateway.start()
        return self.gateway

    async def __aexit__(self, *exc):
        await self.gateway.stop()
        await self.service.stop()


def client_for(gateway, api_key, codec=None):
    return GatewayClient(gateway.host, gateway.port, api_key, codec=codec)


async def raw_exchange(gateway, blob: bytes) -> bytes:
    """Send raw bytes, return the full response (for malformed input)."""
    reader, writer = await asyncio.open_connection(
        gateway.host, gateway.port)
    writer.write(blob)
    await writer.drain()
    response = await reader.read(65536)
    writer.close()
    return response


# ---------------------------------------------------------------------------
# Token bucket and registry units
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_rps=10.0, burst=2.0)
        assert bucket.try_acquire(0.0) == 0.0
        assert bucket.try_acquire(0.0) == 0.0
        retry = bucket.try_acquire(0.0)
        assert retry == pytest.approx(0.1)
        # After one refill period a token is back.
        assert bucket.try_acquire(0.1) == 0.0

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate_rps=100.0, burst=3.0)
        bucket.try_acquire(0.0)
        # A long idle period must not bank more than `burst` tokens.
        for _ in range(3):
            assert bucket.try_acquire(1000.0) == 0.0
        assert bucket.try_acquire(1000.0) > 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_rps=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_rps=1.0, burst=0.0)


class TestTenantRegistry:
    def test_resolve_and_unknown(self):
        registry = TenantRegistry(TENANTS)
        assert registry.resolve("alpha-key").config.name == "alpha"
        with pytest.raises(UnknownTenantError):
            registry.resolve("wrong")
        with pytest.raises(UnknownTenantError):
            registry.resolve(None)

    def test_duplicate_keys_and_names_refused(self):
        registry = TenantRegistry(TENANTS)
        with pytest.raises(ValueError):
            registry.add(TenantConfig(name="other", api_key="alpha-key"))
        with pytest.raises(ValueError):
            registry.add(TenantConfig(name="alpha", api_key="fresh-key"))

    def test_retry_after_header_rounds_up(self):
        assert TenantRegistry.retry_after_header(0.01) == "1"
        assert TenantRegistry.retry_after_header(1.2) == "2"
        assert TenantRegistry.retry_after_header(3.0) == "3"

    def test_inflight_cap(self):
        registry = TenantRegistry(
            [TenantConfig(name="t", api_key="k", max_inflight=1)])
        state = registry.resolve("k")
        state.admit(0.0)
        with pytest.raises(TenantQuotaError) as info:
            state.admit(0.0)
        assert info.value.reason == "in-flight"
        state.release()
        state.admit(0.0)  # released slot is usable again


# ---------------------------------------------------------------------------
# Data plane over HTTP
# ---------------------------------------------------------------------------

class TestGatewayDataPlane:
    def test_sign_verify_roundtrip(self, handle, toy_group):
        async def scenario():
            codec = WireCodec(toy_group)
            async with gateway_running(handle) as gateway:
                client = client_for(gateway, "alpha-key", codec=codec)
                result = await client.sign(b"http message")
                assert handle.verify(b"http message", result.signature)
                verdict = await client.verify(
                    b"http message", result.signature)
                assert verdict.valid
                verdict = await client.verify(b"other", result.signature)
                assert not verdict.valid
                await client.close()
        run(scenario())

    def test_request_ids_are_assigned_and_unique(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                client = client_for(gateway, "alpha-key")
                ids = set()
                for i in range(3):
                    payload = await client.request(
                        "POST", "/v1/sign",
                        {"message": (b"m%d" % i).hex()})
                    ids.add(payload["request_id"])
                assert len(ids) == 3
                await client.close()
        run(scenario())

    def test_unknown_api_key_is_401(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                client = client_for(gateway, "who-dis")
                with pytest.raises(GatewayError) as info:
                    await client.sign(b"nope")
                assert info.value.status == 401
                assert info.value.error == "unauthorized"
                # Missing header entirely is also 401.
                response = await raw_exchange(
                    gateway,
                    b"POST /v1/sign HTTP/1.1\r\nContent-Length: 2\r\n"
                    b"\r\n{}")
                assert b"401 Unauthorized" in response
                await client.close()
        run(scenario())

    def test_rate_quota_is_429_with_retry_after(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                client = client_for(gateway, "beta-key")
                for i in range(2):  # burst
                    await client.sign(b"beta %d" % i)
                with pytest.raises(TenantQuotaError) as info:
                    await client.sign(b"over quota")
                assert info.value.retry_after_s >= 1.0
                state = gateway.tenants.resolve("beta-key")
                assert state.stats.rejected_quota == 1
                assert state.stats.inflight == 0
                await client.close()
        run(scenario())

    def test_inflight_cap_is_429(self, handle):
        tenants = [TenantConfig(name="capped", api_key="cap-key",
                                max_inflight=1)]
        # A wide window holds the first request in flight long enough
        # for the second to hit the cap.
        config = service_config(max_batch=64, max_wait_ms=200.0)

        async def scenario():
            async with gateway_running(handle, tenants, config) as gateway:
                first = client_for(gateway, "cap-key")
                second = client_for(gateway, "cap-key")
                task = asyncio.create_task(first.sign(b"holds the slot"))
                await asyncio.sleep(0.02)
                with pytest.raises(TenantQuotaError) as info:
                    await second.sign(b"hits the cap")
                assert info.value.reason == "in-flight"
                result = await task
                assert result.batch_size >= 1
                await first.close()
                await second.close()
        run(scenario())

    def test_service_overload_is_503(self, handle):
        config = service_config(max_batch=64, max_wait_ms=500.0,
                                queue_depth=1)

        async def scenario():
            async with gateway_running(handle, config=config) as gateway:
                client = client_for(gateway, "alpha-key")
                probes = [
                    asyncio.create_task(client_for(
                        gateway, "alpha-key").sign(b"fill %d" % i))
                    for i in range(4)]
                await asyncio.sleep(0.05)
                outcomes = []
                for probe in probes:
                    try:
                        await probe
                        outcomes.append("ok")
                    except Exception as exc:
                        outcomes.append(type(exc).__name__)
                # Depth-1 queues under a long window: at least one shed.
                assert "ServiceOverloadedError" in outcomes
                shed = sum(state.stats.shed for state in
                           gateway.tenants.states().values())
                assert shed == outcomes.count("ServiceOverloadedError")
                await client.close()
        run(scenario())

    def test_malformed_requests_are_400(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                client = client_for(gateway, "alpha-key")
                for body in ({"message": "xyz"},       # bad hex
                             {"message": 7},           # wrong type
                             {}):                      # missing field
                    with pytest.raises(GatewayError) as info:
                        await client.request("POST", "/v1/sign", body)
                    assert info.value.status == 400
                # Unparseable JSON.
                response = await raw_exchange(
                    gateway,
                    b"POST /v1/sign HTTP/1.1\r\nX-API-Key: alpha-key\r\n"
                    b"Content-Length: 4\r\n\r\n{{{{")
                assert b"400 Bad Request" in response
                # Hostile framing: a typed 400 (501 for a transfer
                # coding), then the close.
                head = b"POST /v1/sign HTTP/1.1\r\nX-API-Key: alpha-key\r\n"
                sign = b'{"message": "00"}'
                bad_request = b"HTTP/1.1 400 Bad Request"
                for blob, error, status_line in (
                        (head + b"Content-Length: abc\r\n\r\n{}",
                         "bad-content-length", bad_request),
                        (head + b"Content-Length: -5\r\n\r\n{}",
                         "bad-content-length", bad_request),
                        (head + b"X-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
                         "line-too-long", bad_request),
                        (head + b"Content-Length: 999\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(sign) + sign,
                         "conflicting-content-length", bad_request),
                        (head + b"Transfer-Encoding: chunked\r\n\r\n"
                         b"%x\r\n" % len(sign) + sign + b"\r\n0\r\n\r\n",
                         "unsupported-transfer-encoding",
                         b"HTTP/1.1 501 Not Implemented"),
                        (head + b"garbage-line\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(sign) + sign,
                         "bad-header", bad_request)):
                    response = await raw_exchange(gateway, blob)
                    status, _, body = response.partition(b"\r\n\r\n")
                    assert status.startswith(status_line)
                    assert b"Connection: close" in status
                    assert json.loads(body)["error"] == error
                # Repeating one Content-Length value is still accepted.
                response = await raw_exchange(
                    gateway, head + b"Content-Length: %d\r\n" % len(sign) * 2
                    + b"\r\n" + sign)
                assert response.startswith(b"HTTP/1.1 200 OK")
                await client.close()
        run(scenario())

    def test_truncated_requests_are_never_dispatched(self, handle):
        """EOF at any byte before a request is complete closes the
        connection with no reply and no dispatch — a cut head (even one
        missing only its blank line) included, not just a cut body."""
        head = b"X-API-Key: alpha-key\r\nContent-Length: %d\r\n\r\n"
        refresh = b"POST /admin/refresh HTTP/1.1\r\n" + head % 2 + b"{}"
        sign_body = b'{"message": "00"}'
        sign = b"POST /v1/sign HTTP/1.1\r\n" + head % len(sign_body) \
            + sign_body

        async def send_then_eof(gateway, blob):
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port)
            writer.write(blob)
            writer.write_eof()
            response = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return response

        async def scenario():
            async with gateway_running(handle) as gateway:
                for request in (refresh, sign):
                    for cut in range(len(request)):
                        response = await send_then_eof(
                            gateway, request[:cut])
                        assert response == b"", (request[:cut], response)
                assert gateway.service.handle.epoch == 0
                assert gateway.requests_total == {}
                assert gateway.service.snapshot_stats().accepted == 0
                for request in (refresh, sign):
                    response = await send_then_eof(gateway, request)
                    assert response.startswith(b"HTTP/1.1 200 OK")
                assert gateway.service.handle.epoch == 1
        run(scenario())

    def test_stalled_requests_are_closed_undispatched(self, handle,
                                                      monkeypatch):
        """A request that stops arriving — mid-body or mid-head — is
        closed with no reply ``REQUEST_DEADLINE_S`` after its first
        byte, and never dispatched.  A keep-alive connection idle
        between requests is not timed."""
        from repro.service import gateway as gateway_module
        monkeypatch.setattr(gateway_module, "REQUEST_DEADLINE_S", 0.2)
        sign_head = (b"POST /v1/sign HTTP/1.1\r\nX-API-Key: alpha-key\r\n"
                     b"Content-Length: %d\r\n\r\n")
        sign_body = b'{"message": "00"}'
        stalls = (sign_head % 64 + b"0" * 10,
                  b"POST /admin/refresh HTTP/1.1\r\nX-API-Ke")

        async def scenario():
            async with gateway_running(handle) as gateway:
                for blob in stalls:
                    reader, writer = await asyncio.open_connection(
                        gateway.host, gateway.port)
                    writer.write(blob)
                    await writer.drain()
                    # The gateway hangs up: EOF, with no bytes.
                    assert await asyncio.wait_for(
                        reader.read(), timeout=5) == b""
                    writer.close()
                assert gateway.requests_total == {}
                assert gateway.service.snapshot_stats().accepted == 0
                assert gateway.service.handle.epoch == 0
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port)
                for _ in range(2):
                    writer.write(sign_head % len(sign_body) + sign_body)
                    await writer.drain()
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=5)
                    assert head.startswith(b"HTTP/1.1 200 OK")
                    length = int(head.split(b"Content-Length: ")[1]
                                 .split(b"\r\n")[0])
                    await reader.readexactly(length)
                    await asyncio.sleep(0.5)    # idle past the deadline
                writer.close()
        run(scenario())

    def test_unknown_route_and_method(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                client = client_for(gateway, "alpha-key")
                with pytest.raises(GatewayError) as info:
                    await client.request("GET", "/v2/nothing")
                assert info.value.status == 404
                with pytest.raises(GatewayError) as info:
                    await client.request("GET", "/v1/sign")
                assert info.value.status == 405
                await client.close()
        run(scenario())

    def test_oversized_body_is_413(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                head = (b"POST /v1/sign HTTP/1.1\r\n"
                        b"X-API-Key: alpha-key\r\n"
                        b"Content-Length: 9999999\r\n\r\n")
                response = await raw_exchange(gateway, head)
                assert b"413 Payload Too Large" in response
        run(scenario())

    def test_keep_alive_reuses_one_connection(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                client = client_for(gateway, "alpha-key")
                for i in range(3):
                    await client.sign(b"keep-alive %d" % i)
                assert len(client._idle) == 1
                await client.close()
        run(scenario())


# ---------------------------------------------------------------------------
# Control plane over HTTP
# ---------------------------------------------------------------------------

class TestGatewayControlPlane:
    def test_admin_routes_require_admin_tenant(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                beta = client_for(gateway, "beta-key")
                with pytest.raises(GatewayError) as info:
                    await beta.admin_refresh()
                assert info.value.status == 403
                await beta.close()
        run(scenario())

    def test_lifecycle_over_the_wire(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                admin = client_for(gateway, "alpha-key")
                refreshed = await admin.admin_refresh()
                assert refreshed["epoch"] == 1
                reshared = await admin.admin_reshare(2, [1, 2, 3, 4, 5, 6])
                assert reshared["epoch"] == 2
                assert reshared["signers"] == [1, 2, 3, 4, 5, 6]
                resized = await admin.admin_resize(3)
                assert resized["shards"] == 3
                # Signing still works across all three transitions.
                result = await admin.request(
                    "POST", "/v1/sign", {"message": b"after".hex()})
                assert result["epoch"] == 2
                stats = gateway.service.snapshot_stats()
                transitions = stats.epochs.transitions
                assert transitions["refresh"] == transitions["reshare"] \
                    == transitions["resize"] == 1
                await admin.close()
        run(scenario())

    def test_pinned_coin_rng_does_not_seed_the_refresh(self, handle):
        """No setting of a service seeds its refresh: two services
        configured alike must not draw the same zero sharing, or the
        configuration would predict every refresh."""
        async def refreshed_handle():
            async with gateway_running(handle,
                                       config=service_config()) as gateway:
                admin = client_for(gateway, "alpha-key")
                assert (await admin.admin_refresh())["epoch"] == 1
                await admin.close()
                return gateway.service.handle

        first, second = run(refreshed_handle()), run(refreshed_handle())
        assert first.public_key.to_bytes() == second.public_key.to_bytes() \
            == handle.public_key.to_bytes()
        assert first.shares != second.shares

    def test_bad_lifecycle_parameters_are_400(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                admin = client_for(gateway, "alpha-key")
                with pytest.raises(GatewayError) as info:
                    await admin.admin_reshare(9, [1, 2, 3])
                assert info.value.status == 400
                with pytest.raises(GatewayError) as info:
                    await admin.admin_resize(0)
                assert info.value.status == 400
                with pytest.raises(GatewayError) as info:
                    await admin.request("POST", "/admin/reshare",
                                        {"threshold": 1, "indices": "no"})
                assert info.value.status == 400
                await admin.close()
        run(scenario())


    def test_server_fault_is_5xx_not_400(self, handle):
        """A refresh whose worker push reaches no worker is the
        server's fault, not a bad parameter."""
        config = service_config(remote_workers=["127.0.0.1:1"])

        async def scenario():
            async with gateway_running(handle, config=config) as gateway:
                admin = client_for(gateway, "alpha-key")
                # A lifecycle fault is not a failed signing request:
                # only a 500 "failed" maps to RequestFailedError.
                with pytest.raises(GatewayError) as info:
                    await admin.admin_refresh()
                await admin.close()
                return info.value
        error = run(scenario())
        assert (error.status, error.error) == (500, "lifecycle-failed")
        assert "TransportError" in error.detail


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------

class TestGracefulDrain:
    def test_inflight_requests_finish_during_stop(self, handle):
        config = service_config(max_batch=64, max_wait_ms=100.0)

        async def scenario():
            service = SigningService(handle, config)
            await service.start()
            gateway = HttpGateway(service, tenants=TENANTS)
            await gateway.start()
            client = client_for(gateway, "alpha-key")
            task = asyncio.create_task(client.sign(b"caught mid-drain"))
            await asyncio.sleep(0.02)  # parked in the 100ms window
            await gateway.stop()
            # The in-flight request was answered, not dropped.
            result = await task
            assert result.batch_size == 1
            # New connections are refused after the drain.
            with pytest.raises((ConnectionError, OSError)):
                await client_for(gateway, "alpha-key").healthz()
            await client.close()
            await service.stop()
        run(scenario())

    def test_idle_keepalive_connections_are_closed(self, handle):
        async def scenario():
            service = SigningService(handle, service_config())
            await service.start()
            gateway = HttpGateway(service, tenants=TENANTS)
            await gateway.start()
            client = client_for(gateway, "alpha-key")
            await client.sign(b"park a keep-alive connection")
            assert len(gateway._connections) == 1
            await gateway.stop()
            assert not gateway._connections
            await client.close()
            await service.stop()
        run(scenario())

    def test_stop_is_idempotent(self, handle):
        async def scenario():
            service = SigningService(handle, service_config())
            await service.start()
            gateway = HttpGateway(service, tenants=TENANTS)
            await gateway.start()
            await gateway.stop()
            await gateway.stop()
            await service.stop()
        run(scenario())


# ---------------------------------------------------------------------------
# Scheduled proactive refresh (ServiceConfig.refresh_every_s)
# ---------------------------------------------------------------------------

class TestScheduledRefresh:
    def test_two_timed_refreshes_under_load_zero_rejections(self, handle):
        config = service_config(refresh_every_s=0.05)

        async def scenario():
            service = SigningService(handle, config)
            await service.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 0.18
            completed = 0

            async def client_loop():
                nonlocal completed
                while loop.time() < deadline:
                    result = await service.sign(b"under refresh load")
                    assert service.handle.verify(
                        b"under refresh load", result.signature)
                    completed += 1

            await asyncio.gather(*(client_loop() for _ in range(4)))
            stats = service.snapshot_stats()
            await service.stop()
            assert stats.epochs.transitions["refresh"] >= 2
            assert service.handle.epoch >= 2
            # The lifecycle contract: transitions shed nothing.
            assert stats.rejected == 0
            assert stats.failed == 0
            assert completed > 0
            assert stats.completed >= completed
        run(scenario())

    def test_refresh_task_stops_with_service(self, handle):
        config = service_config(refresh_every_s=0.02)

        async def scenario():
            service = SigningService(handle, config)
            await service.start()
            await asyncio.sleep(0.05)
            await service.stop()
            epoch_at_stop = service.handle.epoch
            assert service._refresh_task is None or \
                service._refresh_task.done()
            await asyncio.sleep(0.05)
            assert service.handle.epoch == epoch_at_stop
        run(scenario())


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

def sample(families: dict, name: str, **labels) -> float:
    key = (name, tuple(sorted(labels.items())))
    prefix = name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[:-len(suffix)] in families:
            prefix = name[:-len(suffix)]
    return families[prefix]["samples"][key]


GOOD_EXPOSITION = (
    '# HELP a_total An escaped \\\\ help.\n# TYPE a_total counter\n'
    'a_total{k="v\\"1"} 2\n'
    '# HELP h Latency.\n# TYPE h histogram\n'
    'h_bucket{le="+Inf"} 1\nh_sum 0.5\nh_count 1\n')


class TestPrometheusExposition:
    def test_parser_reads_a_well_formed_exposition(self):
        families = parse_prometheus(GOOD_EXPOSITION)
        assert sample(families, "a_total", k='v"1') == 2
        assert sample(families, "h_bucket", le="+Inf") == 1
        assert families["h"]["type"] == "histogram"

    FAULTS = [
        (GOOD_EXPOSITION.rstrip("\n"), "trailing newline"),
        (GOOD_EXPOSITION.replace("} 2\n", "} 2\n\n"), "blank line"),
        (GOOD_EXPOSITION + "# HELP h Again.\n# TYPE h gauge\n",
         "given twice"),
        (GOOD_EXPOSITION.replace("# TYPE h histogram", "# TYPE a_total "
                                 "counter"), "does not follow"),
        (GOOD_EXPOSITION.replace("histogram", "summary"), "unknown type"),
        (GOOD_EXPOSITION.replace("# TYPE h histogram\n", ""), "before"),
        (GOOD_EXPOSITION + "h_count 2\n", "given twice"),
        (GOOD_EXPOSITION.replace("} 2", "} two"), "unparseable"),
        (GOOD_EXPOSITION.replace('k="v', 'k=v'), "malformed labels"),
        (GOOD_EXPOSITION + "a_total 1\n", "outside"),
        ("# HELP lone No type.\n", "has no TYPE"),
    ]

    @pytest.mark.parametrize("text, fault", FAULTS,
                             ids=[fault for _, fault in FAULTS])
    def test_parser_refuses_structural_faults(self, text, fault):
        with pytest.raises(ValueError, match=fault):
            parse_prometheus(text)

    def test_counters_reconcile_with_snapshot_stats(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                alpha = client_for(gateway, "alpha-key")
                beta = client_for(gateway, "beta-key")
                for i in range(8):
                    await alpha.sign(b"alpha %d" % i)
                outcomes = {"ok": 0, "quota": 0}
                for i in range(4):
                    try:
                        await beta.sign(b"beta %d" % i)
                        outcomes["ok"] += 1
                    except TenantQuotaError:
                        outcomes["quota"] += 1
                assert outcomes == {"ok": 2, "quota": 2}
                text = await alpha.metrics()
                families = parse_prometheus(text)
                stats = gateway.service.snapshot_stats()

                assert sample(families, "ljy_service_accepted_total") == \
                    stats.accepted == 10
                assert sample(families, "ljy_service_completed_total") == \
                    stats.completed
                assert sample(families, "ljy_service_rejected_total") == \
                    stats.rejected == 0
                assert sample(families,
                              "ljy_service_ingress_messages_total") == \
                    stats.ingress_messages
                assert sample(families, "ljy_epoch") == \
                    stats.epochs.epoch == 0

                for tenant, accepted in stats.tenant_accepted.items():
                    assert sample(
                        families, "ljy_service_tenant_accepted_total",
                        tenant=tenant) == accepted
                states = gateway.tenants.states()
                assert sample(families, "ljy_tenant_admitted_total",
                              tenant="alpha") == \
                    states["alpha"].stats.admitted == 8
                assert sample(families, "ljy_tenant_rejected_total",
                              tenant="beta", reason="rate") == \
                    states["beta"].stats.rejected_quota == 2
                assert sample(families, "ljy_tenant_completed_total",
                              tenant="beta") == 2
                assert sample(families, "ljy_tenant_inflight",
                              tenant="alpha") == 0

                per_shard = sum(
                    sample(families, "ljy_shard_requests_total",
                           shard=str(sid))
                    for sid in stats.shards)
                assert per_shard == sum(
                    s.batched_requests for s in stats.shards.values()) == 10
                # Sequential clients: every request arrived alone and was
                # Share-Signed while its window waited out the timer.
                for sid, shard in stats.shards.items():
                    assert sample(families, "ljy_shard_presigned_total",
                                  shard=str(sid)) == shard.presigned
                    assert sample(families, "ljy_shard_busy_ms_total",
                                  shard=str(sid)) == round(shard.busy_ms, 3)
                assert sum(s.presigned for s in stats.shards.values()) == 10
                # The scrape itself is in flight while rendering.
                assert sample(families, "ljy_gateway_inflight") == 1
                # Route counters: 10 signs landed 200s and 2 landed 429s
                # before this scrape.
                assert sample(families, "ljy_gateway_requests_total",
                              route="/v1/sign", code="200") == 10
                assert sample(families, "ljy_gateway_requests_total",
                              route="/v1/sign", code="429") == 2
                # The process-wide crypto counters, read from their dicts.
                for op, value in (
                        ("miller_loops", PAIRING_COUNTERS["miller_loops"]),
                        ("final_exps", PAIRING_COUNTERS["final_exps"]),
                        ("g2_preparations",
                         PAIRING_COUNTERS["preparations"]),
                        ("msm_ladder_rows", MSM_COUNTERS["ladder_rows"]),
                        ("msm_lane_rows", MSM_COUNTERS["lane_rows"]),
                        ("msm_ladder_calls", MSM_COUNTERS["ladder_calls"]),
                        ("msm_affine_adds", MSM_COUNTERS["affine_adds"]),
                        ("msm_inversions", MSM_COUNTERS["inversions"]),
                        ("hash_g1_hits", HASH_COUNTERS["g1_hits"]),
                        ("hash_g1_misses", HASH_COUNTERS["g1_misses"]),
                        ("dkg_batched_checks",
                         DKG_COUNTERS["batched_checks"]),
                        ("dkg_single_checks", DKG_COUNTERS["single_checks"]),
                        ("dkg_fallbacks", DKG_COUNTERS["fallbacks"])):
                    assert sample(families, "ljy_crypto_ops_total",
                                  op=op) == value
                await alpha.close()
                await beta.close()
        run(scenario())

    def test_histogram_series_are_cumulative_and_consistent(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                client = client_for(gateway, "alpha-key")
                for i in range(5):
                    await client.sign(b"latency %d" % i)
                families = parse_prometheus(await client.metrics())
                family = families["ljy_gateway_request_ms"]
                assert family["type"] == "histogram"
                buckets = sorted(
                    ((labels, value) for (name, labels), value
                     in family["samples"].items()
                     if name.endswith("_bucket") and
                     dict(labels)["route"] == "/v1/sign"),
                    key=lambda item: float(
                        dict(item[0])["le"].replace("+Inf", "inf")))
                counts = [value for _, value in buckets]
                assert counts == sorted(counts), "buckets not cumulative"
                assert dict(buckets[-1][0])["le"] == "+Inf"
                assert counts[-1] == sample(
                    families, "ljy_gateway_request_ms_count",
                    route="/v1/sign") == 5
                assert sample(families, "ljy_gateway_request_ms_sum",
                              route="/v1/sign") > 0
                await client.close()
        run(scenario())

    def test_label_values_are_escaped(self, handle):
        weird = 'we"ird\\te\nnant'
        tenants = [TenantConfig(name=weird, api_key="weird-key")]

        async def scenario():
            async with gateway_running(handle, tenants) as gateway:
                client = client_for(gateway, "weird-key")
                await client.sign(b"escape me")
                text = await client.metrics()
                families = parse_prometheus(text)
                assert sample(families, "ljy_tenant_admitted_total",
                              tenant=weird) == 1
                raw = [line for line in text.splitlines()
                       if line.startswith("ljy_tenant_admitted_total")]
                assert raw == [
                    'ljy_tenant_admitted_total'
                    '{tenant="we\\"ird\\\\te\\nnant"} 1']
                await client.close()
        run(scenario())

    def test_every_transition_kind_is_counted_once(self, handle, caplog):
        """A swap, a retire, a refresh and a resize: four barrier
        pauses, four ``epoch_transition`` log lines, and four kind
        samples — in the log's own words."""
        async def scenario():
            async with gateway_running(handle) as gateway:
                service = gateway.service
                await service.begin_epoch(
                    service.handle.refreshed(rng=random.Random(8)))
                await service.retire_signer(3)
                await service.refresh()
                await service.resize(3)
                client = client_for(gateway, "alpha-key")
                families = parse_prometheus(await client.metrics())
                await client.close()
                return families

        with caplog.at_level("INFO", logger="repro.service.frontend"):
            families = run(scenario())
        logged = [json.loads(record.getMessage())["kind"]
                  for record in caplog.records
                  if "epoch_transition" in record.getMessage()]
        assert logged == ["swap", "retire", "refresh", "resize"]
        kinds = {dict(labels)["kind"]: value for (_, labels), value
                 in families["ljy_epoch_transitions_total"]["samples"]
                 .items()}
        assert sum(kinds.values()) == \
            sample(families, "ljy_epoch_pause_ms_count") == 4
        assert {kind for kind, value in kinds.items() if value} == \
            set(logged)

    def test_epoch_and_worker_families_appear(self, handle):
        async def scenario():
            async with gateway_running(handle) as gateway:
                admin = client_for(gateway, "alpha-key")
                await admin.admin_refresh()
                await admin.sign(b"after refresh")
                families = parse_prometheus(await admin.metrics())
                assert sample(families, "ljy_epoch") == 1
                assert sample(families, "ljy_epoch_transitions_total",
                              kind="refresh") == 1
                assert sample(families, "ljy_epoch_transitions_total",
                              kind="reshare") == 0
                assert sample(families, "ljy_epoch_pause_ms_count") == 1
                # One derived transition: the histogram reconciles with
                # the service's own record of it.
                derived = gateway.service.stats.epochs.derive_ms
                assert len(derived) == 1 and derived[0] > 0.0
                assert sample(families, "ljy_epoch_derive_ms_count") == 1
                assert sample(families, "ljy_epoch_derive_ms_sum") == \
                    pytest.approx(derived[0], rel=1e-6)
                assert sample(families, "ljy_epoch_derive_ms_bucket",
                              le="+Inf") == 1
                await admin.close()
        run(scenario())


# ---------------------------------------------------------------------------
# Share-Sign at arrival, over the wire
# ---------------------------------------------------------------------------

def test_two_closed_loop_clients_keep_windows_of_two(handle):
    """The ``sign_http`` shape: two closed-loop clients, Share-Sign
    slower than the window timer.  The first request is pre-signed
    while the second crosses the edge, the window closes the moment
    both are signed and the queue is empty — and the replies going out
    together is what keeps the next window at two as well."""
    rounds = 50

    def slow_signer(shard_id, signer_index, message, partial):
        time.sleep(0.001)         # 3 ms per request, timer at 2 ms
        return partial

    async def closed_loop(client, name):
        for i in range(rounds):
            result = await client.sign(b"%s %d" % (name, i))
            assert handle.verify(result.message, result.signature)

    async def scenario():
        config = service_config(num_shards=1, max_batch=16,
                                max_wait_ms=2.0, fault_injector=slow_signer)
        async with gateway_running(handle, config=config) as gateway:
            codec = WireCodec(handle.scheme.group)
            clients = [client_for(gateway, "alpha-key", codec=codec)
                       for _ in range(2)]
            await asyncio.gather(closed_loop(clients[0], b"left"),
                                 closed_loop(clients[1], b"right"))
            for client in clients:
                await client.close()
            return gateway.service.snapshot_stats().shards[0]

    stats = run(scenario())
    assert stats.batched_requests == 2 * rounds
    assert stats.batched_requests / stats.windows == 2.0
    assert stats.presigned > 0


# ---------------------------------------------------------------------------
# Real pairing end to end
# ---------------------------------------------------------------------------

@pytest.mark.bn254
def test_http_gateway_on_bn254(bn254_group):
    handle = ServiceHandle.dealer(bn254_group, 1, 3,
                                  rng=random.Random(41))

    async def scenario():
        service = SigningService(handle, ServiceConfig(
            num_shards=1, max_batch=4, max_wait_ms=5.0))
        await service.start()
        gateway = HttpGateway(service, tenants=[
            TenantConfig(name="alpha", api_key="alpha-key", admin=True),
            TenantConfig(name="beta", api_key="beta-key",
                         rate_rps=0.5, burst=1.0),
        ])
        await gateway.start()
        codec = WireCodec(bn254_group)
        alpha = client_for(gateway, "alpha-key", codec=codec)
        ladder = dict(MSM_COUNTERS)
        hashes = dict(HASH_COUNTERS)
        result = await alpha.sign(b"bn254 over http")
        # Share-Sign for the quorum: 2(t + 1) rows over H(M), one call.
        assert MSM_COUNTERS["ladder_rows"] - ladder["ladder_rows"] == \
            2 * (1 + 1)
        assert MSM_COUNTERS["ladder_calls"] - ladder["ladder_calls"] == 1
        # Its bucket sums and fold ran as batched affine passes, the
        # fold alone nine of them (7 running-sum rounds, 2 to finish).
        assert MSM_COUNTERS["inversions"] - ladder["inversions"] >= 9
        assert MSM_COUNTERS["affine_adds"] - ladder["affine_adds"] > \
            MSM_COUNTERS["inversions"] - ladder["inversions"]
        # H(M) is two fresh points hashed once; the window's batch check
        # reads them back from the one memo.
        assert HASH_COUNTERS["g1_misses"] - hashes["g1_misses"] == 2
        assert HASH_COUNTERS["g1_hits"] - hashes["g1_hits"] == 2
        assert handle.verify(b"bn254 over http", result.signature)
        verdict = await alpha.verify(b"bn254 over http", result.signature)
        assert verdict.valid
        # The 401 and 429 edges behave identically on the real backend.
        with pytest.raises(GatewayError) as info:
            await client_for(gateway, "bogus").sign(b"x")
        assert info.value.status == 401
        beta = client_for(gateway, "beta-key", codec=codec)
        await beta.sign(b"beta burst")
        with pytest.raises(TenantQuotaError):
            await beta.sign(b"beta over")
        await alpha.close()
        await beta.close()
        await gateway.stop()
        await service.stop()
    run(scenario())
