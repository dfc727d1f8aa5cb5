#!/usr/bin/env python3
"""The async threshold-signing service, end to end.

Boots a sharded signing service over a (t, n) committee, then runs three
acts:

1. **Closed-loop signing** — 16 virtual clients hammer the service; the
   batch accumulator closes windows of up to 16 requests and each window
   pays ONE cross-message batch check instead of one verification per
   request.
2. **Open-loop verification** — Poisson arrivals at a configurable rate;
   verify traffic amortizes even harder (a window of k signatures costs
   one multi-pairing).
3. **Fault injection** — one signer starts forging its partial
   signatures.  The window check fails; one more product, the
   window's index-weighted companion, names a lone poisoned request
   outright, and several are split apart by bisection (each level
   evaluates one half and derives the other) until each stands alone;
   their partials are checked in one batch that is bisected to the
   forged ones, each request keeps its verified
   partials and tops up with exactly the missing ones from the next
   signer, and recombines — every request still completes with a valid
   signature.

``--refresh-every N`` exercises the live key lifecycle: a proactive
share refresh fires after every N completed sign requests *while the
load is running* — the service drains in-flight windows behind the
epoch barrier, swaps shares, and resumes with zero rejections and an
unchanged public key.  ``--reshare`` then rotates one signer out and a
fresh one in via live resharing (join/leave, same public key).

``--http`` fronts the service with the HTTP gateway and routes the
sign/verify load over loopback HTTP — API-key tenant admission, hex
JSON bodies, keep-alive connections, a Prometheus ``/metrics`` scrape
at the end (spec: ``docs/HTTP_API.md``).

    python examples/signing_service_demo.py
    python examples/signing_service_demo.py --backend bn254 --requests 32
    python examples/signing_service_demo.py --refresh-every 16 --reshare
    python examples/signing_service_demo.py --http
"""

import argparse
import asyncio
import pathlib
import random

from repro import ServiceHandle, get_group
from repro.service import (
    CorruptSignerFault, GatewayClient, HttpGateway, LoadGenerator,
    ServiceConfig, SigningService, TenantConfig,
)


async def demo(args) -> None:
    if args.context is not None:
        # Multi-machine mode: load the same provisioned context the
        # remote workers serve (the HELLO handshake enforces the match).
        from repro.serialization import decode_service_context
        handle = decode_service_context(args.context.read_bytes())
        params = handle.scheme.params
        print(f"[1/4] Loaded service context from {args.context}: "
              f"t={params.t}, n={params.n} "
              f"(backend: {handle.scheme.group.name})")
    else:
        group = get_group(args.backend)
        print(f"[1/4] Dealer keygen: t={args.t}, n={args.n} "
              f"(backend: {args.backend})")
        handle = ServiceHandle.dealer(group, args.t, args.n,
                                      rng=random.Random(1))

    remote_workers = tuple(
        address for address in (args.remote_workers or "").split(",")
        if address)
    config = ServiceConfig(num_shards=args.shards, max_batch=16,
                           max_wait_ms=10.0,
                           remote_workers=remote_workers,
                           remote_psk=args.psk)
    tier = (f"remote TCP workers {', '.join(remote_workers)}"
            if remote_workers else "in-process")
    print(f"[2/4] Closed-loop signing: {args.requests} requests, "
          f"16 clients, {args.shards} shard(s), window 16, {tier}")
    gateway = client = None
    async with SigningService(handle, config) as service:
        if args.http:
            # Front the service with the HTTP gateway and route every
            # data-plane call over a real loopback socket — hex JSON
            # bodies, API-key tenant admission, keep-alive connections.
            from repro.serialization import WireCodec
            gateway = HttpGateway(service, tenants=[
                TenantConfig(name="demo", api_key="demo-key",
                             admin=True)])
            await gateway.start()
            client = GatewayClient(
                gateway.host, gateway.port, "demo-key",
                codec=WireCodec(handle.scheme.group))
            print(f"      HTTP gateway on http://{gateway.host}:"
                  f"{gateway.port} — tenant 'demo' "
                  f"(X-API-Key: demo-key)")
        sign_op = client.sign if client else service.sign
        verify_op = client.verify if client else service.verify
        generator = LoadGenerator(
            lambda i: sign_op(b"demo message %d" % i))
        refresher = None
        if args.refresh_every:
            async def refresh_loop():
                # Fire a live refresh each time another N requests have
                # completed; the barrier drains in-flight windows, so
                # the load never sees a rejection.
                transitions = 0
                while True:
                    target = (transitions + 1) * args.refresh_every
                    while service.stats.completed < target:
                        await asyncio.sleep(0.005)
                    pause = await service.refresh(
                        rng=random.Random(100 + transitions))
                    transitions += 1
                    print(f"      refresh -> epoch "
                          f"{service.handle.epoch} (paused "
                          f"{pause:.2f} ms, zero rejections)")
            refresher = asyncio.ensure_future(refresh_loop())
        report = await generator.run_closed(args.requests, 16)
        if refresher is not None:
            refresher.cancel()
        stats = service.snapshot_stats()
        windows = sum(s.windows for s in stats.shards.values())
        batched = sum(s.batched_requests for s in stats.shards.values())
        print(f"      {report.completed} signed, 0 rejected | "
              f"{report.throughput_rps:.0f} req/s | "
              f"p50 {report.p50_ms:.1f} ms, p99 {report.p99_ms:.1f} ms")
        print(f"      {windows} batch windows for {report.completed} "
              f"requests (mean batch {batched / max(1, windows):.1f}) — "
              f"each window paid one batch check")
        if args.refresh_every:
            print(f"      {stats.epochs.transitions['refresh']} live refresh(es), "
                  f"pause p99 {stats.epochs.pause_p99_ms:.2f} ms — "
                  f"public key unchanged")
        if args.reshare:
            current = sorted(service.handle.shares)
            leaver, joiner = current[0], max(current) + 1
            new_indices = sorted(set(current) - {leaver} | {joiner})
            pause = await service.reshare(
                service.handle.scheme.params.t, new_indices,
                rng=random.Random(200))
            result = await sign_op(b"post-reshare doc")
            assert handle.verify(result.message, result.signature)
            print(f"      reshare -> epoch {service.handle.epoch}: "
                  f"signer {leaver} out, {joiner} in (paused "
                  f"{pause:.2f} ms); post-reshare signature verifies "
                  f"under the unchanged public key")

        print(f"[3/4] Open-loop verification: Poisson arrivals at "
              f"{args.rate} req/s")
        signatures = (await LoadGenerator(
            lambda i: sign_op(b"verified doc %d" % i)
        ).run_closed(args.requests, 16)).results
        verifier = LoadGenerator(
            lambda i: verify_op(signatures[i].message,
                                signatures[i].signature),
            rng=random.Random(3))
        report = await verifier.run_open(args.requests, args.rate)
        print(f"      {report.completed} verified, "
              f"{report.invalid} invalid | p50 {report.p50_ms:.1f} ms, "
              f"p99 {report.p99_ms:.1f} ms")
        if remote_workers:
            stats = service.snapshot_stats()
            print(f"      worker pool: {stats.workers.jobs} window jobs "
                  f"over {stats.workers.workers} remote workers, "
                  f"{stats.workers.crashes} crashes, "
                  f"{stats.workers.reconnects} reconnects")
        if client is not None:
            exposition = await client.metrics()
            samples = [line for line in exposition.splitlines()
                       if line and not line.startswith("#")]
            print(f"      /metrics: {len(samples)} Prometheus samples "
                  f"(ljy_gateway_*, ljy_tenant_*, ljy_service_*, ...)")
            await client.close()
            await gateway.stop()

    fault = CorruptSignerFault(signer_index=1)
    print("[4/4] Fault injection: signer 1 forges every partial "
          "signature it produces")
    faulty_config = ServiceConfig(num_shards=1, max_batch=8,
                                  max_wait_ms=10.0, fault_injector=fault)
    async with SigningService(handle, faulty_config) as service:
        generator = LoadGenerator(
            lambda i: service.sign(b"contested doc %d" % i))
        report = await generator.run_closed(8, 8)
        stats = service.snapshot_stats()
    shard = stats.shards[0]
    print(f"      {report.completed}/8 requests completed despite "
          f"{len(fault.injected)} forged partials")
    print(f"      forgeries localized: {shard.faults_localized}, "
          f"requests topped up beyond their quorum: "
          f"{shard.fallback_combines}")
    assert report.completed == 8 and report.failed == 0
    print("      all signatures valid: OK")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="toy",
                        choices=["toy", "bn254"],
                        help="bilinear group backend (toy = fast demo)")
    parser.add_argument("-t", type=int, default=2)
    parser.add_argument("-n", type=int, default=5)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--remote-workers", default=None,
                        metavar="HOST:PORT[,HOST:PORT...]",
                        help="worker tier: comma-separated addresses of "
                        "running remote workers (python -m "
                        "repro.service.remote_worker — one per core on "
                        "loopback, or on other machines); combine with "
                        "--context so both ends hold the same keys")
    parser.add_argument("--psk", default=None, metavar="KEY",
                        help="pre-shared key for the remote-worker "
                        "handshake (must match the workers' --psk; "
                        "default: none)")
    parser.add_argument("--context", type=pathlib.Path, default=None,
                        help="load the ServiceHandle from an encoded "
                        "service context instead of dealer keygen (see "
                        "remote_worker --write-context)")
    parser.add_argument("--refresh-every", type=int, default=0,
                        metavar="N",
                        help="fire a live proactive share refresh after "
                        "every N completed sign requests (0 = never); "
                        "the service keeps serving through each epoch "
                        "transition and the public key never changes")
    parser.add_argument("--reshare", action="store_true",
                        help="after the closed-loop act, rotate one "
                        "signer out and a fresh one in via live "
                        "resharing (join/leave, same public key)")
    parser.add_argument("--http", action="store_true",
                        help="front the service with the HTTP gateway "
                        "and route the sign/verify load over loopback "
                        "HTTP (API-key tenant, hex JSON bodies, "
                        "Prometheus /metrics)")
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="open-loop arrival rate (requests/second)")
    args = parser.parse_args()
    asyncio.run(demo(args))


if __name__ == "__main__":
    main()
