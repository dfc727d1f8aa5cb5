"""Standalone TCP shard worker: ``python -m repro.service.remote_worker``.

One process per core (on loopback) or per machine.  It decodes an
encoded service context once (``--context ctx.bin``), warms the hot
caches (``PreparedG2`` line coefficients for every fixed pairing
argument, fixed-base window tables for the derived generators —
:func:`~repro.service.transport.warm_handle`), then
serves ``S``/``V``/``P`` window jobs (sign, verify and partial-sign
windows) over the framed TCP protocol of
:mod:`repro.service.transport` until killed, answering each
connection's frames in arrival order.  Point a service at it with
``ServiceConfig(remote_workers=["host:port", ...])``.

Serve a context on an ephemeral port (printed on the ready line)::

    PYTHONPATH=src python -m repro.service.remote_worker \\
        --context ctx.bin --listen 0

Provision a demo context (a trusted-dealer committee; a real
deployment ships contexts out of band and each server only its own
share)::

    PYTHONPATH=src python -m repro.service.remote_worker \\
        --write-context ctx.bin --backend bn254 --t 2 --n 5

Fault injection for the crash-recovery acts (``--crash-sentinel``): the
worker dies hard (``os._exit``) on the first partial it signs while the
sentinel file does not exist
(:class:`~repro.service.faults.WorkerCrashFault`).  A
restarted worker sees the sentinel and serves honestly, so a
supervisor restart plus the dispatcher's reconnect/resubmission
completes every request.
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import random
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.remote_worker",
        description=__doc__.splitlines()[0])
    parser.add_argument("--context", type=pathlib.Path,
                        help="encoded service context to serve "
                        "(see repro.serialization.encode_service_context)")
    parser.add_argument("--listen", type=int, default=0, metavar="PORT",
                        help="TCP port (0 = ephemeral; the bound port is "
                        "printed on the ready line)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback; use "
                        "0.0.0.0 for a LAN worker)")
    parser.add_argument("--crash-sentinel", type=pathlib.Path,
                        default=None,
                        help="die (os._exit) on the first partial signed "
                        "while this file does not exist — crash-recovery "
                        "fault injection")
    parser.add_argument("--psk", default=None, metavar="KEY",
                        help="pre-shared key: require dispatchers to "
                        "authenticate their HELLO with "
                        "HMAC-SHA256(psk, context digest); both ends "
                        "must configure the same key (or neither)")
    parser.add_argument("--write-context", type=pathlib.Path,
                        default=None, metavar="PATH",
                        help="provisioning mode: dealer-generate a "
                        "committee, write its encoded context to PATH "
                        "and exit (no serving)")
    parser.add_argument("--backend", default="bn254",
                        choices=["toy", "bn254"],
                        help="--write-context: bilinear group backend")
    parser.add_argument("--t", type=int, default=2,
                        help="--write-context: threshold")
    parser.add_argument("--n", type=int, default=5,
                        help="--write-context: committee size")
    parser.add_argument("--seed", type=int, default=1,
                        help="--write-context: key-generation RNG seed")
    return parser


def write_context(args) -> int:
    from repro.core.scheme import ServiceHandle
    from repro.groups import get_group
    from repro.serialization import encode_service_context

    handle = ServiceHandle.dealer(get_group(args.backend), args.t, args.n,
                                  rng=random.Random(args.seed))
    blob = encode_service_context(handle)
    args.write_context.write_bytes(blob)
    print(f"wrote service context ({args.backend}, t={args.t}, "
          f"n={args.n}, {len(blob)} bytes) to {args.write_context}")
    return 0


async def serve(args) -> int:
    from repro.serialization import decode_service_context
    from repro.service.faults import WorkerCrashFault
    from repro.service.transport import (
        READY_MARKER, WorkerServer, warm_handle,
    )

    handle = decode_service_context(args.context.read_bytes())
    # Warm before binding: once the ready line is printed, the first
    # job pays only its own crypto.
    warm_handle(handle)
    fault_injector = (WorkerCrashFault(args.crash_sentinel)
                      if args.crash_sentinel is not None else None)
    psk = args.psk.encode("utf-8") if args.psk else None
    server = WorkerServer(handle, host=args.host, port=args.listen,
                          fault_injector=fault_injector, psk=psk)
    await server.start()
    print(f"{READY_MARKER}{server.host}:{server.port}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.write_context is not None:
        return write_context(args)
    if args.context is None:
        build_parser().error("--context is required to serve "
                             "(or use --write-context)")
    if not args.context.exists():
        print(f"remote-worker: context file {args.context} not found",
              file=sys.stderr)
        return 2
    try:
        return asyncio.run(serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
