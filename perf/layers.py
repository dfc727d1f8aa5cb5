"""The per-layer floor: the fastest of repeated direct calls into each
layer's public functions, with no service around them.

A floor figure is what one call costs when nothing waits and every
cache it would find warm in a running service is warm; the traced pass
says how many such calls a request makes.  Inputs that the service sees
fresh on every request (messages to hash, points to exponentiate) are
fresh on every call here too, so memo and auto-precompute never turn a
repeated call into a different, cheaper one.
"""

from __future__ import annotations

import inspect
import itertools
import pathlib
import random
import tempfile
import time
from typing import Callable, Dict

#: Repeat each call for this long (and at least MIN_CALLS times).
BUDGET_S = 0.2
MIN_CALLS = 3
#: Calls longer than this (the DKG family) are made twice.
SLOW_CALL_S = 0.15


async def fastest(call: Callable, quick: bool) -> float:
    """Seconds of the fastest of repeated calls of ``call`` (a function
    or a coroutine function, without arguments)."""
    is_async = inspect.iscoroutinefunction(call)
    best = float("inf")
    spent = 0.0
    calls = 0
    while True:
        started = time.perf_counter()
        if is_async:
            await call()
        else:
            call()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        spent += elapsed
        calls += 1
        if quick or (calls >= 2 and best > SLOW_CALL_S):
            break
        if calls >= MIN_CALLS and spent >= BUDGET_S:
            break
    return best


async def floor(bench, quick: bool = False) -> Dict[str, float]:
    """Every floor metric, by name.  ``bench`` supplies the keys and the
    running service the gateway figure needs."""
    from repro.core.scheme import LJYThresholdScheme
    from repro.curves.g1 import G1Point
    from repro.curves.g2 import G2Point
    from repro.curves.hash_to_curve import hash_to_g1_uncached
    from repro.curves.pairing import (
        final_exponentiation, multi_pairing, pairing,
    )
    from repro.dkg import run_pedersen_dkg
    from repro.math.tower import R, f12_mul, f12_sqr
    from repro.serialization import (
        SignWindowJob, VerifyWindowJob, WireCodec,
    )
    from repro.service import (
        GatewayClient, HttpGateway, RemoteWorkerPool, WorkerServer,
        WriteAheadLog,
    )
    from repro.sharing.pedersen_vss import PedersenVSS

    handle = bench.handle
    scheme: LJYThresholdScheme = handle.scheme
    group = scheme.group
    params = scheme.params
    pk, vks = handle.public_key, handle.verification_keys
    rng = random.Random(0xF100)
    fresh = itertools.count()
    metrics: Dict[str, float] = {}

    async def record(name: str, call: Callable, scale: float) -> None:
        metrics[name] = await fastest(call, quick) * scale

    def scalar() -> int:
        return rng.randrange(1, R)

    def fresh_message() -> bytes:
        return b"perf floor %d" % next(fresh)

    # -- math / curves (BN254 whatever the scheme's backend) ----------------
    g1s = [hash_to_g1_uncached(b"perf floor base %d" % i) for i in range(16)]
    g2 = G2Point.generator()
    scalars = [scalar() for _ in range(16)]
    gt = pairing(g1s[0], g2)
    f12_a, f12_b = gt.value, f12_sqr(gt.value)
    await record("math.fp12_mul_us", lambda: f12_mul(f12_a, f12_b), 1e6)
    await record("math.msm_g1_16_ms",
                 lambda: G1Point.multi_mul(g1s, scalars), 1e3)
    await record("curves.pairing_ms", lambda: pairing(g1s[0], g2), 1e3)
    pairs4 = [(point, g2) for point in g1s[:4]]
    await record("curves.multi_pairing_4_ms",
                 lambda: multi_pairing(pairs4), 1e3)
    await record("curves.final_exp_ms",
                 lambda: final_exponentiation(f12_b), 1e3)
    await record("curves.hash_to_g1_ms",
                 lambda: hash_to_g1_uncached(fresh_message()), 1e3)

    # -- groups: a fresh element per call, so no auto-built table -----------
    chain = {"g1": group.g1_generator() ** scalar(),
             "gt": group.pair(group.g1_generator(), group.g2_generator())}

    def exp(kind: str) -> None:
        chain[kind] = chain[kind] ** scalar()

    await record("groups.g1_exp_ms", lambda: exp("g1"), 1e3)
    await record("groups.gt_exp_ms", lambda: exp("gt"), 1e3)

    # -- core: the scheme's algorithms, and their window forms at 16 --------
    share = handle.shares[handle.quorum()[0]]
    message = fresh_message()
    partials = handle.partials_for(message)
    signature = handle.sign(message)
    messages16 = [fresh_message() for _ in range(16)]
    windows16 = [(m, handle.partials_for(m)) for m in messages16]
    signatures16 = handle.sign_window(messages16)
    items16 = [(m, window[0]) for m, window in windows16]
    await record("core.share_sign_ms",
                 lambda: scheme.share_sign(share, fresh_message()), 1e3)
    await record("core.share_verify_ms", lambda: scheme.share_verify(
        pk, vks[partials[0].index], message, partials[0]), 1e3)
    await record("core.combine_ms", lambda: scheme.combine(
        pk, vks, message, partials), 1e3)
    await record("core.verify_ms",
                 lambda: scheme.verify(pk, message, signature), 1e3)
    await record("core.batch_verify_16_ms_per_msg",
                 lambda: scheme.batch_verify(pk, messages16, signatures16),
                 1e3 / 16)
    await record("core.combine_window_16_ms_per_msg",
                 lambda: scheme.combine_window(pk, vks, windows16), 1e3 / 16)
    await record("core.batch_share_verify_window_16_ms_per_msg",
                 lambda: scheme.batch_share_verify_window(pk, vks, items16),
                 1e3 / 16)

    # -- serialization -------------------------------------------------------
    codec = WireCodec(group)
    job = SignWindowJob(shard_id=0, epoch=handle.epoch,
                        messages=tuple(messages16),
                        quorum=tuple(handle.quorum()))
    await record("serialization.window_job_roundtrip_us",
                 lambda: codec.decode_job(codec.encode_job(job)), 1e6)
    await record("serialization.signature_roundtrip_us",
                 lambda: codec.decode_signature(
                     codec.encode_signature(signature)), 1e6)

    # -- service: WAL, gateway edge, TCP transport --------------------------
    with tempfile.TemporaryDirectory(prefix="perf-floor-") as scratch:
        wal = WriteAheadLog.open(pathlib.Path(scratch) / "wal.log", codec)
        try:
            def append_sync() -> None:
                wal.append_admit(message, epoch=handle.epoch)
                wal.sync()
            await record("service.wal_append_sync_ms", append_sync, 1e3)
        finally:
            wal.close()
    gateway = HttpGateway(bench.service)
    await gateway.start()
    client = GatewayClient(gateway.host, gateway.port, "unused")
    try:
        await record("gateway.healthz_ms", client.healthz, 1e3)
    finally:
        await client.close()
        await gateway.stop()
    # One window job over loopback.  The window is empty, so the figure
    # is framing, handshake-free dispatch and the socket round trip —
    # the cost transport.py adds around a window's crypto.
    server = await WorkerServer(handle).start()
    pool = RemoteWorkerPool(handle, [server.address])
    pool.start()
    empty = VerifyWindowJob(shard_id=0, epoch=handle.epoch,
                            messages=(), signatures=())
    try:
        async def roundtrip() -> None:
            await pool.run_job(empty)
        await roundtrip()   # dial and handshake, once
        await record("service.tcp_job_roundtrip_ms", roundtrip, 1e3)
    finally:
        await pool.aclose()
        await server.aclose()

    # -- dkg / sharing: the key lifecycle no workload exercises -------------
    t, n = params.t, params.n
    await record("dkg.pedersen_dkg_ms", lambda: run_pedersen_dkg(
        group, params.g_z, params.g_r, t, n, rng=rng), 1e3)
    await record("dkg.refresh_ms", lambda: handle.refreshed(rng=rng), 1e3)
    committee = sorted(handle.shares)[1:] + [n + 1]
    await record("dkg.reshare_ms",
                 lambda: handle.reshared(t, committee, rng=rng), 1e3)
    vss = PedersenVSS.deal(group, params.g_z, params.g_r, t, n, rng=rng)
    dealt = vss.share_for(1)
    await record("sharing.vss_share_check_ms",
                 lambda: PedersenVSS.verify_share(
                     group, params.g_z, params.g_r, vss.commitments, 1,
                     dealt), 1e3)
    return metrics
