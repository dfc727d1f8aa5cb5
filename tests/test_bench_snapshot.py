"""Smoke test for the perf-trajectory snapshot tool.

Runs one round of the T2 micro-benchmarks through
``tools/bench_snapshot.py`` and checks the snapshot structure plus loose
speedup floors (well under the measured 2.5x/4.8x so timing noise cannot
flake the suite, but tight enough to catch a fast path silently falling
back to the naive implementation).
"""

import json
import pathlib
import sys

import pytest

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"

pytestmark = pytest.mark.bn254


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import bench_snapshot
    finally:
        sys.path.remove(str(TOOLS_DIR))
    out_dir = tmp_path_factory.mktemp("bench")
    # Best-of-3 timing: a single sample can absorb a scheduler or GC
    # pause and flake the speedup floors below on loaded machines.
    bench_snapshot.main([
        "--rounds", "3",
        "--output", str(out_dir / "BENCH_t2_ops.json"),
        "--table", str(out_dir / "t2_ops.txt"),
    ])
    return json.loads((out_dir / "BENCH_t2_ops.json").read_text())


#: Ops present since the seed (these alone carry seed_reference_ms).
SEED_OPS = ["share_sign", "share_verify", "combine_optimistic",
            "combine_robust", "verify"]
#: Ops added by the extension-tower/batch-verification PR.
NEW_OPS = ["batch_verify_msg", "gt_exp", "final_exp"]
#: Service ops added by the serving-layer PR (fast = batch window of
#: meta.batch_k, naive = the same pipeline in single-request mode).
SVC_OPS = ["svc_sign_p50", "svc_verify_req", "svc_throughput"]
#: Worker-tier ops (fast = meta.tcp_workers standalone worker
#: processes over loopback sockets, naive = the same batched pipeline
#: on the event loop).
TCP_OPS = ["svc_tcp_verify_req", "svc_tcp_throughput"]
#: The combiner's window-level Share-Verify micro-op (fast = one
#: cross-message multi-pairing over a window of meta.batch_k shares,
#: naive = a seed-equivalent Share-Verify per share).
SHAREVERIFY_OPS = ["svc_robust_batch_shareverify"]
#: Durability op (fast = write-ahead log on with per-window fsync
#: batching, naive = the same sign-only pipeline with the WAL off).
WAL_OPS = ["svc_wal_throughput"]
#: Key-lifecycle op (fast = one live epoch transition fired mid-run
#: through the begin_epoch barrier, naive = no transition).
EPOCH_OPS = ["svc_epoch_pause"]
#: HTTP front-door ops (fast = the same sign-only workload entering
#: through the asyncio gateway over loopback HTTP, naive = direct
#: service.sign calls).
HTTP_OPS = ["svc_http_sign_p50", "svc_http_throughput"]


def test_snapshot_records_all_operations(snapshot):
    for section in ("fast_ms", "naive_ms", "speedup"):
        assert set(snapshot[section]) == \
            set(SEED_OPS + NEW_OPS + SVC_OPS + TCP_OPS
                + SHAREVERIFY_OPS + WAL_OPS + EPOCH_OPS + HTTP_OPS)
    assert set(snapshot["seed_reference_ms"]) == set(SEED_OPS)
    assert snapshot["meta"]["backend"] == "bn254"
    assert snapshot["meta"]["batch_k"] >= 2
    assert snapshot["meta"]["svc_total"] >= snapshot["meta"]["batch_k"]
    assert snapshot["meta"]["tcp_workers"] >= 1
    assert snapshot["meta"]["cpu_count"] >= 1


def test_fast_paths_beat_naive(snapshot):
    # Loose floors: measured speedups are 3.6x (verify), 3.2x
    # (share-verify) and ~5.8x (robust combine); anything near 1x means a
    # fast path silently fell back to a naive implementation.
    assert snapshot["speedup"]["verify"] >= 1.5
    assert snapshot["speedup"]["share_verify"] >= 1.5
    assert snapshot["speedup"]["combine_robust"] >= 2.0
    assert snapshot["speedup"]["final_exp"] >= 1.5


def test_batch_verify_amortizes_below_single_verify(snapshot):
    # The acceptance bar is <= 0.5x a single Verify; assert a looser 0.7x
    # so scheduler noise cannot flake the suite (measured: ~0.1x).
    assert snapshot["fast_ms"]["batch_verify_msg"] <= \
        0.7 * snapshot["fast_ms"]["verify"]


def test_service_window_amortizes_verify_traffic(snapshot):
    # The acceptance bar is <= 0.25x of single-request mode at a batch
    # window >= 16; assert a looser 0.5x so a loaded machine cannot
    # flake the suite (measured: ~0.1-0.2x).
    assert snapshot["meta"]["batch_k"] >= 16
    assert snapshot["fast_ms"]["svc_verify_req"] <= \
        0.5 * snapshot["naive_ms"]["svc_verify_req"]
    # Mixed sign+verify traffic must amortize too, if less dramatically
    # (signing cost is dominated by the t+1 Share-Signs either way).
    assert snapshot["fast_ms"]["svc_throughput"] <= \
        0.8 * snapshot["naive_ms"]["svc_throughput"]


def test_tcp_tier_serves_the_workload(snapshot):
    # The worker-tier measurement must exist and be sane.  Its *ratio*
    # against single-process mode is hardware-dependent — it approaches
    # min(tcp_workers, cores) on multi-core machines and ~1x on a single
    # core, where process parallelism cannot add CPU time — so the
    # scaling assertion only applies when the cores exist; otherwise
    # the floor only guards against the transport collapsing (e.g. a
    # reconnect storm or per-job re-dial).
    assert snapshot["fast_ms"]["svc_tcp_throughput"] > 0
    assert snapshot["fast_ms"]["svc_tcp_verify_req"] > 0
    if snapshot["meta"]["cpu_count"] >= 4:
        assert snapshot["speedup"]["svc_tcp_throughput"] >= 1.2
    else:
        assert snapshot["speedup"]["svc_tcp_throughput"] >= 0.4


def test_batch_shareverify_amortizes(snapshot):
    # The acceptance bar is >= 1.2x over the per-share loop at a window
    # of 16; measured is far higher (one multi-pairing of ~2 + 2t
    # prepared pairs vs 16 naive 4-pairing products), so 1.2x cannot
    # flake.  This op must NOT sit in the overhead-bound band.
    assert snapshot["meta"]["batch_k"] >= 16
    assert snapshot["speedup"]["svc_robust_batch_shareverify"] >= 1.2
    # Per-share window cost must undercut a single fast Share-Verify.
    assert snapshot["fast_ms"]["svc_robust_batch_shareverify"] <= \
        0.7 * snapshot["fast_ms"]["share_verify"]


def test_wal_overhead_is_bounded(snapshot):
    # The WAL ratio is an *overhead* measurement: the same sign-only
    # pipeline with the log on vs off, so the expected value sits just
    # below 1.0x (append + one fsync per closed window).  The floor
    # guards against the batching collapsing — an fsync per request
    # would crater the ratio on real disks.
    assert snapshot["fast_ms"]["svc_wal_throughput"] > 0
    assert snapshot["speedup"]["svc_wal_throughput"] >= 0.4
    assert "window" in snapshot["meta"]["wal_sync"]


def test_epoch_pause_overhead_is_bounded(snapshot):
    # Same overhead shape as the WAL op: one begin_epoch barrier (drain
    # in-flight windows, swap shares, resume) amortized over the
    # workload cannot make signing faster, so the ratio sits just below
    # 1.0x.  The floor guards against the barrier collapsing — a
    # transition that drops queues and forces retries, or one that
    # holds the pause across the refresh DKG math.
    assert snapshot["fast_ms"]["svc_epoch_pause"] > 0
    assert snapshot["speedup"]["svc_epoch_pause"] >= 0.4


def test_http_gateway_overhead_is_bounded(snapshot):
    # Overhead bound, not a speedup: the front door (HTTP parsing,
    # JSON bodies, tenant admission, a loopback socket round trip per
    # request) cannot make signing faster, so the ratio sits just
    # below 1.0x — the BN254 window crypto dwarfs the per-request
    # transport cost.  The floor guards against the gateway becoming
    # the bottleneck (per-request reconnects, head-of-line blocking).
    assert snapshot["fast_ms"]["svc_http_sign_p50"] > 0
    assert snapshot["speedup"]["svc_http_sign_p50"] >= 0.4
    assert snapshot["speedup"]["svc_http_throughput"] >= 0.4


def test_check_mode_against_committed_snapshot(snapshot, tmp_path):
    # --check must pass against a committed snapshot equal to the fresh
    # run, and fail against one with impossible speedups.
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import bench_snapshot
    finally:
        sys.path.remove(str(TOOLS_DIR))
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps(snapshot))
    assert bench_snapshot.run_check(snapshot, committed) == 0
    inflated = {
        "speedup": {op: value * 100
                    for op, value in snapshot["speedup"].items()}
    }
    committed.write_text(json.dumps(inflated))
    assert bench_snapshot.run_check(snapshot, committed) == 1
    assert bench_snapshot.run_check(
        snapshot, tmp_path / "missing.json") == 1


def test_check_failure_exit_code_from_cli(snapshot, tmp_path,
                                          monkeypatch, capsys):
    """The full --check CLI path must *return* 1 on a regression — CI
    turns that into the process exit code, so a failure path that
    returns 0 would silently green the pipeline."""
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import bench_snapshot
    finally:
        sys.path.remove(str(TOOLS_DIR))
    committed = tmp_path / "BENCH_t2_ops.json"
    committed.write_text(json.dumps({
        "speedup": {op: value * 100
                    for op, value in snapshot["speedup"].items()}
    }))
    # Reuse the module-scope snapshot instead of re-running the whole
    # benchmark battery through main().
    monkeypatch.setattr(bench_snapshot, "run_snapshot",
                        lambda rounds, include_naive=True: snapshot)
    assert bench_snapshot.main(
        ["--check", "--output", str(committed)]) == 1
    out = capsys.readouterr().out
    assert "worst regressing op" in out
    # The committed snapshot must never be overwritten by --check.
    assert "speedup" in json.loads(committed.read_text())
    assert len(json.loads(committed.read_text())) == 1


def test_check_widens_floor_for_overhead_bound_ops(snapshot, tmp_path,
                                                   monkeypatch):
    """Ops committed below OVERHEAD_REFERENCE (the near-1.0x worker-tier
    ratios) get the wide OVERHEAD_TOLERANCE band — scheduler jitter must
    not flake them — while a genuine collapse still fails."""
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import bench_snapshot
    finally:
        sys.path.remove(str(TOOLS_DIR))
    monkeypatch.delenv("BENCH_TOLERANCE", raising=False)
    # Synthetic committed values, so the test does not depend on what
    # the recording machine's core count made of the worker-tier ops:
    # one overhead-bound op (0.95x, below OVERHEAD_REFERENCE) and one
    # real speedup (4.0x, strict band).
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps(
        {"speedup": {"svc_tcp_throughput": 0.95, "verify": 4.0}}))
    assert 0.95 < bench_snapshot.OVERHEAD_REFERENCE
    # 25% below committed: inside the 40% overhead band for the
    # overhead-bound op (the strict 15% band would have failed it)...
    assert bench_snapshot.run_check(
        {"speedup": {"svc_tcp_throughput": 0.71, "verify": 4.0}},
        committed) == 0
    # ...but a 60% collapse must still fail...
    assert bench_snapshot.run_check(
        {"speedup": {"svc_tcp_throughput": 0.38, "verify": 4.0}},
        committed) == 1
    # ...and a real-speedup op keeps the strict band (25% below fails).
    assert bench_snapshot.run_check(
        {"speedup": {"svc_tcp_throughput": 0.95, "verify": 3.0}},
        committed) == 1


def test_check_tolerance_env_override(snapshot, tmp_path, monkeypatch):
    """BENCH_TOLERANCE (a percentage) widens the regression gate so a
    noisy shared runner can pass without a code edit."""
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import bench_snapshot
    finally:
        sys.path.remove(str(TOOLS_DIR))
    committed = tmp_path / "committed.json"
    # Inflate every committed speedup by 30%: fails at the default 15%
    # tolerance, passes once the gate is widened to 50%.
    committed.write_text(json.dumps({
        "speedup": {op: value * 1.3
                    for op, value in snapshot["speedup"].items()}
    }))
    monkeypatch.delenv("BENCH_TOLERANCE", raising=False)
    assert bench_snapshot.run_check(snapshot, committed) == 1
    monkeypatch.setenv("BENCH_TOLERANCE", "50")
    assert bench_snapshot.run_check(snapshot, committed) == 0
    monkeypatch.setenv("BENCH_TOLERANCE", "not a number")
    with pytest.raises(SystemExit):
        bench_snapshot.run_check(snapshot, committed)
    monkeypatch.setenv("BENCH_TOLERANCE", "-5")
    with pytest.raises(SystemExit):
        bench_snapshot.run_check(snapshot, committed)
