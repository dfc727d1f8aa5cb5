"""Smoke test for the T2 snapshot tool.

Runs the naive-vs-fast micro-ops of ``tools/bench_snapshot.py`` once and
checks the snapshot structure plus loose same-process speedup floors
(well under the measured ratios so timing noise cannot flake the suite,
but tight enough to catch a fast path silently falling back to the
naive implementation).  Service-level regressions are judged by
``perf/compare.py``, not here.
"""

import pathlib
import sys

import pytest

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"

pytestmark = pytest.mark.bn254

#: Ops present since the seed (these alone carry seed_reference_ms).
SEED_OPS = ["share_sign", "share_verify", "combine_optimistic",
            "combine_robust", "verify"]
#: Ops added by the extension-tower/batch-verification PR, and the
#: combiner's window-level Share-Verify (fast = one cross-message
#: multi-pairing over a window of meta.batch_k shares, naive = a
#: seed-equivalent Share-Verify per share).
NEW_OPS = ["batch_verify_msg", "gt_exp", "final_exp",
           "svc_robust_batch_shareverify"]


@pytest.fixture(scope="module")
def bench_snapshot():
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import bench_snapshot
    finally:
        sys.path.remove(str(TOOLS_DIR))
    return bench_snapshot


@pytest.fixture(scope="module")
def snapshot(bench_snapshot):
    # Best-of-3 timing: a single sample can absorb a scheduler or GC
    # pause and flake the speedup floors below on loaded machines.
    return bench_snapshot.run_snapshot(rounds=3)


def test_snapshot_records_all_operations(bench_snapshot, snapshot):
    rendered = bench_snapshot.render_table(snapshot).render()
    assert "naive ms" in rendered and "speedup" in rendered
    assert rendered.count("\n") >= len(SEED_OPS + NEW_OPS)
    for section in ("fast_ms", "naive_ms", "speedup"):
        assert set(snapshot[section]) == set(SEED_OPS + NEW_OPS)
    assert set(snapshot["seed_reference_ms"]) == set(SEED_OPS)
    assert snapshot["meta"]["backend"] == "bn254"
    assert snapshot["meta"]["batch_k"] >= 2
    assert snapshot["meta"]["cpu_count"] >= 1


def test_fast_paths_beat_naive(snapshot):
    # Loose floors under the committed BENCH_t2_ops.json ratios (~5x
    # share-sign, ~3.9x share-verify, ~12x / ~6x combine, ~3.9x verify,
    # ~4.5x final exp); anything near 1x means a fast path silently
    # fell back to a naive implementation.
    assert snapshot["speedup"]["share_sign"] >= 2.0
    assert snapshot["speedup"]["share_verify"] >= 1.5
    assert snapshot["speedup"]["combine_optimistic"] >= 3.0
    assert snapshot["speedup"]["combine_robust"] >= 2.0
    assert snapshot["speedup"]["verify"] >= 1.5
    assert snapshot["speedup"]["final_exp"] >= 1.5


def test_batch_verify_amortizes_below_single_verify(snapshot):
    # The acceptance bar is <= 0.5x a single Verify; assert a looser 0.7x
    # so scheduler noise cannot flake the suite (measured: ~0.1x).
    assert snapshot["fast_ms"]["batch_verify_msg"] <= \
        0.7 * snapshot["fast_ms"]["verify"]


def test_batch_shareverify_amortizes(snapshot):
    # The acceptance bar is >= 1.2x over the per-share loop at a window
    # of 16; measured is far higher (one multi-pairing of ~2 + 2t
    # prepared pairs vs 16 naive 4-pairing products), so 1.2x cannot
    # flake.
    assert snapshot["meta"]["batch_k"] >= 16
    assert snapshot["speedup"]["svc_robust_batch_shareverify"] >= 1.2
    # Per-share window cost must undercut a single fast Share-Verify.
    assert snapshot["fast_ms"]["svc_robust_batch_shareverify"] <= \
        0.7 * snapshot["fast_ms"]["share_verify"]
