"""Calibration: a slower clock must not move a calibrated value."""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perf import probe  # noqa: E402
from perf.workloads import (  # noqa: E402
    Op, Region, end_to_end, ops_per_s, steady,
)

WINDOWS, WINDOW = 40, 16


def _run(slowdown: float):
    """A saturated closed loop of 2 * WINDOW clients: one window of
    completions every 0.3 s and one probe sample every 0.25 s, both at
    ``slowdown`` times reference speed."""
    tick = 0.3 * slowdown
    ops = [Op(w * WINDOW + i, max(0, w - 1) * tick, (w + 1) * tick, None, None)
           for w in range(WINDOWS) for i in range(WINDOW)]
    region = Region(started=0.0, ended=WINDOWS * tick,
                    cpu_s=0.29 * slowdown * WINDOWS, ops=ops,
                    clients=2 * WINDOW)
    prober = probe.Prober()
    prober.times = [0.25 * slowdown * n for n in range(48)]
    prober.samples_ms = [probe.PROBE_REF_MS * slowdown] * 48
    return region, prober


def test_spin_measures_on_the_clock_it_is_given():
    ticks = iter(range(100))
    assert probe.spin(clock=lambda: next(ticks) * 0.25) == 250.0


@pytest.mark.parametrize("slowdown", [0.5, 1.0, 1.7, 3.0])
def test_a_slowed_clock_leaves_calibrated_values_unchanged(slowdown):
    reference = end_to_end(*_run(1.0), 30.0)
    slowed = end_to_end(*_run(slowdown), 30.0)
    assert slowed == pytest.approx(reference)
    assert reference["ops_per_s"] == pytest.approx(16 / 0.3)
    assert reference["op_p50_ms"] == pytest.approx(600.0)
    assert reference["cpu_ms_per_op"] == pytest.approx(290.0 / 16)
    # The raw values did move.
    assert ops_per_s(_run(slowdown)[0]) == pytest.approx(16 / 0.3 / slowdown)


def test_a_slow_spell_within_a_run_is_calibrated_where_it_happened():
    """Second half of the work 20 % slower: the rate takes the run's
    mean slowness, each latency the slowness of its own moment."""
    slow_from = 20 * 0.3
    ends = [(w + 1) * 0.3 if w < 20 else slow_from + (w - 19) * 0.36
            for w in range(WINDOWS)]
    ops = [Op(w * WINDOW + i, ends[w - 2] if w > 1 else 0.0, ends[w],
              None, None) for w in range(WINDOWS) for i in range(WINDOW)]
    region = Region(0.0, ends[-1], 0.0, ops, 2 * WINDOW)
    prober = probe.Prober()
    prober.times = [0.25 * n for n in range(int(ends[-1] / 0.25))]
    prober.samples_ms = [
        probe.PROBE_REF_MS * (1.0 if t < slow_from else 1.2)
        for t in prober.times]
    metrics = end_to_end(region, prober, 30.0)
    assert ops_per_s(region) == pytest.approx(16 / 0.33, rel=1e-6)
    assert metrics["ops_per_s"] == pytest.approx(16 / 0.3, rel=0.015)
    assert metrics["op_p50_ms"] == pytest.approx(600.0, rel=0.015)


def test_a_preempted_spin_is_capped():
    assert probe.speed_factor([4.0] * 20) == 1.0
    assert probe.speed_factor([4.0] * 19 + [400.0]) == pytest.approx(
        (19 * 4.0 + 12.0) / 20 / 4.0)


def test_latencies_drop_the_first_and_last_round():
    region, _ = _run(1.0)
    assert len(steady(region)) == WINDOWS * WINDOW - 2 * 2 * WINDOW
    region.ops = region.ops[:3 * WINDOW]       # too short to trim
    assert len(steady(region)) == 3 * WINDOW
