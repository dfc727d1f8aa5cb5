"""Span arithmetic and the tracer's wrap/restore."""

import asyncio
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))

from perf.attribution import (  # noqa: E402
    covered, install, self_times, stage_budget,
)
from perf.trace import Span, Tracer  # noqa: E402
from perf.workloads import WORKLOADS, Bench  # noqa: E402


def test_covered_is_the_length_of_the_union():
    assert covered([]) == 0.0
    assert covered([(0, 2), (5, 6)]) == 3.0
    assert covered([(0, 4), (3, 6)]) == 6.0            # overlapping
    assert covered([(0, 10), (2, 3), (4, 12)]) == 12.0  # nested + overlap
    assert covered([(4, 12), (2, 3), (0, 10)]) == 12.0  # any order


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span(0, "parent", "a", 0.0, 10.0, None, None),
        Span(1, "child", "b", 1.0, 4.0, 0, None),
        Span(2, "child", "b", 3.0, 6.0, 0, None),       # overlaps span 1
        Span(3, "grandchild", "c", 2.0, 3.0, 1, None),  # nested in span 1
        Span(4, "late", "b", 9.0, 11.0, 0, None),       # clipped to parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


class _Layer:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2

    async def slow(self, value):
        await asyncio.sleep(0)
        return self.inner(value)


def test_wrap_records_spans_with_parents_and_restore_is_exact():
    originals = {name: vars(_Layer)[name]
                 for name in ("outer", "inner", "slow")}
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "t.outer", "top")
    tracer.wrap(_Layer, "inner", "t.inner", "low",
                lambda args, kwargs, result: {"in": args[1], "out": result})
    tracer.wrap(_Layer, "slow", "t.slow", "top")
    assert _Layer().outer(3) == 7
    assert asyncio.run(_Layer().slow(5)) == 10
    inner, outer, inner2, slow = tracer.spans
    assert (inner.name, inner.layer, inner.attrs) == (
        "t.inner", "low", {"in": 3, "out": 6})
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner2.parent == slow.id and slow.name == "t.slow"
    tracer.restore()
    assert all(vars(_Layer)[name] is original
               for name, original in originals.items())
    assert _Layer().outer(1) == 3 and len(tracer.spans) == 4


def test_wrap_refuses_what_it_could_not_restore_identically():
    with pytest.raises(TypeError):
        Tracer().wrap(_Layer, "missing", "x", "y")

    class Derived(_Layer):
        pass

    with pytest.raises(TypeError):     # defined on the base, not here
        Tracer().wrap(Derived, "inner", "x", "y")


def test_install_and_restore_leave_the_program_untouched():
    bench = Bench(WORKLOADS["sign_burst"], seed=1, backend="toy")
    tracer = Tracer()
    install(tracer, bench)
    patched = list(tracer._patched)
    assert len(patched) >= 15
    assert all(vars(owner)[attr] is not original
               for owner, attr, original in patched)
    tracer.restore()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in patched)


def test_stage_budget_sums_to_the_op_mean():
    spans = [
        # Two requests served by one window, over HTTP.
        Span(0, "gateway.client", "gateway", 0.000, 0.100, None,
             {"ordinal": 7}),
        Span(1, "service.request", "service", 0.002, 0.097, None,
             {"ordinal": 7}),
        Span(2, "gateway.client", "gateway", 0.010, 0.101, None,
             {"ordinal": 8}),
        Span(3, "service.request", "service", 0.011, 0.098, None,
             {"ordinal": 8}),
        Span(4, "wal.sync", "wal", 0.020, 0.025, None, None),
        Span(5, "core.window", "core", 0.026, 0.090, None,
             {"ordinals": [7, 8]}),
        # A request whose window was never seen is left out.
        Span(6, "service.request", "service", 0.200, 0.300, None,
             {"ordinal": 9}),
    ]
    budget = stage_budget(spans)
    assert budget["requests"] == 2
    assert budget["op_mean_ms"] == pytest.approx((100.0 + 91.0) / 2)
    assert budget["gateway.edge_ms"] == pytest.approx((5.0 + 4.0) / 2)
    assert budget["service.queue_wait_ms"] == pytest.approx((18.0 + 9.0) / 2)
    assert budget["wal.sync_ms"] == pytest.approx(5.0)
    assert budget["service.window_ms"] == pytest.approx(64.0)
    stages = ("gateway.edge_ms", "service.queue_wait_ms", "wal.sync_ms",
              "service.window_ms", "service.unattributed_ms")
    assert sum(budget[name] for name in stages) == pytest.approx(
        budget["op_mean_ms"])
