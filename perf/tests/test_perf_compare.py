"""``perf/compare.py`` verdicts on synthetic sets of runs."""

import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perf import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "time", "unit": "ms", "better": "lower", "bound": 0.05},
    ],
}


def _side(rate, time, failed=0):
    return {"values": {"w": {"rate": rate, "time": time}},
            "attempted": 100, "failed": failed}


def _verdicts(a, b):
    out = io.StringIO()
    code = compare.compare(a, b, SPEC, out=out)
    lines = out.getvalue().splitlines()
    return code, {line.split()[0]: line for line in lines[1:]}


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_same_code_is_within():
    code, lines = _verdicts(_side(STEADY, STEADY), _side(STEADY[::-1], STEADY))
    assert code == 0
    assert " within " in lines["w/rate"] and " within " in lines["w/time"]
    assert "base A = 100" in lines["w/rate"]


def test_worse_by_more_than_the_bound_is_regressed_in_either_direction():
    slower = [v * 0.9 for v in STEADY]
    code, lines = _verdicts(_side(STEADY, STEADY), _side(slower, STEADY))
    assert code == 1 and " regressed " in lines["w/rate"]
    assert " within " in lines["w/time"]
    longer = [v * 1.1 for v in STEADY]
    code, lines = _verdicts(_side(STEADY, STEADY), _side(STEADY, longer))
    assert code == 1 and " regressed " in lines["w/time"]
    # Better by more than the bound is not a regression.
    code, lines = _verdicts(_side(STEADY, STEADY), _side(longer, slower))
    assert code == 0 and " within " in lines["w/rate"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [90.0, 110.0, 100.0, 95.0, 105.0]
    code, lines = _verdicts(_side(noisy, STEADY), _side(STEADY, STEADY))
    assert code == 0 and " unresolved " in lines["w/rate"]
    assert compare.spread(noisy) > 0.05 > compare.spread(STEADY)


def test_a_larger_fail_share_fails_the_comparison():
    code, lines = _verdicts(_side(STEADY, STEADY),
                            _side(STEADY, STEADY, failed=1))
    assert code == 1
    assert "B 1/100" in lines["fail"]


def test_load_side_reads_untraced_results_only(tmp_path):
    for seed, value in enumerate([10.0, 12.0]):
        (tmp_path / f"result_w_trace0_seed{seed}.json").write_text(json.dumps({
            "workload": "w", "seed": seed, "trace": 0, "correct": True,
            "attempted": 50, "failed": seed,
            "metrics": {"rate": {"value": value, "unit": "1/s"}}}))
    (tmp_path / "result_w_trace1_seed0.json").write_text(json.dumps({
        "workload": "w", "seed": 0, "trace": 1, "correct": True,
        "attempted": 50, "failed": 0,
        "metrics": {"layer": {"value": 1.0, "unit": "ms"}}}))
    side = compare.load_side(tmp_path)
    assert side["values"]["w"] == {"rate": [10.0, 12.0]}
    assert (side["attempted"], side["failed"]) == (100, 1)
