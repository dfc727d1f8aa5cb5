#!/usr/bin/env python3
"""Compare two sets of runs: ``python perf/compare.py A_DIR B_DIR``.

Each directory holds the ``result_*.json`` files ``perf/run.py --out``
wrote for one side (A is the base, B the candidate).  Per workload and
end-to-end metric it prints each side's median and quartiles, the ratio
B/A with its base, and a verdict against the bound ``BENCHMARK.json``
fixes for the metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's own quartile distance is wider than the
  bound, so the runs cannot tell "unchanged" from "worse";
* ``within``     — neither.

Exit code 1 on any ``regressed`` or when B's share of failed requests
is larger than A's.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_side(directory) -> dict:
    """``{"values": {workload: {metric: [..]}}, "attempted", "failed"}``
    from the untraced result files of one directory."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    side = {"values": values, "attempted": 0, "failed": 0}
    for path in sorted(pathlib.Path(directory).glob("result_*.json")):
        result = json.loads(path.read_text())
        if result["trace"]:
            continue
        side["attempted"] += result["attempted"]
        side["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            values[result["workload"]][name].append(entry["value"])
    return side


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if better == "lower" else -change


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    if worsening(statistics.median(a), statistics.median(b),
                 better) > bound:
        return "regressed"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "within"


def fail_share(side: dict) -> float:
    return side["failed"] / max(1, side["attempted"])


def _quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.5g}..{q3:.5g}"


def compare(a: dict, b: dict, spec: dict, out=sys.stdout) -> int:
    regressed = False
    print(f"{'workload/metric':<28} {'A median (q1..q3)':<32} "
          f"{'B median (q1..q3)':<32} {'B/A':>7}  verdict", file=out)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = a["values"].get(workload, {}).get(name, [])
            vb = b["values"].get(workload, {}).get(name, [])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            outcome = verdict(va, vb, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            print(f"{workload + '/' + name:<28} "
                  f"{f'{ma:.5g} ({_quartiles(va)})':<32} "
                  f"{f'{mb:.5g} ({_quartiles(vb)})':<32} "
                  f"{mb / ma:>7.4f}  {outcome} "
                  f"(bound {metric['bound']}, base A = {ma:.5g} "
                  f"{metric['unit']}, n = {len(va)}+{len(vb)})", file=out)
    share_a, share_b = fail_share(a), fail_share(b)
    print(f"fail share: A {a['failed']}/{a['attempted']} = {share_a:.4f}, "
          f"B {b['failed']}/{b['attempted']} = {share_b:.4f}", file=out)
    return 1 if regressed or share_b > share_a else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load_side(argv[0]), load_side(argv[1]), spec)


if __name__ == "__main__":
    raise SystemExit(main())
