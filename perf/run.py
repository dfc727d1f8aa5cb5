#!/usr/bin/env python3
"""The repo's benchmark: ``python perf/run.py``.

Runs every workload of ``BENCHMARK.json`` one at a time, each in fresh
processes: an untraced pass for the end-to-end metrics (``--trace 0``)
and a traced pass for the per-layer ones (``--trace 1``; both when the
flag is absent).  Every output is checked, every metric is printed by
name with its unit, and each run ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

Works from any directory with no ``PYTHONPATH``, no ``.git``, no
network and nothing but the standard library: the children put
``src/`` on ``sys.path`` themselves.  Scratch files live under
``tempfile`` and are removed; nothing is written into the repo unless
``--out`` says where.  The exit code is non-zero on any failed request,
wrong output, uncalibrated run, or a metric that ``BENCHMARK.json``
does not declare (or declares and was not measured).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path[0] = str(pathlib.Path(__file__).resolve().parent.parent)

from perf import compare, probe

PERF = pathlib.Path(__file__).resolve().parent
ROOT = PERF.parent
#: Cold processes whose set-up time ``setup_s`` is the median of.
SETUP_SAMPLES = 5
#: A run — the measuring child and the cold set-up children after it —
#: is stopped when it has taken this long (the driver allows 180 s).
RUN_TIMEOUT_S = 170.0
#: --quick: toy backend, a smoke test of the harness and not a measurement.
QUICK_SECONDS = 0.6


class BenchmarkError(Exception):
    """The run cannot be reported as a measurement."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(workload: str, seed: int, seconds: float, mode: str,
          quick: bool, out: Optional[pathlib.Path], deadline: float) -> dict:
    """One child process, to completion (or killed at ``deadline``, on
    ``time.monotonic``); returns its report."""
    command = [
        sys.executable, str(PERF / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
        "--spawned-at", repr(time.perf_counter())]
    if quick:
        command.append("--quick")
    if out is not None:
        command += ["--out", str(out)]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=max(0.001, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload}: the run exceeded {RUN_TIMEOUT_S:.0f} s; its "
            f"child ({mode}) was killed") from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child ({mode}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(spec: dict, workload: str, seed: int, seconds: float,
             trace: int, quick: bool, out: Optional[pathlib.Path]) -> dict:
    """One run of one workload: the result object the driver reads."""
    declared = spec["per_layer" if trace else "end_to_end"]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    report = spawn(workload, seed, seconds, "trace" if trace else "measure",
                   quick, out, deadline)
    metrics = report["metrics"]
    attempted, failed = report["attempted"], report["failed"]
    if not trace:
        if not quick and report["probe_samples"] < probe.MIN_PROBE_SAMPLES:
            raise BenchmarkError(
                f"{workload}: uncalibrated, {report['probe_samples']} probe "
                f"samples (need {probe.MIN_PROBE_SAMPLES})")
        setups = [report["setup"]]
        for _ in range(0 if quick else SETUP_SAMPLES - 1):
            cold = spawn(workload, seed, seconds, "setup", quick, None,
                         deadline)
            attempted += cold["attempted"]
            failed += cold["failed"]
            setups.append(cold["setup"])
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        report["info"]["setup_samples"] = len(setups)
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(metrics):
        raise BenchmarkError(
            f"{workload}: measured and declared metrics differ: "
            f"{sorted(set(names) ^ set(metrics))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": metrics[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared},
    }
    for name, entry in result["metrics"].items():
        print(f"{workload}/{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{workload}: {failed} failed of {attempted} attempted; "
          + ", ".join(f"{key}={value:.6g}" if isinstance(value, float)
                      else f"{key}={value}"
                      for key, value in report["info"].items()))
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"result_{workload}_trace{trace}_seed{seed}.json").write_text(
            json.dumps({"workload": workload, "seed": seed, "trace": trace,
                        **result, "info": report["info"]}) + "\n")
    print(json.dumps(result), flush=True)
    return result


def run_aa(spec: dict, workloads: List[str], runs: int, seed: int,
           seconds: float, quick: bool,
           out: Optional[pathlib.Path]) -> int:
    """Two interleaved sets of ``runs`` runs of the same code, then
    ``compare``: how far apart two sets are when nothing changed."""
    with tempfile.TemporaryDirectory(prefix="perf-aa-") as scratch:
        base = out if out is not None else pathlib.Path(scratch)
        sides = [base / "A", base / "B"]
        correct = True
        for index in range(runs):
            # Alternate which side runs first.
            for side in (sides if index % 2 == 0 else sides[::-1]):
                for workload in workloads:
                    correct &= run_once(spec, workload, seed + index,
                                        seconds, 0, quick, side)["correct"]
        verdict = compare.main([str(sides[0]), str(sides[1])])
    return verdict if correct else 1


def warn_if_loaded() -> None:
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > cores - 1:
        print(f"warning: 1-min load average {load:.2f} on {cores} cores; "
              f"the box is busy and the run will be noisier",
              file=sys.stderr)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all, one at a time)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                        "(default: both passes)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write result files and span dumps here")
    parser.add_argument("--quick", action="store_true",
                        help="toy backend, sub-second regions: smoke only")
    parser.add_argument("--aa", type=int, default=None, metavar="N",
                        help="two interleaved sets of N untraced runs of "
                        "this code, then perf/compare.py on them")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    workloads = names if args.workload is None else [args.workload]
    warn_if_loaded()
    try:
        if args.aa is not None:
            return run_aa(spec, workloads, args.aa, args.seed, seconds,
                          args.quick, args.out)
        correct = True
        for trace in ((0, 1) if args.trace is None else (args.trace,)):
            for workload in workloads:
                correct &= run_once(spec, workload, args.seed, seconds,
                                    trace, args.quick, args.out)["correct"]
    except BenchmarkError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
