"""The repo's benchmark: closed-loop service workloads, speed-calibrated
end-to-end metrics, a traced per-layer pass and a per-layer floor.
See ``perf/README.md``; the entry point is ``python perf/run.py``."""
