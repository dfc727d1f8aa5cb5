PYTHON ?= python
export PYTHONPATH := src

## Single source of truth for what CI installs.  The fast/full jobs
## need pytest and hypothesis (seven tier-1 modules import it at
## collection) — `make test` / `make test-fast` disable the
## pytest-benchmark plugin where it happens to be installed, so a
## local run equals CI's; the lint job needs ruff only.
TEST_DEPS = -e . pytest hypothesis
LINT_DEPS = ruff

.PHONY: test test-fast lint install-test install-lint bench \
	serve-smoke sim-smoke docs-check smoke

## Full tier-1 suite (both backends, including the `sim`-marked
## large-n discrete-event scenarios — minutes at n=1024).
test:
	$(PYTHON) -m pytest -x -q -p no:benchmark

## Protocol-logic tests only (toy backend, no large-n simulations;
## seconds, not minutes).
test-fast:
	$(PYTHON) -m pytest -x -q -p no:benchmark -m "not bn254 and not sim"

## Lint gate (the third fast CI gate).  Byte-compiles every Python tree
## (src, tools, tests, perf, benchmarks, examples) unconditionally — a
## syntax error anywhere fails even without ruff —
## then runs `ruff check` (zero-warning baseline, rules in ruff.toml)
## when ruff is importable.  Environments without ruff (the dev
## container bakes in the Python toolchain only) still get the
## compileall gate; CI installs ruff via `make install-lint`.
lint:
	$(PYTHON) -m compileall -q src tools tests perf benchmarks examples
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "lint: ruff not installed; compileall gate only"; \
	fi

## CI install targets, driven by the variables above.
install-test:
	$(PYTHON) -m pip install $(TEST_DEPS)

install-lint:
	$(PYTHON) -m pip install $(LINT_DEPS)

## Regenerate BENCH_t2_ops.json (the tracked T2 record: the nine
## naive-vs-fast micro-ops plus the svc_tcp_* worker-tier ratios) and
## benchmarks/results/t2_ops.txt (generated, git-ignored).  A record,
## not a gate: regressions are judged by perf/compare.py.
bench:
	$(PYTHON) tools/bench_snapshot.py --rounds 5

## Boot the async signing service, push 100+ requests through the load
## generator in seven acts (in-process shards and the loopback-TCP
## remote-worker tier — including a mid-window worker kill with two
## shards' jobs in flight, which must fail every request id over to a
## second endpoint and settle each exactly once) and fail on any
## rejected-valid request.  The durability act
## SIGKILLs the service itself mid-window and requires a restart
## against the same write-ahead log to complete every admitted request
## exactly once.  The key-lifecycle act refreshes, reshares and grows
## the shard ring under open-loop load (public key never changes,
## nothing rejected), then SIGKILLs a victim mid-transition: stale
## shares must be refused, the persisted post-transition context must
## settle every admit.  The HTTP act drives the gateway over the wire
## (two tenants with different quotas, over-quota 429s at the edge, an
## admin reshare mid-load, a /metrics gate: the scrape parses
## strictly and matches, sample for sample, every family the stats
## declarations produce from the state it was rendered from)
## and SIGKILLs the gateway's host process with admitted HTTP requests
## durable — the restart must settle them exactly once.  Every act's
## WAL is audited by one call to the settlement ledger
## (`service/wal.py:WalLedger`), the same fold a restart's replay reads:
## the one source of replay state and of every audit (leaves
## `.smoke-wal/` — WALs plus `epoch/epoch.log` — behind on failure for
## forensics).
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

## Simulation determinism gate: run each fixed-seed gated scenario twice
## in two separate processes, byte-compare the event-trace digests and
## print both: `ci` (n=64 WAN DKG under loss + a robust-combine run) and
## `churn` (the only simulator path through the reshare player).
## Catches any nondeterminism sneaking into the simulation stack — an
## unseeded RNG, dict-order dependence, wall-clock reads — the moment it
## lands.  The rendered tables go to benchmarks/results/f7_sim_<name>.txt.
SIM_GATED = ci churn

sim-smoke:
	@for scenario in $(SIM_GATED); do \
		$(PYTHON) tools/sim_run.py --scenario $$scenario \
			--digest-file .sim-digest-a > /dev/null && \
		$(PYTHON) tools/sim_run.py --scenario $$scenario \
			--digest-file .sim-digest-b > /dev/null && \
		cmp .sim-digest-a .sim-digest-b && \
		cat .sim-digest-a && rm -f .sim-digest-a .sim-digest-b || exit 1; \
	done

## Docs sanity: every internal link / anchor / code path reference in
## docs/*.md, README.md and benchmarks/README.md resolves.
docs-check:
	$(PYTHON) tools/check_docs.py

## CI smoke target: tier-1 tests, the signing-service contract check,
## the simulation determinism gate and the docs sanity check.
smoke: test serve-smoke sim-smoke docs-check
