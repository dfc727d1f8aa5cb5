"""The discrete-event kernel: a heapq event loop over a virtual clock.

Dependency-free by design (no simpy — the repo's zero-dependency rule):
an event is ``(due_us, seq, callback, args)`` on a binary heap, time is
an **integer microsecond** counter (floats would accumulate rounding
differences across platforms and break byte-identical trace digests),
and every source of randomness is a single seeded :class:`random.Random`
owned by the kernel.  Nothing here reads the wall clock; a simulation's
behaviour is a pure function of its seed and its scenario parameters.

The kernel also owns the **event trace**: :meth:`EventKernel.trace`
feeds ``"{now_us} {line}\\n"`` into an incremental SHA-256.  The final
:meth:`EventKernel.digest` is the scenario's determinism witness — two
runs of the same scenario with the same seed must produce byte-identical
digests (``make sim-smoke`` runs the CI and churn scenarios twice and
compares; see ``docs/SIMULATION.md`` for the contract).
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ReproError


class SimulationError(ReproError):
    """The simulation harness was driven incorrectly (e.g. an event
    scheduled in the past, or a scenario invariant violated)."""


class EventKernel:
    """Seed-deterministic discrete-event loop with a virtual µs clock."""

    def __init__(self, seed: int = 0, keep_trace_lines: bool = False):
        self.rng = random.Random(seed)
        self.now_us = 0
        self.events_run = 0
        self.events_traced = 0
        self._heap: List[Tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self._digest = hashlib.sha256()
        #: Full trace retention is opt-in: the digest is enough for the
        #: determinism gate, and big-n scenarios trace millions of lines.
        self.trace_lines: Optional[List[str]] = (
            [] if keep_trace_lines else None)

    # -- scheduling ---------------------------------------------------------
    def schedule_at(self, due_us: int, callback: Callable,
                    *args: Any) -> None:
        if due_us < self.now_us:
            raise SimulationError(
                f"cannot schedule at {due_us}us, clock is at {self.now_us}us")
        # The monotone sequence number makes heap ordering total, so
        # same-instant events fire in schedule order on every run.
        self._seq += 1
        heapq.heappush(self._heap, (due_us, self._seq, callback, args))

    def schedule(self, delay_us: int, callback: Callable,
                 *args: Any) -> None:
        self.schedule_at(self.now_us + max(0, int(delay_us)), callback,
                         *args)

    # -- the loop -----------------------------------------------------------
    def run(self, until_us: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the heap (bounded by ``until_us`` / ``max_events``);
        returns the number of events executed."""
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            due_us, _, callback, args = self._heap[0]
            if until_us is not None and due_us > until_us:
                break
            heapq.heappop(self._heap)
            self.now_us = due_us
            callback(*args)
            executed += 1
        self.events_run += executed
        return executed

    @property
    def pending(self) -> int:
        return len(self._heap)

    # -- the trace digest ---------------------------------------------------
    def trace(self, line: str) -> None:
        """Record one trace event at the current virtual time."""
        self._digest.update(f"{self.now_us} {line}\n".encode("utf-8"))
        self.events_traced += 1
        if self.trace_lines is not None:
            self.trace_lines.append(f"{self.now_us} {line}")

    def digest(self) -> str:
        """Hex digest over every trace line so far (order-sensitive)."""
        return self._digest.hexdigest()
