"""In-run speed probe and the calibration built on it.

On a shared box whole runs slow down together for minutes: a neighbour
lowers the *instruction rate*, so wall clock and ``process_time`` move
alike and no choice of clock removes it.  The probe measures that rate
with the program's own instruction mix (254-bit modular multiplies on
Python ints) while the workload runs, and every end-to-end time is
reported *at reference speed*: times divided by ``k``, rates multiplied
by ``k``, where ``k = mean(probe_ms) / PROBE_REF_MS`` (see
:func:`speed_factor`).

The probe is benchmark code, identical on the two commits a comparison
runs, so a faster program still moves the calibrated number one-for-one.
This module imports nothing from ``repro`` — set-up timing spins before
the first import of the program.
"""

from __future__ import annotations

import asyncio
import bisect
import statistics
import time
from typing import Callable, List, Optional, Sequence

#: The BN254 base-field prime: the modulus the program's arithmetic uses.
P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
SPIN_ITERATIONS = 4000
#: Duration of one spin at reference speed.  A constant, not a
#: measurement: it only fixes the unit of ``k``.
PROBE_REF_MS = 4.0
#: Loop time between two spins of the in-run prober.
PROBE_INTERVAL_S = 0.25
#: A timed region with fewer probe samples is reported as uncalibrated.
MIN_PROBE_SAMPLES = 20
#: Spins before the first import and again after ready, for set-up.
SETUP_SPINS = 15
#: Probe samples are capped at this multiple of their median.
WINSOR = 3.0
#: A latency is calibrated with the samples this close to it in time.
LOCAL_HALF_WIDTH_S = 1.5


def spin(clock: Callable[[], float] = time.perf_counter) -> float:
    """Run the fixed multiply loop once; returns its duration in ms."""
    a = 0x1F3D5B79A2C4E6081F3D5B79A2C4E6081F3D5B79A2C4E6081F3D5B79A2C4E608 % P
    b = 0x2B4D6F81A3C5E7092B4D6F81A3C5E7092B4D6F81A3C5E7092B4D6F81A3C5E709 % P
    started = clock()
    for _ in range(SPIN_ITERATIONS):
        a = (a * b + a) % P
        b = b * b % P
    return (clock() - started) * 1000.0


def spins(count: int) -> List[float]:
    return [spin() for _ in range(count)]


def speed_factor(probe_ms: Sequence[float]) -> float:
    """``k``: how much slower than reference speed the box ran while
    ``probe_ms`` was sampled (> 1 is slower).

    The *mean* of the samples, not their median: elapsed time is the
    integral of slowness over the run, and samples taken at a fixed
    interval average to just that, so total time and ``k`` move
    together when the box speeds up and slows down within a run.  Each
    sample is capped at ``WINSOR`` times the median first: a spin the
    scheduler preempted says nothing about the instruction rate.
    """
    cap = WINSOR * statistics.median(probe_ms)
    return statistics.fmean(min(sample, cap) for sample in probe_ms) \
        / PROBE_REF_MS


class Prober:
    """Samples :func:`spin` every ``PROBE_INTERVAL_S`` of loop time.

    Runs as a timer on the workload's own event loop, so on a saturated
    loop it samples between batch windows — the same instants the
    workload's own code runs.  There a tick comes late by a window or
    two; it then makes up the spins it missed, at most ``MAX_CATCH_UP``
    at once, so a saturated loop is sampled as densely as an idle one.
    """

    MAX_CATCH_UP = 4

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.samples_ms: List[float] = []
        #: When each sample was taken, on ``clock``.
        self.times: List[float] = []
        self._timer: Optional[asyncio.TimerHandle] = None

    def start(self) -> None:
        self._sample()
        self._schedule(asyncio.get_running_loop())

    def _sample(self) -> None:
        self.samples_ms.append(spin(self.clock))
        self.times.append(self.clock())

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule(self, loop) -> None:
        due = loop.time() + PROBE_INTERVAL_S
        self._timer = loop.call_at(due, self._tick, loop, due)

    def _tick(self, loop, due: float) -> None:
        missed = int((loop.time() - due) / PROBE_INTERVAL_S)
        for _ in range(min(self.MAX_CATCH_UP, 1 + missed)):
            self._sample()
        self._schedule(loop)

    def factor(self) -> float:
        return speed_factor(self.samples_ms)

    def factor_around(self, start: float, end: float) -> float:
        """``k`` from the samples taken while an operation ran, or
        within ``LOCAL_HALF_WIDTH_S`` of its middle if that is longer;
        the whole run's ``k`` where fewer than three are that close."""
        middle = (start + end) / 2.0
        half = max(LOCAL_HALF_WIDTH_S, (end - start) / 2.0)
        near = self.samples_ms[
            bisect.bisect_left(self.times, middle - half):
            bisect.bisect_right(self.times, middle + half)]
        return speed_factor(near if len(near) >= 3 else self.samples_ms)

    @property
    def busy_s(self) -> float:
        """Time the prober itself kept the loop and the CPU."""
        return sum(self.samples_ms) / 1000.0
