"""The batch-window accumulator.

A window closes on whichever trigger fires first:

* ``max_batch`` requests have been collected (a *full* window — the best
  amortization the crypto layer offers), or
* ``max_wait_ms`` has elapsed since the **first** request of the window
  (the latency bound: a lone request never waits longer than one window)
  — and, with a ``prepare`` hook, every collected item has been through
  it and the queue is still empty after admission had its turn.

This is the standard batching trade-off dial: ``max_wait_ms = 0``
degenerates to single-request dispatch, large values approach pure
throughput mode.  The accumulator never holds an empty window open — it
blocks until a first request arrives, so an idle service burns no CPU.

``prepare`` makes the wait work-conserving: while the queue is empty
and the window not full, the oldest unprepared item is prepared instead
of sleeping on the timer (per-item work that does not depend on who
else joins the window — the shard's non-interactive Share-Sign).  A
window the queue fills is never prepared: it closes at once.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Generic, List, Optional, TypeVar

T = TypeVar("T")

#: Event-loop passes a request that reached its socket while ``prepare``
#: held the loop needs to reach the queue: selector poll -> protocol
#: read -> handler task -> ``put_nowait``.
ADMISSION_PASSES = 3


class BatchAccumulator(Generic[T]):
    """Collects items from an :class:`asyncio.Queue` into windows."""

    def __init__(self, queue: "asyncio.Queue[T]", max_batch: int,
                 max_wait_ms: float,
                 prepare: Optional[Callable[[T], bool]] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self.queue = queue
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        #: Synchronous per-item hook; returns whether it held the loop
        #: (did work), so admission is owed a turn.
        self.prepare = prepare
        #: Items put back on cancellation that no longer fit the queue
        #: (admission refilled it while the window was forming).  A
        #: shard-pool drain collects these ahead of the queue proper.
        self.spilled: List[T] = []

    def putback(self, items: List[T]) -> None:
        """Return items that were taken off the queue but never served
        (a worker cancelled mid-window, e.g. a shard leaving during a
        live resize).  Overflow — the queue refilled behind them — goes
        to :attr:`spilled` so nothing is dropped."""
        for position, item in enumerate(items):
            try:
                self.queue.put_nowait(item)
            except asyncio.QueueFull:
                self.spilled.extend(items[position:])
                return

    async def _admission_turn(self) -> None:
        """Yield until what arrived while ``prepare`` held the loop is
        admitted, so a request that came in during an overrun of the
        deadline joins *this* window instead of opening the next."""
        for _ in range(ADMISSION_PASSES):
            await asyncio.sleep(0)
            if not self.queue.empty():
                return

    async def next_window(self) -> List[T]:
        """Block for the next non-empty window.

        Greedily drains whatever is already queued (requests that
        arrived while the worker was busy crypto-crunching the previous
        window form the next one immediately — under sustained load the
        window fills without ever sleeping), prepares the collected
        items one by one, yielding to admission after each, then waits
        out the remainder of the time budget for stragglers.

        Cancellation-safe: a partially formed window is put back (queue
        first, :attr:`spilled` on overflow), so cancelling the consumer
        never loses admitted requests.
        """
        window: List[T] = []
        prepared = 0
        try:
            window.append(await self.queue.get())
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.max_wait_ms / 1000.0
            while len(window) < self.max_batch:
                try:
                    window.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    if self.prepare is not None and prepared < len(window):
                        prepared += 1
                        if self.prepare(window[prepared - 1]):
                            await self._admission_turn()
                        continue
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        window.append(await asyncio.wait_for(
                            self.queue.get(), remaining))
                    except asyncio.TimeoutError:
                        break
        except asyncio.CancelledError:
            self.putback(window)
            raise
        return window
