"""Outside-in tracing: spans recorded from the benchmark's own files.

:meth:`Tracer.wrap` swaps a public method of the program for a recorder
that notes name, layer, start, end and the span that caused it (the
enclosing span of the same task, carried in a ``contextvars`` variable),
then calls the original.  Nothing inside ``src/`` knows about it:
:meth:`Tracer.restore` puts every original attribute back, identical.
Spans stay in memory and are written out by :meth:`Tracer.dump` when
the run ends.

Spans of one request share the ordinal that leads its message (see
``workloads.message_for``): the ``attrs`` callback of a wrap reads it
from the call's arguments, which is what stitches a client span to the
service span and to the batch window that served it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    #: Id of the enclosing span in the same task, or None at the top.
    parent: Optional[int]
    attrs: Optional[Dict[str, object]]

    @property
    def duration(self) -> float:
        return self.end - self.start


AttrsFn = Callable[[tuple, dict, object], Optional[Dict[str, object]]]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perf_current_span", default=None)
        self._next_id = 0
        self._patched: List[tuple] = []

    def wrap(self, owner, attr: str, name: str, layer: str,
             attrs: Optional[AttrsFn] = None) -> None:
        """Replace ``owner.attr`` (a function defined on that class or
        module itself) with a span recorder around it."""
        original = vars(owner).get(attr)
        if not inspect.isfunction(original):
            raise TypeError(
                f"{owner.__name__}.{attr} is not a plain function defined "
                f"on {owner.__name__}; wrap it where it is defined")
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def recorder(*args, **kwargs):
                span_id, token, started = self._enter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    self._exit(span_id, token, started, name, layer,
                               attrs, args, kwargs, result)
        else:
            @functools.wraps(original)
            def recorder(*args, **kwargs):
                span_id, token, started = self._enter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    self._exit(span_id, token, started, name, layer,
                               attrs, args, kwargs, result)
        setattr(owner, attr, recorder)
        self._patched.append((owner, attr, original))

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        token = self._current.set(span_id)
        return span_id, token, self.clock()

    def _exit(self, span_id, token, started, name, layer, attrs, args,
              kwargs, result) -> None:
        ended = self.clock()
        self._current.reset(token)
        self.spans.append(Span(
            span_id, name, layer, started, ended, self._current.get(),
            attrs(args, kwargs, result) if attrs is not None else None))

    def restore(self) -> None:
        """Put back every wrapped attribute, most recent first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")
