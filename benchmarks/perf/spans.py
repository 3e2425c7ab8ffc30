"""Aggregate spans installed from outside the program under test.

The traced child of the perf ledger replaces public call sites with
timing wrappers stored as *instance attributes* (or, for
``run_point``, the module attribute the executor calls through), so no
file under ``src/`` changes and an untraced run executes none of this.

A span is an aggregate, never an event log: per ``(parent, name)`` it
keeps the call count, the inclusive host time and the self time (the
inclusive time minus the time of the spans it directly encloses).
Memory grows with the number of distinct ``(parent, name)`` pairs, not
with the number of calls.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["SpanTable"]

#: Marks a callable that already records a span, so wrapping a
#: scheduled callback that is itself a traced method adds no second span.
SPAN_ATTR = "__perf_span__"


def _layer_of(module: str | None) -> str:
    """The layer name for a ``repro.*`` module: the module path below
    ``repro`` (``repro.net.session`` -> ``net.session``)."""
    if module and module.startswith("repro."):
        return module[len("repro."):]
    return "other"


class SpanTable:
    """Per-``(parent, name)`` call counts, inclusive and self time."""

    def __init__(self) -> None:
        #: (parent name or "", span name) -> [calls, inclusive_s, self_s]
        self.rows: dict[tuple[str, str], list] = {}
        #: Inclusive durations of the spans named in ``keep_samples``.
        self.samples: dict[str, list[float]] = {}
        #: Plain call counters (e.g. ``schedule_calls``), no timing.
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []

    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, fn: Callable[..., Any],
             keep_samples: bool = False) -> Callable[..., Any]:
        """A callable that runs ``fn`` inside a span called ``name``."""
        rows = self.rows
        stack = self._stack
        clock = time.perf_counter
        samples = (self.samples.setdefault(name, []) if keep_samples
                   else None)

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (parent[0] if parent is not None else "", name)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        setattr(traced, SPAN_ATTR, name)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def wrap_methods(self, obj: Any, name: str,
                     methods: tuple[str, ...]) -> None:
        """Replace ``obj.<method>`` with a traced instance attribute.

        ``object.__setattr__`` also reaches frozen dataclasses such as
        ``RadioHead``; the instance is the benchmark's own.
        """
        for method in methods:
            object.__setattr__(obj, method,
                               self.wrap(name, getattr(obj, method)))

    def wrap_engine(self, sim: Any) -> None:
        """Count ``schedule``/``call_in`` calls and run every scheduled
        callback inside a span named after the module that defines it.

        Layer work is scheduled as a closure defined in
        ``repro.stack.layers``; it inherits the UE/gNB span that
        scheduled it, so the stack's time splits by side.
        """
        counts = self.counts
        counts.setdefault("schedule_calls", 0)
        callback_span = self._callback_span

        def traced_schedule(schedule: Callable[..., Any]
                            ) -> Callable[..., Any]:
            def call(when: int, callback: Callable[..., Any],
                     *args: Any) -> Any:
                counts["schedule_calls"] += 1
                return schedule(when, callback_span(callback), *args)
            return call

        sim.schedule = traced_schedule(sim.schedule)
        sim.call_in = traced_schedule(sim.call_in)

    def _callback_span(self, callback: Callable[..., Any]
                       ) -> Callable[..., Any]:
        if hasattr(callback, SPAN_ATTR):
            return callback
        name = _layer_of(getattr(callback, "__module__", None))
        if name == "stack.layers":
            enclosing = self.current()
            if enclosing is not None and enclosing.startswith(
                    "stack.layers."):
                name = enclosing
        return self.wrap(name, callback)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self_s)`` summed over parents."""
        totals: dict[str, list] = {}
        for (_parent, name), (calls, _incl, self_s) in self.rows.items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return {name: (calls, self_s)
                for name, (calls, self_s) in totals.items()}

    def calls_under(self, parent: str, name: str) -> int:
        """Calls of span ``name`` made directly inside span ``parent``."""
        row = self.rows.get((parent, name))
        return row[0] if row is not None else 0

    def attributed_s(self) -> float:
        """Host time inside any span (the sum of self times)."""
        return sum(row[2] for row in self.rows.values())

    def as_payload(self) -> list[dict[str, Any]]:
        """The span table as JSON-ready rows, sorted by self time."""
        rows = [{"parent": parent or None, "name": name, "calls": calls,
                 "inclusive_s": incl, "self_s": self_s}
                for (parent, name), (calls, incl, self_s)
                in self.rows.items()]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
