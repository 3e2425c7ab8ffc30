"""cProfile harness for campaign runs (``urllc5g bench --profile``).

Perf work on the simulator must start from data, not guesses: this
module wraps a callable in :mod:`cProfile`, aggregates the resulting
statistics *per ``repro`` module*, and writes a ``PROFILE_<name>.json``
document next to the bench output.  The per-module view answers the
question every perf PR starts with — "where does the wall-clock go:
engine, sampling, tracing, or the analytical model?" — without wading
through per-function noise.

Timing discipline: cProfile's internal timer is a wall-clock source,
which is banned everywhere simulation results are computed; it is
acceptable here because profiling measures the *host*, never the
simulated system, and the profiled callable's return value is passed
through untouched.  All numbers in the JSON come from :mod:`pstats`
aggregation; the module itself never reads ``time.*``, so it needs no
``no-wall-clock`` exemption.

Reading the document is covered in docs/PERFORMANCE.md.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from pathlib import Path
from typing import Any, Callable, TypeVar

__all__ = [
    "ProfileReport",
    "profile_call",
    "aggregate_by_module",
    "write_profile_json",
]

T = TypeVar("T")


class ProfileReport:
    """Raw profiler statistics plus the aggregated per-module view."""

    def __init__(self, stats: pstats.Stats):
        self.stats = stats
        self.modules = aggregate_by_module(stats)

    @property
    def total_time_s(self) -> float:
        """Total time under the profiler (sum of per-function tottime)."""
        return float(self.stats.total_tt)

    def payload(self, name: str) -> dict[str, Any]:
        """The JSON document body for ``PROFILE_<name>.json``."""
        return {
            "schema": "urllc5g-profile/1",
            "campaign": name,
            "total_time_s": self.total_time_s,
            "modules": self.modules,
            "top_functions": top_functions(self.stats),
        }


def profile_call(fn: Callable[[], T]) -> tuple[T, ProfileReport]:
    """Run ``fn`` under cProfile; return its result and the report."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    return result, ProfileReport(stats)


def _module_of(filename: str) -> str:
    """Map a stats filename to a dotted ``repro.*`` module, or a bucket.

    Anything outside the ``repro`` package is folded into two buckets:
    ``<builtin>`` for C-level entries and ``<other>`` for Python code
    (stdlib, numpy front-end...) — the breakdown exists to compare our
    modules, not to profile CPython.
    """
    if filename.startswith("~") or filename.startswith("<"):
        return "<builtin>"
    parts = Path(filename).with_suffix("").parts
    try:
        index = len(parts) - 1 - tuple(reversed(parts)).index("repro")
    except ValueError:
        return "<other>"
    dotted = ".".join(parts[index:])
    return dotted[:-len(".__init__")] if dotted.endswith(".__init__") \
        else dotted


def aggregate_by_module(stats: pstats.Stats) -> dict[str, dict[str, Any]]:
    """Per-module totals, sorted by descending own-time.

    ``tottime_s`` (time spent in the module's own frames) is additive —
    the values sum to ``total_time_s``.  ``cumtime_s`` is the familiar
    cumulative time of the module's *primitive* calls; modules whose
    functions call each other count shared time once per function, so
    treat it as indicative, not additive.
    """
    modules: dict[str, dict[str, Any]] = {}
    for (filename, _line, _name), (cc, nc, tt, ct, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        entry = modules.setdefault(
            _module_of(filename),
            {"tottime_s": 0.0, "cumtime_s": 0.0,
             "calls": 0, "primitive_calls": 0})
        entry["tottime_s"] += tt
        entry["cumtime_s"] += ct
        entry["calls"] += nc
        entry["primitive_calls"] += cc
    return dict(sorted(modules.items(),
                       key=lambda item: -item[1]["tottime_s"]))


def top_functions(stats: pstats.Stats,
                  limit: int = 25) -> list[dict[str, Any]]:
    """The ``limit`` most expensive functions by own time."""
    rows = []
    for (filename, line, name), (cc, nc, tt, ct, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        rows.append({
            "module": _module_of(filename),
            "function": name,
            "line": line,
            "calls": nc,
            "tottime_s": tt,
            "cumtime_s": ct,
        })
    rows.sort(key=lambda row: -row["tottime_s"])
    return rows[:limit]


def write_profile_json(path: str | Path, name: str,
                       report: ProfileReport) -> Path:
    """Write ``PROFILE_<name>.json``-style document; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report.payload(name), indent=2,
                               sort_keys=False) + "\n",
                    encoding="utf-8")
    return path
