"""Frozen snapshot of the ``URLLC5G_*`` environment knobs.

The runner and benchmarks used to read ``URLLC5G_BENCH_WORKERS``,
``URLLC5G_BENCH_NO_CACHE``, ``URLLC5G_SANITIZE``, and
``URLLC5G_CHAOS`` at scattered call sites, which meant a mid-run
``os.environ`` mutation could be observed by some components and not
others.  This module is the single anchor: every knob is read once
into an immutable :class:`EnvSnapshot`, refreshed only at campaign
start (:meth:`repro.runner.executor.CampaignRunner.run`, and in a
dispatch worker at attach, :func:`repro.runner.dispatch.run_worker`),
so one run sees one consistent configuration.

This is also the reviewed ``allow-env`` contract for ``urllc5g
distcheck``: scenario-reachable code may consult ``URLLC5G_*`` knobs
only through this snapshot (or, for the sanitizer's own gate,
:func:`repro.sim.sanitize.sanitize_active` — kept in :mod:`repro.sim`
because the core may never import the runner).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["EnvSnapshot", "snapshot", "current", "refresh"]

#: Worker count for benchmark campaigns (None = harness default).
BENCH_WORKERS = "URLLC5G_BENCH_WORKERS"
#: Any non-empty value disables the result cache in benchmarks.
BENCH_NO_CACHE = "URLLC5G_BENCH_NO_CACHE"
#: "1" enables the determinism sanitizer (see repro.sim.sanitize).
SANITIZE = "URLLC5G_SANITIZE"
#: "1" arms the chaos-selftest scenario's failure modes.
CHAOS = "URLLC5G_CHAOS"
#: Canonical ChaosPlan JSON installing filesystem fault injection in
#: dispatch workers (see repro.runner.chaos); empty/unset = no chaos.
CHAOS_PLAN = "URLLC5G_CHAOS_PLAN"


@dataclass(frozen=True)
class EnvSnapshot:
    """One consistent reading of every ``URLLC5G_*`` knob."""

    bench_workers: int | None = None
    bench_no_cache: bool = False
    sanitize: bool = False
    chaos: bool = False
    chaos_plan: str | None = None


def snapshot() -> EnvSnapshot:
    """Read the environment now and freeze the result."""
    workers_raw = os.environ.get(BENCH_WORKERS)
    workers: int | None = None
    if workers_raw is not None:
        try:
            workers = int(workers_raw)
        except ValueError:
            raise ValueError(
                f"{BENCH_WORKERS} must be an integer, got "
                f"{workers_raw!r}") from None
    return EnvSnapshot(
        bench_workers=workers,
        bench_no_cache=bool(os.environ.get(BENCH_NO_CACHE)),
        sanitize=os.environ.get(SANITIZE) == "1",
        chaos=os.environ.get(CHAOS) == "1",
        chaos_plan=os.environ.get(CHAOS_PLAN) or None,
    )


_current: EnvSnapshot | None = None


def current() -> EnvSnapshot:
    """The active snapshot (taken lazily on first use per process)."""
    global _current
    if _current is None:
        _current = snapshot()
    return _current


def refresh() -> EnvSnapshot:
    """Re-read the environment; called once at campaign start."""
    global _current
    _current = snapshot()
    return _current
