"""Shared processing resources.

A software gNB runs its whole stack on a handful of CPU cores; when
several UEs' packets need processing at once, layer work queues behind
the cores and the *effective* processing time grows — the §7 caveat
that "higher number of UEs might increase the processing times
noticeably".  :class:`CpuResource` models this as an m-server FIFO
queue over job durations.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator
from repro.phy.timebase import us_from_tc

__all__ = ["CpuResource"]


class CpuResource:
    """An m-core FIFO processing resource.

    Jobs are served in submission order; a job's *service time* is its
    intrinsic processing duration, and its *response time* additionally
    includes the wait for a free core.  The response time is what the
    caller's completion callback observes.
    """

    def __init__(self, sim: Simulator, n_cores: int = 1,
                 name: str = "cpu"):
        if n_cores < 1:
            raise ValueError(f"need at least one core, got {n_cores}")
        self.sim = sim
        self.n_cores = n_cores
        self.name = name
        self._core_free_at = [0] * n_cores
        self.jobs_executed = 0
        #: Total wait for a core across all executed jobs (ticks).
        self.queueing_tc = 0

    def execute(self, duration_tc: int, callback: Callable[..., None],
                *args: Any) -> int:
        """Run a job of ``duration_tc`` ticks; fire ``callback(*args)``
        when it completes.  Returns the queueing delay incurred (ticks)."""
        if duration_tc < 0:
            raise ValueError(f"duration must be >= 0, got {duration_tc}")
        now = self.sim.now
        free_at = self._core_free_at
        earliest = min(free_at)
        core = free_at.index(earliest)
        start = max(now, earliest)
        finish = start + duration_tc
        free_at[core] = finish
        queueing = start - now
        self.jobs_executed += 1
        self.queueing_tc += queueing
        self.sim.schedule(finish, callback, *args)
        return queueing

    def utilisation_until(self, horizon_tc: int) -> float:
        """Fraction of core-time committed within ``[0, horizon]``."""
        if horizon_tc <= 0:
            raise ValueError("horizon must be positive")
        busy = sum(min(free_at, horizon_tc)
                   for free_at in self._core_free_at)
        return busy / (self.n_cores * horizon_tc)

    def mean_queueing_us(self) -> float:
        """Average wait for a core across all executed jobs."""
        if not self.jobs_executed:
            return 0.0
        return us_from_tc(self.queueing_tc) / self.jobs_executed
