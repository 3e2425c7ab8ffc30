"""Traffic arrival processes.

The paper's demonstration generates packets "uniformly within the
pattern" (§7); other processes model the URLLC application classes the
introduction motivates (periodic industrial control, Poisson background
traffic).
"""

from __future__ import annotations

import numpy as np

from repro.phy.timebase import tc_from_us

__all__ = ["uniform_in_horizon", "periodic", "poisson"]


def uniform_in_horizon(n_packets: int, horizon_tc: int,
                       rng: np.random.Generator,
                       start_tc: int = 0) -> list[int]:
    """``n_packets`` arrivals uniform over ``[start, start + horizon)``.

    With ``horizon`` a multiple of the TDD period this is exactly the
    paper's "uniformly generated within the pattern" workload: arrival
    phases cover the whole pattern evenly.
    """
    if n_packets <= 0:
        raise ValueError(f"n_packets must be positive, got {n_packets}")
    if horizon_tc <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_tc}")
    arrivals = start_tc + rng.integers(0, horizon_tc, size=n_packets)
    return sorted(arrivals.tolist())


def periodic(n_packets: int, period_tc: int, start_tc: int = 0,
             jitter_tc: int = 0,
             rng: np.random.Generator | None = None) -> list[int]:
    """Isochronous arrivals (industrial control loops, pro audio).

    Optional ±jitter models sensor clock wander; requires ``rng``.
    """
    if n_packets <= 0 or period_tc <= 0:
        raise ValueError("n_packets and period must be positive")
    if jitter_tc and rng is None:
        raise ValueError("jitter requires an rng")
    arrivals = []
    for index in range(n_packets):
        arrival = start_tc + index * period_tc
        if jitter_tc:
            assert rng is not None
            arrival += int(rng.integers(-jitter_tc, jitter_tc + 1))
        arrivals.append(max(0, arrival))
    return sorted(arrivals)


def poisson(rate_per_second: float, horizon_tc: int,
            rng: np.random.Generator, start_tc: int = 0) -> list[int]:
    """Poisson arrivals at ``rate_per_second`` over a horizon."""
    if rate_per_second <= 0 or horizon_tc <= 0:
        raise ValueError("rate and horizon must be positive")
    mean_gap_us = 1e6 / rate_per_second
    arrivals: list[int] = []
    cursor = start_tc
    while True:
        cursor += tc_from_us(float(rng.exponential(mean_gap_us)))
        if cursor >= start_tc + horizon_tc:
            return arrivals
        arrivals.append(cursor)
