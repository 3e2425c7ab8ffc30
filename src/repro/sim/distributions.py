"""Delay distributions used across the latency models.

Processing and radio latencies in a software 5G stack are non-negative
and right-skewed (Table 2 of the paper reports standard deviations of the
same order as the means).  We model them with log-normal distributions
fitted from a mean/std pair, which keeps calibration direct: feed in the
numbers the paper measured, get a sampler back.

All samplers draw from a caller-supplied ``numpy`` Generator so that
randomness stays under the control of :class:`repro.sim.rng.RngRegistry`.
Samples are returned in *microseconds* (float); convert to Tc at the
simulation boundary with :func:`repro.phy.timebase.tc_from_us`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "DelaySampler",
    "Constant",
    "LogNormal",
    "TruncatedNormal",
    "Exponential",
    "Spiked",
    "from_mean_std",
]


class DelaySampler(Protocol):
    """Anything that can produce a non-negative delay in microseconds."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one delay (µs)."""
        ...

    def sample_batch(self, rng: np.random.Generator,
                     n: int) -> np.ndarray:
        """Draw ``n`` delays (µs) as a float array.

        Contract: the batch must consume the generator's bit-stream
        exactly as ``n`` successive :meth:`sample` calls would, so that
        ``sample_batch(rng, n)[i]`` equals the i-th sequential draw.
        Samplers that cannot honour this (data-dependent draw counts)
        fall back to a scalar loop, which satisfies it trivially.
        """
        ...

    @property
    def mean_us(self) -> float:
        """Expected delay (µs)."""
        ...


@dataclass(frozen=True)
class Constant:
    """A deterministic delay."""

    value_us: float

    def __post_init__(self) -> None:
        if self.value_us < 0:
            raise ValueError(f"delay must be >= 0, got {self.value_us}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.value_us

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value_us, dtype=float)

    @property
    def mean_us(self) -> float:
        return self.value_us


@dataclass(frozen=True)
class LogNormal:
    """Log-normal delay parameterised by its *arithmetic* mean and std.

    ``LogNormal(mean_us=55.21, std_us=16.31)`` reproduces the MAC row of
    the paper's Table 2.  A zero std degenerates to a constant.
    """

    mean_us: float
    std_us: float

    def __post_init__(self) -> None:
        if self.mean_us < 0 or self.std_us < 0:
            raise ValueError("mean and std must be >= 0, "
                             f"got mean={self.mean_us}, std={self.std_us}")
        # (mu, sigma) of the underlying normal, fixed at construction
        # because sample() runs once per layer hop.  None when a zero
        # mean or std makes the delay constant and draw-free.  A plain
        # attribute, not a field: equality, hashing, repr and asdict()
        # see only mean_us and std_us.
        params = None
        if self.mean_us != 0 and self.std_us != 0:
            sigma2 = math.log1p((self.std_us / self.mean_us) ** 2)
            params = (math.log(self.mean_us) - sigma2 / 2,
                      math.sqrt(sigma2))
        object.__setattr__(self, "log_params", params)

    def sample(self, rng: np.random.Generator) -> float:
        params = self.log_params
        if params is None:
            return 0.0 if self.mean_us == 0 else self.mean_us
        mu, sigma = params
        return float(rng.lognormal(mu, sigma))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.mean_us == 0:
            return np.zeros(n, dtype=float)
        if self.std_us == 0:
            return np.full(n, self.mean_us, dtype=float)
        mu, sigma = self.log_params
        # Generator.lognormal(size=n) consumes the bit-stream exactly as
        # n scalar calls (verified by tests/sim/test_sampling.py).
        return rng.lognormal(mu, sigma, n)


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal delay clipped at zero (for tightly-bounded RT-kernel noise)."""

    mean_us: float
    std_us: float

    def __post_init__(self) -> None:
        if self.mean_us < 0 or self.std_us < 0:
            raise ValueError("mean and std must be >= 0")

    def sample(self, rng: np.random.Generator) -> float:
        return max(0.0, float(rng.normal(self.mean_us, self.std_us)))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.maximum(rng.normal(self.mean_us, self.std_us, n), 0.0)


@dataclass(frozen=True)
class Exponential:
    """Exponential delay (memoryless spikes)."""

    mean_us: float

    def __post_init__(self) -> None:
        if self.mean_us < 0:
            raise ValueError("mean must be >= 0")

    def sample(self, rng: np.random.Generator) -> float:
        if self.mean_us == 0:
            return 0.0
        return float(rng.exponential(self.mean_us))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.mean_us == 0:
            return np.zeros(n, dtype=float)
        return rng.exponential(self.mean_us, n)


@dataclass(frozen=True)
class Spiked:
    """A base delay plus a rare additive spike.

    Models OS-scheduling interference: most samples follow ``base``; with
    probability ``spike_probability`` a heavy extra delay drawn from
    ``spike`` is added.  This is the structure visible in the paper's
    Fig 5 ("concerning spikes arise due to delays in the OS scheduling").
    """

    base: DelaySampler
    spike: DelaySampler
    spike_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError("spike_probability must be in [0, 1], "
                             f"got {self.spike_probability}")

    def sample(self, rng: np.random.Generator) -> float:
        delay = self.base.sample(rng)
        if self.spike_probability and rng.random() < self.spike_probability:
            delay += self.spike.sample(rng)
        return delay

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # The draw count per sample is data-dependent (the spike draw
        # only happens when the uniform falls below the threshold), so a
        # vectorized batch would consume a different bit-stream than n
        # scalar calls.  Keep the scalar path to honour the contract.
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)

    @property
    def mean_us(self) -> float:
        return (self.base.mean_us
                + self.spike_probability * self.spike.mean_us)


def from_mean_std(mean_us: float, std_us: float) -> DelaySampler:
    """Calibration helper: the natural sampler for a mean/std pair."""
    if std_us == 0:
        return Constant(mean_us)
    return LogNormal(mean_us, std_us)
