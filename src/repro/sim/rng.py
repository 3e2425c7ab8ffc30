"""Reproducible, named random-number streams.

Simulations draw randomness from many model components (per-layer
processing jitter, OS scheduling spikes, channel erasures, traffic
arrivals).  Sharing one generator across components makes results depend
on the call interleaving; instead every component asks the registry for a
*named* stream, derived deterministically from ``(seed, name)``.  Adding
a new component therefore never perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import sanitize

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of independent, deterministic ``numpy`` generators.

    Example::

        rngs = RngRegistry(seed=7)
        a = rngs.stream("phy.decode")
        b = rngs.stream("radio.usb")   # independent of ``a``

    Requesting the same name twice returns the *same* generator object,
    so state advances coherently within a component.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        self._seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use)."""
        if not name:
            raise ValueError("stream name must be non-empty")
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng(  # check: disable=rng-discipline
                self._entropy_for(name))  # the sanctioned seeding site
            if sanitize.sanitize_active():
                # Under the determinism sanitizer, vend a recording
                # proxy instead.  The proxy forwards every draw to the
                # real generator (bit-identical results) and is cached
                # like any stream, so identity checks — e.g.
                # BufferedSampler's ownership guard — keep working.
                generator = sanitize.RecordingGenerator(
                    generator, name, sanitize.current_log())
            self._streams[name] = generator
        return generator

    def fork(self, salt: str) -> "RngRegistry":
        """A registry whose streams are all independent of this one.

        Used to give each UE (or each benchmark repetition) its own
        namespace without coordinating stream names globally.
        """
        return RngRegistry(self._entropy_for(f"fork:{salt}") % (2 ** 63))

    def names(self) -> list[str]:
        """Names of streams created so far (sorted, for diagnostics)."""
        return sorted(self._streams)

    def _entropy_for(self, name: str) -> int:
        digest = hashlib.sha256(
            f"{self._seed}/{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
