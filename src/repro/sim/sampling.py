"""Buffered (block-drawn) sampling on top of :mod:`repro.sim.distributions`.

A :class:`BufferedSampler` wraps a :class:`~repro.sim.distributions.
DelaySampler` together with the numpy Generator that *owns* it and
pre-draws blocks of samples via ``sample_batch``, serving them one at a
time.  This trades ~1024 round-trips through numpy's scalar API for one
vectorized call — the dominant per-packet cost in the DES inner loop.

Determinism contract
--------------------
Buffering is bit-identical to scalar sampling **iff**:

1. ``sample_batch(rng, n)`` consumes the generator's bit-stream exactly
   as ``n`` scalar ``sample`` calls would (true for the numpy-backed
   samplers here; ``Spiked`` falls back to a scalar loop), and
2. the wrapped Generator has *exactly one* consumer — the buffered
   sampler.  If any other code draws from the same Generator between
   two ``sample()`` calls, the pre-drawn block no longer corresponds to
   the values a scalar path would have produced, and results change.

Point 2 is why only exclusive streams (e.g. the ``upf`` and ``link``
registry streams) are buffered in :mod:`repro.net`; samplers sharing a
per-component generator keep the scalar path.  :class:`BufferedSampler`
enforces the ownership rule mechanically: ``sample`` must be called with
the owning Generator (identity check) so a caller cannot silently feed
it a different stream.

For golden-trace tests, :func:`force_sequential` disables block drawing
process-wide so the same wiring can be run both ways and compared.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .distributions import DelaySampler
from .sanitize import (DeterminismViolation, RecordingGenerator,
                       caller_qualname, claim_exclusive, owner_section,
                       sanitize_active)

__all__ = [
    "DEFAULT_BLOCK",
    "BufferedSampler",
    "UniformBuffer",
    "LogNormalBlockServer",
    "DeterminismViolation",
    "force_sequential",
    "buffering_enabled",
]

#: Samples pre-drawn per block.  Large enough to amortise the numpy call
#: overhead, small enough that a short campaign does not waste draws
#: (unused tail samples are never consumed from the Generator — they are
#: drawn, so the stream position advances identically either way).
DEFAULT_BLOCK = 1024

_BUFFERING_ENABLED = True


def buffering_enabled() -> bool:
    """Whether buffered samplers currently pre-draw blocks."""
    return _BUFFERING_ENABLED


@contextmanager
def force_sequential() -> Iterator[None]:
    """Disable block pre-drawing for the duration of the context.

    Inside the context every :class:`BufferedSampler`/:class:`
    UniformBuffer` call delegates to the scalar path, which is how the
    golden-trace tests prove buffered runs are bit-identical: run the
    same scenario with and without this context and compare digests.
    Affects only samplers *constructed or refilled* inside the context;
    use it around whole runs, not mid-run.
    """
    global _BUFFERING_ENABLED
    previous = _BUFFERING_ENABLED
    _BUFFERING_ENABLED = False
    try:
        yield
    finally:
        _BUFFERING_ENABLED = previous


class BufferedSampler:
    """Serve scalar samples from pre-drawn blocks of a DelaySampler.

    The wrapper takes ownership of ``rng``: it is an error (raised, not
    silent) to call :meth:`sample` with any other Generator, because the
    pre-drawn block encodes this generator's stream position.
    """

    __slots__ = ("_sampler", "_rng", "_block", "_buf", "_pos", "_owner")

    def __init__(self, sampler: DelaySampler, rng: np.random.Generator,
                 block: int = DEFAULT_BLOCK):
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        self._sampler = sampler
        self._rng = rng
        self._block = block
        self._buf: np.ndarray | None = None
        self._pos = 0
        self._owner = self._claim()

    def _claim(self) -> str:
        """Record exclusive ownership of the stream under the sanitizer.

        The owner label is the constructing frame (the component wiring
        this sampler), so violation reports name both sides of a
        conflict.  Outside sanitized runs this is a cheap constant.
        """
        if not isinstance(self._rng, RecordingGenerator):
            return type(self).__name__
        owner = f"{caller_qualname(2)} [{type(self).__name__}]"
        claim_exclusive(self._rng, owner)
        return owner

    @property
    def mean_us(self) -> float:
        return self._sampler.mean_us

    @property
    def sampler(self) -> DelaySampler:
        """The wrapped (unbuffered) sampler."""
        return self._sampler

    def sample(self, rng: np.random.Generator) -> float:
        """Next sample; ``rng`` must be the owning Generator."""
        if rng is not self._rng:
            raise DeterminismViolation(
                "BufferedSampler owns its Generator; sample() was called "
                "with a different one.  Buffering is only deterministic "
                "for a single-consumer stream — use the scalar sampler "
                "for shared generators.",
                stream=getattr(self._rng, "stream_name", None),
                owner=self._owner, consumer=caller_qualname(1))
        buf = self._buf
        if buf is None or self._pos >= len(buf):
            if not _BUFFERING_ENABLED:
                if buf is not None and sanitize_active():
                    # A pre-drawn block exists, so the stream position
                    # is already blocks ahead of the served count;
                    # switching to the scalar path now skips the
                    # unserved tail and diverges from both pure modes.
                    raise DeterminismViolation(
                        "force_sequential() entered mid-run: this "
                        "sampler already served pre-drawn blocks, so "
                        "scalar draws would skip the unconsumed tail.  "
                        "Wrap whole runs, not fragments.",
                        stream=getattr(self._rng, "stream_name", None),
                        owner=self._owner, consumer=caller_qualname(1))
                with owner_section(self._rng):
                    return float(self._sampler.sample(self._rng))
            with owner_section(self._rng):
                buf = self._sampler.sample_batch(self._rng, self._block)
            self._buf = buf
            self._pos = 0
        value = buf[self._pos]
        self._pos += 1
        return float(value)

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Batch draw, consuming any buffered samples first."""
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)

    def peek(self, n: int) -> np.ndarray | None:
        """The next ``n`` values of the stream *without* consuming
        them, or None when block drawing is disabled.

        The slotted engine uses this to serve a stream's draws from
        a local chunk instead of one :meth:`sample` call each (see
        :meth:`LogNormalBlockServer.peek` for the contract).  Refills
        happen in whole ``block``-sized ``sample_batch`` calls — the
        same call grid :meth:`sample` uses — so peeking never changes
        the stream position or the served value sequence.
        """
        if not _BUFFERING_ENABLED:
            return None
        buf = self._buf
        if buf is None:
            with owner_section(self._rng):
                buf = self._sampler.sample_batch(self._rng, self._block)
            self._buf = buf
            self._pos = 0
        while len(buf) - self._pos < n:
            with owner_section(self._rng):
                fresh = self._sampler.sample_batch(self._rng,
                                                   self._block)
            buf = np.concatenate((buf[self._pos:], fresh))
            self._buf = buf
            self._pos = 0
        return buf[self._pos:self._pos + n]

    def commit(self, n: int) -> None:
        """Consume ``n`` values previously returned by :meth:`peek`."""
        self._pos += n


class LogNormalBlockServer:
    """Serve scalar *lognormal* draws with arbitrary per-draw parameters
    from pre-drawn blocks of standard normals.

    :class:`BufferedSampler` can only buffer a stream whose draws all
    come from **one** distribution — the block is pre-transformed.  The
    per-component ``ue<N>`` and ``gnb`` streams interleave draws from
    *several* lognormal distributions (one per stack layer) in
    data-dependent order, which is why they stayed scalar until now.

    This server exploits how numpy implements ``Generator.lognormal``:
    each scalar call consumes exactly **one** ziggurat standard normal
    ``z`` — independent of ``(mu, sigma)`` — and returns
    ``exp(mu + sigma * z)`` computed with the C library's scalar
    ``exp``.  So a block of ``standard_normal(n)`` variates can serve
    *any* interleaving of lognormal draws bit-identically, as long as
    the value is reconstructed with scalar :func:`math.exp` (the
    vectorized ``np.exp`` differs from libm by up to 1 ulp on some
    platforms, so the transform must stay scalar; both facts are pinned
    by ``tests/sim/test_sampling.py``).

    The ownership contract is the same as :class:`BufferedSampler`'s:
    the server takes exclusive ownership of ``rng``; any other consumer
    desynchronizes the pre-drawn block.  An owner that knows the block
    on hand holds every draw it will make can :meth:`release` the
    generator and keep serving from the block alone.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos", "_owner")

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_BLOCK):
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        self._rng = rng
        self._block = block
        self._buf: np.ndarray | None = None
        self._pos = 0
        if isinstance(rng, RecordingGenerator):
            self._owner = f"{caller_qualname(1)} [{type(self).__name__}]"
            claim_exclusive(rng, self._owner)
        else:
            self._owner = type(self).__name__

    def owns(self, rng: np.random.Generator) -> bool:
        return rng is self._rng

    def sample(self, mu: float, sigma: float) -> float:
        """One lognormal draw, bit-identical to ``rng.lognormal(mu,
        sigma)`` on the owned stream."""
        buf = self._buf
        if buf is None or self._pos >= len(buf):
            if self._rng is None:
                self._raise_released()
            if not _BUFFERING_ENABLED:
                if buf is not None and sanitize_active():
                    raise DeterminismViolation(
                        "force_sequential() entered mid-run: this "
                        "block server already served pre-drawn "
                        "normals; scalar draws would skip the "
                        "unconsumed tail.  Wrap whole runs.",
                        stream=getattr(self._rng, "stream_name", None),
                        owner=self._owner, consumer=caller_qualname(1))
                with owner_section(self._rng):
                    return float(self._rng.lognormal(mu, sigma))
            with owner_section(self._rng):
                buf = self._rng.standard_normal(self._block)
            self._buf = buf
            self._pos = 0
        z = buf[self._pos]
        self._pos += 1
        return math.exp(mu + sigma * z)

    def peek(self, n: int) -> np.ndarray | None:
        """The next ``n`` standard normals of the stream *without*
        consuming them, or None when block drawing is disabled.

        This is what lets the slotted engine speculatively evaluate a
        whole per-packet draw chain and only commit it when the chain
        provably does not interleave with other consumers of the same
        stream (see :mod:`repro.sim.slotted`).  Refills happen in whole
        ``block``-sized ``standard_normal`` calls — the same call grid
        the serving path uses — so peeking never changes the stream
        position or the served value sequence.
        """
        if not _BUFFERING_ENABLED:
            return None
        buf = self._buf
        if self._rng is None and (buf is None or len(buf) - self._pos < n):
            self._raise_released()
        if buf is None:
            with owner_section(self._rng):
                buf = self._rng.standard_normal(self._block)
            self._buf = buf
            self._pos = 0
        while len(buf) - self._pos < n:
            with owner_section(self._rng):
                fresh = self._rng.standard_normal(self._block)
            buf = np.concatenate((buf[self._pos:], fresh))
            self._buf = buf
            self._pos = 0
        return buf[self._pos:self._pos + n]

    def commit(self, n: int) -> None:
        """Consume ``n`` normals previously returned by :meth:`peek`."""
        self._pos += n

    def release(self) -> None:
        """Let go of the generator and serve from the block on hand.

        For an owner that knows the drawn block holds every draw it
        will make: the generator's state is freed, and a draw past the
        block raises instead of touching the stream.
        """
        self._rng = None

    def _raise_released(self) -> None:
        raise DeterminismViolation(
            "this block server released its generator; a draw past the "
            "block on hand would need the stream it let go",
            owner=self._owner, consumer=caller_qualname(2))


class UniformBuffer:
    """Pre-drawn uniform [0, 1) variates from an owned Generator.

    The channel-loss path draws one uniform per transmission
    (``rng.random()``); this buffers them the same way
    :class:`BufferedSampler` buffers delay draws, with the same
    exclusive-ownership requirement.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos", "_owner")

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_BLOCK):
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        self._rng = rng
        self._block = block
        self._buf: np.ndarray | None = None
        self._pos = 0
        if isinstance(rng, RecordingGenerator):
            self._owner = f"{caller_qualname(1)} [{type(self).__name__}]"
            claim_exclusive(rng, self._owner)
        else:
            self._owner = type(self).__name__

    def owns(self, rng: np.random.Generator) -> bool:
        return rng is self._rng

    def next(self) -> float:
        buf = self._buf
        if buf is None or self._pos >= len(buf):
            if not _BUFFERING_ENABLED:
                if buf is not None and sanitize_active():
                    raise DeterminismViolation(
                        "force_sequential() entered mid-run: this "
                        "uniform buffer already served pre-drawn "
                        "blocks; scalar draws would skip the "
                        "unconsumed tail.  Wrap whole runs.",
                        stream=getattr(self._rng, "stream_name", None),
                        owner=self._owner, consumer=caller_qualname(1))
                with owner_section(self._rng):
                    return float(self._rng.random())
            with owner_section(self._rng):
                buf = self._rng.random(self._block)
            self._buf = buf
            self._pos = 0
        value = buf[self._pos]
        self._pos += 1
        return float(value)
