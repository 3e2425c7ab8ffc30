"""Block-drawn sampling on top of :mod:`repro.sim.distributions`.

Three buffers serve the draws of one exclusively owned numpy Generator
from pre-drawn blocks, trading ~1024 round-trips through numpy's scalar
API for one vectorized call — the dominant per-draw cost in the
engines' inner loops:

- :class:`BufferedSampler` serves one :class:`~repro.sim.distributions.
  DelaySampler`'s values (the UPF delay);
- :class:`LogNormalBlockServer` serves lognormal draws with per-draw
  parameters from blocks of standard normals (the slotted engine's
  ``ue<N>`` and ``gnb`` streams);
- :class:`UniformBuffer` serves uniform [0, 1) variates (the link's
  channel-loss draws).

They are one mechanism, :class:`_BlockBuffer`: the block and its
position, the exclusive claim, the refill, the mid-run guard,
:meth:`~_BlockBuffer.peek`/:meth:`~_BlockBuffer.commit`/
:meth:`~_BlockBuffer.take` and :meth:`~_BlockBuffer.release`.  Each
class states only what a block is, how it serves one block value, and
its scalar fallback under :func:`force_sequential`.

Determinism contract
--------------------
Block drawing is bit-identical to scalar drawing **iff**:

1. a block of ``n`` consumes the generator's bit-stream exactly as
   ``n`` scalar draws would (true for the numpy-backed samplers here;
   ``Spiked`` falls back to a scalar loop), and
2. the wrapped Generator has *exactly one* consumer — the buffer.  If
   any other code draws from the same Generator between two served
   values, the pre-drawn block no longer corresponds to the values a
   scalar path would have produced, and results change.

Point 2 is why only exclusive streams (e.g. the ``upf`` and ``link``
registry streams) are buffered in :mod:`repro.net`; samplers sharing a
per-component generator keep the scalar path.  Under the sanitizer
every buffer claims its stream, so a second consumer raises.
:class:`BufferedSampler` also checks that ``sample`` is called with the
owning Generator (identity check), so a caller cannot silently feed it
a different stream.

For golden-trace tests, :func:`force_sequential` disables block drawing
process-wide so the same wiring can be run both ways and compared.
"""

from __future__ import annotations

import math
import sys
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
    """Whether block buffers currently pre-draw blocks."""
    return _BUFFERING_ENABLED


@contextmanager
def force_sequential() -> Iterator[None]:
    """Disable block pre-drawing for the duration of the context.

    Inside the context every buffer refill is replaced by the buffer's
    scalar draw, which is how the golden-trace tests prove block-drawn
    runs are bit-identical: run the same scenario with and without this
    context and compare digests.  Values already drawn are still
    served, so use it around whole runs, not mid-run (under the
    sanitizer a refill after a drawn block raises).
    """
    global _BUFFERING_ENABLED
    previous = _BUFFERING_ENABLED
    _BUFFERING_ENABLED = False
    try:
        yield
    finally:
        _BUFFERING_ENABLED = previous


def _outside_caller() -> str:
    """``module.qualname`` of the nearest calling frame outside this
    module: the wiring frame of a claim, the consumer of a violation."""
    depth = 1
    while sys._getframe(depth).f_globals.get("__name__") == __name__:
        depth += 1
    return caller_qualname(depth)


class _BlockBuffer:
    """Serve an exclusively owned Generator from pre-drawn blocks.

    The buffer takes ownership of ``rng``: the block encodes the
    generator's stream position, so any other consumer desynchronizes
    it.  Under the sanitizer the claim is recorded, labelled with the
    constructing frame (the component wiring this buffer), so
    violation reports name both sides of a conflict.

    A subclass defines ``_draw(n)`` (a block of ``n`` raw values),
    ``_scalar(*args)`` (one value drawn straight from the generator:
    the reference path under :func:`force_sequential`) and, when a
    served value is not the raw block value, ``_value(raw, *args)``.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos", "_owner")

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_BLOCK):
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        self._rng: np.random.Generator | None = rng
        self._block = block
        self._buf: np.ndarray | None = None
        self._pos = 0
        if isinstance(rng, RecordingGenerator):
            self._owner = f"{_outside_caller()} [{type(self).__name__}]"
            claim_exclusive(rng, self._owner)
        else:
            self._owner = type(self).__name__

    def _draw(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def _scalar(self, *args: float) -> float:
        raise NotImplementedError

    #: The served value of one raw block value.  The builtin (not a
    #: method) keeps the buffers that serve raw values one call
    #: shorter per draw.
    _value = float

    def _next(self, *args: float) -> float:
        """The next served value: off the block, refilled when spent,
        or the scalar fallback when block drawing is off."""
        buf = self._buf
        pos = self._pos
        if buf is None or pos >= len(buf):
            buf = self._refill(1)
            if buf is None:
                with owner_section(self._rng):
                    return self._scalar(*args)
            pos = 0
        self._pos = pos + 1
        return self._value(buf[pos], *args)

    def _refill(self, n: int) -> np.ndarray | None:
        """Top the unserved tail up to ``n`` values (drawing at least
        one block) and return the block, now served from position 0;
        None when block drawing is off.

        The caller found fewer than ``n`` values on hand (or no block
        at all).  Refills are whole ``block``-sized draws appended to
        the unserved tail, so serving, peeking and taking share one
        call grid and never change the stream position or the served
        sequence.
        """
        buf = self._buf
        pos = self._pos
        rng = self._rng
        if rng is None:
            raise DeterminismViolation(
                f"this {type(self).__name__} released its generator; a "
                f"draw past the block on hand would need the stream it "
                f"let go",
                owner=self._owner, consumer=_outside_caller())
        if not _BUFFERING_ENABLED:
            if buf is not None and sanitize_active():
                # A pre-drawn block exists, so the stream position is
                # already ahead of the served count; switching to
                # scalar draws now skips the unserved tail and diverges
                # from both pure modes.
                raise DeterminismViolation(
                    f"force_sequential() entered mid-run: this "
                    f"{type(self).__name__} already served pre-drawn "
                    f"blocks, so scalar draws would skip the unconsumed "
                    f"tail.  Wrap whole runs, not fragments.",
                    stream=getattr(rng, "stream_name", None),
                    owner=self._owner, consumer=_outside_caller())
            return None
        with owner_section(rng):
            while buf is None or len(buf) - pos < n:
                fresh = self._draw(self._block)
                buf = (fresh if buf is None or pos == len(buf)
                       else np.concatenate((buf[pos:], fresh)))
                pos = 0
        self._buf = buf
        self._pos = 0
        return buf

    def peek(self, n: int) -> list[float] | None:
        """The next ``n`` raw block values *without* consuming them, or
        None when block drawing is off.

        This is what lets the slotted engine evaluate a whole draw
        chain speculatively and commit it only when the chain provably
        does not interleave with other consumers of the same stream
        (see :mod:`repro.sim.slotted`).
        """
        buf = self._buf
        pos = self._pos
        if buf is None or len(buf) - pos < n:
            buf = self._refill(n)
            if buf is None:
                return None
            pos = 0
        return buf[pos:pos + n].tolist()

    def commit(self, n: int) -> None:
        """Consume ``n`` values previously returned by :meth:`peek`."""
        self._pos += n

    def take(self, n: int) -> list[float] | None:
        """:meth:`peek` ``n`` values and :meth:`commit` them."""
        values = self.peek(n)
        if values is not None:
            self._pos += n
        return values

    def release(self) -> None:
        """Let go of the generator and serve from the block on hand.

        For an owner that knows the drawn block holds every draw it
        will make: the generator's state is freed, and a draw past the
        block raises instead of touching the stream.
        """
        self._rng = None


class BufferedSampler(_BlockBuffer):
    """Serve one :class:`~repro.sim.distributions.DelaySampler`'s
    samples from pre-drawn ``sample_batch`` blocks.

    :meth:`sample` must be called with the owning Generator — raised,
    not silent — because the pre-drawn block encodes its stream
    position.  (After :meth:`release` nothing is drawn from the
    argument, so any Generator is accepted.)
    """

    __slots__ = ("_sampler",)

    def __init__(self, sampler: DelaySampler, rng: np.random.Generator,
                 block: int = DEFAULT_BLOCK):
        self._sampler = sampler
        super().__init__(rng, block)

    @property
    def mean_us(self) -> float:
        return self._sampler.mean_us

    def sample(self, rng: np.random.Generator) -> float:
        """Next sample; ``rng`` must be the owning Generator."""
        if rng is not self._rng and self._rng is not None:
            raise DeterminismViolation(
                "BufferedSampler owns its Generator; sample() was called "
                "with a different one.  Buffering is only deterministic "
                "for a single-consumer stream — use the scalar sampler "
                "for shared generators.",
                stream=getattr(self._rng, "stream_name", None),
                owner=self._owner, consumer=caller_qualname(1))
        return self._next()

    def _draw(self, n: int) -> np.ndarray:
        return self._sampler.sample_batch(self._rng, n)

    def _scalar(self) -> float:
        return float(self._sampler.sample(self._rng))


class LogNormalBlockServer(_BlockBuffer):
    """Serve scalar *lognormal* draws with arbitrary per-draw parameters
    from pre-drawn blocks of standard normals.

    :class:`BufferedSampler` can only buffer a stream whose draws all
    come from **one** distribution — the block is pre-transformed.  The
    per-component ``ue<N>`` and ``gnb`` streams interleave draws from
    *several* lognormal distributions (one per stack layer) in
    data-dependent order.

    This server exploits how numpy implements ``Generator.lognormal``:
    each scalar call consumes exactly **one** ziggurat standard normal
    ``z`` — independent of ``(mu, sigma)`` — and returns
    ``exp(mu + sigma * z)`` computed with the C library's scalar
    ``exp``.  So a block of ``standard_normal(n)`` variates can serve
    *any* interleaving of lognormal draws bit-identically, as long as
    the value is reconstructed with scalar :func:`math.exp` (the
    vectorized ``np.exp`` differs from libm by up to 1 ulp on some
    platforms, so the transform must stay scalar; both facts are pinned
    by ``tests/sim/test_sampling.py``).  :meth:`peek` and :meth:`take`
    hand out the normals, for the caller to transform the same way.
    """

    __slots__ = ()

    def sample(self, mu: float, sigma: float) -> float:
        """One lognormal draw, bit-identical to ``rng.lognormal(mu,
        sigma)`` on the owned stream."""
        return self._next(mu, sigma)

    def _draw(self, n: int) -> np.ndarray:
        return self._rng.standard_normal(n)

    def _value(self, z: float, mu: float, sigma: float) -> float:
        return math.exp(mu + sigma * z)

    def _scalar(self, mu: float, sigma: float) -> float:
        return float(self._rng.lognormal(mu, sigma))


class UniformBuffer(_BlockBuffer):
    """Pre-drawn uniform [0, 1) variates from an owned Generator: the
    channel-loss path's one ``rng.random()`` per transmission."""

    __slots__ = ()

    def next(self) -> float:
        return self._next()

    def _draw(self, n: int) -> np.ndarray:
        return self._rng.random(n)

    def _scalar(self) -> float:
        return float(self._rng.random())
