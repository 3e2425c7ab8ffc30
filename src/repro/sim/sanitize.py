"""Runtime determinism sanitizer: recording proxies for RNG streams.

The determinism contract (docs/PERFORMANCE.md, docs/ROBUSTNESS.md) says
every registry stream has exactly one well-ordered consumer; buffered
samplers additionally take *exclusive* ownership of their stream.  The
static side of that contract is checked by ``urllc5g check``; this
module is the dynamic side.  When sanitizing is active (environment
variable ``URLLC5G_SANITIZE=1``, ``urllc5g bench --sanitize``, or a
:func:`sanitizer_session`), :class:`~repro.sim.rng.RngRegistry` wraps
every generator it vends in a :class:`RecordingGenerator` proxy that

- logs every draw as (stream, consumer qualname, sim time, draw count),
- raises :exc:`DeterminismViolation` when a stream claimed exclusively
  by a buffered sampler is drawn from by anyone else.

The proxy *forwards* draws to the real generator and never consumes
entropy itself, so sanitized runs are bit-identical to unsanitized
ones.  When sanitizing is off, nothing here is on any hot path: the
registry vends plain numpy Generators exactly as before.

This module lives in ``repro.sim`` (not ``repro.devtools``) because the
simulation core must not import devtools; ``repro.devtools.detsan``
re-exports it alongside the static pass.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "DeterminismViolation",
    "DrawRecord",
    "StreamLog",
    "SanitizeLog",
    "RecordingGenerator",
    "sanitize_active",
    "sanitizer_session",
    "current_log",
    "claim_exclusive",
    "owner_section",
    "caller_qualname",
    "set_sim_clock",
]

#: Environment flag that turns sanitizing on process-wide.  Set by
#: ``urllc5g bench --sanitize`` before workers start so every process
#: in a parallel campaign records and checks draws.
ENV_FLAG = "URLLC5G_SANITIZE"

#: ``numpy.random.Generator`` methods that consume entropy.  Attribute
#: accesses for these names return a recording wrapper; everything else
#: is forwarded untouched.
DRAW_METHODS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "gumbel", "hypergeometric",
    "integers", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_hypergeometric", "multivariate_normal",
    "negative_binomial", "noncentral_chisquare", "noncentral_f", "normal",
    "pareto", "permutation", "permuted", "poisson", "power", "random",
    "rayleigh", "shuffle", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_normal", "standard_t", "triangular",
    "uniform", "vonmises", "wald", "weibull", "zipf",
})

#: How many recent draws to keep per stream for violation reports.
RECENT_DRAWS = 8


class DeterminismViolation(RuntimeError):
    """The RNG stream-ownership / determinism contract was broken.

    Raised by the runtime sanitizer (cross-consumer draw on an exclusive
    stream, mixed buffered/sequential modes) and by
    :class:`~repro.sim.sampling.BufferedSampler` when ``sample()`` is
    called with a Generator it does not own.  Carries the stream name
    and both consumer qualnames so dynamic reports line up with the
    static ``urllc5g check`` output.
    """

    def __init__(self, message: str, *, stream: str | None = None,
                 owner: str | None = None, consumer: str | None = None):
        super().__init__(message)
        self.stream = stream
        self.owner = owner
        self.consumer = consumer


@dataclass(frozen=True)
class DrawRecord:
    """One recorded draw on a sanitized stream."""

    stream: str
    consumer: str
    method: str
    sim_time: int | None
    index: int  # 0-based draw count on this stream at the time


@dataclass
class StreamLog:
    """Aggregated draw log for one stream."""

    stream: str
    draws: int = 0
    #: consumer qualname -> draw count (insertion-ordered).
    consumers: dict[str, int] = field(default_factory=dict)
    recent: deque = field(default_factory=lambda: deque(maxlen=RECENT_DRAWS))
    #: Owner label of the last buffer to claim a generator of this
    #: stream; ``None`` for unclaimed streams.
    exclusive_owner: str | None = None


class SanitizeLog:
    """Per-run draw log shared by every sanitized stream."""

    def __init__(self) -> None:
        self.streams: dict[str, StreamLog] = {}

    def stream(self, name: str) -> StreamLog:
        log = self.streams.get(name)
        if log is None:
            log = StreamLog(name)
            self.streams[name] = log
        return log

    def claim(self, rng: RecordingGenerator, owner: str) -> None:
        """Mark the generator ``rng`` as exclusively owned by ``owner``.

        The claim is the generator's, not its name's: a second claim on
        it raises whoever makes it, and another registry's stream of
        the same name is free.
        """
        if rng._owner is not None:
            raise DeterminismViolation(
                f"stream {rng._stream!r} claimed exclusively by two "
                f"buffers: {rng._owner} and {owner}",
                stream=rng._stream, owner=rng._owner, consumer=owner)
        rng._owner = owner
        self.stream(rng._stream).exclusive_owner = owner

    def draw_counts(self) -> dict[str, int]:
        """Snapshot of per-stream draw counts, for replay comparison."""
        return {name: log.draws for name, log in sorted(self.streams.items())}

    def consumer_map(self) -> dict[str, list[str]]:
        """Snapshot of per-stream consumer qualnames (insertion order)."""
        return {name: list(log.consumers)
                for name, log in sorted(self.streams.items())}


# ---------------------------------------------------------------------------
# process state
# ---------------------------------------------------------------------------

_session_log: SanitizeLog | None = None
_env_log: SanitizeLog | None = None
_clock: Callable[[], int] | None = None


def sanitize_active() -> bool:
    """Whether draws should be recorded and checked in this process."""
    return _session_log is not None or os.environ.get(ENV_FLAG) == "1"


def current_log() -> SanitizeLog:
    """The log new proxies record into (session log, else env-mode log)."""
    # Reviewed: a per-process slot, filled lazily in each process that
    # sanitizes; a worker's copy is its own log, never the coordinator's.
    global _env_log  # check: disable=dist-mutable-global
    if _session_log is not None:
        return _session_log
    if _env_log is None:
        _env_log = SanitizeLog()
    return _env_log


@contextmanager
def sanitizer_session() -> Iterator[SanitizeLog]:
    """Activate sanitizing with a fresh log for the duration of the context.

    A registry reads the flag once, when it is built: activate before
    constructing the registry / system under test.  Yields the
    log for post-run inspection (draw counts, consumer maps).
    """
    global _session_log
    previous = _session_log
    log = SanitizeLog()
    _session_log = log
    try:
        yield log
    finally:
        _session_log = previous


def set_sim_clock(now: Callable[[], int] | None) -> None:
    """Register the simulation clock used to timestamp draw records.

    :class:`~repro.sim.engine.Simulator` registers itself on
    construction when sanitizing is active; records made with no
    registered clock carry ``sim_time=None``.
    """
    # Reviewed: a per-process slot, set by the Simulator that process
    # runs; it only timestamps that process's own draw records.
    global _clock  # check: disable=dist-mutable-global
    _clock = now


def _sim_now() -> int | None:
    if _clock is None:
        return None
    try:
        return _clock()
    except Exception:
        return None


def caller_qualname(depth: int = 1) -> str:
    """``module.qualname`` of the calling frame ``depth`` levels up."""
    try:
        frame = sys._getframe(depth + 1)
    except ValueError:  # shallower stack than requested
        return "<unknown>"
    code = frame.f_code
    # co_qualname exists on 3.11+; fall back to the bare name on 3.10.
    qualname = getattr(code, "co_qualname", code.co_name)
    module = frame.f_globals.get("__name__", "<unknown>")
    return f"{module}.{qualname}"


# ---------------------------------------------------------------------------
# the recording proxy
# ---------------------------------------------------------------------------

class RecordingGenerator:
    """Forwarding proxy around a ``numpy.random.Generator``.

    Every draw-method access returns a thin wrapper that records the
    draw (stream, consumer qualname, sim time, draw index) and enforces
    exclusive claims before delegating to the real generator.  The
    proxy holds no entropy of its own, so the values produced — and the
    underlying stream position — are bit-identical to an unsanitized
    run.
    """

    __slots__ = ("_generator", "_stream", "_log", "_owner", "_owner_depth")

    def __init__(self, generator: Any, stream: str, log: SanitizeLog):
        self._generator = generator
        self._stream = stream
        self._log = log
        #: The label of the buffer that claimed this generator, if any.
        self._owner: str | None = None
        #: >0 while the claiming buffer itself is refilling; draws made
        #: inside an :func:`owner_section` are the sanctioned ones.
        self._owner_depth = 0

    @property
    def stream_name(self) -> str:
        return self._stream

    @property
    def wrapped(self) -> Any:
        """The underlying ``numpy.random.Generator``."""
        return self._generator

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._generator, name)
        if name in DRAW_METHODS:
            record = self._record

            def draw(*args: Any, **kwargs: Any) -> Any:
                record(name)
                return value(*args, **kwargs)

            draw.__name__ = name
            return draw
        return value

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"RecordingGenerator(stream={self._stream!r}, "
                f"wraps {self._generator!r})")

    def _record(self, method: str) -> None:
        # _record <- draw <- the consumer making the draw.
        consumer = caller_qualname(2)
        log = self._log.stream(self._stream)
        if self._owner is not None and self._owner_depth == 0:
            raise DeterminismViolation(
                f"stream {self._stream!r} is exclusively owned by "
                f"{self._owner} (buffered), but {consumer} drew "
                f"from it directly; interleaved draws desynchronize the "
                f"pre-drawn block from the scalar bit-stream",
                stream=self._stream, owner=self._owner,
                consumer=consumer)
        record = DrawRecord(self._stream, consumer, method,
                            _sim_now(), log.draws)
        log.draws += 1
        log.consumers[consumer] = log.consumers.get(consumer, 0) + 1
        log.recent.append(record)


def claim_exclusive(rng: Any, owner: str) -> None:
    """Declare that ``owner`` (a buffered sampler) owns ``rng``.

    No-op unless ``rng`` is a :class:`RecordingGenerator` — plain
    Generators (sanitizing off) carry no stream identity to claim.
    """
    if isinstance(rng, RecordingGenerator):
        rng._log.claim(rng, owner)


@contextmanager
def owner_section(rng: Any) -> Iterator[None]:
    """Mark draws inside the context as made by the exclusive owner.

    Buffered samplers wrap their block refills in this so the refill's
    own draws pass the exclusivity check (and are attributed in the log
    to the refilling frame, not flagged as foreign).
    """
    if isinstance(rng, RecordingGenerator):
        rng._owner_depth += 1
        try:
            yield
        finally:
            rng._owner_depth -= 1
    else:
        yield
