"""Reproducible, named random-number streams.

Simulations draw randomness from many model components (per-layer
processing jitter, OS scheduling spikes, channel erasures, traffic
arrivals).  Sharing one generator across components makes results depend
on the call interleaving; instead every component asks the registry for a
*named* stream, derived deterministically from ``(seed, name)``.  Adding
a new component therefore never perturbs the draws of existing ones.

A stream's generator is ``default_rng(entropy)``: numpy's SeedSequence
hashes the 64-bit entropy into four ``uint64`` seed words for a
``PCG64``.  That hash is most of the ~15 µs a stream costs to build, so
callers about to open thousands of streams (one per UE) name them to
:meth:`RngRegistry.prepare` first; :func:`seed_words` hashes them all in
one vectorised pass, bit for bit as SeedSequence does, and each
generator is still built only at its first use.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import sanitize

__all__ = ["RngRegistry", "seed_words"]

_MASK32 = 0xFFFF_FFFF


def _hash_constants(init: int, mult: int, count: int
                    ) -> list[tuple[np.uint32, np.uint32]]:
    """SeedSequence's running hash constant, step by step: each step
    XORs with the constant, advances it by ``mult`` and multiplies by
    the advanced one.  The sequence does not depend on the data."""
    steps = []
    for _ in range(count):
        advanced = (init * mult) & _MASK32
        steps.append((np.uint32(init), np.uint32(advanced)))
        init = advanced
    return steps


# numpy/random/bit_generator.pyx: pool size 4, so mixing the entropy
# takes 4 fills + 12 cross-mixes, and 4 uint64 words are 8 uint32 draws.
_MIX_STEPS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_STEPS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

#: Fewer names than this are not worth a vectorised pass (~0.2 ms of
#: fixed cost against ~10 µs saved per stream); they keep default_rng.
_MIN_BATCH = 32


def seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every ``e``.

    ``entropy`` holds values below 2**64 (``uint64``); the result has
    shape ``(len(entropy), 4)``.  A numpy transcription of
    SeedSequence's hash for one such entropy word and no spawn key,
    which NumPy's stream-compatibility policy keeps fixed.
    """
    entropy = np.asarray(entropy, dtype=np.uint64)
    steps = iter(_MIX_STEPS)

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    # The entropy is at most two uint32 words, least significant first;
    # SeedSequence hashes zeros into the rest of the pool.
    low = (entropy & np.uint64(_MASK32)).astype(np.uint32)
    high = (entropy >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (pool[dst] * _MIX_MULT_L
                         - hashmix(pool[src]) * _MIX_MULT_R)
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    state = np.empty((len(entropy), 8), dtype=np.uint32)
    for index, (xor, mult) in enumerate(_STATE_STEPS):
        value = (pool[index % 4] ^ xor) * mult
        state[:, index] = value ^ (value >> _XSHIFT)
    # As SeedSequence: uint32 pairs read as little-endian uint64.
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands prepared seed words (four native ``uint64``) to ``PCG64``,
    which asks for exactly those once, at construction."""

    __slots__ = ("_words",)

    def __init__(self, words: bytes):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"prepared seed words serve PCG64 only, asked for "
                f"{n_words} x {np.dtype(dtype)}")
        return np.frombuffer(self._words, dtype=np.uint64)


class RngRegistry:
    """Factory of independent, deterministic ``numpy`` generators.

    Example::

        rngs = RngRegistry(seed=7)
        a = rngs.stream("phy.decode")
        b = rngs.stream("radio.usb")   # independent of ``a``

    Requesting the same name twice returns the *same* generator object,
    so state advances coherently within a component.  A component that
    has made its last draw may :meth:`release` its stream; the name then
    stays spent for the registry's lifetime.  :meth:`prepare` makes
    many streams cheaper to build without changing a single draw.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        self._seed = seed
        # A released name maps to None: it stays spent, never re-seeded.
        # A prepared one maps to its seed words until it is created.
        self._streams: dict[str, np.random.Generator | bytes | None] = {}
        # Read once: activate the sanitizer before building a registry.
        self._sanitize_log = (sanitize.current_log()
                              if sanitize.sanitize_active() else None)

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use).

        Raises :class:`~repro.sim.sanitize.DeterminismViolation` for a
        released name: a re-seeded stream would replay its draws.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        entry = self._streams.get(name)
        # The sanctioned seeding sites.  Prepared words are the ones
        # default_rng would hash from the entropy.
        if entry is None:
            if name in self._streams:
                raise sanitize.DeterminismViolation(
                    f"stream {name!r} was released; re-seeding it would "
                    f"replay the draws already made", stream=name)
            seed = self._entropy_for(name)
        elif entry.__class__ is bytes:
            seed = np.random.PCG64(  # check: disable=rng-discipline
                _SeedWords(entry))
        else:
            return entry
        generator = np.random.default_rng(seed)  # check: disable=rng-discipline
        if self._sanitize_log is not None:
            # Under the determinism sanitizer, vend a recording proxy
            # instead.  The proxy forwards every draw to the real
            # generator (bit-identical results) and is cached like any
            # stream, so identity checks — e.g. BufferedSampler's
            # ownership guard — keep working.
            generator = sanitize.RecordingGenerator(
                generator, name, self._sanitize_log)
        self._streams[name] = generator
        return generator

    def prepare(self, names: Iterable[str]) -> None:
        """Derive the seed words of ``names`` in one vectorised pass.

        Each prepared name's generator is built at its first
        :meth:`stream` call, as before, but from seed words hashed here
        for all names at once (:func:`seed_words`): ~3 µs instead of
        ~15 µs per stream, and the same draws.  Only the 32 bytes of
        words are held per name until then, in the slot the name's
        generator takes.  Names already prepared, created or released
        are skipped: preparing neither re-seeds nor resurrects a
        stream.  Fewer than ``_MIN_BATCH`` new names are not worth the
        pass and are left to build as unprepared names do.
        """
        fresh = [name for name in names if name not in self._streams]
        if not all(fresh):
            raise ValueError("stream name must be non-empty")
        if len(fresh) < _MIN_BATCH:
            return
        entropy = np.fromiter(map(self._entropy_for, fresh),
                              dtype=np.uint64, count=len(fresh))
        words = seed_words(entropy).tobytes()
        self._streams.update(
            (name, words[32 * index:32 * index + 32])
            for index, name in enumerate(fresh))

    def release(self, name: str) -> None:
        """Drop the generator of ``name`` once it will draw no more.

        Frees the generator's state (~1.5 KB each, which adds up over
        one stream per UE).  The name stays spent: a later
        :meth:`stream` call raises instead of re-seeding.  Releasing a
        name twice, or one never created (prepared or not), is allowed.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        self._streams[name] = None

    def fork(self, salt: str) -> "RngRegistry":
        """A registry whose streams are all independent of this one.

        Used to give each UE (or each benchmark repetition) its own
        namespace without coordinating stream names globally.
        """
        return RngRegistry(self._entropy_for(f"fork:{salt}") % (2 ** 63))

    def names(self) -> list[str]:
        """Names of the streams held now (sorted, for diagnostics):
        created and not released."""
        return sorted(name for name, entry in self._streams.items()
                      if entry is not None and entry.__class__ is not bytes)

    def _entropy_for(self, name: str) -> int:
        digest = hashlib.sha256(
            f"{self._seed}/{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
