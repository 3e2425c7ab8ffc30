"""Unit tests for the named RNG registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry, seed_words
from repro.sim.sanitize import (
    DeterminismViolation,
    RecordingGenerator,
    sanitizer_session,
)


def test_same_name_returns_same_generator():
    rngs = RngRegistry(1)
    assert rngs.stream("a") is rngs.stream("a")


def test_streams_are_deterministic_across_registries():
    a = RngRegistry(7).stream("phy").random(5)
    b = RngRegistry(7).stream("phy").random(5)
    assert list(a) == list(b)


def test_different_names_give_different_streams():
    rngs = RngRegistry(7)
    a = rngs.stream("phy").random(5)
    b = rngs.stream("mac").random(5)
    assert list(a) != list(b)


def test_different_seeds_give_different_streams():
    a = RngRegistry(1).stream("x").random(5)
    b = RngRegistry(2).stream("x").random(5)
    assert list(a) != list(b)


def test_adding_a_stream_does_not_perturb_existing_ones():
    baseline = RngRegistry(3)
    first = baseline.stream("a").random(5)

    mixed = RngRegistry(3)
    mixed.stream("b")  # interleaved creation
    second = mixed.stream("a").random(5)
    assert list(first) == list(second)


def test_fork_is_independent_and_deterministic():
    parent = RngRegistry(9)
    fork_a = parent.fork("ue1").stream("x").random(5)
    fork_b = RngRegistry(9).fork("ue1").stream("x").random(5)
    assert list(fork_a) == list(fork_b)
    assert list(fork_a) != list(parent.stream("x").random(5))


def test_names_reports_created_streams():
    rngs = RngRegistry(0)
    rngs.stream("b")
    rngs.stream("a")
    assert rngs.names() == ["a", "b"]


def test_released_stream_raises_instead_of_reseeding():
    rngs = RngRegistry(5)
    rngs.stream("a").random(3)
    rngs.release("a")
    with pytest.raises(DeterminismViolation, match="released"):
        rngs.stream("a")
    # Releasing again, or a name never created, is allowed; the name
    # is spent either way.
    rngs.release("a")
    rngs.release("never")
    with pytest.raises(DeterminismViolation):
        rngs.stream("never")


def test_release_leaves_other_streams_unaffected():
    expected = RngRegistry(5).stream("b").random(6)
    rngs = RngRegistry(5)
    b = rngs.stream("b")
    head = b.random(3)
    rngs.stream("a").random(2)
    rngs.release("a")
    assert rngs.stream("b") is b
    assert list(head) + list(b.random(3)) == list(expected)
    # A stream created after the release is seeded as always.
    assert list(rngs.stream("c").random(2)) == list(
        RngRegistry(5).stream("c").random(2))


def test_names_reports_held_streams_only():
    rngs = RngRegistry(0)
    rngs.stream("b")
    rngs.stream("a")
    rngs.release("a")
    rngs.release("never")
    assert rngs.names() == ["b"]


def test_release_rejects_empty_name():
    with pytest.raises(ValueError):
        RngRegistry(0).release("")


def test_invalid_seed_rejected():
    with pytest.raises(ValueError):
        RngRegistry(-1)


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        RngRegistry(0).stream("")


# ----------------------------------------------------------------------
# batch seeding: prepare() and seed_words()
# ----------------------------------------------------------------------
_EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 1]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_EDGES),
                          st.integers(0, 2 ** 64 - 1)),
                min_size=1, max_size=40))
def test_seed_words_equal_seed_sequence(entropies):
    words = seed_words(np.array(entropies, dtype=np.uint64))
    expected = [np.random.SeedSequence(e).generate_state(4, np.uint64)
                for e in entropies]
    assert words.dtype == np.uint64
    assert words.tolist() == [list(map(int, w)) for w in expected]


def _names(count):
    return [f"ue{index}" for index in range(1, count + 1)]


def test_prepared_streams_draw_as_unprepared_ones():
    names = _names(40)
    prepared = RngRegistry(17)
    prepared.prepare(names)
    plain = RngRegistry(17)
    for name in reversed(names):
        assert prepared.stream(name).random(4).tolist() == \
            plain.stream(name).random(4).tolist()
        assert (prepared.stream(name).integers(0, 2 ** 40, 3).tolist()
                == plain.stream(name).integers(0, 2 ** 40, 3).tolist())
    assert prepared.names() == plain.names()


def test_prepare_builds_no_generator():
    rngs = RngRegistry(3)
    rngs.prepare(_names(64))
    assert rngs.names() == []
    rngs.stream("ue5")
    assert rngs.names() == ["ue5"]


def test_small_batches_are_left_unprepared():
    rngs = RngRegistry(3)
    rngs.prepare(_names(4))
    assert rngs._streams == {}
    assert rngs.stream("ue1").random(2).tolist() == \
        RngRegistry(3).stream("ue1").random(2).tolist()


def test_prepare_neither_reseeds_nor_resurrects():
    rngs = RngRegistry(8)
    live = rngs.stream("ue1")
    head = live.random(3).tolist()
    rngs.stream("ue2").random(1)
    rngs.release("ue2")
    rngs.prepare(_names(40))
    # The live stream is the same object and continues where it was.
    assert rngs.stream("ue1") is live
    assert head + live.random(2).tolist() == \
        RngRegistry(8).stream("ue1").random(5).tolist()
    with pytest.raises(DeterminismViolation, match="released"):
        rngs.stream("ue2")
    # Releasing a prepared name spends it and drops its seed words.
    rngs.release("ue3")
    with pytest.raises(DeterminismViolation):
        rngs.stream("ue3")


def test_prepare_rejects_empty_name():
    with pytest.raises(ValueError):
        RngRegistry(0).prepare(_names(40) + [""])


def test_sanitizer_wraps_prepared_streams():
    with sanitizer_session():
        rngs = RngRegistry(4)
        rngs.prepare(_names(40))
        generator = rngs.stream("ue7")
        assert isinstance(generator, RecordingGenerator)
        draws = generator.random(3).tolist()
    assert draws == RngRegistry(4).stream("ue7").random(3).tolist()


def test_sanitizer_flag_is_read_when_the_registry_is_built(monkeypatch):
    monkeypatch.delenv("URLLC5G_SANITIZE", raising=False)
    before = RngRegistry(4)
    with sanitizer_session() as log:
        inside = RngRegistry(4)
        assert not isinstance(before.stream("a"), RecordingGenerator)
    # Streams vended after the session still record into its log.
    assert isinstance(inside.stream("a"), RecordingGenerator)
    inside.stream("a").random(2)
    assert log.streams["a"].draws == 1


def test_sanitizer_env_flag_wraps_streams(monkeypatch):
    monkeypatch.setenv("URLLC5G_SANITIZE", "1")
    rngs = RngRegistry(4)
    monkeypatch.delenv("URLLC5G_SANITIZE")
    assert isinstance(rngs.stream("a"), RecordingGenerator)


def test_prepared_seed_words_serve_pcg64_only():
    rngs = RngRegistry(4)
    rngs.prepare(_names(40))
    seed_seq = rngs.stream("ue1").bit_generator.seed_seq
    with pytest.raises(ValueError, match="PCG64 only"):
        seed_seq.generate_state(8)
