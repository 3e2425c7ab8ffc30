"""Unit tests for the named RNG registry."""

import pytest

from repro.sim.rng import RngRegistry
from repro.sim.sanitize import DeterminismViolation


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
