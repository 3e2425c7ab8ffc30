"""Runtime determinism sanitizer: recording, claims, bit-identity."""

import numpy as np
import pytest

from repro.mac.catalog import testbed_dddu
from repro.net.session import RanConfig, RanSystem
from repro.sim.distributions import Exponential, LogNormal
from repro.sim.rng import RngRegistry
from repro.sim.sampling import BufferedSampler, UniformBuffer, force_sequential
from repro.sim.sanitize import (
    DeterminismViolation,
    RecordingGenerator,
    sanitize_active,
    sanitizer_session,
    set_sim_clock,
)


def test_sanitizer_off_by_default_vends_plain_generators(monkeypatch):
    monkeypatch.delenv("URLLC5G_SANITIZE", raising=False)
    assert not sanitize_active()
    rng = RngRegistry(7).stream("plain")
    assert isinstance(rng, np.random.Generator)
    assert not isinstance(rng, RecordingGenerator)


def test_session_wraps_streams_and_caches_the_proxy():
    with sanitizer_session():
        assert sanitize_active()
        registry = RngRegistry(7)
        rng = registry.stream("wrapped")
        assert isinstance(rng, RecordingGenerator)
        # The cache returns the *same* proxy, so identity checks such as
        # `rng is self._rng` keep working under the sanitizer.
        assert registry.stream("wrapped") is rng
    assert not sanitize_active()


def test_env_flag_activates_sanitizer(monkeypatch):
    monkeypatch.setenv("URLLC5G_SANITIZE", "1")
    assert sanitize_active()
    assert isinstance(RngRegistry(1).stream("env"), RecordingGenerator)


def test_sanitized_draws_are_bit_identical():
    plain = RngRegistry(42).stream("draws")
    reference = [plain.random() for _ in range(5)]
    reference += list(plain.normal(size=3))
    with sanitizer_session():
        wrapped = RngRegistry(42).stream("draws")
        values = [wrapped.random() for _ in range(5)]
        values += list(wrapped.normal(size=3))
    assert values == reference


def test_draw_log_records_stream_consumer_and_count():
    with sanitizer_session() as log:
        rng = RngRegistry(0).stream("logged")
        for _ in range(4):
            rng.random()
        rng.integers(10)
    assert log.draw_counts() == {"logged": 5}
    (consumer,) = log.consumer_map()["logged"]
    assert consumer.endswith(
        "test_draw_log_records_stream_consumer_and_count")
    recent = list(log.stream("logged").recent)
    assert [r.method for r in recent] == ["random"] * 4 + ["integers"]
    assert [r.index for r in recent] == list(range(5))


def test_sim_clock_timestamps_draw_records():
    with sanitizer_session() as log:
        set_sim_clock(lambda: 1234)
        try:
            RngRegistry(0).stream("timed").random()
        finally:
            set_sim_clock(None)
    assert log.stream("timed").recent[0].sim_time == 1234


def test_buffered_sampler_still_bit_identical_under_sanitizer():
    sampler = LogNormal(55.21, 16.31)
    scalar_rng = RngRegistry(9).stream("bits")
    scalar = [sampler.sample(scalar_rng) for _ in range(40)]
    with sanitizer_session():
        rng = RngRegistry(9).stream("bits")
        buffered = BufferedSampler(sampler, rng, block=16)
        assert [buffered.sample(rng) for _ in range(40)] == scalar


def test_direct_draw_on_claimed_stream_raises():
    with sanitizer_session():
        rng = RngRegistry(3).stream("upf")
        BufferedSampler(Exponential(12.0), rng, block=8)
        with pytest.raises(DeterminismViolation,
                           match="exclusively owned") as err:
            rng.random()
    assert err.value.stream == "upf"
    assert "BufferedSampler" in err.value.owner
    assert err.value.consumer.endswith(
        "test_direct_draw_on_claimed_stream_raises")


def test_double_claim_of_one_stream_raises(block_buffers, subtests):
    # Two buffers of one class built by one frame share an owner label;
    # the claim is the generator's, so the second still raises.
    for first, claimant in block_buffers.items():
        for second, rival in block_buffers.items():
            with subtests.test(first=first, second=second):
                with sanitizer_session():
                    rng = RngRegistry(3).stream("link")
                    claimant.make(rng, 8)
                    with pytest.raises(DeterminismViolation,
                                       match="two buffers") as err:
                        rival.make(rng, 8)
                assert first in err.value.owner
                assert second in err.value.consumer


def test_same_named_streams_of_two_registries_do_not_collide(
        block_buffers):
    with sanitizer_session():
        runs = [RngRegistry(seed).stream("link") for seed in (3, 4, 5)]
        block_buffers["UniformBuffer"].make(runs[0], 8)
        block_buffers["LogNormalBlockServer"].make(runs[1], 8)
        assert 0.0 <= runs[2].random() < 1.0
        with pytest.raises(DeterminismViolation, match="exclusively owned"):
            runs[0].random()


def test_uniform_buffer_claim_blocks_direct_draws():
    with sanitizer_session():
        rng = RngRegistry(5).stream("link")
        uniforms = UniformBuffer(rng, block=8)
        assert uniforms.next() >= 0.0
        with pytest.raises(DeterminismViolation, match="exclusively owned"):
            rng.random()


def test_force_sequential_whole_run_is_fine_under_sanitizer():
    sampler = Exponential(5.0)
    reference_rng = RngRegistry(6).stream("seq")
    reference = [sampler.sample(reference_rng) for _ in range(6)]
    with sanitizer_session():
        rng = RngRegistry(6).stream("seq")
        buffered = BufferedSampler(sampler, rng, block=32)
        with force_sequential():
            assert [buffered.sample(rng) for _ in range(6)] == reference


def test_force_sequential_mid_run_raises_under_sanitizer(block_buffers,
                                                         subtests):
    for name, case in block_buffers.items():
        with subtests.test(buffer=name):
            with sanitizer_session():
                rng = RngRegistry(6).stream("mid")
                buffer = case.make(rng, 4)
                for _ in range(6):  # crosses a block boundary
                    case.serve(buffer, rng)
                with force_sequential():
                    # the two values on hand are still served; the
                    # refill after them raises
                    case.serve(buffer, rng)
                    case.serve(buffer, rng)
                    with pytest.raises(DeterminismViolation,
                                       match="mid-run") as err:
                        case.serve(buffer, rng)
            assert err.value.stream == "mid"
            assert name in err.value.owner
            assert err.value.consumer.endswith("<lambda>")


def test_foreign_generator_violation_names_both_sides():
    with sanitizer_session():
        rng = RngRegistry(2).stream("owned")
        buffered = BufferedSampler(Exponential(1.0), rng, block=8)
        with pytest.raises(DeterminismViolation,
                           match="owns its Generator") as err:
            buffered.sample(np.random.default_rng(0))
    assert err.value.stream == "owned"
    assert err.value.consumer.endswith(
        "test_foreign_generator_violation_names_both_sides")


def test_proxy_forwards_non_draw_attributes():
    with sanitizer_session() as log:
        rng = RngRegistry(1).stream("fwd")
        assert rng.bit_generator is rng.wrapped.bit_generator
        assert rng.stream_name == "fwd"
    assert log.draw_counts() == {}


# ----------------------------------------------------------------------
# stream ownership: the sanitizer is its one guard, run on each way a
# stream can be held, handed on or escape its buffer
# ----------------------------------------------------------------------
OWNERSHIP_HEADER = """\
from repro.sim.rng import RngRegistry
from repro.sim.sampling import LogNormalBlockServer, UniformBuffer


def consume(rng):
    return rng.random()


"""

#: (case, body after OWNERSHIP_HEADER, how to run it on a registry,
#: the sanitizer's violation or None).  Sharing a stream between two
#: plain consumers is no violation: the exact per-stream draw counters
#: of the perf ledger and every results digest pin who draws what.
OWNERSHIP_CASES = [
    ("argument", """\
def run():
    return consume(RngRegistry(0).stream("s"))
""", lambda ns, registry: ns["run"](), None),
    ("inline", """\
def run(registry):
    return registry.stream("s").random()
""", lambda ns, registry: ns["run"](registry), None),
    ("local", """\
def run(registry):
    rng = registry.stream("s")
    return rng.random() + rng.normal()
""", lambda ns, registry: ns["run"](registry), None),
    ("local-drawn-and-handed-off", """\
def run(registry):
    rng = registry.stream("s")
    return rng.random() + consume(rng)
""", lambda ns, registry: ns["run"](registry), None),
    ("discarded", """\
def run(registry):
    registry.stream("s")
""", lambda ns, registry: ns["run"](registry), None),
    ("local-arg", """\
def run(registry):
    rng = registry.stream("s")
    return consume(rng)
""", lambda ns, registry: ns["run"](registry), None),
    ("other", """\
def run(registry):
    return registry.stream("s")
""", lambda ns, registry: ns["run"](registry).random(), None),
    ("closure", """\
def run(registry):
    rng = registry.stream("s")

    def step():
        return rng.random()
    return step
""", lambda ns, registry: ns["run"](registry)(), None),
    ("attribute", """\
class Node:
    def __init__(self, registry):
        self.rng = registry.stream("s")

    def step(self):
        return self.rng.random()
""", lambda ns, registry: ns["Node"](registry).step(), None),
    ("attribute-never-drawn", """\
class Node:
    def __init__(self, registry):
        self.rng = registry.stream("s")
""", lambda ns, registry: ns["Node"](registry), None),
    ("escape-drawn-directly", """\
def run(registry):
    rng = registry.stream("s")
    uniforms = UniformBuffer(rng)
    return uniforms.next() + rng.random()
""", lambda ns, registry: ns["run"](registry),
     "exclusively owned by mod.run .UniformBuffer.*mod.run drew"),
    ("escape-passed-on", """\
def run(registry):
    rng = registry.stream("s")
    uniforms = UniformBuffer(rng)
    return uniforms.next() + consume(rng)
""", lambda ns, registry: ns["run"](registry),
     "exclusively owned by mod.run .UniformBuffer.*mod.consume drew"),
    ("escape-second-claim", """\
def run(registry):
    rng = registry.stream("s")
    return UniformBuffer(rng), LogNormalBlockServer(rng)
""", lambda ns, registry: ns["run"](registry),
     "claimed exclusively by two buffers"),
    ("escape-through-self-alias", """\
class Node:
    def __init__(self, rng):
        self.rng = rng
        self.uniforms = UniformBuffer(rng)

    def step(self):
        return self.uniforms.next() + self.rng.normal()
""", lambda ns, registry: ns["Node"](registry.stream("s")).step(),
     "exclusively owned by mod.Node.__init__ .UniformBuffer.*"
     "mod.Node.step drew"),
]


@pytest.mark.parametrize("body, drive, violation",
                         [case[1:] for case in OWNERSHIP_CASES],
                         ids=[case[0] for case in OWNERSHIP_CASES])
def test_owner_kinds_and_escapes(body, drive, violation):
    namespace = {"__name__": "mod"}
    exec(compile(OWNERSHIP_HEADER + body, "mod.py", "exec"), namespace)
    drive(namespace, RngRegistry(0))  # unsanitized, every case runs
    with sanitizer_session() as log:
        if violation is None:
            drive(namespace, RngRegistry(0))
            assert [stream.exclusive_owner
                    for stream in log.streams.values()] in ([], [None])
        else:
            with pytest.raises(DeterminismViolation, match=violation) as err:
                drive(namespace, RngRegistry(0))
            assert err.value.stream == "s"


ESCAPED = """\
from repro.sim.sampling import BufferedSampler


class Node:
    def __init__(self, sampler, rng):
        self.rng = rng
        self.delays = BufferedSampler(sampler, rng)

    def step(self):
        return self.delays.sample(self.rng) + self.rng.random()
"""


def test_escaped_buffered_stream_raises_at_runtime():
    # A node holding both a BufferedSampler and its stream: the buffered
    # draw is fine, the direct draw beside it is the escape.
    namespace = {"__name__": "mod"}
    exec(compile(ESCAPED, "mod.py", "exec"), namespace)
    with sanitizer_session():
        node = namespace["Node"](Exponential(12.0),
                                 RngRegistry(0).stream("s"))
        with pytest.raises(DeterminismViolation,
                           match="exclusively owned") as err:
            node.step()
    assert err.value.stream == "s"
    assert "BufferedSampler" in err.value.owner
    assert err.value.consumer == "mod.Node.step"


def test_a_second_consumer_shows_in_the_stream_log():
    def jitter(rng):
        return rng.normal()

    def drift(rng):
        return rng.random()

    with sanitizer_session() as log:
        noise = RngRegistry(0).stream("noise")
        jitter(noise) + drift(noise)
    assert log.draw_counts() == {"noise": 2}
    assert [name.rpartition(".")[2]
            for name in log.consumer_map()["noise"]] == ["jitter", "drift"]


def test_sanitized_ping_run_claims_the_upf_stream():
    with sanitizer_session() as log:
        system = RanSystem(testbed_dddu(), RanConfig(seed=3))
        system.run_ping([i * 1_000_000 for i in range(3)])
    assert "Upf" in log.streams["upf"].exclusive_owner
    for name in ("gnb", "ue1", "upf"):
        assert log.streams[name].draws > 0, name
