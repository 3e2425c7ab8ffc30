"""Golden equivalence suite: slotted engine ≡ scalar engine, bitwise.

The slotted executor's contract (repro.sim.slotted, "Bit-identity
contract") is not statistical agreement but exact equality: the same
UL probe, column for column and packet for packet (latency, the three
budget sources, HARQ retransmissions, UE and packet ids), the same
budget means, same counters, same tracer digest.  This suite pins the
contract across every execution regime the engine distinguishes
internally:

- channel families (perfect / IID erasure / zero-BLER IID /
  Gilbert-Elliott) — the zero-BLER case draws uniforms without ever
  failing, which must keep the slow transmit path;
- fault intensity 0 and 0.5 of the standard plan (precise-clock mode);
- tracing on and off (per-layer event path vs fused paths);
- sparse and heavily overlapping arrival processes (fused UE chains vs
  the per-layer path);
- dense same-tick ties between UEs, where early-pushed events must sort
  by the tick the scalar engine schedules them at;
- an arrival on the tick of its own UE's layer exit, which the arrival
  must win;
- block-buffered and forced-sequential sampling;
- packets no configured-grant window can hold, which both planners
  must reject with the same error;
- the runtime determinism sanitizer, which must see the population
  streams resolve to exclusive owners with unchanged results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import GilbertElliottChannel, IidErasureChannel
from repro.phy.timebase import TC_PER_MS
from repro.sim.engine import SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.sampling import force_sequential
from repro.sim.sanitize import sanitizer_session
from repro.traffic.generators import uniform_in_horizon


def _make_channel(kind):
    if kind == "iid":
        return IidErasureChannel(0.3)
    if kind == "iid-zero":
        # Never fails but consumes one uniform per block: exercises
        # the engine's "cannot take the draw-free transmit fast path"
        # distinction.
        return IidErasureChannel(0.0)
    if kind == "ge":
        return GilbertElliottChannel(
            mean_good_tc=20 * TC_PER_MS, mean_bad_tc=2 * TC_PER_MS,
            bler_good=0.01, bler_bad=0.9)
    return None


#: Every per-packet column of the UL probe.
_PROBE_COLUMNS = ("latency_tc", "processing_tc", "protocol_tc", "radio_tc",
                  "harq_retx", "ue_id", "packet_id")


def _run(engine, channel_kind="perfect", intensity=0.0, trace=False,
         n_ues=4, packets_per_ue=5, horizon_ms=40, seed=None,
         cg_share=None, plan=None):
    if plan is None and intensity:
        plan = FaultPlan.resolve("standard").scaled(intensity)
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=n_ues,
                  seed=7 if seed is None else seed,
                  channel=_make_channel(channel_kind), fault_plan=plan,
                  cg_share=cg_share, trace=trace, engine=engine))
    rngs = RngRegistry(123 if seed is None else seed)
    horizon = horizon_ms * TC_PER_MS
    for ue_id in range(1, n_ues + 1):
        system.queue_uplink(
            uniform_in_horizon(packets_per_ue, horizon,
                               rngs.stream(f"arrivals.ue{ue_id}")),
            ue_id=ue_id)
    system.run()
    out = {
        **{column: getattr(system.ul_probe, column).tolist()
           for column in _PROBE_COLUMNS},
        "budgets": tuple(sorted(
            system.ul_probe.budget_means_us().items())),
        "delivered": len(system.ul_probe),
        "blocks_sent": system.link.counters.blocks_sent,
        "blocks_failed": system.link.counters.blocks_failed,
        "dropped": system.link.counters.packets_dropped,
        "ul_out": system.gnb.counters.ul_packets_out,
        "cg_alloc": system.gnb.scheduler.counters.cg_allocated_bytes,
        "cg_used": system.gnb.scheduler.counters.cg_used_bytes,
        "engine": system.engine_mode,
    }
    if trace:
        out["digest"] = system.tracer.digest()
    return out


def _assert_engines_match(**kwargs):
    scalar = _run("scalar", **kwargs)
    slotted = _run("slotted", **kwargs)
    assert scalar.pop("engine") == "scalar"
    assert slotted.pop("engine") == "slotted"
    assert scalar == slotted


def _planner_error(exc):
    """The error a run stopped on; the scalar engine chains a callback's
    exception under a SimulationError."""
    return exc.__cause__ if isinstance(exc, SimulationError) else exc


def _outcome(engine, **kwargs):
    """``_run``'s record without the engine name, or the planner error
    the run stopped on."""
    try:
        out = _run(engine, **kwargs)
    except (LookupError, SimulationError) as exc:
        error = _planner_error(exc)
        return (type(error).__name__, str(error))
    assert out.pop("engine") == engine
    return out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("intensity", [0.0, 0.5])
@pytest.mark.parametrize("channel_kind",
                         ["perfect", "iid", "iid-zero", "ge"])
def test_slotted_matches_scalar_bitwise(channel_kind, intensity, trace):
    _assert_engines_match(channel_kind=channel_kind, intensity=intensity,
                          trace=trace)


def test_slotted_matches_scalar_with_overlapping_chains():
    """Dense arrivals: most transit chains overlap the UE's next
    arrival, so guarded fusion fails and those packets take the
    per-layer event path."""
    _assert_engines_match(n_ues=3, packets_per_ue=40, horizon_ms=25)


@pytest.mark.parametrize("seed", [3, 26])
def test_slotted_matches_scalar_on_same_tick_ties(seed):
    """400 UEs over 2 ms with full CG windows: packets of different UEs
    leave MAC on the same tick and plan into the same window.  The
    scalar engine runs them in RLC-exit order; the slotted engine's
    early-pushed MAC exits, landings and UPF completions must sort the
    same way, or the landing cohort trades gnb-stream draws."""
    _assert_engines_match(n_ues=400, packets_per_ue=5, horizon_ms=2,
                          seed=seed, cg_share=1.0)


def _one_ue_uplink(engine, arrivals, trace=False):
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=1, seed=7,
                  trace=trace, engine=engine))
    system.queue_uplink(arrivals, ue_id=1)
    system.run()
    return system


@pytest.mark.parametrize("layer", ["app", "rlc"])
def test_arrival_wins_a_same_tick_tie_with_a_layer_exit(layer):
    """A UE's second packet arrives on the very tick its first packet
    exits a layer.  Both events draw on the UE's stream next, so their
    order decides which packet gets which normal.  The scalar engine
    runs the arrival first (it was scheduled at queue time); the
    slotted engine must too, though the arrival holds no heap key."""
    first = 1_000_000
    lone = _one_ue_uplink("scalar", [first], trace=True)
    exit_tc = lone.tracer.first(f"ue1.{layer}", "exit").time
    runs = [_one_ue_uplink(engine, [first, exit_tc])
            for engine in ("scalar", "slotted")]
    scalar, slotted = (
        (system.ul_probe.latencies_tc(), system.ul_probe.budget_means_us())
        for system in runs)
    assert runs[1].engine_mode == "slotted"
    assert scalar == slotted


@pytest.mark.parametrize("engine", ["scalar", "slotted"])
def test_unplannable_packet_raises_lookup_error(engine):
    """With the default share, 100 UEs leave each UE 1/100 of a window:
    no window holds a 32-byte packet, so the planner gives up after a
    full period of rejected empty windows instead of scanning forever."""
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=100, seed=1,
                  engine=engine))
    system.queue_uplink([1000], ue_id=1)
    with pytest.raises((LookupError, SimulationError)) as info:
        system.run()
    error = _planner_error(info.value)
    assert isinstance(error, LookupError)
    assert str(error) == "no usable configured-grant window found"


_CHANNELS = st.sampled_from(["perfect", "iid", "iid-zero", "ge"])
_CG_SHARES = st.sampled_from([0.1, 1.0])


@given(n_ues=st.integers(2, 400), packets_per_ue=st.integers(1, 6),
       horizon_ms=st.integers(1, 40), seed=st.integers(0, 10_000),
       channel_kind=_CHANNELS, intensity=st.sampled_from([0.0, 0.5]),
       cg_share=st.sampled_from([None, 0.1, 1.0]))
@settings(max_examples=60, deadline=None)
def test_slotted_matches_scalar_property(n_ues, packets_per_ue,
                                         horizon_ms, seed, channel_kind,
                                         intensity, cg_share):
    """Per-packet equality over slotted-eligible configurations; short
    horizons pack many UEs' events onto the same ticks.  The default
    share (None: 1/n_ues) leaves a 32-byte packet no window above ~60
    UEs, and then both engines must stop with the same error."""
    kwargs = dict(channel_kind=channel_kind, intensity=intensity,
                  n_ues=n_ues, packets_per_ue=packets_per_ue,
                  horizon_ms=horizon_ms, seed=seed, cg_share=cg_share)
    assert _outcome("scalar", **kwargs) == _outcome("slotted", **kwargs)


@given(engine=st.sampled_from(["scalar", "slotted"]),
       n_ues=st.integers(2, 100), seed=st.integers(0, 10_000),
       channel_kind=_CHANNELS, cg_share=_CG_SHARES)
@settings(max_examples=15, deadline=None)
def test_zero_intensity_fault_plan_is_fault_free(engine, n_ues, seed,
                                                 channel_kind, cg_share):
    """The standard plan scaled to intensity 0 changes nothing."""
    zero = FaultPlan.resolve("standard").scaled(0.0)
    kwargs = dict(channel_kind=channel_kind, n_ues=n_ues,
                  packets_per_ue=3, horizon_ms=10, seed=seed,
                  cg_share=cg_share)
    assert _run(engine, plan=zero, **kwargs) == _run(engine, **kwargs)


def test_slotted_buffered_equals_forced_sequential():
    buffered = _run("slotted")
    with force_sequential():
        sequential = _run("slotted")
    assert buffered == sequential


def test_slotted_under_sanitizer_resolves_streams_and_matches():
    scalar = _run("scalar")
    with sanitizer_session() as log:
        slotted = _run("slotted")
    assert scalar.pop("engine") == "scalar"
    assert slotted.pop("engine") == "slotted"
    assert scalar == slotted
    # Every population stream the slotted engine consumes resolved in
    # the sanitizer's ownership map: the per-UE chain streams and the
    # shared gnb stream are exclusively claimed by their block
    # servers, and all were actually drawn from.
    for name in ["gnb"] + [f"ue{i}" for i in range(1, 5)]:
        stream = log.streams[name]
        assert stream.exclusive_owner is not None, name
        assert stream.draws > 0, name


def test_slotted_runs_are_reproducible():
    assert _run("slotted") == _run("slotted")
