"""Scenario functions a campaign point can reference by name.

A *scenario* maps ``(params, rngs) -> result`` where ``params`` is the
point's parameter mapping, ``rngs`` is a registry seeded with the
point's derived seed, and the result is a JSON-serialisable mapping of
metrics (plus, optionally, raw sample lists for artifact rendering).
Scenarios must be pure simulation: no wall-clock reads, no
process-global RNG state, no filesystem access — the result cache
assumes a point's payload is a function of its parameters, its seed
and the source tree, nothing else.

The registry is what lets worker *processes* execute points: a point
travels to the worker as plain data and is resolved back to a callable
here, on the worker's side of the pickle boundary.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.design_space import enumerate_common_configurations
from repro.core.feasibility import Requirement
from repro.core.latency_model import LatencyModel
from repro.faults.injectors import FaultCounters
from repro.faults.plan import FaultPlan
from repro.mac.catalog import testbed_dddu
from repro.runner import envconfig
from repro.mac.types import AccessMode, Direction
from repro.net.probes import LatencyProbe
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import (
    Channel,
    GilbertElliottChannel,
    IidErasureChannel,
)
from repro.phy.timebase import tc_from_ms
from repro.radio.interface import InterfaceBus, bus, usb3
from repro.radio.os_jitter import gpos
from repro.radio.radio_head import RadioHead
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon

__all__ = ["SCENARIOS", "ScenarioFn", "run_point", "scenario"]

ScenarioFn = Callable[[Mapping[str, Any], RngRegistry],
                      dict[str, Any]]

#: Scenario name -> function; populated by the :func:`scenario`
#: decorator at import time, read by workers via :func:`run_point`.
SCENARIOS: dict[str, ScenarioFn] = {}


def scenario(name: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a scenario function under ``name``."""
    def register(fn: ScenarioFn) -> ScenarioFn:
        if name in SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIOS[name] = fn
        return fn
    return register


def run_point(point: Any) -> dict[str, Any]:
    """Execute one :class:`~repro.runner.campaign.ScenarioPoint`.

    This is the worker-side entry: it rebuilds the point's private RNG
    namespace from the point seed, so the result does not depend on
    which process — or in which order — the point runs.
    """
    fn = SCENARIOS.get(point.scenario)
    if fn is None:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown scenario {point.scenario!r}; known: {known}")
    return fn(point.params_dict(), RngRegistry(point.seed))


# ----------------------------------------------------------------------
# scenario library
# ----------------------------------------------------------------------
def _probe_metrics(probe: LatencyProbe,
                   keep_samples: bool) -> dict[str, Any]:
    summary = probe.summary()
    metrics: dict[str, Any] = {
        "count": summary.count,
        "mean_us": summary.mean_us,
        "p50_us": summary.p50_us,
        "p99_us": summary.p99_us,
        "p999_us": summary.p999_us,
        "max_us": summary.max_us,
        "reliability": probe.fraction_within(500.0),
    }
    if keep_samples:
        metrics["latencies_us"] = probe.latencies_us()
    return metrics


@scenario("radio-sweep")
def radio_sweep(params: Mapping[str, Any],
                rngs: RngRegistry) -> dict[str, Any]:
    """Fig 5's unit of work: repeated sample submissions on one bus.

    Params: ``bus`` (calibrated bus name), ``samples`` (submission
    size), ``repetitions``.
    """
    interface = bus(str(params["bus"]))
    repetitions = int(params["repetitions"])
    generator = rngs.stream("submission")
    values = [interface.submission_latency_us(int(params["samples"]),
                                              generator)
              for _ in range(repetitions)]
    median_us = float(np.median(values))
    return {
        "median_us": median_us,
        "mean_us": float(np.mean(values)),
        "max_us": float(np.max(values)),
        "spike_count": sum(1 for v in values if v > median_us + 20.0),
        "repetitions": repetitions,
    }


def _ran_system(params: Mapping[str, Any], seed: int) -> RanSystem:
    """The §7 testbed (DDDU @ 0.5 ms, USB 3.0 B210, stock kernel)."""
    radio_head = RadioHead("b210", usb3(), gpos())
    return RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode(str(params["access"])),
                  gnb_radio_head=radio_head, seed=seed))


@scenario("ran-latency")
def ran_latency(params: Mapping[str, Any],
                rngs: RngRegistry) -> dict[str, Any]:
    """One-way latency distribution on the §7 testbed (Fig 6's unit).

    Params: ``access`` (``grant-based``/``grant-free``), ``direction``
    (``dl``/``ul``), ``packets``, ``horizon_ms``.
    """
    system = _ran_system(params, seed=rngs.fork("system").seed)
    arrivals = uniform_in_horizon(
        int(params["packets"]),
        tc_from_ms(float(params["horizon_ms"])),
        rngs.stream("arrivals"))
    direction = str(params["direction"])
    if direction == "dl":
        probe = system.run_downlink(arrivals)
    elif direction == "ul":
        probe = system.run_uplink(arrivals)
    else:
        raise ValueError(f"direction must be 'dl' or 'ul', "
                         f"got {direction!r}")
    return _probe_metrics(probe, keep_samples=True)


def _chaos_channel(params: Mapping[str, Any]) -> Channel | None:
    """Channel model for the chaos scenario (perfect/iid/ge)."""
    kind = str(params.get("channel", "perfect"))
    if kind == "perfect":
        return None
    if kind == "iid":
        return IidErasureChannel(float(params.get("bler", 0.01)))
    if kind == "ge":
        return GilbertElliottChannel(
            mean_good_tc=tc_from_ms(float(params.get("ge_good_ms",
                                                     20.0))),
            mean_bad_tc=tc_from_ms(float(params.get("ge_bad_ms", 2.0))))
    raise ValueError(
        f"channel must be 'perfect', 'iid' or 'ge', got {kind!r}")


@scenario("chaos-latency")
def chaos_latency(params: Mapping[str, Any],
                  rngs: RngRegistry) -> dict[str, Any]:
    """Delivery reliability under a deterministic fault schedule.

    The §7 testbed driven through a :class:`~repro.faults.plan.FaultPlan`
    — the reliability-vs-fault-intensity unit of docs/ROBUSTNESS.md.
    Params: ``access``, ``direction`` (``dl``/``ul``), ``packets``,
    ``horizon_ms``, ``faults`` (a preset name or inline FaultPlan
    JSON), ``intensity`` (scales the plan; 0 disarms it bit-exactly),
    ``channel`` (``perfect``/``iid``/``ge``) plus the channel knobs
    ``bler``, ``ge_good_ms``, ``ge_bad_ms``.  Reliability counts
    packets delivered within ``budget_us`` (default 5 ms, where the
    fault intensity actually moves the curve on this testbed) over
    packets *offered* — a dropped packet is a reliability failure,
    which is the whole point of injecting faults.  ``reliability_1ms``
    reports the same ratio against the paper's 1 ms URLLC bound.
    """
    plan = FaultPlan.resolve(str(params["faults"]))
    plan = plan.scaled(float(params.get("intensity", 1.0)))
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode(str(params["access"])),
                  gnb_radio_head=RadioHead("b210", usb3(), gpos()),
                  channel=_chaos_channel(params),
                  fault_plan=plan,
                  seed=rngs.fork("system").seed))
    offered = int(params["packets"])
    arrivals = uniform_in_horizon(
        offered, tc_from_ms(float(params["horizon_ms"])),
        rngs.stream("arrivals"))
    direction = str(params["direction"])
    if direction == "dl":
        probe = system.run_downlink(arrivals)
    elif direction == "ul":
        probe = system.run_uplink(arrivals)
    else:
        raise ValueError(f"direction must be 'dl' or 'ul', "
                         f"got {direction!r}")
    latencies_us = probe.latencies_us()
    budget_us = float(params.get("budget_us", 5_000.0))
    on_time = sum(1 for value in latencies_us if value <= budget_us)
    within_1ms = sum(1 for value in latencies_us if value <= 1_000.0)
    metrics: dict[str, Any] = {
        "offered": offered,
        "delivered": len(latencies_us),
        "dropped": offered - len(latencies_us),
        "reliability": on_time / offered,
        "reliability_1ms": within_1ms / offered,
        "blocks_sent": system.link.counters.blocks_sent,
        "blocks_failed": system.link.counters.blocks_failed,
        "harq_drops": system.link.counters.packets_dropped,
    }
    if latencies_us:
        summary = probe.summary()
        metrics.update({
            "mean_us": summary.mean_us,
            "p50_us": summary.p50_us,
            "p99_us": summary.p99_us,
            "max_us": summary.max_us,
        })
    else:  # total outage: keep the key set stable for baselines
        metrics.update({"mean_us": 0.0, "p50_us": 0.0, "p99_us": 0.0,
                        "max_us": 0.0})
    counters = (system.faults.counters if system.faults is not None
                else FaultCounters())
    metrics.update(counters.as_metrics())
    return metrics


@scenario("chaos-selftest")
def chaos_selftest(params: Mapping[str, Any],
                   rngs: RngRegistry) -> dict[str, Any]:
    """Runner-hardening self-test: misbehave deliberately, once.

    The one sanctioned *impure* scenario: it exists so the chaos tests
    and CI job can prove that a crashed, raising or wedged worker fails
    (or retries) a single point instead of the campaign.  The fault
    path is double-gated — it needs ``URLLC5G_CHAOS=1`` in the
    environment *and* a ``token`` marker-file path — and fires only
    while the marker is absent: the first attempt creates the marker
    and then misbehaves per ``mode`` (``raise``/``kill``/``hang``), so
    the retry of the same point finds the marker and succeeds.  The
    returned payload is computed from the point's own streams and never
    depends on the fault path, keeping replays and caches coherent.
    """
    mode = str(params.get("mode", "ok"))
    token = str(params.get("token", ""))
    if mode != "ok" and token and envconfig.current().chaos:
        marker = Path(token)
        if not marker.exists():
            try:
                marker.touch()
            except OSError:
                pass  # unwritable token: the fault fires every attempt
            if mode == "kill":
                os._exit(17)  # simulate a segfaulting worker
            if mode == "hang":
                while True:  # simulate a wedged worker
                    pass
            raise RuntimeError("chaos-selftest: injected worker failure")
    draws = rngs.stream("noise").random(4)
    return {"value": float(np.sum(draws)), "draws": 4}


@scenario("sensitivity-latency")
def sensitivity_latency(params: Mapping[str, Any],
                        rngs: RngRegistry) -> dict[str, Any]:
    """Mean DL latency under perturbed calibration constants (A14).

    Params: ``rh_setup_us``, ``ue_processing_scale``,
    ``gnb_processing_scale``, ``packets``, ``horizon_ms``, plus
    explicit ``sim_seed``/``arrivals_seed`` so every perturbation is
    evaluated under *identical* randomness — a tornado analysis is a
    paired comparison, and per-point seeds would add noise exactly
    where the smallest swings are measured.
    """
    interface = InterfaceBus("usb3-like",
                             setup_us=float(params["rh_setup_us"]),
                             per_sample_us=0.0022,
                             spike_probability=0.04,
                             spike_mean_us=35.0)
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE,
                  gnb_radio_head=RadioHead("rh", interface, gpos()),
                  ue_processing_scale=float(
                      params["ue_processing_scale"]),
                  gnb_processing_scale=float(
                      params["gnb_processing_scale"]),
                  seed=int(params["sim_seed"])))
    arrivals = uniform_in_horizon(
        int(params["packets"]),
        tc_from_ms(float(params["horizon_ms"])),
        RngRegistry(int(params["arrivals_seed"])).stream("arrivals"))
    probe = system.run_downlink(arrivals)
    return _probe_metrics(probe, keep_samples=False)


@scenario("multi-ue")
def multi_ue(params: Mapping[str, Any],
             rngs: RngRegistry) -> dict[str, Any]:
    """Grant-free scalability at one UE population (A3's unit).

    Params: ``n_ues``, ``packets_per_ue``, ``horizon_ms``.
    """
    n_ues = int(params["n_ues"])
    packets_per_ue = int(params["packets_per_ue"])
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=n_ues,
                  seed=rngs.fork("system").seed))
    horizon_tc = tc_from_ms(float(params["horizon_ms"]))
    rngs.prepare([f"arrivals.ue{ue_id}" for ue_id in range(1, n_ues + 1)])
    for ue_id in range(1, n_ues + 1):
        system.queue_uplink(
            uniform_in_horizon(packets_per_ue, horizon_tc,
                               rngs.stream(f"arrivals.ue{ue_id}")),
            ue_id=ue_id)
        rngs.release(f"arrivals.ue{ue_id}")  # single use, drawn above
    system.run()
    counters = system.gnb.scheduler.counters
    metrics = _probe_metrics(system.ul_probe, keep_samples=False)
    metrics.update({
        "delivered": len(system.ul_probe),
        "cg_waste": counters.cg_waste_fraction(),
        "cg_allocated_bytes": counters.cg_allocated_bytes,
    })
    return metrics


@scenario("multi-ue-massive")
def multi_ue_massive(params: Mapping[str, Any],
                     rngs: RngRegistry) -> dict[str, Any]:
    """Grant-free uplink at population scale (10k-100k UEs per cell).

    Params: ``n_ues``, ``packets_per_ue``, ``horizon_ms``, and
    optionally ``engine`` (default ``"slotted"`` — the point of the
    scenario; ``"scalar"`` exists for small-N equivalence checks).
    Each UE owns dedicated configured-grant resources
    (``cg_share=1.0``), the regime in which per-cell populations this
    large are schedulable at all.  Metrics are identical in shape to
    ``multi-ue`` plus the engine actually used, so baselines pin that
    large runs really take the slotted path.
    """
    n_ues = int(params["n_ues"])
    packets_per_ue = int(params["packets_per_ue"])
    engine = str(params.get("engine", "slotted"))
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=n_ues,
                  cg_share=1.0, engine=engine,
                  seed=rngs.fork("system").seed))
    horizon_tc = tc_from_ms(float(params["horizon_ms"]))
    rngs.prepare([f"arrivals.ue{ue_id}" for ue_id in range(1, n_ues + 1)])
    for ue_id in range(1, n_ues + 1):
        system.queue_uplink(
            uniform_in_horizon(packets_per_ue, horizon_tc,
                               rngs.stream(f"arrivals.ue{ue_id}")),
            ue_id=ue_id)
        rngs.release(f"arrivals.ue{ue_id}")  # single use, drawn above
    system.run()
    counters = system.gnb.scheduler.counters
    metrics = _probe_metrics(system.ul_probe, keep_samples=False)
    metrics.update({
        "delivered": len(system.ul_probe),
        "cg_waste": counters.cg_waste_fraction(),
        "cg_allocated_bytes": counters.cg_allocated_bytes,
        "engine": system.engine_mode,
        # Numeric twin of "engine" (strings are digest material, not
        # gateable): baselines pin that big points stay slotted.
        "engine_slotted": int(system.engine_mode == "slotted"),
    })
    return metrics


@scenario("design-feasibility")
def design_feasibility(params: Mapping[str, Any],
                       rngs: RngRegistry) -> dict[str, Any]:
    """Feasibility of one TS 38.331 Common Configuration (E3's unit).

    Params: ``index`` (position in the enumerated grammar), ``mu``,
    ``max_period_ms``, ``budget_ms``, ``reliability``.  Purely
    analytic — ``rngs`` is unused, the point is cached like any other.
    """
    configs = enumerate_common_configurations(
        int(params["mu"]), float(params["max_period_ms"]))
    config = configs[int(params["index"])]
    budget_ms = float(params["budget_ms"])
    requirement = Requirement(f"{budget_ms:g} ms one-way",
                              tc_from_ms(budget_ms),
                              float(params["reliability"]))
    model = LatencyModel(config)
    feasible: list[str] = []
    dl_ok = False
    try:
        dl_ok = requirement.met_by_worst_case(
            model.extremes(Direction.DL))
    except LookupError:
        dl_ok = False
    if dl_ok:
        for access in (AccessMode.GRANT_FREE, AccessMode.GRANT_BASED):
            try:
                extremes = model.extremes(Direction.UL, access)
            except LookupError:
                continue
            if requirement.met_by_worst_case(extremes):
                feasible.append(access.value)
    return {
        "letters": "".join(config.slot_letters()),
        "period_tc": config.period_tc,
        "universe": len(configs),
        "dl_ok": dl_ok,
        "feasible_accesses": feasible,
        "feasible_count": len(feasible),
    }
