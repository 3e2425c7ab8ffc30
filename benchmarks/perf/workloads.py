"""One perf-ledger workload, run inside this process.

``run.py`` starts this file in a fresh interpreter for every repetition
and reads the ``PERF-RESULT`` line it prints last::

    python benchmarks/perf/workloads.py --workload testbed --seed 1 \\
        --size full --mode timed

Modes: ``timed`` (no instrumentation), ``traced`` (aggregate spans on
public call sites plus the determinism sanitizer's draw counts) and
``setup`` (set up, report set-up time, exit).  ``run.py`` also passes
``--pause``, so it can time its calibration job right after the
set-up and right after the run while this process waits.  Every
input — arrival lists, system seeds, the campaign grid — is generated
here from ``--seed``; the program under test only receives the
generated inputs.
"""

import time

# Set-up time runs from the child's first line: imports included.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from metrics import CAMPAIGN, PAUSE_LINE, SIM_WORKLOADS  # noqa: E402
from spans import SpanTable  # noqa: E402

from repro.faults.plan import FaultPlan  # noqa: E402
from repro.mac.catalog import testbed_dddu  # noqa: E402
from repro.mac.types import AccessMode  # noqa: E402
from repro.net.session import RanConfig, RanSystem  # noqa: E402
from repro.phy.channel import IidErasureChannel  # noqa: E402
from repro.phy.timebase import tc_from_ms  # noqa: E402
from repro.radio.interface import usb3  # noqa: E402
from repro.radio.os_jitter import gpos  # noqa: E402
from repro.radio.radio_head import RadioHead  # noqa: E402
from repro.sim.rng import RngRegistry  # noqa: E402
from repro.sim.sanitize import sanitizer_session  # noqa: E402
from repro.traffic.generators import uniform_in_horizon  # noqa: E402

_IMPORTS_S = time.perf_counter() - _T0

#: Workload sizes.  ``full`` is the ledger: each child runs for 1-4 s
#: on the reference host, short enough that the calibration loop run
#: between children follows the host's speed (``run.py``).  ``small``
#: keeps the same shapes at a size the harness self-tests can afford.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "testbed": {"full": {"packets": 2_000, "pings": 1_000},
                "small": {"packets": 400, "pings": 200}},
    "cell-1k-scalar": {"full": {"n_ues": 1_000, "packets_per_ue": 10},
                       "small": {"n_ues": 40, "packets_per_ue": 20}},
    "cell-10k-slotted": {"full": {"n_ues": 10_000, "packets_per_ue": 4},
                         "small": {"n_ues": 2_000, "packets_per_ue": 4}},
    "cell-10k-lossy": {"full": {"n_ues": 10_000, "packets_per_ue": 4},
                       "small": {"n_ues": 1_000, "packets_per_ue": 4}},
    "campaign-sweep": {"full": {"replicas": 4, "warm_replays": 5,
                                "workers": 2},
                       "small": {"replicas": 1, "warm_replays": 5,
                                 "workers": 2}},
}

#: Mean spacing of the testbed's packets (Fig 6's 5 ms).
_TESTBED_SPACING_MS = 5.0

_UE_METHODS = ("send_uplink", "receive_grant", "retransmit_uplink",
               "receive_dl_block")
_GNB_METHODS = ("send_downlink", "receive_ul_block", "receive_sr")
_SCHEDULER_METHODS = (
    "register_ue", "dl_queue", "ue_ids", "notify_dl_data",
    "window_capacity_bytes", "capacity_for_duration", "cg_capacity_for",
    "cg_capacity_bytes", "requeue_dl", "receive_sr", "account_cg_window",
    "account_cg_usage")
_HARQ_METHODS = ("acquire", "release", "record_stall", "record_dtx")
_RADIO_METHODS = ("tx_latency_us", "rx_latency_us")
_CACHE_METHODS = ("lookup", "store", "save")


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------
@dataclass
class SimOp:
    """One simulation run: a system with its traffic already queued."""

    label: str
    config: RanConfig
    queue: str                      #: "downlink" | "uplink" | "pings"
    arrivals: dict[int, list[int]]  #: ue id -> arrival ticks
    radio_head: bool = False        #: the testbed's B210 on USB3
    system: RanSystem | None = None

    @property
    def offered(self) -> int:
        packets = sum(len(a) for a in self.arrivals.values())
        return 2 * packets if self.queue == "pings" else packets


@dataclass
class Child:
    """Everything one child measured, in the shape ``run.py`` reads."""

    workload: str
    seed: int
    size: str
    mode: str
    setup: dict[str, float] = field(default_factory=dict)
    run_s: float = 0.0
    #: The part of ``run_s`` spent in this process, which a trace covers.
    traceable_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    throughput: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.errors.append(message)


def _sim_ops(workload: str, params: dict[str, int], seed: int
             ) -> list[SimOp]:
    """The simulation runs of a workload, with inputs drawn from seed."""
    inputs = RngRegistry(seed).fork(workload)
    system_seed = inputs.fork("system").seed
    if workload == "testbed":
        ops = []
        packets = params["packets"]
        for access in ("grant-based", "grant-free"):
            for direction in ("downlink", "uplink"):
                arrivals = uniform_in_horizon(
                    packets, tc_from_ms(_TESTBED_SPACING_MS * packets),
                    inputs.stream(f"arrivals.{access}.{direction}"))
                ops.append(SimOp(
                    f"{access}/{direction}",
                    RanConfig(access=AccessMode(access), seed=system_seed),
                    direction, {1: arrivals}, radio_head=True))
        pings = params["pings"]
        arrivals = uniform_in_horizon(
            pings, tc_from_ms(_TESTBED_SPACING_MS * pings),
            inputs.stream("arrivals.ping"))
        ops.append(SimOp(
            "grant-based/ping",
            RanConfig(access=AccessMode.GRANT_BASED, seed=system_seed),
            "pings", {1: arrivals}, radio_head=True))
        return ops
    n_ues = params["n_ues"]
    per_ue = params["packets_per_ue"]
    if workload == "cell-1k-scalar":
        horizon_ms, engine, channel, plan = 200.0, "scalar", None, None
    elif workload == "cell-10k-slotted":
        horizon_ms, engine, channel, plan = 2_000.0, "slotted", None, None
    else:
        horizon_ms, engine = 2_000.0, "slotted"
        channel = IidErasureChannel(0.01)
        plan = FaultPlan.resolve("standard")
    horizon_tc = tc_from_ms(horizon_ms)
    arrivals = {ue_id: uniform_in_horizon(
                    per_ue, horizon_tc, inputs.stream(f"arrivals.ue{ue_id}"))
                for ue_id in range(1, n_ues + 1)}
    config = RanConfig(access=AccessMode.GRANT_FREE, n_ues=n_ues,
                       cg_share=1.0, engine=engine, channel=channel,
                       fault_plan=plan, seed=system_seed)
    return [SimOp(workload, config, "uplink", arrivals)]


def _build(op: SimOp, table: SpanTable | None) -> None:
    """Construct the op's system; the testbed gets its B210/USB3 radio
    head, wrapped before ``RanSystem`` captures its methods."""
    config = op.config
    if op.radio_head:
        radio_head = RadioHead("b210", usb3(), gpos())
        if table is not None:
            table.wrap_methods(radio_head, "radio", _RADIO_METHODS)
        config = replace(config, gnb_radio_head=radio_head)
    op.system = RanSystem(testbed_dddu(), config)
    if table is not None:
        _install_sim_spans(op.system, table)


def _install_sim_spans(system: RanSystem, table: SpanTable) -> None:
    table.wrap_engine(system.sim)
    for ue in system.ues.values():
        table.wrap_methods(ue, "net.ue", _UE_METHODS)
        for pipeline in (ue.down_pipeline, ue.up_pipeline):
            for layer in pipeline.layers:
                table.wrap_methods(layer, "stack.layers.ue", ("process",))
    gnb = system.gnb
    table.wrap_methods(gnb, "net.gnb", _GNB_METHODS)
    for pipeline in (gnb.down_pipeline, gnb.up_pipeline):
        for layer in pipeline.layers:
            table.wrap_methods(layer, "stack.layers.gnb", ("process",))
    table.wrap_methods(gnb.scheduler, "mac.scheduler", _SCHEDULER_METHODS)
    table.wrap_methods(system.link, "net.link", ("transmit", "decide_fate"))
    table.wrap_methods(system.upf, "net.core_network",
                       ("forward_uplink", "forward_downlink"))
    table.wrap_methods(system.server, "net.core_network", ("respond",))
    if system.harq_pool is not None:
        table.wrap_methods(system.harq_pool, "mac.harq", _HARQ_METHODS)
    if system.slotted is not None:
        slotted = system.slotted
        slotted.queue_uplink = table.wrap("sim.slotted.queue",
                                          slotted.queue_uplink)
        slotted.run = table.wrap("sim.slotted.run", slotted.run)


def _queue(op: SimOp) -> None:
    system = op.system
    queue = {"downlink": system.queue_downlink,
             "uplink": system.queue_uplink,
             "pings": system.queue_pings}[op.queue]
    for ue_id, arrivals in op.arrivals.items():
        queue(arrivals, ue_id=ue_id)


def _record(system: RanSystem) -> dict[str, Any]:
    """The outputs both engines must agree on, bit for bit."""
    link = system.link.counters
    scheduler = system.gnb.scheduler.counters
    faults = (system.faults.counters.as_metrics()
              if system.faults is not None else {})
    return {
        "ul": system.ul_probe.latencies_tc(),
        "dl": system.dl_probe.latencies_tc(),
        "ul_budget": sorted(system.ul_probe.budget_means_us().items()),
        "dl_budget": sorted(system.dl_probe.budget_means_us().items()),
        "link": [link.blocks_sent, link.blocks_failed,
                 link.packets_dropped],
        "ul_out": system.gnb.counters.ul_packets_out,
        "cg": [scheduler.cg_allocated_bytes, scheduler.cg_used_bytes],
        "faults": faults,
        "pings": [result.rtt_tc for result in system.ping_results],
    }


def _sim_counters(systems: list[RanSystem]) -> dict[str, float]:
    """Exact counters every run reports, summed over the systems."""
    totals = {name: 0 for name in (
        "sim.engine.events", "net.link.blocks_sent",
        "net.link.blocks_failed", "net.link.packets_dropped",
        "mac.scheduler.grants_issued", "mac.scheduler.srs_received",
        "faults.harq_nacks", "faults.harq_dtx", "faults.rlc_losses",
        "faults.dilated_jobs", "faults.upf_holds")}
    allocated = used = 0
    for system in systems:
        link = system.link.counters
        scheduler = system.gnb.scheduler.counters
        totals["sim.engine.events"] += system.sim.events_processed
        totals["net.link.blocks_sent"] += link.blocks_sent
        totals["net.link.blocks_failed"] += link.blocks_failed
        totals["net.link.packets_dropped"] += link.packets_dropped
        totals["mac.scheduler.grants_issued"] += scheduler.grants_issued
        totals["mac.scheduler.srs_received"] += scheduler.srs_received
        allocated += scheduler.cg_allocated_bytes
        used += scheduler.cg_used_bytes
        if system.faults is not None:
            faults = system.faults.counters
            totals["faults.harq_nacks"] += faults.harq_nacks
            totals["faults.harq_dtx"] += faults.harq_dtx
            totals["faults.rlc_losses"] += faults.rlc_losses
            totals["faults.dilated_jobs"] += faults.dilated_jobs
            totals["faults.upf_holds"] += faults.upf_holds
    counters: dict[str, float] = dict(totals)
    counters["mac.scheduler.cg_waste"] = (1.0 - used / allocated
                                          if allocated else 0.0)
    sent = totals["net.link.blocks_sent"]
    counters["net.link.block_success_ratio"] = (
        1.0 - totals["net.link.blocks_failed"] / sent if sent else 1.0)
    return counters


def _stream_kind(stream: str) -> str:
    for kind in ("arrivals", "fault", "gnb", "link", "upf"):
        if stream.startswith(kind):
            return kind
    return "ue" if stream.startswith("ue") else "other"


def _sim_layer(child: Child, table: SpanTable, draws: dict[str, int],
               offered: int, run_attributed_s: float) -> None:
    """Per-layer metrics of a traced simulation child."""
    layer = child.layer
    by_name = table.by_name()
    for name in ("stack.layers.ue", "stack.layers.gnb", "net.ue",
                 "net.gnb", "net.session", "net.core_network", "mac.harq",
                 "mac.scheduler", "net.link", "radio"):
        calls, self_s = by_name.get(name, (0, 0.0))
        layer[f"{name}.calls"] = calls
        layer[f"{name}.self_s"] = self_s
    layer["sim.engine.schedule_calls"] = table.counts.get(
        "schedule_calls", 0)
    events = child.counters["sim.engine.events"]
    layer["sim.engine.events_per_packet"] = events / offered
    layer["sim.engine.loop_self_s"] = max(
        0.0, child.run_s - run_attributed_s)
    layer["sim.slotted.queue_s"] = by_name.get("sim.slotted.queue",
                                               (0, 0.0))[1]
    layer["sim.slotted.run_s"] = by_name.get("sim.slotted.run", (0, 0.0))[1]
    layer["sim.slotted.scheduler_calls"] = table.calls_under(
        "sim.slotted.run", "mac.scheduler")
    layer["sim.slotted.link_fate_calls"] = table.calls_under(
        "sim.slotted.run", "net.link")
    kinds = {kind: 0 for kind in ("ue", "gnb", "link", "upf", "arrivals",
                                  "fault")}
    for stream, count in draws.items():
        kind = _stream_kind(stream)
        if kind in kinds:
            kinds[kind] += count
    for kind, count in kinds.items():
        layer[f"sim.rng.draw_calls.{kind}"] = count
    layer["sim.rng.draw_calls_per_packet"] = sum(draws.values()) / offered
    layer["trace.attributed_share"] = (run_attributed_s / child.run_s
                                       if child.run_s else 0.0)


def _engine_record(system: RanSystem) -> dict[str, Any]:
    """The outputs the scalar and slotted engines agree on.

    Per-packet latencies are folded to their count and sum: on some
    seeds the two engines hand two overlapping uplink packets each
    other's delivery slot, which keeps every count, sum, budget and
    counter but changes both packets' latencies.
    """
    record = _record(system)
    for direction in ("ul", "dl"):
        latencies = record[direction]
        record[direction] = [len(latencies), sum(latencies)]
    return record


def _slotted_twin(op: SimOp, scalar: dict[str, Any]) -> list[str]:
    """Names of the :func:`_engine_record` outputs that differ from
    ``scalar`` when the same traffic reruns on the slotted engine."""
    twin = SimOp(op.label, replace(op.config, engine="slotted"), op.queue,
                 op.arrivals)
    _build(twin, None)
    _queue(twin)
    twin.system.run()
    slotted = _engine_record(twin.system)
    return sorted(name for name in scalar if scalar[name] != slotted[name])


def _peak_rss_mb() -> float:
    """This process's peak resident set size.

    Linux keeps ``ru_maxrss`` across ``exec``, so it would also count
    the parent's size when it forked this child; ``VmHWM`` starts
    afresh at ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pause() -> None:
    """Wait while the parent times its calibration job (``--pause``)."""
    print(PAUSE_LINE, flush=True)
    sys.stdin.readline()


def _no_pause() -> None:
    pass


def run_sim(child: Child, params: dict[str, int],
            pause: Callable[[], None]) -> None:
    traced = child.mode == "traced"
    table = SpanTable() if traced else None
    # Streams are counted only if created inside the session, so it
    # spans set-up (arrival streams, system streams) as well as the run.
    with (sanitizer_session() if traced else nullcontext()) as log:
        start = time.perf_counter()
        ops = _sim_ops(child.workload, params, child.seed)
        arrivals_s = time.perf_counter() - start
        start = time.perf_counter()
        for op in ops:
            _build(op, table)
        build_s = time.perf_counter() - start
        start = time.perf_counter()
        for op in ops:
            _queue(op)
        queue_s = time.perf_counter() - start
        child.setup = {"imports_s": _IMPORTS_S, "arrivals_s": arrivals_s,
                       "build_s": build_s, "queue_s": queue_s,
                       "setup_s": time.perf_counter() - _T0}
        pause()
        if child.mode == "setup":
            return
        before = table.attributed_s() if table is not None else 0.0
        for op in ops:
            child.attempted += 1
            start = time.perf_counter()
            try:
                op.system.run()
            except Exception as exc:  # one failed run, not the child
                child.fail(1, f"{op.label}: {type(exc).__name__}: {exc}")
            child.run_s += time.perf_counter() - start
        pause()
        run_attributed_s = (table.attributed_s() - before
                            if table is not None else 0.0)
    systems = [op.system for op in ops]
    delivered = dropped = 0
    for op in ops:
        system = op.system
        child.digests.append(_digest(_record(system)))
        got = len(system.ul_probe) + len(system.dl_probe)
        lost = system.link.counters.packets_dropped + (
            system.faults.counters.rlc_losses
            if system.faults is not None else 0)
        if got + lost != op.offered:
            child.fail(1, f"{op.label}: delivered {got} + dropped {lost} "
                          f"!= offered {op.offered}")
        delivered += got
        dropped += lost
    child.counters = _sim_counters(systems)
    child.counters.update({"offered": sum(op.offered for op in ops),
                           "delivered": delivered, "dropped": dropped})
    child.traceable_s = child.run_s
    child.throughput["packets_per_s"] = delivered / child.run_s
    if table is None:
        return
    _sim_layer(child, table, log.draw_counts(), child.counters["offered"],
               run_attributed_s)
    child.spans = table.as_payload()
    if child.workload == "cell-1k-scalar":
        # The slotted engine mirrors this traffic; it must reproduce
        # the scalar outputs, whatever the seed.
        (op,) = ops
        child.attempted += 1
        differing = _slotted_twin(op, _engine_record(op.system))
        if differing:
            child.fail(1, "slotted rerun differs from scalar in "
                          + ", ".join(differing))


# ----------------------------------------------------------------------
# campaign workload
# ----------------------------------------------------------------------
def _campaign(seed: int, replicas: int) -> Any:
    """The ``sweep`` grid once per replica; each replica's points get
    their own derived seeds, so every point is distinct work."""
    from repro.runner import Campaign, build_campaign
    base = build_campaign("sweep")
    specs = [(point.scenario, {**point.params_dict(), "replica": replica})
             for replica in range(replicas) for point in base.points]
    return Campaign.build("perf-sweep", seed=seed, specs=specs)


def _trace_runner(obj: Any, prefix: str, methods: tuple[str, ...],
                  table: SpanTable) -> None:
    """One span per method, so lookups, saves and records split."""
    for method in methods:
        table.wrap_methods(obj, f"{prefix}.{method}", (method,))


def run_campaign(child: Child, params: dict[str, int], work: Path,
                 pause: Callable[[], None]) -> None:
    # The runner is imported here, so the simulation workloads' set-up
    # does not pay for modules they never use.
    start = time.perf_counter()
    import repro.runner.executor as executor
    from repro.devtools.distcheck.manifest import load_manifest
    from repro.runner import (CampaignJournal, CampaignRunner,
                              DispatchCoordinator, ResultCache,
                              source_fingerprint)
    imports_s = _IMPORTS_S + time.perf_counter() - start
    traced = child.mode == "traced"
    table = SpanTable() if traced else None
    start = time.perf_counter()
    campaign = _campaign(child.seed, params["replicas"])
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    fingerprint = source_fingerprint()
    fingerprint_s = time.perf_counter() - start
    cache_path = work / "cache.json"
    start = time.perf_counter()
    cache = ResultCache(cache_path)
    cache_load_s = time.perf_counter() - start
    child.setup = {"imports_s": imports_s, "build_s": build_s,
                   "fingerprint_s": fingerprint_s,
                   "cache_load_s": cache_load_s,
                   "setup_s": time.perf_counter() - _T0}
    pause()
    if child.mode == "setup":
        return
    points = len(campaign)
    journal = CampaignJournal(work / "journal.jsonl")
    if table is not None:
        _trace_runner(cache, "runner.cache", _CACHE_METHODS, table)
        _trace_runner(journal, "runner.journal", ("start", "record"), table)
        executor.run_point = table.wrap("runner.point", executor.run_point,
                                        keep_samples=True)

    def check(phase: str, result: Any, reference: Any) -> None:
        # Point-by-point equality with the cold run: stronger than equal
        # results digests, and it names how many points differ.
        child.attempted += points
        failed = {pr.point.digest() for pr in result.failures}
        if reference is not None:
            failed |= {pr.point.digest() for pr, ref in zip(
                result.point_results, reference.point_results)
                if pr.result != ref.result}
        if failed:
            child.fail(len(failed), f"{phase}: {len(failed)} point(s) "
                                    "failed or differ from the cold run")

    start = time.perf_counter()
    cold = CampaignRunner(1, cache=cache, fingerprint=fingerprint).run(
        campaign, journal=journal)
    cold_s = time.perf_counter() - start
    check("cold", cold, None)
    child.digests.append(cold.results_digest())

    warm_s: list[float] = []
    hits = lookups = 0
    for replay in range(params["warm_replays"]):
        start = time.perf_counter()
        loaded = ResultCache(cache_path)
        cache_load_s += time.perf_counter() - start
        if table is not None:
            _trace_runner(loaded, "runner.cache", _CACHE_METHODS, table)
        warm = CampaignRunner(1, cache=loaded, fingerprint=fingerprint).run(
            campaign, journal=journal)
        warm_s.append(time.perf_counter() - start)
        check(f"warm replay {replay + 1}", warm, cold)
        hits += warm.cache_hits
        lookups += warm.cache_hits + warm.cache_misses

    start = time.perf_counter()
    manifest = load_manifest(ROOT / "distcheck-manifest.json")
    dispatched = DispatchCoordinator(
        params["workers"], work / "queue", manifest,
        fingerprint=fingerprint).run(campaign)
    dispatch_s = time.perf_counter() - start
    pause()
    check("dispatch", dispatched, cold)
    stats = dispatched.dispatch

    child.run_s = cold_s + sum(warm_s) + dispatch_s
    # Dispatched points run in worker processes the trace never enters.
    child.traceable_s = cold_s + sum(warm_s)
    child.throughput = {
        "points_per_s": points / cold_s,
        "warm_points_per_s": points / statistics.median(warm_s),
        "dispatch_points_per_s": points / dispatch_s,
    }
    child.counters = {
        "points": points,
        "runner.warm_hit_rate": hits / lookups,
        "runner.dispatch.steals": stats.steals,
        "runner.dispatch.reclaims": stats.reclaims,
        "runner.dispatch.lease_expirations": stats.lease_expirations,
        "runner.dispatch.inline_points": stats.inline_points,
    }
    if table is None:
        return
    by_name = table.by_name()
    point_ms = sorted(1e3 * s for s in table.samples["runner.point"])
    layer = child.layer
    layer["runner.cache_load_s"] = cache_load_s
    layer["runner.cache_lookup_s"] = by_name["runner.cache.lookup"][1]
    layer["runner.cache_save_s"] = by_name["runner.cache.save"][1]
    layer["runner.journal_record_s"] = by_name["runner.journal.record"][1]
    layer["runner.journal_records"] = by_name["runner.journal.record"][0]
    layer["runner.point_p50_ms"] = statistics.median(point_ms)
    layer["runner.point_p99_ms"] = point_ms[
        min(len(point_ms) - 1, int(0.99 * len(point_ms)))]
    layer["runner.overhead_s"] = cold_s - sum(table.samples["runner.point"])
    layer["trace.attributed_share"] = (table.attributed_s()
                                       / child.traceable_s)
    child.spans = table.as_payload()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*SIM_WORKLOADS, CAMPAIGN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "small"),
                        default="full")
    parser.add_argument("--mode", choices=("timed", "traced", "setup"),
                        default="timed")
    parser.add_argument("--pause", action="store_true",
                        help="after set-up and after the run, print "
                             f"{PAUSE_LINE} and wait for a line on stdin")
    args = parser.parse_args(argv)
    child = Child(args.workload, args.seed, args.size, args.mode)
    params = SIZES[args.workload][args.size]
    pause = _pause if args.pause else _no_pause
    if args.workload == CAMPAIGN:
        # Campaign artifacts (cache, journal, dispatch queue) stay
        # inside the checkout and are removed on the way out.
        scratch = ROOT / ".perf-tmp"
        scratch.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="campaign-", dir=scratch))
        try:
            run_campaign(child, params, work, pause)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                scratch.rmdir()
            except OSError:
                pass  # another run's work directory is still there
    else:
        run_sim(child, params, pause)
    payload = vars(child)
    payload["peak_rss_mb"] = _peak_rss_mb()
    print("PERF-RESULT " + json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
