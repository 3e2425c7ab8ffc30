"""Names, units, directions and bounds of every perf-ledger metric.

Shared by the parent (``run.py``) and the child (``workloads.py``);
imports nothing from the program under test.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

__all__ = [
    "CAMPAIGN", "DEFAULT_SEED", "END_TO_END", "END_TO_END_BY_NAME",
    "EndToEnd", "PAUSE_LINE", "SIM_WORKLOADS", "UNIFORM_END_TO_END",
    "UNIFORM_LAYER", "WORKLOADS", "is_exact", "layer_metrics", "quartiles",
    "trimmed_mean", "unit_of",
]

WORKLOADS = ("testbed", "cell-1k-scalar", "cell-10k-slotted",
             "cell-10k-lossy", "campaign-sweep")
SIM_WORKLOADS = WORKLOADS[:4]
CAMPAIGN = "campaign-sweep"

#: The seed ``reference.json`` was recorded with.
DEFAULT_SEED = 1

#: A child started with ``--pause`` prints this line after its set-up
#: and after its run, then waits for a line on stdin while the parent
#: times its calibration job.
PAUSE_LINE = "PERF-PAUSE"


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric of the ledger."""

    name: str
    unit: str
    better: str            #: "lower" or "higher"
    bound: float           #: allowed relative worsening of the median
    workloads: tuple[str, ...] = WORKLOADS
    floor: float = 0.0     #: absolute worsening always allowed
    absolute: bool = False  #: bound is absolute, not relative


#: Host speed on the 2-vCPU reference machine swings by 10-45 % within
#: seconds to minutes.  Times in reference seconds still spread by up
#: to 14 % of their median over ten runs (README.md, "Noise"); 0.25 is
#: the widest bound BENCHMARK.json allows.
_HOST_NOISE = 0.25

END_TO_END = (
    EndToEnd("wall_s", "s", "lower", _HOST_NOISE),
    EndToEnd("setup_s", "s", "lower", _HOST_NOISE, floor=0.05),
    EndToEnd("run_s", "s", "lower", _HOST_NOISE),
    EndToEnd("packets_per_s", "1/s", "higher", _HOST_NOISE,
             SIM_WORKLOADS),
    EndToEnd("points_per_s", "1/s", "higher", _HOST_NOISE, (CAMPAIGN,)),
    EndToEnd("warm_points_per_s", "1/s", "higher", _HOST_NOISE,
             (CAMPAIGN,)),
    EndToEnd("dispatch_points_per_s", "1/s", "higher", _HOST_NOISE,
             (CAMPAIGN,)),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
    EndToEnd("failed_share", "ratio", "lower", 0.0, absolute=True),
)
END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}

#: End-to-end metrics every workload reports and that are never zero:
#: the ones ``BENCHMARK.json`` lists.
UNIFORM_END_TO_END = tuple(metric.name for metric in END_TO_END
                           if metric.workloads == WORKLOADS
                           and not metric.absolute)

_STREAMS = ("ue", "gnb", "link", "upf", "arrivals", "fault")

#: Per-layer metrics of the four simulation workloads (layer = module
#: under ``repro.``).  Counts are exact; times come from the traced run
#: except the set-up parts, which every child times from outside.
SIM_LAYER = (
    "sim.engine.events", "sim.engine.schedule_calls",
    "sim.engine.events_per_packet", "sim.engine.loop_self_s",
    "stack.layers.ue.self_s", "stack.layers.ue.calls",
    "stack.layers.gnb.self_s", "stack.layers.gnb.calls",
    "net.ue.self_s", "net.ue.calls", "net.gnb.self_s", "net.gnb.calls",
    "net.session.self_s", "net.session.calls", "net.session.build_s",
    "net.core_network.self_s", "net.core_network.calls",
    "mac.harq.self_s", "mac.harq.calls",
    "mac.scheduler.self_s", "mac.scheduler.calls",
    "mac.scheduler.grants_issued", "mac.scheduler.srs_received",
    "mac.scheduler.cg_waste",
    "net.link.self_s", "net.link.calls", "net.link.blocks_sent",
    "net.link.blocks_failed", "net.link.packets_dropped",
    "net.link.block_success_ratio",
    "faults.harq_nacks", "faults.harq_dtx", "faults.rlc_losses",
    "faults.dilated_jobs", "faults.upf_holds",
    "radio.self_s", "radio.calls",
    *(f"sim.rng.draw_calls.{stream}" for stream in _STREAMS),
    "sim.rng.draw_calls_per_packet",
    "sim.slotted.queue_s", "sim.slotted.run_s",
    "sim.slotted.scheduler_calls", "sim.slotted.link_fate_calls",
    "traffic.arrivals_s",
)

#: Per-layer metrics of ``campaign-sweep``.
RUNNER_LAYER = (
    "runner.fingerprint_s", "runner.cache_load_s",
    "runner.cache_lookup_s", "runner.cache_save_s",
    "runner.journal_record_s", "runner.journal_records",
    "runner.point_p50_ms", "runner.point_p99_ms", "runner.overhead_s",
    "runner.warm_hit_rate",
    "runner.dispatch.steals", "runner.dispatch.reclaims",
    "runner.dispatch.lease_expirations", "runner.dispatch.inline_points",
)

TRACE_LAYER = ("trace.overhead_ratio", "trace.attributed_share")

#: Counters that depend on how the OS schedules the dispatch workers;
#: every other count repeats exactly for a given seed and size.
SCHEDULING_DEPENDENT = ("runner.dispatch.",)


def layer_metrics(workload: str) -> tuple[str, ...]:
    """The per-layer metric names the ledger reports for a workload."""
    own = RUNNER_LAYER if workload == CAMPAIGN else SIM_LAYER
    return own + TRACE_LAYER


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_packet"):
        return "1/packet"
    if name.endswith(("_ratio", "_share", "_rate", "cg_waste")):
        return "ratio"
    return "count"


def is_exact(name: str) -> bool:
    """Whether a per-layer metric must repeat exactly run to run."""
    return unit_of(name) == "count" and not name.startswith(
        SCHEDULING_DEPENDENT)


#: The per-layer metrics every workload reports (zero where it bypasses
#: the layer), in the order ``BENCHMARK.json`` lists them.
UNIFORM_LAYER = tuple(
    name for name in SIM_LAYER + RUNNER_LAYER
    if unit_of(name) == "count") + TRACE_LAYER


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def trimmed_mean(values: list[float]) -> float:
    """The mean without the lowest and the highest value, once there
    are five or more.

    When the host switches speed, the times of a window's 4-10
    children fall into two clusters, and their median jumps between
    them from window to window; this mean moves smoothly and still
    ignores one outlier on each side.
    """
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)
