"""Campaign execution subsystem: parallel, cached scenario sweeps.

The paper's artifacts are thousands of independent simulation
replications; this package turns such sweeps into declarative
:class:`Campaign` grids of :class:`ScenarioPoint`s and executes them
through one front end, :class:`CampaignRunner`: serially in-process,
or across worker processes coordinating through the dispatch queue
(:class:`DispatchCoordinator`) with bit-identical-to-serial results.
Already-computed points are skipped through a content-hash
:class:`ResultCache` keyed on point identity plus a source
fingerprint.  ``urllc5g bench`` and the benchmark harness drive it;
see ``docs/CAMPAIGNS.md``.
"""

from repro.runner import envconfig
from repro.runner.bench import (
    CAMPAIGNS,
    CheckOutcome,
    bench_payload,
    build_campaign,
    check_against_baseline,
    load_baseline,
    render_baseline,
    write_bench_json,
)
from repro.runner.cache import (
    ResultCache,
    atomic_write_text,
    source_fingerprint,
)
from repro.runner.chaos import (
    ChaosFsOps,
    ChaosPlan,
    ChaosSpec,
    certify_dispatch,
    enumerate_schedules,
)
from repro.runner.dispatch import (
    DispatchCoordinator,
    DispatchRefusedError,
    DispatchStats,
    run_worker,
)
from repro.runner.campaign import (
    Campaign,
    ScenarioPoint,
    canonical_params,
    derive_point_seed,
    grid_params,
)
from repro.runner.executor import (
    CampaignResult,
    CampaignRunner,
    PointResult,
)
from repro.runner.fsops import CRASH_POINTS, DEFAULT_FS, FsOps
from repro.runner.journal import CampaignJournal
from repro.runner.lease import QueueDir
from repro.runner.merge import JournalMergeError, merge_worker_journals
from repro.runner.scenarios import SCENARIOS, run_point, scenario

__all__ = [
    "CAMPAIGNS",
    "CRASH_POINTS",
    "Campaign",
    "CampaignJournal",
    "CampaignResult",
    "CampaignRunner",
    "ChaosFsOps",
    "ChaosPlan",
    "ChaosSpec",
    "CheckOutcome",
    "DEFAULT_FS",
    "DispatchCoordinator",
    "DispatchRefusedError",
    "DispatchStats",
    "FsOps",
    "JournalMergeError",
    "PointResult",
    "QueueDir",
    "ResultCache",
    "SCENARIOS",
    "ScenarioPoint",
    "atomic_write_text",
    "bench_payload",
    "build_campaign",
    "canonical_params",
    "certify_dispatch",
    "check_against_baseline",
    "derive_point_seed",
    "envconfig",
    "enumerate_schedules",
    "grid_params",
    "load_baseline",
    "merge_worker_journals",
    "render_baseline",
    "run_point",
    "run_worker",
    "scenario",
    "source_fingerprint",
    "write_bench_json",
]
