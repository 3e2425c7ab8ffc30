"""Dispatch chaos certification: systematic crash-point exploration.

PR 8's dispatch layer argues that a worker killed at *any* instant
leaves a queue that still converges to the serial document.  That
argument was tested against exactly one hand-picked failure; this
module turns it into an exhaustive machine-checked contract — the same
sweep discipline the paper applies to TDD patterns, pointed at our own
infrastructure.

Three pieces:

- :class:`ChaosPlan` / :class:`ChaosSpec` — a declarative, canonically
  serialisable schedule of filesystem faults, mirroring (and reusing
  the intensity machinery of) :mod:`repro.faults.plan`.  Plans travel
  to worker processes through the ``URLLC5G_CHAOS_PLAN`` environment
  knob (read once into the :mod:`repro.runner.envconfig` snapshot).
- :class:`ChaosFsOps` — a deterministic
  :class:`~repro.runner.fsops.FsOps` that injects EIO/ENOSPC write
  failures, delayed/stale directory listings, and — at the named
  :data:`~repro.runner.fsops.CRASH_POINTS` — kills the worker process
  mid-transition.  Whether a fault fires on a given opportunity is
  drawn from the named ``chaos.dispatch`` registry stream, so the
  same plan and seed replay the same schedule.
- the explorer (:func:`enumerate_schedules`, :func:`run_schedule`,
  :func:`certify_dispatch`) behind ``urllc5g chaosdispatch``: one
  dispatched campaign run per (crash point × worker) and per
  (fault kind × worker) schedule, each required to converge with a
  merged ``results_digest`` bit-identical to the serial reference,
  emitting a ``CHAOS_<campaign>.json`` certification document.

The module never imports :mod:`repro.runner.dispatch` at the top level
(the worker lazily imports *us* when a plan is installed); the
explorer functions import it inside their bodies.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.faults.plan import scale_probability
from repro.runner.fsops import CRASH_POINTS, FsOps
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.devtools.distcheck.manifest import DistManifest
    from repro.runner.campaign import Campaign

__all__ = [
    "ChaosFsOps",
    "ChaosPlan",
    "ChaosSchedule",
    "ChaosSpec",
    "FsFaultKind",
    "ScheduleOutcome",
    "certify_dispatch",
    "enumerate_schedules",
    "run_schedule",
]

#: File (inside a plan's marker directory) recording every fired fault.
FIRES_NAME = "fires.jsonl"


class FsFaultKind(str, Enum):
    """The filesystem fault families :class:`ChaosFsOps` injects.

    Each targets a distinct failure mode of real shared filesystems:
    I/O errors and full disks on writes, NFS attribute-cache lag
    (entries appearing late), and stale readdir caches (entries that
    no longer exist still being listed).
    """

    EIO_WRITE = "eio-write"
    ENOSPC_WRITE = "enospc-write"
    LIST_DELAY = "list-delay"
    LIST_STALE = "list-stale"
    CRASH = "crash"


#: The non-crash kinds the explorer sweeps as standalone schedules.
FS_FAULT_KINDS = (
    FsFaultKind.EIO_WRITE,
    FsFaultKind.ENOSPC_WRITE,
    FsFaultKind.LIST_DELAY,
    FsFaultKind.LIST_STALE,
)

_ERRNO = {FsFaultKind.EIO_WRITE: 5, FsFaultKind.ENOSPC_WRITE: 28}


@dataclass(frozen=True)
class ChaosSpec:
    """One armed fault.

    ``worker`` narrows the spec to one worker id (empty = every worker
    running the plan).  Crash specs name their ``crash_point`` and
    fire deterministically on the ``skip``-th opportunity; the other
    kinds fire per-opportunity with ``probability`` (drawn from the
    ``chaos.dispatch`` stream), at most ``max_fires`` times — finite
    by construction, so every chaos run terminates.
    """

    kind: FsFaultKind
    crash_point: str = ""
    worker: str = ""
    probability: float = 1.0
    skip: int = 0
    max_fires: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", FsFaultKind(self.kind))
        if self.kind is FsFaultKind.CRASH:
            if self.crash_point not in CRASH_POINTS:
                raise ValueError(
                    f"crash spec needs a registered crash point, got "
                    f"{self.crash_point!r} (see "
                    "repro.runner.fsops.CRASH_POINTS)")
        elif self.crash_point:
            raise ValueError(
                f"{self.kind.value} specs take no crash_point "
                f"(got {self.crash_point!r})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be within [0, 1], got "
                f"{self.probability}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")
        if self.max_fires < 1:
            raise ValueError(
                f"max_fires must be >= 1, got {self.max_fires}")

    def scaled(self, intensity: float) -> "ChaosSpec":
        """This spec with its probability scaled by ``intensity``.

        Same clamp rule as :meth:`repro.faults.plan.FaultSpec.scaled`
        — the two fault layers share one intensity semantics.
        """
        return replace(self, probability=scale_probability(
            self.probability, intensity))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping with every field spelled out."""
        return {
            "kind": self.kind.value,
            "crash_point": self.crash_point,
            "worker": self.worker,
            "probability": self.probability,
            "skip": self.skip,
            "max_fires": self.max_fires,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChaosSpec":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"chaos spec must be an object, got {payload!r}")
        known = {"kind", "crash_point", "worker", "probability",
                 "skip", "max_fires"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown chaos-spec fields: {sorted(unknown)}")
        if "kind" not in payload:
            raise ValueError("chaos spec is missing 'kind'")
        return cls(**dict(payload))


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable fault schedule for one dispatched run.

    ``seed`` feeds the ``chaos.dispatch`` stream (same seed, same
    plan ⇒ same injection schedule in a single-threaded replay).
    ``marker_dir``, when set, receives one JSONL record per fired
    fault — written with raw ``os`` calls so the record of a fault
    cannot itself be faulted away.
    """

    seed: int = 0
    specs: tuple[ChaosSpec, ...] = ()
    marker_dir: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative int, got {self.seed!r}")

    def __bool__(self) -> bool:
        return bool(self.specs)

    def scaled(self, intensity: float) -> "ChaosPlan":
        """The plan with every spec scaled (see :meth:`ChaosSpec.scaled`)."""
        return replace(self, specs=tuple(spec.scaled(intensity)
                                         for spec in self.specs))

    def to_json(self) -> str:
        """Canonical (sorted-keys, compact) JSON — env-var portable."""
        return json.dumps(
            {"seed": self.seed, "marker_dir": self.marker_dir,
             "specs": [spec.to_dict() for spec in self.specs]},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        """Parse a plan serialised by :meth:`to_json`."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(
                f"chaos plan JSON must be an object, got {payload!r}")
        unknown = set(payload) - {"seed", "marker_dir", "specs"}
        if unknown:
            raise ValueError(
                f"unknown chaos-plan fields: {sorted(unknown)}")
        specs = payload.get("specs", [])
        if not isinstance(specs, list):
            raise ValueError("chaos plan 'specs' must be a list")
        return cls(seed=payload.get("seed", 0),
                   specs=tuple(ChaosSpec.from_dict(entry)
                               for entry in specs),
                   marker_dir=str(payload.get("marker_dir", "")))


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
class ChaosFsOps(FsOps):
    """Deterministic fault-injecting filesystem seam for one worker.

    Fault decisions are drawn from the named ``chaos.dispatch``
    registry stream under a lock (the heartbeat thread shares the
    seam with the worker loop): a single-threaded replay of the same
    operations with the same plan fires identically, and the
    certification contract — results-digest invariance — never
    depends on the interleaving either way.

    ``kill`` exists for unit tests; the default SIGKILLs the current
    process, the same no-cleanup death a power loss inflicts.
    """

    def __init__(self, plan: ChaosPlan, worker_id: str,
                 kill: Callable[[], None] | None = None):
        self._plan = plan
        self._worker = worker_id
        self._kill = kill if kill is not None else _sigkill_self
        self._rng = RngRegistry(plan.seed).stream("chaos.dispatch")
        self._lock = threading.Lock()
        self._fired = [0] * len(plan.specs)
        self._skipped = [0] * len(plan.specs)
        self._stale: dict[str, list[str]] = {}

    # -- plan bookkeeping ----------------------------------------------
    def _armed(self, *kinds: FsFaultKind
               ) -> list[tuple[int, ChaosSpec]]:
        return [(index, spec)
                for index, spec in enumerate(self._plan.specs)
                if spec.kind in kinds
                and spec.worker in ("", self._worker)]

    def _record_fire(self, spec: ChaosSpec, detail: str) -> None:
        if not self._plan.marker_dir:
            return
        record = {"kind": spec.kind.value,
                  "crash_point": spec.crash_point,
                  "worker": self._worker, "detail": detail}
        # Raw os-level append: the record of a fault must not itself
        # be injectable.
        try:
            with open(Path(self._plan.marker_dir) / FIRES_NAME, "a",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
        except OSError:
            pass

    def _maybe_fail_write(self, path: str | Path) -> None:
        for index, spec in self._armed(FsFaultKind.EIO_WRITE,
                                       FsFaultKind.ENOSPC_WRITE):
            with self._lock:
                if self._fired[index] >= spec.max_fires:
                    continue
                if float(self._rng.random()) >= spec.probability:
                    continue
                self._fired[index] += 1
            self._record_fire(spec, str(path))
            raise OSError(_ERRNO[spec.kind],
                          f"chaos {spec.kind.value}", str(path))

    # -- faulted operations --------------------------------------------
    def crash_point(self, name: str) -> None:
        super().crash_point(name)  # validates the name
        for index, spec in self._armed(FsFaultKind.CRASH):
            if spec.crash_point != name:
                continue
            with self._lock:
                if self._fired[index] >= spec.max_fires:
                    continue
                if self._skipped[index] < spec.skip:
                    self._skipped[index] += 1
                    continue
                self._fired[index] += 1
            self._record_fire(spec, name)
            self._kill()

    def write_text(self, path: str | Path, text: str) -> None:
        self._maybe_fail_write(path)
        super().write_text(path, text)

    def append_text(self, path: str | Path, text: str) -> None:
        self._maybe_fail_write(path)
        super().append_text(path, text)

    def listdir(self, directory: str | Path) -> list[str]:
        names = super().listdir(directory)
        key = str(directory)
        previous = self._stale.get(key, [])
        self._stale[key] = list(names)
        for index, spec in self._armed(FsFaultKind.LIST_DELAY):
            if not names:
                continue
            with self._lock:
                if self._fired[index] >= spec.max_fires:
                    continue
                if float(self._rng.random()) >= spec.probability:
                    continue
                self._fired[index] += 1
            # Attribute-cache lag: the newest half of the directory
            # has not "appeared" yet on this NFS client.
            self._record_fire(spec, key)
            names = names[:max(1, len(names) // 2)] \
                if len(names) > 1 else []
        for index, spec in self._armed(FsFaultKind.LIST_STALE):
            if not previous:
                continue
            with self._lock:
                if self._fired[index] >= spec.max_fires:
                    continue
                if float(self._rng.random()) >= spec.probability:
                    continue
                self._fired[index] += 1
            # Stale readdir cache: entries renamed away since the
            # last scan are still listed (duplicates collapse).
            self._record_fire(spec, key)
            names = sorted(set(names) | set(previous))
        return names


def _sigkill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSchedule:
    """One enumerated injection: the unit the certifier sweeps."""

    label: str
    crash_point: str  # "" for pure fault-kind schedules
    kind: str
    worker: str  # the worker the primary fault targets
    specs: tuple[ChaosSpec, ...]


@dataclass(frozen=True)
class ScheduleOutcome:
    """What one schedule's dispatched run did."""

    schedule: ChaosSchedule
    converged: bool
    identical: bool
    results_digest: str | None
    fired: int
    error: str | None
    stats: dict[str, Any] | None

    def as_payload(self) -> dict[str, Any]:
        return {
            "label": self.schedule.label,
            "crash_point": self.schedule.crash_point,
            "kind": self.schedule.kind,
            "worker": self.schedule.worker,
            "converged": self.converged,
            "identical": self.identical,
            "results_digest": self.results_digest,
            "fired": self.fired,
            "error": self.error,
            "stats": self.stats,
        }


def enumerate_schedules(worker_ids: Sequence[str], *,
                        exhaustive: bool = False
                        ) -> list[ChaosSchedule]:
    """Every (crash point × worker) and (fault kind × worker) schedule.

    Non-reclaim crash points are armed on *every* worker (``worker=""``)
    — each worker process dies at its own first passage, which makes
    the injection independent of claim races: the queue can only drain
    through the crash point, so it always fires, and the coordinator's
    takeover of the queue (in-process, or through a stand-in worker
    for points that lost one) is exercised on every such schedule too.

    ``reclaim.*`` windows only open inside a *surviving* worker, so
    those schedules are asymmetric composites: the first worker dies
    at ``claim.post-rename`` to orphan a lease, and the *peer* — the
    worker that will observe the death and reclaim — is armed to die
    at the reclaim transition itself.  The default sweep arms the
    first worker as the orphaner (bounded — what CI runs on every
    merge); ``exhaustive`` rotates the role over every worker (the
    nightly sweep), which also multiplies the per-worker fault-kind
    schedules.
    """
    if len(worker_ids) < 2:
        raise ValueError(
            "chaos schedules need at least 2 workers (the reclaim "
            f"windows need a surviving peer), got {list(worker_ids)}")
    targets = list(worker_ids) if exhaustive else [worker_ids[0]]
    schedules: list[ChaosSchedule] = []
    for point in CRASH_POINTS:
        if point.startswith("reclaim."):
            for target in targets:
                peer = next(w for w in worker_ids if w != target)
                specs = (
                    ChaosSpec(kind=FsFaultKind.CRASH,
                              crash_point="claim.post-rename",
                              worker=target),
                    ChaosSpec(kind=FsFaultKind.CRASH,
                              crash_point=point, worker=peer),
                )
                schedules.append(ChaosSchedule(
                    label=f"crash:{point}@{peer}", crash_point=point,
                    kind=FsFaultKind.CRASH.value, worker=peer,
                    specs=specs))
        else:
            schedules.append(ChaosSchedule(
                label=f"crash:{point}@any", crash_point=point,
                kind=FsFaultKind.CRASH.value, worker="",
                specs=(ChaosSpec(kind=FsFaultKind.CRASH,
                                 crash_point=point),)))
    for kind in FS_FAULT_KINDS:
        for target in targets:
            # Listing faults fire on every opportunity (stale listings
            # need a cached previous scan, so opportunities can be
            # scarce in small campaigns); write faults stay
            # probabilistic so the worker's retry paths — not just its
            # first attempts — get exercised.
            probability = (1.0 if kind in (FsFaultKind.LIST_DELAY,
                                           FsFaultKind.LIST_STALE)
                           else 0.5)
            schedules.append(ChaosSchedule(
                label=f"fault:{kind.value}@{target}", crash_point="",
                kind=kind.value, worker=target,
                specs=(ChaosSpec(kind=kind, worker=target,
                                 probability=probability,
                                 max_fires=4),)))
    return schedules


def _count_fires(marker_dir: Path) -> int:
    try:
        text = (marker_dir / FIRES_NAME).read_text(encoding="utf-8")
    except OSError:
        return 0
    return sum(1 for line in text.splitlines() if line.strip())


#: Retry budget and liveness budgets of a chaos run: workers strike
#: out faster than the coordinator (see :func:`run_schedule`).
_MAX_RETRIES = 2
_WORKER_STRIKES = 4
_COORDINATOR_STRIKES = 12
_STALL_POLLS = 600


def run_schedule(schedule: ChaosSchedule, campaign: "Campaign",
                 manifest: "DistManifest", *,
                 queue_dir: str | Path, marker_dir: str | Path,
                 workers: int = 2, seed: int | None = None
                 ) -> ScheduleOutcome:
    """Run one dispatched campaign under one injection schedule.

    The plan reaches worker processes through ``URLLC5G_CHAOS_PLAN``
    in their (and only their) environment; the coordinator process
    itself always runs the passthrough seam.  Workers poll with a
    tighter strike budget than the coordinator so a surviving peer —
    not the coordinator — wins the reclaim race and the ``reclaim.*``
    windows actually get exercised.  For the same reason, the peer of
    a reclaim composite starts with a head start *against* it: its
    process sleeps briefly before attaching, so the orphaning target
    reliably claims a job first.  A listing-fault schedule turns that
    around: the targeted worker gets the head start over its peers, so
    it lists the queue while jobs are still left in it — a stale
    listing needs a previous non-empty one — instead of finding a
    queue the peers already drained.  All of it is pure scheduling
    bias — results are digest-checked against serial regardless.
    """
    from repro.runner import envconfig
    from repro.runner.dispatch import DispatchCoordinator

    marker = Path(marker_dir)
    marker.mkdir(parents=True, exist_ok=True)
    fires = marker / FIRES_NAME
    if fires.exists():
        fires.unlink()
    plan = ChaosPlan(
        seed=campaign.seed if seed is None else seed,
        specs=schedule.specs, marker_dir=str(marker))
    composite = len(schedule.specs) > 1
    listing_fault = schedule.kind in (FsFaultKind.LIST_DELAY.value,
                                      FsFaultKind.LIST_STALE.value)

    def delayed(worker_id: str) -> bool:
        if composite:
            return worker_id == schedule.worker
        return listing_fault and worker_id != schedule.worker

    def spawn(worker_id: str) -> list[str]:
        argv = ["bench", "--worker", str(queue_dir),
                "--worker-id", worker_id,
                "--retries", str(_MAX_RETRIES),
                "--strikes", str(_WORKER_STRIKES)]
        if delayed(worker_id):
            return [sys.executable, "-c",
                    "import sys, time; time.sleep(0.8); "
                    "from repro.cli import main; "
                    "sys.exit(main(sys.argv[1:]))"] + argv
        return [sys.executable, "-m", "repro.cli"] + argv

    coordinator = DispatchCoordinator(
        workers=workers, queue_dir=queue_dir, manifest=manifest,
        cache=None, max_retries=_MAX_RETRIES,
        strikes=_COORDINATOR_STRIKES, stall_polls=_STALL_POLLS,
        spawn_command=spawn,
        worker_env={envconfig.CHAOS_PLAN: plan.to_json()})
    error = None
    digest = None
    stats = None
    try:
        result = coordinator.run(campaign)
        digest = result.results_digest()
        stats = (result.dispatch.as_payload()
                 if result.dispatch is not None else None)
    except Exception as exc:
        # Certification reports failures; it never dies on one.
        error = f"{type(exc).__name__}: {exc}"
    return ScheduleOutcome(
        schedule=schedule, converged=error is None,
        identical=False,  # settled by the caller against serial
        results_digest=digest, fired=_count_fires(marker),
        error=error, stats=stats)


def certify_dispatch(campaign: "Campaign", manifest: "DistManifest", *,
                     work_dir: str | Path, workers: int = 2,
                     exhaustive: bool = False, seed: int | None = None,
                     log: Callable[[str], None] | None = None
                     ) -> dict[str, Any]:
    """Sweep every schedule and emit the certification document.

    Runs the campaign serially once (the reference digest), then once
    per schedule under dispatch with the injection armed; a schedule
    passes when the queue converges *and* its merged
    ``results_digest`` equals the serial reference bit for bit.  The
    returned payload is the ``CHAOS_<campaign>.json`` document.
    """
    from repro.runner.cache import source_fingerprint
    from repro.runner.executor import CampaignRunner

    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    serial_digest = CampaignRunner(workers=1).run(
        campaign).results_digest()
    if log is not None:
        log(f"serial reference digest {serial_digest[:12]}...")

    worker_ids = [f"w{k + 1}" for k in range(workers)]
    schedules = enumerate_schedules(worker_ids, exhaustive=exhaustive)
    outcomes: list[ScheduleOutcome] = []
    for index, schedule in enumerate(schedules):
        outcome = run_schedule(
            schedule, campaign, manifest,
            queue_dir=work / "queue",
            marker_dir=work / "markers" / f"{index:03d}",
            workers=workers, seed=seed)
        outcome = replace(
            outcome,
            identical=outcome.results_digest == serial_digest)
        outcomes.append(outcome)
        if log is not None:
            status = ("ok" if outcome.converged and outcome.identical
                      else f"FAIL ({outcome.error or 'digest differs'})")
            log(f"[{index + 1}/{len(schedules)}] "
                f"{schedule.label}: {status}, "
                f"{outcome.fired} fault(s) fired")

    def _verdict(selected: list[ScheduleOutcome]) -> str:
        return ("certified"
                if selected and all(o.converged and o.identical
                                    for o in selected)
                else "failed")

    crash_verdicts = {
        point: _verdict([o for o in outcomes
                         if o.schedule.crash_point == point])
        for point in CRASH_POINTS}
    fault_verdicts = {
        kind.value: _verdict([o for o in outcomes
                              if o.schedule.kind == kind.value])
        for kind in FS_FAULT_KINDS}
    return {
        "campaign": campaign.name,
        "seed": campaign.seed,
        "fingerprint": source_fingerprint(),
        "workers": workers,
        "exhaustive": exhaustive,
        "serial_results_digest": serial_digest,
        "schedules": [outcome.as_payload() for outcome in outcomes],
        "crash_points": crash_verdicts,
        "fault_kinds": fault_verdicts,
        "certified": all(
            verdict == "certified"
            for verdict in list(crash_verdicts.values())
            + list(fault_verdicts.values())),
    }
