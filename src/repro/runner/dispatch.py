"""Work-stealing distributed dispatch for campaigns.

:class:`DispatchCoordinator` turns a campaign into idempotent jobs —
keyed by the existing point digest — in a shared *queue directory*
(:mod:`repro.runner.lease`), spawns N independent worker processes, and
merges their journals (:mod:`repro.runner.merge`) into a document that
is bit-identical to a serial run.  Workers coordinate only through the
queue directory, so additional workers can attach from any host that
shares the filesystem: ``urllc5g bench --worker <queue-dir>``.

The safety argument, end to end:

- **Gate.**  Only scenarios certified distributable by ``urllc5g
  distcheck`` — status ``certified`` or ``baselined-findings`` in
  ``distcheck-manifest.json`` — may be enqueued.  A campaign touching
  any other scenario (absent counts as refused) raises
  :class:`DispatchRefusedError` before a single job file is written.
- **Idempotence.**  Every point payload is a pure function of
  ``(scenario, params, seed)`` plus the source tree, so executing a
  job twice — the worst a falsely reclaimed lease can do — produces
  bit-identical payloads, which the merge layer deduplicates.
- **Crash windows.**  A worker journals a payload *before* publishing
  the done marker and releases its lease only after.  Whatever instant
  a worker dies, either its lease is reclaimed and the point re-run, or
  the done marker exists and the journal entry is already on disk.
- **Convergence.**  If every local worker dies (or the queue stalls),
  the coordinator itself drains the remaining jobs inline, so a
  dispatched run always terminates with the full document.
- **Single-writer caches.**  Workers never write the shared
  :class:`~repro.runner.cache.ResultCache`; the coordinator consults it
  before enqueueing and stores merged payloads at collect time, so the
  whole-file atomic rewrite can never lose concurrent entries.

The wall clock is read only for the campaign-level ``wall_clock_s``
span (``time.perf_counter`` is excused for this file in
``[tool.urllc5g.lint.per-path]``); the queue protocol itself is
entirely stamp-based and clock-free.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.devtools.distcheck.manifest import DistManifest
from repro.runner import envconfig
from repro.runner.cache import ResultCache, source_fingerprint
from repro.runner.campaign import Campaign, ScenarioPoint
from repro.runner.executor import CampaignResult, PointResult
from repro.runner.fsops import FsOps
from repro.runner.journal import CampaignJournal
from repro.runner.lease import (
    QUEUE_MANIFEST_NAME,
    EventLog,
    HeartbeatWriter,
    Job,
    LivenessTracker,
    QueueDir,
    read_queue_manifest,
    write_queue_manifest,
)
from repro.runner.merge import (
    MergedEntry,
    merge_worker_journals,
    write_merged_journal,
)
from repro.runner.scenarios import run_point
from repro.sim.rng import RngRegistry

__all__ = [
    "DispatchCoordinator",
    "DispatchRefusedError",
    "DispatchStats",
    "MERGED_JOURNAL_NAME",
    "run_worker",
]

#: The coordinator's actor id in event logs, inline journals and claims.
_COORDINATOR = "coordinator"

#: Filename of the serial-equivalent merged journal inside the queue.
MERGED_JOURNAL_NAME = "merged-journal.jsonl"


class _Backoff:
    """Bounded exponential backoff with deterministic per-actor jitter.

    Replaces the fixed-interval claim/attach polls: each consecutive
    empty poll doubles the delay up to ``cap_factor`` base intervals,
    scaled by a jitter factor in ``[0.5, 1.5)`` drawn from the named
    ``dispatch.backoff`` stream of a registry forked per actor id — so
    a fleet of workers spun up together never polls in lockstep, yet
    every worker's delay sequence is a pure function of its id.

    :meth:`sleep` returns the *poll units* consumed (delay divided by
    the base interval).  Callers budget liveness strikes and stall
    detection in accumulated units, exactly as they previously counted
    fixed polls — the protocol stays wall-clock-free even though the
    sleeps themselves stretch.
    """

    def __init__(self, base_s: float, actor: str, cap_factor: int = 16):
        self.base_s = base_s
        self.cap_factor = cap_factor
        self._rng = RngRegistry(0).fork(
            f"backoff:{actor}").stream("dispatch.backoff")
        self._attempt = 0

    def reset(self) -> None:
        """Work was found: drop back to the base interval."""
        self._attempt = 0

    def sleep(self) -> float:
        """Sleep the current delay; returns poll units consumed."""
        factor = min(float(self.cap_factor), float(2 ** self._attempt))
        if self._attempt < 30:  # avoid pointless huge exponents
            self._attempt += 1
        units = factor * (0.5 + float(self._rng.random()))
        if self.base_s > 0:
            time.sleep(self.base_s * units)
        return units


class DispatchRefusedError(RuntimeError):
    """The distcheck manifest refuses to distribute this campaign."""

    def __init__(self, reasons: Sequence[str]):
        self.reasons = tuple(reasons)
        super().__init__(
            "dispatch refused by the distcheck manifest:\n  - "
            + "\n  - ".join(self.reasons))


@dataclass(frozen=True)
class DispatchStats:
    """Scheduling provenance of one dispatched run.

    Everything here describes *how* points were executed, never *what*
    they computed — scheduling may differ between two equal runs (which
    workers stole what, how many leases expired), so none of it feeds
    :meth:`~repro.runner.executor.CampaignResult.results_digest`.
    """

    #: Local worker processes the coordinator spawned.
    workers: int
    #: Jobs enqueued (campaign points minus warm cache hits).
    jobs: int
    #: Done markers published by a worker other than the job's home.
    steals: int
    #: Leases whose owner was declared dead by the liveness tracker.
    lease_expirations: int
    #: Expired leases successfully returned to the job queue.
    reclaims: int
    #: Points journaled by more than one worker (benign duplicate
    #: executions after a false reclaim; payloads verified identical).
    duplicate_points: int
    #: Worker journals rejected whole at merge (foreign fingerprint,
    #: wrong campaign/seed/format).
    journals_rejected: int
    #: Points the coordinator executed itself after every local worker
    #: died or the queue stalled.
    inline_points: int
    #: Points recomputed at collect because no merged payload survived
    #: (e.g. their journal was rejected).
    recovered_points: int
    #: Corrupt job/lease files sidelined to ``*.corrupt-<digest>``.
    quarantined_files: int
    #: Heartbeat stamps workers failed to write (ENOSPC/EIO).
    heartbeat_drops: int
    #: Event-log records workers failed to append (ENOSPC/EIO).
    event_drops: int
    #: Journal appends that failed (the point still published a done
    #: marker; its payload is recovered at collect).
    journal_drops: int
    #: Done markers per worker id.
    per_worker_points: dict[str, int]

    def as_payload(self) -> dict[str, Any]:
        """JSON-ready form for the bench document."""
        return {
            "workers": self.workers,
            "jobs": self.jobs,
            "steals": self.steals,
            "lease_expirations": self.lease_expirations,
            "reclaims": self.reclaims,
            "duplicate_points": self.duplicate_points,
            "journals_rejected": self.journals_rejected,
            "inline_points": self.inline_points,
            "recovered_points": self.recovered_points,
            "quarantined_files": self.quarantined_files,
            "heartbeat_drops": self.heartbeat_drops,
            "event_drops": self.event_drops,
            "journal_drops": self.journal_drops,
            "per_worker_points": dict(
                sorted(self.per_worker_points.items())),
        }

    def degraded(self) -> dict[str, int]:
        """The nonzero degradation counters (empty on a clean run)."""
        counters = {
            "quarantined_files": self.quarantined_files,
            "heartbeat_drops": self.heartbeat_drops,
            "event_drops": self.event_drops,
            "journal_drops": self.journal_drops,
        }
        return {key: value for key, value in counters.items() if value}


def _execute_job(point: ScenarioPoint, max_retries: int
                 ) -> tuple[dict[str, Any] | None, int, str | None]:
    """Run one point with the standard bounded-retry budget."""
    error = None
    for attempt in range(1, max_retries + 2):
        try:
            return run_point(point), attempt, None
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return None, max_retries + 1, error


def _publish(queue: QueueDir, events: EventLog, job: Job,
             worker_id: str, *, attempts: int,
             error: str | None, stolen: bool) -> None:
    """Publish the done marker, then drop the lease — fault-tolerantly.

    A marker write that fails (ENOSPC/EIO) is retried a bounded number
    of times; if it *keeps* failing the worker requeues its own lease
    so the point is re-offered to the fleet rather than held hostage
    by a host that can no longer write.  If even the requeue rename
    fails, the lease stays put — a worker that cannot write also stops
    heartbeating, so the orphan is reclaimed by a peer.
    """
    for _ in range(3):
        try:
            queue.mark_done(job.digest, worker_id, attempts=attempts,
                            error=error, stolen=stolen)
            queue.release(job.digest, worker_id)
            return
        except OSError:
            continue
    try:
        queue.requeue(job.digest, worker_id, job.home)
        events.emit("requeue", digest=job.digest)
    except OSError:
        events.emit("publish-stuck", digest=job.digest)


def _process_job(queue: QueueDir, journal: CampaignJournal,
                 events: EventLog, job: Job, worker_id: str,
                 max_retries: int) -> None:
    """Execute a claimed job through the crash-safe publish sequence.

    Order matters: the journal entry is flushed *before* the done
    marker is published, and the lease is dropped only after — so a
    done marker always implies a durable payload, and a crash at any
    point leaves the job either reclaimable or fully published.  A
    journal append that fails (ENOSPC/EIO) is dropped and counted:
    the marker still goes out, and the coordinator recomputes the
    point at collect from the campaign's own point list.
    """
    stolen = job.home != worker_id
    if stolen:
        events.emit("steal", digest=job.digest, home=job.home)
    try:
        point = job.point()
    except ValueError as exc:
        _publish(queue, events, job, worker_id, attempts=1,
                 error=str(exc), stolen=stolen)
        return
    result, attempts, error = _execute_job(point, max_retries)
    if result is not None:
        try:
            journal.record(job.digest, result, attempts)
        except OSError:
            events.emit("journal-drop", digest=job.digest)
    _publish(queue, events, job, worker_id, attempts=attempts,
             error=error, stolen=stolen)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def run_worker(queue_dir: str | Path, worker_id: str, *,
               max_retries: int = 2, poll_interval_s: float = 0.05,
               strikes: int = 8, heartbeat_interval_s: float = 0.05,
               fingerprint: str | None = None,
               attach_polls: int = 200,
               fs: FsOps | None = None) -> int:
    """Attach one worker to a queue directory; returns an exit code.

    The worker claims own-shard jobs first, steals other shards when
    idle, reclaims orphaned leases of dead peers, and exits 0 once
    every enqueued digest has a done marker.  Exit 2 means the worker
    refused to participate: missing/invalid queue manifest, or a
    source fingerprint differing from the coordinator's (mixed code
    versions would silently poison the document — merge-time journal
    rejection is the backstop, this is the front door).

    ``fs`` is the filesystem seam for every queue operation.  When it
    is None and the environment snapshot carries a chaos plan
    (``URLLC5G_CHAOS_PLAN``, set by ``urllc5g chaosdispatch`` in the
    worker's environment only), the worker runs under a fault-
    injecting :class:`~repro.runner.chaos.ChaosFsOps`; otherwise the
    zero-overhead passthrough.
    """
    # One consistent URLLC5G_* reading for this worker's whole run.
    config = envconfig.refresh()
    if fs is None and config.chaos_plan:
        from repro.runner.chaos import ChaosFsOps, ChaosPlan
        fs = ChaosFsOps(ChaosPlan.from_json(config.chaos_plan),
                        worker_id)
    queue = QueueDir(queue_dir, fs=fs)
    backoff = _Backoff(poll_interval_s, worker_id)
    manifest: dict[str, Any] | None = None
    budget = float(max(1, attach_polls))
    waited = 0.0
    while waited < budget:
        try:
            manifest = read_queue_manifest(queue)
            break
        except ValueError:
            waited += backoff.sleep()
    if manifest is None:
        print(f"worker {worker_id}: no readable queue manifest in "
              f"{queue.root}; not a dispatch queue directory (or the "
              "coordinator never started)", file=sys.stderr)
        return 2
    local = fingerprint if fingerprint is not None \
        else source_fingerprint()
    if local != manifest["fingerprint"]:
        print(f"worker {worker_id}: source fingerprint {local[:12]}... "
              f"does not match the queue manifest's "
              f"{str(manifest['fingerprint'])[:12]}... — this host is "
              "running different code than the coordinator; refusing "
              "to compute points", file=sys.stderr)
        return 2
    expected = set(manifest.get("enqueued") or manifest["digests"])
    events = EventLog(queue, worker_id)
    journal = CampaignJournal(queue.journals / f"{worker_id}.jsonl",
                              fs=queue.fs)
    journal.start_raw(name=str(manifest["campaign"]),
                      seed=int(manifest["seed"]),
                      fingerprint=str(manifest["fingerprint"]),
                      points=int(manifest["points"]),
                      digests=set(manifest["digests"]))
    tracker = LivenessTracker(queue, strikes=strikes)
    completed = 0
    try:
        with HeartbeatWriter(queue, worker_id,
                             interval_s=heartbeat_interval_s) as heart:
            events.emit("start")
            backoff.reset()
            while True:
                job = queue.claim(worker_id, events)
                if job is not None:
                    _process_job(queue, journal, events, job,
                                 worker_id, max_retries)
                    completed += 1
                    backoff.reset()
                    continue
                if expected <= queue.done_markers().keys():
                    break
                tracker.reclaim_dead(tracker.observe(), events)
                backoff.sleep()
            events.emit("exit", points=completed,
                        heartbeat_drops=heart.dropped,
                        event_drops=events.dropped)
    finally:
        journal.close()
    return 0


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
class DispatchCoordinator:
    """Runs one campaign across N workers through a queue directory.

    Drop-in producer of the same :class:`CampaignResult` a
    :class:`~repro.runner.executor.CampaignRunner` returns — plus a
    :class:`DispatchStats` block — so ``bench_payload`` and baseline
    checking work unchanged on dispatched runs.

    ``spawn_command`` (worker id -> argv) exists for tests; the default
    spawns ``python -m repro.cli bench --worker <queue> ...`` with the
    package's source root prepended to ``PYTHONPATH``.
    """

    def __init__(self, workers: int, queue_dir: str | Path,
                 manifest: DistManifest, *,
                 cache: ResultCache | None = None,
                 fingerprint: str | None = None,
                 max_retries: int = 2,
                 poll_interval_s: float = 0.05,
                 strikes: int = 8,
                 stall_polls: int = 6000,
                 spawn_command: Callable[[str], list[str]] | None = None,
                 worker_env: Mapping[str, str] | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}")
        if strikes < 1:
            raise ValueError(f"strikes must be >= 1, got {strikes}")
        self.workers = workers
        self.queue = QueueDir(queue_dir)
        self.manifest = manifest
        self.cache = cache
        self.max_retries = max_retries
        self.poll_interval_s = poll_interval_s
        self.strikes = strikes
        self.stall_polls = stall_polls
        self.spawn_command = spawn_command
        #: Extra environment for spawned workers only (the chaos
        #: explorer plants URLLC5G_CHAOS_PLAN here, so the coordinator
        #: process itself always runs the passthrough seam).
        self.worker_env = dict(worker_env or {})
        self._fingerprint = fingerprint

    @property
    def fingerprint(self) -> str:
        """The source fingerprint jobs and cache entries are keyed on."""
        if self._fingerprint is None:
            self._fingerprint = source_fingerprint()
        return self._fingerprint

    # ------------------------------------------------------------------
    def run(self, campaign: Campaign) -> CampaignResult:
        """Dispatch, wait, merge; bit-identical to a serial run."""
        # Measurement boundary: elapsed-time span only, never results.
        start_s = time.perf_counter()
        refusals = self.manifest.refusals(
            sorted({point.scenario for point in campaign.points}))
        if refusals:
            raise DispatchRefusedError(refusals)
        envconfig.refresh()
        warnings: list[str] = []
        if self.cache is not None:
            warnings.extend(self.cache.warnings)

        self._reset_queue()
        # Each point's digest is computed once and reused throughout.
        digests = [point.digest() for point in campaign.points]
        cached: dict[str, dict[str, Any]] = {}
        pending: dict[str, ScenarioPoint] = {}
        for point, digest in zip(campaign.points, digests):
            if self.cache is not None:
                payload = self.cache.lookup(digest, self.fingerprint)
                if payload is not None:
                    cached[digest] = payload
                    continue
            pending[digest] = point

        worker_ids = [f"w{k + 1}" for k in range(self.workers)]
        write_queue_manifest(self.queue, {
            "campaign": campaign.name,
            "seed": campaign.seed,
            "fingerprint": self.fingerprint,
            "points": len(campaign.points),
            "digests": digests,
            "enqueued": sorted(pending),
            "workers": worker_ids,
        })
        for index, (digest, point) in enumerate(pending.items()):
            self.queue.enqueue(point,
                               home=worker_ids[index % self.workers],
                               digest=digest)
        events = EventLog(self.queue, _COORDINATOR)
        events.emit("enqueue", jobs=len(pending), cached=len(cached))

        procs: list[tuple[subprocess.Popen[bytes], str]] = []
        inline_points = 0
        if pending:
            procs = self._spawn(worker_ids)
            inline_points = self._wait(set(pending), procs, events,
                                       warnings)

        point_results, stats = self._collect(
            campaign, digests, cached, len(pending), inline_points,
            warnings)
        end_s = time.perf_counter()
        return CampaignResult(
            campaign=campaign,
            point_results=tuple(point_results),
            workers=self.workers,
            cache_hits=len(cached),
            cache_misses=len(pending),
            wall_clock_s=end_s - start_s,
            journal_replays=0,
            warnings=tuple(dict.fromkeys(warnings)),
            dispatch=stats,
        )

    # ------------------------------------------------------------------
    def _reset_queue(self) -> None:
        """Wipe-and-recreate the queue directory — with a safety latch.

        A non-empty directory is wiped only if it contains a queue
        manifest (i.e. it really is a previous dispatch queue); a
        random non-empty directory passed by mistake is refused rather
        than deleted.
        """
        root = self.queue.root
        if root.exists():
            if not root.is_dir():
                raise ValueError(
                    f"queue path {root} exists and is not a directory")
            if any(root.iterdir()) \
                    and not (root / QUEUE_MANIFEST_NAME).exists():
                raise ValueError(
                    f"refusing to wipe {root}: non-empty and missing "
                    f"{QUEUE_MANIFEST_NAME} — not a dispatch queue "
                    "directory")
            shutil.rmtree(root)
        # A fresh QueueDir: the old one remembers the wiped queue's
        # listing and done markers.
        self.queue = QueueDir(root, fs=self.queue.fs)
        self.queue.initialise()

    def _default_command(self, worker_id: str) -> list[str]:
        return [sys.executable, "-m", "repro.cli", "bench",
                "--worker", str(self.queue.root),
                "--worker-id", worker_id,
                "--retries", str(self.max_retries)]

    def _spawn(self, worker_ids: list[str]
               ) -> list[tuple[subprocess.Popen[bytes], str]]:
        env = dict(os.environ)
        source_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        parts = [p for p in existing.split(os.pathsep) if p]
        if source_root not in parts:
            env["PYTHONPATH"] = os.pathsep.join([source_root] + parts)
        env.update(self.worker_env)
        procs = []
        for worker_id in worker_ids:
            command = (self.spawn_command(worker_id)
                       if self.spawn_command is not None
                       else self._default_command(worker_id))
            procs.append((subprocess.Popen(command, env=env),
                          worker_id))
        return procs

    def _wait(self, expected: set[str],
              procs: list[tuple[subprocess.Popen[bytes], str]],
              events: EventLog, warnings: list[str]) -> int:
        """Poll until every ``expected`` digest has a done marker.

        Reclaims orphaned leases of dead workers each cycle.  When no
        local worker is left alive — or the queue makes no progress
        for ``stall_polls`` cycles — the coordinator drains the
        remaining jobs inline, guaranteeing termination.  Each poll
        reads only the done markers that are new since the last one.
        """
        tracker = LivenessTracker(self.queue, strikes=self.strikes)
        backoff = _Backoff(self.poll_interval_s, _COORDINATOR)
        inline_journal: CampaignJournal | None = None
        inline_points = 0
        reaped: set[str] = set()
        stall = 0.0
        last_done = -1
        try:
            while True:
                done = set(self.queue.done_markers())
                if expected <= done:
                    break
                for proc, worker_id in procs:
                    if proc.poll() is not None \
                            and worker_id not in reaped:
                        reaped.add(worker_id)
                        if proc.returncode != 0:
                            warnings.append(
                                f"dispatch worker {worker_id} exited "
                                f"with code {proc.returncode}; its "
                                "leases will be reclaimed")
                tracker.reclaim_dead(tracker.observe(), events)
                alive = any(proc.returncode is None
                            for proc, _ in procs)
                if not alive:
                    job = self.queue.claim(_COORDINATOR, events)
                    if job is not None:
                        if inline_journal is None:
                            inline_journal = self._start_inline_journal(
                                expected)
                        _process_job(self.queue, inline_journal,
                                     events, job, _COORDINATOR,
                                     self.max_retries)
                        inline_points += 1
                        backoff.reset()
                        continue
                if len(done) == last_done:
                    stall += 1.0
                else:
                    last_done, stall = len(done), 0.0
                    backoff.reset()
                if stall >= self.stall_polls:
                    if alive:
                        warnings.append(
                            f"dispatch made no progress for "
                            f"{self.stall_polls} polls; killing local "
                            "workers and finishing inline")
                        for proc, _ in procs:
                            proc.kill()
                        stall = 0.0
                    else:
                        # Every worker is gone and nothing is
                        # claimable or completing: some digest can
                        # never earn a marker (e.g. its done-marker
                        # write was faulted away after the job file
                        # was retired).  Collect recomputes the
                        # missing points, so bail out rather than
                        # poll forever.
                        warnings.append(
                            f"dispatch stalled with no live workers "
                            f"for {self.stall_polls} polls; "
                            "abandoning the queue and recovering "
                            "missing points at collect")
                        break
                stall += max(0.0, backoff.sleep() - 1.0)
        finally:
            if inline_journal is not None:
                inline_journal.close()
            for proc, _ in procs:
                if proc.returncode is None:
                    try:
                        proc.wait(timeout=15.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
        return inline_points

    def _start_inline_journal(self, expected: set[str]
                              ) -> CampaignJournal:
        journal = CampaignJournal(
            self.queue.journals / f"{_COORDINATOR}.jsonl")
        manifest = read_queue_manifest(self.queue)
        journal.start_raw(name=str(manifest["campaign"]),
                          seed=int(manifest["seed"]),
                          fingerprint=self.fingerprint,
                          points=int(manifest["points"]),
                          digests=expected)
        return journal

    # ------------------------------------------------------------------
    def _collect(self, campaign: Campaign, all_digests: list[str],
                 cached: dict[str, dict[str, Any]], jobs: int,
                 inline_points: int, warnings: list[str]
                 ) -> tuple[list[PointResult], DispatchStats]:
        """Merge journals into campaign-order results + stats."""
        merge = merge_worker_journals(
            sorted(self.queue.journals.glob("*.jsonl")),
            name=campaign.name, seed=campaign.seed,
            fingerprint=self.fingerprint, digests=set(all_digests))
        warnings.extend(merge.warnings)
        markers = self.queue.done_markers(fresh=True)

        point_results: list[PointResult] = []
        recovered = 0
        for point, digest in zip(campaign.points, all_digests):
            if digest in cached:
                point_results.append(
                    PointResult(point, cached[digest], from_cache=True))
                continue
            entry = merge.entries.get(digest)
            if entry is not None:
                point_results.append(PointResult(
                    point, entry.result, from_cache=False,
                    attempts=entry.attempts))
                if self.cache is not None:
                    self.cache.store(digest, self.fingerprint,
                                     entry.result)
                continue
            marker = markers.get(digest)
            if marker is not None and marker.get("error"):
                attempts = marker.get("attempts")
                point_results.append(PointResult(
                    point, {}, from_cache=False,
                    attempts=attempts if isinstance(attempts, int)
                    else 1,
                    error=str(marker["error"])))
                continue
            # No journaled payload survived (journal rejected at merge,
            # or lost with its worker).  Points are pure functions, so
            # recomputing here cannot change the document.
            recovered += 1
            warnings.append(
                f"point {digest[:12]}... had no merged payload; "
                "recomputed by the coordinator at collect")
            result, attempts, error = _execute_job(point,
                                                   self.max_retries)
            point_results.append(PointResult(
                point, result or {}, from_cache=False,
                attempts=attempts, error=error))
            if result is not None:
                merge.entries[digest] = MergedEntry(
                    digest=digest, result=result, attempts=attempts,
                    workers=(_COORDINATOR,))
                if self.cache is not None:
                    self.cache.store(digest, self.fingerprint, result)
        if self.cache is not None:
            self.cache.save()

        write_merged_journal(
            self.queue.root / MERGED_JOURNAL_NAME,
            name=campaign.name, seed=campaign.seed,
            fingerprint=self.fingerprint,
            ordered_digests=all_digests, entries=merge.entries)

        all_events = EventLog.read_all(self.queue)
        per_worker: dict[str, int] = {}
        steals = 0
        for marker in markers.values():
            worker = str(marker.get("worker"))
            per_worker[worker] = per_worker.get(worker, 0) + 1
            if marker.get("stolen"):
                steals += 1

        def _count(event: str) -> int:
            return sum(1 for e in all_events if e.get("event") == event)

        def _exit_total(field: str) -> int:
            total = 0
            for e in all_events:
                if e.get("event") != "exit":
                    continue
                value = e.get(field)
                total += value if isinstance(value, int) else 0
            return total

        stats = DispatchStats(
            workers=self.workers,
            jobs=jobs,
            steals=steals,
            lease_expirations=_count("expire"),
            reclaims=_count("reclaim"),
            duplicate_points=merge.duplicate_points,
            journals_rejected=merge.journals_rejected,
            inline_points=inline_points,
            recovered_points=recovered,
            quarantined_files=_count("quarantine"),
            heartbeat_drops=_exit_total("heartbeat_drops"),
            event_drops=_exit_total("event_drops"),
            journal_drops=_count("journal-drop"),
            per_worker_points=per_worker,
        )
        return point_results, stats
