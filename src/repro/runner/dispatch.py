"""Work-stealing distributed dispatch for campaigns.

:class:`DispatchCoordinator` cuts a campaign into idempotent jobs —
contiguous batches of points (:meth:`~repro.runner.lease.Job.key`) — in a
shared *queue directory*
(:mod:`repro.runner.lease`), forks N independent worker processes, and
merges their journals (:mod:`repro.runner.merge`) into a document that
is bit-identical to a serial run.  Workers coordinate only through the
queue directory, so additional workers can attach from any host that
shares the filesystem: ``urllc5g bench --worker <queue-dir>``.

The safety argument, end to end:

- **Gate.**  Only scenarios certified distributable by ``urllc5g
  check --manifest`` — status ``certified`` or ``baselined-findings``
  in ``distcheck-manifest.json`` — may be enqueued.  A campaign touching
  any other scenario (absent counts as refused) raises
  :class:`DispatchRefusedError` before a single job file is written.
- **Idempotence.**  Every point payload is a pure function of
  ``(scenario, params, seed)`` plus the source tree, so executing a
  job twice — the worst a falsely reclaimed lease can do — produces
  bit-identical payloads, which the merge layer deduplicates.
- **Crash windows.**  A worker journals each payload as soon as it is
  computed, publishes the job's done marker after the last and only
  then releases its lease: whenever it dies, either the lease is
  reclaimed and its points re-run, or every payload is on disk.
- **Convergence.**  An orphaned lease costs each of its points one
  attempt and is split into one-point jobs, so a point that has lost
  ``max_retries + 1`` workers fails alone.  If every local worker dies
  (or the queue stalls), the remaining jobs still run: the coordinator
  executes in-process only jobs whose points never lost a worker and
  hands the others to a stand-in worker process, so a dispatched run
  always terminates with the full document and a point that crashes
  or wedges its process never takes the coordinator down.
- **Single-writer caches and journals.**  Workers never write the
  shared :class:`~repro.runner.cache.ResultCache` or the campaign
  journal; the coordinator is a
  :class:`~repro.runner.executor.CampaignRunner`, whose front end
  consults both before enqueueing and records each payload as soon as
  a worker journals it, so the whole-file atomic rewrite can never
  lose concurrent entries and a killed run resumes from every point
  already journaled, finished job or not.

The queue protocol is entirely stamp-based and clock-free.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.devtools.distcheck.manifest import (DistManifest,
                                               ManifestError,
                                               load_manifest)
from repro.runner import envconfig
from repro.runner.cache import ResultCache, source_fingerprint
from repro.runner.campaign import Campaign, ScenarioPoint
from repro.runner.executor import (CampaignRunner, Outcome, Record,
                                   execute_point)
from repro.runner.fsops import FsOps
from repro.runner.journal import CampaignJournal
from repro.runner.lease import (
    QUEUE_MANIFEST_NAME,
    EventLog,
    HeartbeatWriter,
    Job,
    LivenessTracker,
    QueueDir,
    batches,
    read_queue_manifest,
    write_queue_manifest,
)
from repro.runner.merge import JournalMerger, MergeOutcome
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

__all__ = [
    "DispatchCoordinator",
    "DispatchRefusedError",
    "DispatchStats",
    "check_certified",
    "load_repo_manifest",
    "run_worker",
]

#: The coordinator's actor id in event logs, inline journals and claims.
_COORDINATOR = "coordinator"

#: Base backoff interval of the worker and coordinator polls, in seconds.
_POLL_INTERVAL_S = 0.05

#: The checked-in certification manifest at the root of the source tree.
REPO_MANIFEST = Path(__file__).resolve().parents[3] / \
    "distcheck-manifest.json"


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


def load_repo_manifest() -> DistManifest:
    """The checked-in manifest; a missing or broken one refuses."""
    try:
        return load_manifest(REPO_MANIFEST)
    except ManifestError as exc:
        raise DispatchRefusedError([str(exc)]) from None


def check_certified(manifest: DistManifest, campaign: Campaign) -> None:
    """The manifest gate: refuse a campaign with an uncertified point."""
    refusals = manifest.refusals(
        sorted({point.scenario for point in campaign.points}))
    if refusals:
        raise DispatchRefusedError(refusals)


@dataclass(frozen=True)
class DispatchStats:
    """Scheduling provenance of one dispatched run.

    Everything here describes *how* points were executed, never *what*
    they computed — scheduling may differ between two equal runs (which
    workers stole what, how many leases expired), so none of it feeds
    :meth:`~repro.runner.executor.CampaignResult.results_digest`.
    """

    #: Local worker processes the coordinator started.
    workers: int
    #: Points enqueued (campaign points minus warm cache hits and
    #: journal replays).
    jobs: int
    #: Job files the coordinator wrote: how the points were packed.
    batches: int
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
    #: Points completed per worker id.
    per_worker_points: dict[str, int]

    def as_payload(self) -> dict[str, Any]:
        """JSON-ready form for the bench document."""
        payload = asdict(self)
        payload["per_worker_points"] = dict(
            sorted(self.per_worker_points.items()))
        return payload

    def degraded(self) -> dict[str, int]:
        """The nonzero degradation counters (empty on a clean run)."""
        counters = {
            "quarantined_files": self.quarantined_files,
            "heartbeat_drops": self.heartbeat_drops,
            "event_drops": self.event_drops,
            "journal_drops": self.journal_drops,
        }
        return {key: value for key, value in counters.items() if value}


def _publish(queue: QueueDir, events: EventLog, job: Job,
             worker_id: str, done: list[tuple[str, int, str | None]],
             stolen: bool) -> None:
    """Publish the done marker, then drop the lease — fault-tolerantly.

    A marker write that fails (ENOSPC/EIO) is retried a bounded number
    of times; if it *keeps* failing the worker requeues its own lease
    so the job is re-offered to the fleet rather than held hostage
    by a host that can no longer write.  If even the requeue rename
    fails, the lease stays put — a worker that cannot write also stops
    heartbeating, so the orphan is reclaimed by a peer.
    """
    for _ in range(3):
        try:
            queue.mark_done(job.digest, worker_id, done, stolen=stolen)
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

    Each point's journal entry is flushed as soon as it is computed, so
    the coordinator records it (and a resume keeps it) even if the job
    never finishes; the done marker follows the last point and the
    lease is dropped only after it.  A journal append that fails
    (ENOSPC/EIO) is dropped and counted: the marker still goes out,
    and the coordinator recomputes the point at collect.
    """
    stolen = job.home != worker_id
    if stolen:
        events.emit("steal", digest=job.digest, home=job.home)
    done: list[tuple[str, int, str | None]] = []
    for entry in job.points:
        digest = entry["digest"]
        try:
            point = Job.point(entry)
        except ValueError as exc:
            done.append((digest, 1, str(exc)))
            continue
        outcome = execute_point(point, max_retries)
        if outcome.result is not None:
            try:
                journal.record(digest, outcome.result, outcome.attempts)
            except OSError:
                events.emit("journal-drop", digest=digest)
        done.append((digest, outcome.attempts, outcome.error))
    _publish(queue, events, job, worker_id, done, stolen)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def run_worker(queue_dir: str | Path, worker_id: str, *,
               max_retries: int = 2, strikes: int = 8,
               poll_interval_s: float = _POLL_INTERVAL_S,
               fingerprint: str | None = None,
               attach_polls: int = 200,
               fs: FsOps | None = None) -> int:
    """Attach one worker to a queue directory; returns an exit code.

    The worker claims own-shard jobs first, steals other shards when
    idle, reclaims orphaned leases of dead peers, and exits 0 once
    every enqueued point appears in a done marker.  Exit 2 means the
    worker refused to participate: missing/invalid queue manifest, or a
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
    queue.members = manifest.get("jobs") or {}
    events = EventLog(queue, worker_id)
    journal = CampaignJournal(queue.journals / f"{worker_id}.jsonl",
                              fs=queue.fs)
    journal.start(name=str(manifest["campaign"]),
                  seed=int(manifest["seed"]),
                  fingerprint=str(manifest["fingerprint"]),
                  points=int(manifest["points"]),
                  digests=set(manifest["digests"]))
    tracker = LivenessTracker(queue, strikes=strikes,
                              max_retries=max_retries)
    completed = 0
    try:
        with HeartbeatWriter(queue, worker_id) as heart:
            events.emit("start")
            backoff.reset()
            while True:
                job = queue.claim(worker_id, events)
                if job is not None:
                    _process_job(queue, journal, events, job,
                                 worker_id, max_retries)
                    completed += len(job.points)
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
class DispatchCoordinator(CampaignRunner):
    """Runs campaigns across N workers through a queue directory.

    A :class:`~repro.runner.executor.CampaignRunner` that overrides only
    how pending points execute: the shared front end replays the
    journal and the cache, and this class enqueues what is left, waits
    for the workers and merges their journals.  Its results carry a
    :class:`DispatchStats` block, so ``bench_payload`` and baseline
    checking work unchanged on dispatched runs.

    Workers ``w<k>`` and stand-ins are forks of this process running
    :func:`run_worker`; ``spawn_command`` (worker id -> argv) makes each
    fork exec that argv instead (tests, ``urllc5g chaosdispatch``).
    """

    def __init__(self, workers: int, queue_dir: str | Path,
                 manifest: DistManifest, *,
                 cache: ResultCache | None = None,
                 fingerprint: str | None = None,
                 max_retries: int = 2,
                 strikes: int = 8,
                 stall_polls: int = 6000,
                 spawn_command: Callable[[str], list[str]] | None = None,
                 worker_env: Mapping[str, str] | None = None):
        super().__init__(workers, cache=cache, fingerprint=fingerprint,
                         max_retries=max_retries)
        if strikes < 1:
            raise ValueError(f"strikes must be >= 1, got {strikes}")
        self.queue = QueueDir(queue_dir)
        self.manifest = manifest
        self.strikes = strikes
        self.stall_polls = stall_polls
        self.spawn_command = spawn_command
        #: Extra environment for the ``w<k>`` workers only
        #: (the chaos explorer plants URLLC5G_CHAOS_PLAN here, so the
        #: coordinator and its stand-ins run the passthrough seam).
        self.worker_env = dict(worker_env or {})

    # ------------------------------------------------------------------
    def _admit(self, campaign: Campaign) -> None:
        """The manifest gate: refuse before anything is written."""
        check_certified(self.manifest, campaign)

    def _execute(self, campaign: Campaign, digests: list[str],
                 pending: dict[str, ScenarioPoint], record: Record,
                 warnings: list[str]) -> DispatchStats:
        """Enqueue ``pending``, record outcomes as workers finish them."""
        self._reset_queue()
        worker_ids = [f"w{k + 1}" for k in range(self.workers)]
        self.queue.members = {Job.key(batch): batch for batch
                              in batches(list(pending), self.workers)}
        write_queue_manifest(self.queue, {
            "campaign": campaign.name,
            "seed": campaign.seed,
            "fingerprint": self.fingerprint,
            "points": len(digests),
            "digests": digests,
            "enqueued": sorted(pending),
            "workers": worker_ids,
            "jobs": self.queue.members,
        })
        for index, batch in enumerate(self.queue.members.values()):
            self.queue.enqueue({d: pending[d] for d in batch},
                               home=worker_ids[index % self.workers])
        jobs = len(self.queue.members)
        events = EventLog(self.queue, _COORDINATOR)
        events.emit("enqueue", jobs=jobs, points=len(pending),
                    replayed=len(digests) - len(pending))
        merger = JournalMerger(name=campaign.name, seed=campaign.seed,
                               fingerprint=self.fingerprint,
                               digests=set(pending))

        def absorb(final: bool = False) -> int:
            """Record every payload journaled since the last call;
            returns how many points are journaled so far."""
            for entry in merger.read(self.queue.journals.glob("*.jsonl"),
                                     final=final):
                record(entry.digest,
                       Outcome(entry.result, entry.attempts, None))
            return len(merger.outcome.entries)

        inline_points = 0
        if pending:
            procs = [self._spawn(worker_id, self.worker_env)
                     for worker_id in worker_ids]
            with CampaignJournal(self.queue.journals
                                 / f"{_COORDINATOR}.jsonl") as inline:
                inline.start(name=campaign.name, seed=campaign.seed,
                             fingerprint=self.fingerprint,
                             points=len(digests), digests=set(pending))
                inline_points = self._wait(set(pending), procs, events,
                                           inline, absorb, warnings)
        absorb(final=True)
        warnings.extend(merger.outcome.warnings)
        return self._collect(pending, jobs, merger.outcome,
                             inline_points, record, warnings)

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

    def _spawn(self, worker_id: str, extra_env: Mapping[str, str]
               ) -> BaseProcess:
        """Fork one worker, ``extra_env`` in its own ``os.environ``: it
        runs :func:`run_worker` with every module already imported, or
        execs ``spawn_command``'s argv with this source root first on
        ``PYTHONPATH``."""

        def work() -> None:
            os.environ.update(extra_env)
            if self.spawn_command is None:
                sys.exit(run_worker(self.queue.root, worker_id,
                                    max_retries=self.max_retries))
            source_root = str(Path(__file__).resolve().parents[2])
            path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if source_root not in path:
                os.environ["PYTHONPATH"] = os.pathsep.join(
                    [source_root, *filter(None, path)])
            command = self.spawn_command(worker_id)
            os.execvp(command[0], command)

        import multiprocessing  # here: a serial run never forks

        process = multiprocessing.get_context("fork").Process(
            target=work, name=worker_id)
        process.start()
        return process

    def _wait(self, expected: set[str],
              procs: list[BaseProcess],
              events: EventLog, inline: CampaignJournal,
              absorb: Callable[[], int], warnings: list[str]) -> int:
        """Poll until every ``expected`` point is in a done marker.

        Every poll hands the newly journaled payloads to ``absorb`` and
        reclaims — or, past the retry budget, abandons — the leases of
        dead workers.  Progress, for the stall detector, is a point
        journaled or marked done, so a long job is no stall.  When no
        local worker is left alive (the stall detector kills wedged
        ones), the coordinator takes over the queue: a job none of
        whose points lost a worker runs in-process (journaled to
        ``inline``); one that did goes to a *stand-in* worker process
        with the coordinator's own environment (never ``worker_env``),
        or is abandoned if the last stand-in made no progress (no point
        journaled or done, no lost lease) since it was spawned and left
        no lease still to reclaim.
        """
        tracker = LivenessTracker(self.queue, strikes=self.strikes,
                                  max_retries=self.max_retries)
        backoff = _Backoff(_POLL_INTERVAL_S, _COORDINATOR)
        inline_points = 0
        reaped: set[str] = set()
        stall = 0.0
        last_progress = -1
        stand_in_progress: tuple[int, int] | None = None
        try:
            while True:
                done = self.queue.done_markers()
                progress = len(done) + absorb()
                if expected <= done.keys():
                    break
                # Before the warnings, so a worker seen dead is warned.
                alive = any(proc.is_alive() for proc in procs)
                for proc in procs:
                    if proc.exitcode and proc.name not in reaped:
                        reaped.add(proc.name)
                        warnings.append(
                            f"dispatch worker {proc.name} exited with "
                            f"code {proc.exitcode}; its leases will be "
                            "reclaimed")
                tracker.reclaim_dead(tracker.observe(), events)
                if not alive:
                    job = self.queue.claim(_COORDINATOR, events)
                    if job is not None:
                        lost = EventLog.losses(
                            EventLog.read_all(self.queue))
                        lost_workers = max(len(lost.get(digest, ()))
                                           for digest in job.digests)
                        if not lost_workers:
                            _process_job(self.queue, inline, events, job,
                                         _COORDINATOR, self.max_retries)
                            inline_points += len(job.points)
                            backoff.reset()
                            continue
                        mark = (progress, sum(map(len, lost.values())))
                        if mark != stand_in_progress:
                            stand_in_progress = mark
                            stand_in = \
                                f"stand-in-{len(procs) - self.workers + 1}"
                            self.queue.requeue(job.digest, _COORDINATOR,
                                               job.home)
                            procs.append(self._spawn(stand_in, {}))
                            stall = 0.0  # its start-up is no stall
                            backoff.reset()
                            continue
                        if all(owner == _COORDINATOR for _, owner
                               in self.queue.active_leases()):
                            self.queue.abandon(job, _COORDINATOR,
                                               lost_workers, events)
                            continue
                        # A dead stand-in's lease is not reclaimed yet:
                        # judge once its loss is charged.
                        self.queue.requeue(job.digest, _COORDINATOR,
                                           job.home)
                if progress == last_progress:
                    stall += 1.0
                else:
                    last_progress, stall = progress, 0.0
                    backoff.reset()
                if stall >= self.stall_polls:
                    if alive:
                        warnings.append(
                            f"dispatch made no progress for "
                            f"{self.stall_polls} polls; killing local "
                            "workers and taking over the queue")
                        for proc in procs:
                            proc.kill()
                        # Poll briskly again, so their leases expire
                        # long before the next stall verdict.
                        stall = 0.0
                        backoff.reset()
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
            for proc in procs:
                proc.join(timeout=15.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        return inline_points

    # ------------------------------------------------------------------
    def _collect(self, pending: dict[str, ScenarioPoint], jobs: int,
                 merge: MergeOutcome, inline_points: int,
                 record: Record, warnings: list[str]) -> DispatchStats:
        """Record the points no journal carried, and count."""
        markers = self.queue.done_markers(fresh=True)
        all_events = EventLog.read_all(self.queue)
        losses = EventLog.losses(all_events)

        recovered = 0
        for digest, point in pending.items():
            if digest in merge.entries:
                continue  # recorded as its worker journaled it
            marker = markers.get(digest)
            if marker is not None and marker.get("error"):
                attempts = marker.get("attempts")
                record(digest, Outcome(
                    None, attempts if isinstance(attempts, int) else 1,
                    str(marker["error"])))
                continue
            if marker is None and digest in losses:
                # It cost a worker and never completed anywhere: it is
                # not run in this process.
                record(digest, Outcome(
                    None, len(losses[digest]),
                    "lost its worker process and never completed"))
                continue
            # No journaled payload survived (journal rejected at merge,
            # or lost with its worker).  Points are pure functions, so
            # recomputing here cannot change the document.
            recovered += 1
            warnings.append(
                f"point {digest[:12]}... had no merged payload; "
                "recomputed by the coordinator at collect")
            record(digest, execute_point(point, self.max_retries))

        counts = Counter(str(e.get("event")) for e in all_events)
        exits = [e for e in all_events if e.get("event") == "exit"]

        def _exit_total(field: str) -> int:
            return sum(e[field] for e in exits
                       if isinstance(e.get(field), int))

        return DispatchStats(
            workers=self.workers,
            jobs=len(pending),
            batches=jobs,
            steals=len({m.get("job") for m in markers.values()
                        if m.get("stolen")}),
            lease_expirations=counts["expire"],
            reclaims=counts["reclaim"],
            duplicate_points=merge.duplicate_points,
            journals_rejected=merge.journals_rejected,
            inline_points=inline_points,
            recovered_points=recovered,
            quarantined_files=counts["quarantine"],
            heartbeat_drops=_exit_total("heartbeat_drops"),
            event_drops=_exit_total("event_drops"),
            journal_drops=counts["journal-drop"],
            per_worker_points=dict(Counter(
                str(m.get("worker")) for m in markers.values())),
        )
