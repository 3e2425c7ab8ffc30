"""Filesystem queue primitives: jobs, leases, heartbeats, reclamation.

The dispatch layer (:mod:`repro.runner.dispatch`) coordinates workers
through a shared *queue directory* — the only channel a worker needs,
which is what lets workers attach from other hosts over any shared
filesystem.  The layout::

    <queue>/queue-manifest.json   campaign identity + enqueued digests
    <queue>/jobs/                 one file per unclaimed job
    <queue>/leases/               one file per in-flight claim
    <queue>/done/                 one marker per finished job
    <queue>/hearts/               one liveness stamp file per worker
    <queue>/events/               one append-only event log per actor
    <queue>/journals/             one CampaignJournal per worker

A *job* is a contiguous batch of campaign points (:func:`batches`);
its done marker lists every point, so completion is judged per point.
Claim and the reclaim of a one-point lease are single atomic
``os.replace`` calls:

- **claim**: ``jobs/<key>--<home>.json`` →
  ``leases/<key>--<worker>.json``.  Exactly one racing worker wins
  the rename; losers get ``FileNotFoundError`` and move on.
- **reclaim**: an orphaned one-point lease is renamed back into
  ``jobs/`` with its original home shard, so a crashed worker's point
  is re-run by whoever steals it next — or, once the point has lost
  ``max_retries + 1`` workers, *abandoned* with an error done marker.
  A multi-point lease is split into one-point jobs first.

Every filesystem operation routes through an injectable
:class:`~repro.runner.fsops.FsOps` seam (passthrough by default), and
every transition is bracketed by named crash points — which is how
``urllc5g chaosdispatch`` certifies that a worker killed at *any*
instant, or fed EIO/ENOSPC/stale listings, still leaves a queue that
converges to the serial document (docs/ROBUSTNESS.md).

A corrupt job or lease file (torn write that half-landed, bitrot on a
shared filesystem) is *quarantined* — renamed to
``<name>.corrupt-<content-digest>`` exactly like the ResultCache does —
and its points recomputed by the coordinator at collect, rather than
letting one bad file livelock the claim loop.

Liveness is *stamp-based*, never wall-clock-based: each worker's
heartbeat thread rewrites ``hearts/<worker>.json`` with a monotonically
increasing counter, and an observer decides a worker is dead when the
counter has not advanced across ``strikes`` consecutive observations
(the observer sleeps its poll interval between scans).  No component
of the protocol ever reads the wall clock, so the queue layer is
clean under the ``no-wall-clock`` rule without any excuse — and
scheduling can never leak into results, which stay pure functions of
``(scenario, params, seed)``.

A false-positive reclaim (a live worker briefly starved of heartbeats)
is *safe*: both workers compute the same pure payloads and the merge
layer (:mod:`repro.runner.merge`) deduplicates identical entries.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence, TypeVar

from repro.runner.cache import atomic_write_text
from repro.runner.campaign import ScenarioPoint, canonical_params
from repro.runner.fsops import DEFAULT_FS, FsOps

__all__ = [
    "EventLog",
    "HeartbeatWriter",
    "Job",
    "LivenessTracker",
    "QueueDir",
    "batches",
    "read_queue_manifest",
    "write_queue_manifest",
]

#: Separator between digest and shard/worker id inside queue filenames.
_SEP = "--"

_WORKER_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

QUEUE_MANIFEST_NAME = "queue-manifest.json"

#: Jobs per local worker.  Tuned on uniform tiny points only (the
#: ``campaign-sweep`` perf workload); docs/PERFORMANCE.md records what
#: it costs campaigns whose points are heavier or uneven.
JOBS_PER_WORKER = 4

#: Seconds between a worker's heartbeat stamps.
_HEARTBEAT_INTERVAL_S = 0.05

_T = TypeVar("_T")


def _check_worker_id(worker_id: str) -> str:
    if _SEP in worker_id or not _WORKER_ID_RE.match(worker_id):
        raise ValueError(
            f"worker id must match [A-Za-z0-9_.-]+ and not contain "
            f"{_SEP!r}, got {worker_id!r}")
    return worker_id


def batches(items: Sequence[_T], workers: int) -> list[Sequence[_T]]:
    """Cut ``items`` (campaign order) into contiguous jobs of
    ``ceil(len(items) / (JOBS_PER_WORKER * workers))``: a pure function
    of the two counts, never of timing."""
    size = max(1, -(-len(items) // (JOBS_PER_WORKER * workers)))
    return [items[start:start + size]
            for start in range(0, len(items), size)]


@dataclass(frozen=True)
class Job:
    """A batch of points (each its ``digest``, ``scenario``,
    ``params`` and ``seed``, as in the job file) and its home shard."""

    home: str
    points: tuple[dict[str, Any], ...]

    @staticmethod
    def key(digests: Sequence[str]) -> str:
        """A job's key: its point's digest, or for a batch the first
        point's digest and the batch size, so a one-point job split off
        a batch never shares the batch's key or done marker."""
        return digests[0] if len(digests) == 1 \
            else f"{digests[0]}.{len(digests)}"

    @property
    def digest(self) -> str:
        return Job.key(self.digests)

    @property
    def digests(self) -> tuple[str, ...]:
        return tuple(entry["digest"] for entry in self.points)

    @staticmethod
    def point(entry: Mapping[str, Any]) -> ScenarioPoint:
        """Rebuild one point of a job file, checked against its digest."""
        point = ScenarioPoint(str(entry["scenario"]),
                              canonical_params(entry["params"]),
                              int(entry["seed"]))
        if point.digest() != entry["digest"]:
            raise ValueError(
                f"job file digest {str(entry['digest'])[:12]}... does "
                f"not match its point content (tampered or "
                f"mixed-version queue)")
        return point

    @classmethod
    def parse(cls, raw: str) -> "Job":
        """Read a job file; raises ``ValueError``, ``KeyError`` or
        ``TypeError`` on text that is not a job."""
        payload = json.loads(raw)
        points = tuple({"digest": str(entry["digest"]),
                        "scenario": str(entry["scenario"]),
                        "params": dict(entry["params"]),
                        "seed": int(entry["seed"])}
                       for entry in payload["points"])
        if not points:
            raise ValueError("a job holds at least one point")
        return cls(home=_check_worker_id(str(payload["home"])),
                   points=points)


class QueueDir:
    """Path helpers plus the atomic claim/reclaim/done transitions.

    ``fs`` is the filesystem seam every operation goes through; the
    default passthrough keeps the protocol byte-for-byte what it was
    before the seam existed.  A worker running under a chaos plan
    passes a ``ChaosFsOps`` instead (see :mod:`repro.runner.chaos`).
    """

    def __init__(self, root: str | Path, fs: FsOps | None = None):
        self.root = Path(root)
        self.fs = fs if fs is not None else DEFAULT_FS
        self.jobs = self.root / "jobs"
        self.leases = self.root / "leases"
        self.done = self.root / "done"
        self.hearts = self.root / "hearts"
        self.events = self.root / "events"
        self.journals = self.root / "journals"
        #: Done markers already parsed, and the file names they came
        #: from (see :meth:`done_markers`).
        self._markers: dict[str, dict[str, Any]] = {}
        self._marker_names: set[str] = set()
        #: Job key -> point digests, as enqueued (the queue manifest's
        #: ``jobs``), so a corrupt batch is retired with every point.
        self.members: Mapping[str, Sequence[str]] = {}

    def initialise(self) -> None:
        """Create the directory skeleton (idempotent)."""
        for directory in (self.root, self.jobs, self.leases, self.done,
                          self.hearts, self.events, self.journals):
            self.fs.mkdir(directory)

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------
    def enqueue(self, points: Mapping[str, ScenarioPoint],
                home: str) -> None:
        """Publish one job holding ``points`` (digest -> point, in
        campaign order), atomically, under its home shard."""
        job = Job(home=_check_worker_id(home), points=tuple(
            {"digest": digest, "scenario": point.scenario,
             "params": point.params_dict(), "seed": point.seed}
            for digest, point in points.items()))
        self._publish(job)

    def _publish(self, job: Job) -> None:
        self.fs.write_text(
            self.jobs / f"{job.digest}{_SEP}{job.home}.json",
            json.dumps({"home": job.home, "points": list(job.points)},
                       sort_keys=True))

    def _iter_names(self, directory: Path) -> Iterator[tuple[str, str]]:
        """(digest, id) pairs parsed from a queue directory, sorted."""
        try:
            names = [name for name in self.fs.listdir(directory)
                     if name.endswith(".json")]
        except OSError:
            return
        for name in names:
            stem = name[:-len(".json")]
            digest, sep, owner = stem.partition(_SEP)
            if sep and digest and owner:
                yield digest, owner

    def pending(self) -> list[tuple[str, str]]:
        """Unclaimed ``(digest, home)`` pairs, in sorted digest order."""
        return list(self._iter_names(self.jobs))

    def active_leases(self) -> list[tuple[str, str]]:
        """In-flight ``(digest, worker)`` pairs, in sorted order."""
        return list(self._iter_names(self.leases))

    def claim(self, worker_id: str,
              events: "EventLog | None" = None) -> Job | None:
        """Atomically claim the next job for ``worker_id``.

        Own-shard jobs are preferred (in sorted key order); when the
        shard is empty the worker *steals* the first other-shard job.
        Returns None when nothing was claimable — either the queue is
        empty or every candidate was won by a faster worker.  A claim
        lists ``jobs/`` once, which holds a few jobs per worker however
        many points they carry; an entry a peer claimed since the
        listing simply loses its rename, exactly like a lost race.

        A lease whose payload reads but does not parse is *corrupt*
        (not torn — the rename was atomic): it is quarantined and its
        points marked done with no payload, so the claim loop cannot
        livelock on one bad file and the coordinator recomputes the
        points at collect.  A lease whose payload cannot be *read*
        (transient EIO) is surrendered back to the queue unchanged.
        """
        _check_worker_id(worker_id)
        candidates = self.pending()
        for digest, home in sorted(candidates,
                                   key=lambda c: c[1] != worker_id):
            job = self._claim_one(digest, home, worker_id, events)
            if job is not None:
                return job
        return None

    def _claim_one(self, digest: str, home: str, worker_id: str,
                   events: "EventLog | None") -> Job | None:
        """Try to claim one listed job; None when it is not ours."""
        if (self.done / f"{digest}.json").exists():
            # Already completed by a worker whose lease was (falsely)
            # reclaimed: retire the duplicate job file.
            try:
                self.fs.unlink(self.jobs / f"{digest}{_SEP}{home}.json")
            except OSError:
                pass
            return None
        source = self.jobs / f"{digest}{_SEP}{home}.json"
        target = self.leases / f"{digest}{_SEP}{worker_id}.json"
        self.fs.crash_point("claim.pre-rename")
        try:
            self.fs.replace(source, target)
        except OSError:
            return None  # lost the race (or a stale listing entry)
        self.fs.crash_point("claim.post-rename")
        job = self.lease(digest, worker_id, events)
        if job is None:
            # Unreadable (transient EIO): surrender the lease so the job
            # stays claimable.  A corrupt one is quarantined already.
            try:
                self.fs.replace(target, source)
            except OSError:
                pass
        return job

    def lease(self, digest: str, worker_id: str,
              events: "EventLog | None" = None) -> Job | None:
        """The job an in-flight lease holds; None if unreadable, and a
        corrupt lease is quarantined (see :meth:`claim`)."""
        path = self.leases / f"{digest}{_SEP}{worker_id}.json"
        try:
            raw = self.fs.read_text(path)
        except OSError:
            return None
        try:
            return Job.parse(raw)
        except (ValueError, KeyError, TypeError):
            # The payload read fine but is not a job: the file is
            # corrupt, and re-reading can never heal it.
            self._quarantine(path, raw, digest, worker=worker_id,
                             events=events)
            return None

    def release(self, digest: str, worker_id: str) -> None:
        """Drop a completed claim's lease file (idempotent)."""
        self.fs.crash_point("release.pre")
        try:
            self.fs.unlink(self.leases / f"{digest}{_SEP}{worker_id}.json")
        except OSError:
            pass

    def abandon(self, job: Job, worker_id: str, attempts: int,
                events: "EventLog") -> None:
        """Retire an orphaned lease whose point used up its attempts.

        The error done marker goes out first and the lease is dropped
        after, so a crash in between leaves a lease the next observer
        abandons again.  A marker that cannot be written leaves the
        lease in place for the same reason.
        """
        error = (f"lost {attempts} worker process(es) while running "
                 "this point")
        try:
            self.mark_done(job.digest, worker_id,
                           [(digest, attempts, error)
                            for digest in job.digests])
        except OSError:
            return
        self.release(job.digest, worker_id)
        events.emit("abandon", digest=job.digest, owner=worker_id)

    def requeue(self, digest: str, worker_id: str, home: str) -> None:
        """Return a *live* worker's own lease to the job queue.

        The escape hatch of a worker that computed a point but cannot
        publish its done marker (persistent ENOSPC): renaming its own
        lease back re-offers the job to the fleet instead of holding
        it hostage.  Raises ``OSError`` when even the rename fails.
        """
        _check_worker_id(home)
        self.fs.replace(self.leases / f"{digest}{_SEP}{worker_id}.json",
                        self.jobs / f"{digest}{_SEP}{home}.json")

    def reclaim(self, job: Job, worker_id: str) -> bool:
        """Return an orphaned lease's points to the job queue.

        A one-point lease is renamed back under its *home* shard (it
        still holds its job).  A multi-point lease is split: every
        point is published as a one-point job, then the lease dropped,
        so the point that killed its worker fails alone next time.  A
        failure or crash in between leaves the lease, and the next
        reclaim publishes every point again: at worst a finished point
        re-runs, which only duplicates a pure payload.  False if
        another reclaimer won.
        """
        lease = self.leases / f"{job.digest}{_SEP}{worker_id}.json"
        self.fs.crash_point("reclaim.pre-rename")
        try:
            if len(job.points) == 1:
                self.fs.replace(
                    lease, self.jobs / f"{job.digest}{_SEP}{job.home}.json")
            else:
                for entry in job.points:
                    self._publish(Job(home=job.home, points=(entry,)))
                self.fs.unlink(lease)
        except OSError:
            return False
        self.fs.crash_point("reclaim.post-rename")
        return True

    def _quarantine(self, path: Path, raw: str, digest: str, *,
                    worker: str,
                    events: "EventLog | None" = None) -> None:
        """Sideline one corrupt queue file and retire its points.

        Mirrors the ResultCache pattern: the file is renamed to
        ``<name>.corrupt-<content-digest>`` (which no scan picks up —
        it no longer ends in ``.json``) so the defect stays on disk
        for forensics.  A done marker *without* an error is published
        for every point of the job (:attr:`members` for a batch, else
        the key's own point), which is exactly the shape collect
        recomputes from the campaign's own point list.
        """
        content = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]
        try:
            self.fs.replace(path,
                            path.with_name(f"{path.name}"
                                           f".corrupt-{content}"))
        except OSError:
            return  # someone else moved it first; nothing to retire
        if events is not None:
            events.emit("quarantine", digest=digest, file=path.name)
        try:
            self.mark_done(digest, worker,
                           [(member, 1, None) for member
                            in self.members.get(digest, (digest,))])
        except OSError:
            pass  # no marker: the stall backstop recovers the points

    # ------------------------------------------------------------------
    # done markers
    # ------------------------------------------------------------------
    def mark_done(self, digest: str, worker_id: str,
                  points: Sequence[tuple[str, int, str | None]],
                  stolen: bool = False) -> None:
        """Publish job ``digest``'s completion marker, atomically:
        ``points`` lists each point's ``(digest, attempts, error)``."""
        self.fs.crash_point("done-marker.pre")
        self.fs.write_text(
            self.done / f"{digest}.json",
            json.dumps({"job": digest, "worker": worker_id,
                        "stolen": stolen,
                        "points": [{"digest": point, "attempts": attempts,
                                    "error": error}
                                   for point, attempts, error in points]},
                       sort_keys=True))
        self.fs.crash_point("done-marker.post")

    def done_markers(self, fresh: bool = False
                     ) -> dict[str, dict[str, Any]]:
        """Point digest -> its job marker's ``job``, ``worker`` and
        ``stolen`` plus its own ``attempts`` and ``error``.

        A marker is never deleted, so each one parsed is remembered
        and only names not seen before are read: a poll costs one
        listing plus O(new markers) reads.  A marker that does not
        parse yet is read again on the next call.  ``fresh`` forgets
        what was remembered and re-reads every marker — for final
        statistics, where a marker rewritten by a duplicate execution
        must show its last content.
        """
        if fresh:
            self._markers.clear()
            self._marker_names.clear()
        try:
            names = self.fs.listdir(self.done)
        except OSError:
            return dict(self._markers)
        for name in names:
            if name in self._marker_names or not name.endswith(".json"):
                continue
            try:
                payload = json.loads(
                    self.fs.read_text(self.done / name))
            except (OSError, ValueError):
                continue  # torn write in progress: next poll sees it
            if not isinstance(payload, dict) \
                    or not isinstance(payload.get("points"), list):
                continue
            job = {key: payload.get(key)
                   for key in ("job", "worker", "stolen")}
            for point in payload["points"]:
                if isinstance(point, dict) \
                        and isinstance(point.get("digest"), str):
                    self._markers[point["digest"]] = {**job, **point}
            self._marker_names.add(name)
        return dict(self._markers)


# ----------------------------------------------------------------------
# liveness
# ----------------------------------------------------------------------
class HeartbeatWriter:
    """Background thread stamping ``hearts/<worker>.json``.

    The stamp is a plain counter — liveness is "the counter advanced
    between two observations", so neither writer nor observer ever
    consults the wall clock.  The thread is a daemon: a SIGKILLed
    worker stops stamping instantly, which is exactly the signal the
    reclaimers key on.

    A stamp that cannot be written (ENOSPC, EIO) is *dropped and
    counted* (:attr:`dropped`), never allowed to kill the pump thread:
    a worker on a briefly-full disk keeps processing, pays at most a
    false-positive reclaim — which is safe by construction — and
    surfaces the drops in the bench dispatch block.
    """

    def __init__(self, queue: QueueDir, worker_id: str):
        self.path = queue.hearts / f"{_check_worker_id(worker_id)}.json"
        self.worker_id = worker_id
        #: Heartbeat stamps lost to write failures (ENOSPC/EIO).
        self.dropped = 0
        self._fs = queue.fs
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self, stamp: int) -> None:
        try:
            self._fs.write_text(self.path,
                                json.dumps({"worker": self.worker_id,
                                            "stamp": stamp},
                                           sort_keys=True))
        except OSError:
            self.dropped += 1

    def start(self) -> None:
        if self._thread is not None:
            return
        self.beat(0)

        def pump() -> None:
            stamp = 1
            while not self._stop.wait(_HEARTBEAT_INTERVAL_S):
                self.beat(stamp)
                stamp += 1

        self._thread = threading.Thread(
            target=pump, name=f"heartbeat-{self.worker_id}",
            daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "HeartbeatWriter":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class LivenessTracker:
    """Strike-counting observer of every worker's heartbeat stamp.

    Call :meth:`observe` once per poll cycle (the caller sleeps its
    poll interval between calls); a worker whose stamp has not
    advanced for ``strikes`` consecutive observations is reported
    dead.  Because both sides count in observations rather than
    seconds, the detection threshold scales with however fast the
    caller polls — and never touches the wall clock.
    """

    def __init__(self, queue: QueueDir, strikes: int = 4,
                 max_retries: int = 2):
        if strikes < 1:
            raise ValueError(f"strikes must be >= 1, got {strikes}")
        self.queue = queue
        self.strikes = strikes
        self.max_retries = max_retries
        self._seen: dict[str, tuple[int, int]] = {}

    def _stamps(self) -> dict[str, int]:
        stamps: dict[str, int] = {}
        fs = self.queue.fs
        try:
            names = fs.listdir(self.queue.hearts)
        except OSError:
            return stamps
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                payload = json.loads(
                    fs.read_text(self.queue.hearts / name))
                stamps[name[:-len(".json")]] = int(payload["stamp"])
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return stamps

    def observe(self) -> set[str]:
        """One poll: returns the workers currently considered dead."""
        stamps = self._stamps()
        dead: set[str] = set()
        for worker, stamp in stamps.items():
            last_stamp, misses = self._seen.get(worker, (-1, 0))
            if stamp != last_stamp:
                self._seen[worker] = (stamp, 0)
            else:
                misses += 1
                self._seen[worker] = (stamp, misses)
                if misses >= self.strikes:
                    dead.add(worker)
        # A lease owner with *no* heartbeat file at all has never
        # checked in (or its file was lost): give it the same strike
        # budget before declaring it dead.
        owners = {worker for _, worker in self.queue.active_leases()}
        for worker in owners - stamps.keys():
            last_stamp, misses = self._seen.get(worker, (-1, 0))
            misses += 1
            self._seen[worker] = (last_stamp, misses)
            if misses >= self.strikes:
                dead.add(worker)
        return dead

    def reclaim_dead(self, dead: set[str], events: "EventLog") -> int:
        """Reclaim or abandon every lease held by a dead worker.

        Each dead lease is announced with an ``expire`` event *before*
        anything is renamed, and counts as one lost attempt at every
        point it held.  Losses are read back from every actor's
        ``expire`` events as distinct (point, owner) pairs, so the
        budget holds across the fleet and across racing observers.  A
        multi-point lease is always split (its loss cannot say which
        point caused it); a one-point lease whose point has lost
        ``max_retries + 1`` workers is abandoned, so a point that kills
        or wedges every process running it fails alone.  Returns the
        number of dead leases found.
        """
        orphans = [(digest, worker)
                   for digest, worker in self.queue.active_leases()
                   if worker in dead]
        if not orphans:
            return 0
        losses = EventLog.losses(EventLog.read_all(self.queue))
        for digest, worker in orphans:
            job = self.queue.lease(digest, worker, events)
            if job is None:
                continue
            events.emit("expire", digest=digest, owner=worker,
                        points=list(job.digests))
            lost = len(losses.get(digest, set()) | {worker})
            if len(job.points) == 1 and lost > self.max_retries:
                self.queue.abandon(job, worker, lost, events)
            elif self.queue.reclaim(job, worker):
                events.emit("reclaim", digest=digest, owner=worker)
        return len(orphans)


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
class EventLog:
    """Per-actor append-only event stream (single writer per file).

    Dispatch statistics (steals, expirations, reclaims) are aggregated
    from these logs at collect time.  Each actor owns exactly one file,
    so no two processes ever write the same log — there is nothing to
    lock even on filesystems without atomic appends.  Events feed the
    ``DispatchStats`` block and the retry budget of points that lose
    their worker (``expire`` events, see
    :meth:`LivenessTracker.reclaim_dead`); they never alter a payload —
    which is also why an event that cannot be *written* (ENOSPC/EIO)
    is dropped and counted (:attr:`dropped`) rather than allowed to
    crash the worker that tried to emit it.  A dropped ``expire`` only
    makes the budget more lenient.
    """

    def __init__(self, queue: QueueDir, actor: str):
        self.path = queue.events / f"{_check_worker_id(actor)}.jsonl"
        self.actor = actor
        #: Events lost to write failures (ENOSPC/EIO).
        self.dropped = 0
        self._fs = queue.fs

    def emit(self, event: str, **fields: Any) -> None:
        record = {"event": event, "actor": self.actor, **fields}
        try:
            self._fs.append_text(self.path,
                                 json.dumps(record, sort_keys=True)
                                 + "\n")
        except OSError:
            self.dropped += 1

    @staticmethod
    def read_all(queue: QueueDir) -> list[dict[str, Any]]:
        """Every event from every actor, in (actor, order) order."""
        events: list[dict[str, Any]] = []
        try:
            names = queue.fs.listdir(queue.events)
        except OSError:
            return events
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            try:
                lines = queue.fs.read_text(
                    queue.events / name).splitlines()
            except OSError:
                continue
            for line in lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail of a crashed actor
                if isinstance(record, dict):
                    events.append(record)
        return events

    @staticmethod
    def losses(records: list[dict[str, Any]]) -> dict[str, set[str]]:
        """Point digest -> the workers whose lease on it expired."""
        lost: dict[str, set[str]] = {}
        for record in records:
            if record.get("event") != "expire" \
                    or not isinstance(record.get("points"), list):
                continue
            for digest in record["points"]:
                lost.setdefault(str(digest), set()).add(
                    str(record.get("owner")))
        return lost


# ----------------------------------------------------------------------
# queue manifest
# ----------------------------------------------------------------------
def write_queue_manifest(queue: QueueDir,
                         payload: Mapping[str, Any]) -> None:
    """Persist the campaign-identity manifest atomically."""
    atomic_write_text(queue.root / QUEUE_MANIFEST_NAME,
                      json.dumps(dict(payload), sort_keys=True,
                                 indent=2) + "\n")


def read_queue_manifest(queue: QueueDir) -> dict[str, Any]:
    """Read and minimally validate the queue manifest."""
    path = queue.root / QUEUE_MANIFEST_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(
            f"{path} is unreadable ({exc}); is this a dispatch "
            "queue directory?") from exc
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path} must be a JSON object")
    for key in ("campaign", "seed", "fingerprint", "points",
                "digests"):
        if key not in payload:
            raise ValueError(f"{path} is missing the {key!r} field")
    return payload
