"""Filesystem queue primitives: jobs, leases, heartbeats, reclamation.

The dispatch layer (:mod:`repro.runner.dispatch`) coordinates workers
through a shared *queue directory* — the only channel a worker needs,
which is what lets workers attach from other hosts over any shared
filesystem.  The layout::

    <queue>/queue-manifest.json   campaign identity + enqueued digests
    <queue>/jobs/                 one file per unclaimed job
    <queue>/leases/               one file per in-flight claim
    <queue>/done/                 one marker per finished point
    <queue>/hearts/               one liveness stamp file per worker
    <queue>/events/               one append-only event log per actor
    <queue>/journals/             one CampaignJournal per worker

Every protocol transition is a single atomic ``os.replace``:

- **claim**: ``jobs/<digest>--<home>.json`` →
  ``leases/<digest>--<worker>.json``.  Exactly one racing worker wins
  the rename; losers get ``FileNotFoundError`` and move on.
- **reclaim**: an orphaned lease is renamed back into ``jobs/`` with
  its original home shard, so a crashed worker's points are re-run by
  whoever steals them next.

Every filesystem operation routes through an injectable
:class:`~repro.runner.fsops.FsOps` seam (passthrough by default), and
every transition is bracketed by named crash points — which is how
``urllc5g chaosdispatch`` certifies that a worker killed at *any*
instant, or fed EIO/ENOSPC/stale listings, still leaves a queue that
converges to the serial document (docs/ROBUSTNESS.md).

A corrupt job or lease file (torn write that half-landed, bitrot on a
shared filesystem) is *quarantined* — renamed to
``<name>.corrupt-<content-digest>`` exactly like the ResultCache does —
and its point recomputed by the coordinator at collect, rather than
letting one bad file livelock the claim loop.

Liveness is *stamp-based*, never wall-clock-based: each worker's
heartbeat thread rewrites ``hearts/<worker>.json`` with a monotonically
increasing counter, and an observer decides a worker is dead when the
counter has not advanced across ``strikes`` consecutive observations
(the observer sleeps its poll interval between scans).  No component
of the protocol ever reads the wall clock, so the queue layer is
lint-clean under the ``no-wall-clock`` rule without any excuse — and
scheduling can never leak into results, which stay pure functions of
``(scenario, params, seed)``.

A false-positive reclaim (a live worker briefly starved of heartbeats)
is *safe*: both workers compute the same pure payload and the merge
layer (:mod:`repro.runner.merge`) deduplicates identical entries.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.runner.cache import atomic_write_text
from repro.runner.campaign import ScenarioPoint, canonical_params
from repro.runner.fsops import DEFAULT_FS, FsOps

__all__ = [
    "EventLog",
    "HeartbeatWriter",
    "Job",
    "LivenessTracker",
    "QueueDir",
    "read_queue_manifest",
    "write_queue_manifest",
]

#: Separator between digest and shard/worker id inside queue filenames.
_SEP = "--"

_WORKER_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

QUEUE_MANIFEST_NAME = "queue-manifest.json"


def _check_worker_id(worker_id: str) -> str:
    if _SEP in worker_id or not _WORKER_ID_RE.match(worker_id):
        raise ValueError(
            f"worker id must match [A-Za-z0-9_.-]+ and not contain "
            f"{_SEP!r}, got {worker_id!r}")
    return worker_id


@dataclass(frozen=True)
class Job:
    """One unit of queued work: a scenario point plus its home shard."""

    digest: str
    scenario: str
    params: dict[str, Any]
    seed: int
    home: str

    def point(self) -> ScenarioPoint:
        """Rebuild the scenario point this job file describes."""
        point = ScenarioPoint(self.scenario,
                              canonical_params(self.params),
                              self.seed)
        if point.digest() != self.digest:
            raise ValueError(
                f"job file digest {self.digest[:12]}... does not match "
                f"its point content (tampered or mixed-version queue)")
        return point

    def payload(self) -> dict[str, Any]:
        return {"digest": self.digest, "scenario": self.scenario,
                "params": self.params, "seed": self.seed,
                "home": self.home}


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
        #: Unclaimed ``(digest, home)`` candidates left from the last
        #: ``jobs/`` listing, own shard first (see :meth:`claim`).
        self._listing: deque[tuple[str, str]] = deque()
        self._listed_for = ""
        #: Done markers already parsed, and the file names they came
        #: from (see :meth:`done_markers`).
        self._markers: dict[str, dict[str, Any]] = {}
        self._marker_names: set[str] = set()

    def initialise(self) -> None:
        """Create the directory skeleton (idempotent)."""
        for directory in (self.root, self.jobs, self.leases, self.done,
                          self.hearts, self.events, self.journals):
            self.fs.mkdir(directory)

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------
    def enqueue(self, point: ScenarioPoint, home: str,
                digest: str | None = None) -> None:
        """Publish one job file, atomically, under its home shard.

        ``digest`` is the point's digest when the caller already has
        it (it is computed otherwise).
        """
        _check_worker_id(home)
        if digest is None:
            digest = point.digest()
        job = Job(digest=digest, scenario=point.scenario,
                  params=point.params_dict(), seed=point.seed,
                  home=home)
        self.fs.write_text(self.jobs / f"{digest}{_SEP}{home}.json",
                           json.dumps(job.payload(), sort_keys=True))

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

        Own-shard jobs are preferred (in sorted digest order); when the
        shard is empty the worker *steals* the first other-shard job.
        Returns None when nothing was claimable — either the queue is
        empty or every candidate was won by a faster worker.

        Candidates come from one cached listing of ``jobs/``, which is
        re-listed only once it is used up, so a claim costs O(1) file
        operations instead of a scan of the whole queue.  The listing
        may be stale by design: an entry a peer claimed since simply
        loses its rename, exactly like a lost race.  None is returned
        only after a listing taken during this call had nothing
        claimable, so a job reclaimed into ``jobs/`` after the cached
        listing is still found before the caller gives up.

        A lease whose payload reads but does not parse is *corrupt*
        (not torn — the rename was atomic): it is quarantined and its
        digest marked done with no payload, so the claim loop cannot
        livelock on one bad file and the coordinator recomputes the
        point at collect.  A lease whose payload cannot be *read*
        (transient EIO) is surrendered back to the queue unchanged.
        """
        _check_worker_id(worker_id)
        if self._listed_for != worker_id:
            self._listing.clear()
            self._listed_for = worker_id
        relisted = False
        while True:
            if not self._listing:
                if relisted:
                    return None
                candidates = self.pending()
                self._listing.extend(
                    [c for c in candidates if c[1] == worker_id]
                    + [c for c in candidates if c[1] != worker_id])
                relisted = True
                continue
            digest, home = self._listing.popleft()
            job = self._claim_one(digest, home, worker_id, events)
            if job is not None:
                return job

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
        try:
            raw = self.fs.read_text(target)
        except OSError:
            # Transient read failure: surrender the lease so the job
            # stays claimable for a later listing.
            try:
                self.fs.replace(target, source)
            except OSError:
                pass
            return None
        try:
            payload = json.loads(raw)
            return Job(digest=str(payload["digest"]),
                       scenario=str(payload["scenario"]),
                       params=dict(payload["params"]),
                       seed=int(payload["seed"]),
                       home=str(payload["home"]))
        except (ValueError, KeyError, TypeError):
            # The payload read fine but is not a job: the file is
            # corrupt, and re-reading can never heal it.
            self._quarantine(target, raw, digest, worker=worker_id,
                             events=events)
            return None

    def release(self, digest: str, worker_id: str) -> None:
        """Drop a completed claim's lease file (idempotent)."""
        self.fs.crash_point("release.pre")
        try:
            self.fs.unlink(self.leases / f"{digest}{_SEP}{worker_id}.json")
        except OSError:
            pass

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

    def reclaim(self, digest: str, worker_id: str,
                events: "EventLog | None" = None) -> bool:
        """Return an orphaned lease to the job queue.

        The lease file still holds the original job payload (claim is
        a pure rename), so renaming it back under its *home* shard
        re-publishes the job unchanged.  Returns False when another
        reclaimer won the race.  A lease that reads but does not parse
        is quarantined (see :meth:`claim`) instead of being retried
        forever by every observer.
        """
        lease = self.leases / f"{digest}{_SEP}{worker_id}.json"
        try:
            raw = self.fs.read_text(lease)
        except OSError:
            return False
        try:
            payload = json.loads(raw)
            home = _check_worker_id(str(payload["home"]))
        except (ValueError, KeyError, TypeError):
            self._quarantine(lease, raw, digest, worker=worker_id,
                             events=events)
            return False
        self.fs.crash_point("reclaim.pre-rename")
        try:
            self.fs.replace(lease, self.jobs / f"{digest}{_SEP}{home}.json")
        except OSError:
            return False
        self.fs.crash_point("reclaim.post-rename")
        return True

    def _quarantine(self, path: Path, raw: str, digest: str, *,
                    worker: str,
                    events: "EventLog | None" = None) -> None:
        """Sideline one corrupt queue file and retire its digest.

        Mirrors the ResultCache pattern: the file is renamed to
        ``<name>.corrupt-<content-digest>`` (which no scan picks up —
        it no longer ends in ``.json``) so the defect stays on disk
        for forensics.  A done marker *without* an error is published
        for the digest, which is exactly the shape collect recomputes
        from the campaign's own point list — so the document stays
        bit-identical to serial.
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
            self.mark_done(digest, worker, attempts=1)
        except OSError:
            pass  # no marker: the stall backstop recovers the point

    # ------------------------------------------------------------------
    # done markers
    # ------------------------------------------------------------------
    def mark_done(self, digest: str, worker_id: str, attempts: int,
                  error: str | None = None,
                  stolen: bool = False) -> None:
        """Publish the completion marker for one point, atomically."""
        self.fs.crash_point("done-marker.pre")
        self.fs.write_text(
            self.done / f"{digest}.json",
            json.dumps({"digest": digest, "worker": worker_id,
                        "attempts": attempts, "error": error,
                        "stolen": stolen}, sort_keys=True))
        self.fs.crash_point("done-marker.post")

    def done_markers(self, fresh: bool = False
                     ) -> dict[str, dict[str, Any]]:
        """digest -> completion marker, for every finished point.

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
            if isinstance(payload, dict) \
                    and isinstance(payload.get("digest"), str):
                self._markers[payload["digest"]] = payload
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

    def __init__(self, queue: QueueDir, worker_id: str,
                 interval_s: float = 0.1):
        self.path = queue.hearts / f"{_check_worker_id(worker_id)}.json"
        self.worker_id = worker_id
        self.interval_s = interval_s
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
            while not self._stop.wait(self.interval_s):
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

    def __init__(self, queue: QueueDir, strikes: int = 4):
        if strikes < 1:
            raise ValueError(f"strikes must be >= 1, got {strikes}")
        self.queue = queue
        self.strikes = strikes
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

    def reclaim_dead(self, dead: set[str],
                     events: "EventLog | None" = None) -> int:
        """Reclaim every lease held by a dead worker; returns count."""
        reclaimed = 0
        for digest, worker in self.queue.active_leases():
            if worker not in dead:
                continue
            if events is not None:
                events.emit("expire", digest=digest, owner=worker)
            if self.queue.reclaim(digest, worker, events):
                reclaimed += 1
                if events is not None:
                    events.emit("reclaim", digest=digest, owner=worker)
        return reclaimed


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
class EventLog:
    """Per-actor append-only event stream (single writer per file).

    Dispatch statistics (steals, expirations, reclaims) are aggregated
    from these logs at collect time.  Each actor owns exactly one file,
    so no two processes ever write the same log — there is nothing to
    lock even on filesystems without atomic appends.  Events feed the
    ``DispatchStats`` block only; they never influence results — which
    is also why an event that cannot be *written* (ENOSPC/EIO) is
    dropped and counted (:attr:`dropped`) rather than allowed to crash
    the worker that tried to emit it.
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
