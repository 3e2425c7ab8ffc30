"""Queue primitives: batch layout, claims, splits, done markers."""

import errno
import json

import pytest

from repro.runner import Campaign
from repro.runner.dispatch import run_worker
from repro.runner.fsops import FsOps
from repro.runner.lease import (
    EventLog,
    Job,
    LivenessTracker,
    QueueDir,
    batches,
    read_queue_manifest,
    write_queue_manifest,
)


def _points(count):
    campaign = Campaign.build("lease", 5, [
        ("radio-sweep", {"bus": "usb2", "samples": 1_000 + 500 * index,
                         "repetitions": 5})
        for index in range(count)])
    return campaign, list(campaign.points)


def _one(point):
    """A one-point job's contents."""
    return {point.digest(): point}


def _queue(tmp_path, campaign, **manifest):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    digests = [point.digest() for point in campaign.points]
    write_queue_manifest(queue, {
        "campaign": campaign.name, "seed": campaign.seed,
        "fingerprint": "fp", "points": len(campaign),
        "digests": digests, "enqueued": sorted(digests), **manifest})
    return queue


class _FailNthWrite(FsOps):
    """Passthrough seam whose ``n``-th ``write_text`` raises EIO."""

    def __init__(self, n):
        self.n = n
        self.writes = 0

    def write_text(self, path, text):
        self.writes += 1
        if self.writes == self.n:
            raise OSError(errno.EIO, "injected write fault")
        super().write_text(path, text)


def test_listing_entry_claimed_by_a_peer_is_skipped(tmp_path):
    campaign, points = _points(3)
    queue = _queue(tmp_path, campaign)
    for point in points:
        queue.enqueue(_one(point), home="w1")
    first, second, third = sorted(point.digest() for point in points)
    assert queue.claim("w1").digest == first
    # A peer steals the next job after w1 cached its listing.
    peer = QueueDir(queue.root)
    assert peer.claim("w2").digest == second
    # w1's listing still names it: the rename is lost, not an error.
    assert queue.claim("w1").digest == third
    assert queue.claim("w1") is None
    assert queue.pending() == []


def test_job_enqueued_after_the_listing_is_claimed_before_none(tmp_path):
    campaign, points = _points(3)
    queue = _queue(tmp_path, campaign)
    queue.enqueue(_one(points[0]), home="w1")
    assert queue.claim("w1").digest == points[0].digest()
    # Published after w1's listing (a reclaim does the same rename):
    # the used-up listing is re-read, not reported as an empty queue.
    queue.enqueue(_one(points[1]), home="w2")
    assert queue.claim("w1").digest == points[1].digest()
    assert queue.claim("w1") is None


def test_lease_reclaimed_after_the_listing_runs_before_exit(tmp_path):
    campaign, points = _points(4)
    queue = _queue(tmp_path, campaign)
    for point in points:
        queue.enqueue(_one(point), home="w1")
    # A worker with no heartbeat dies holding a lease, so w1's first
    # listing cannot contain that job.  w1 drains the rest, declares
    # the holder dead, reclaims the lease into jobs/ and must run it
    # before it exits.
    orphan = QueueDir(queue.root).claim("dead")
    assert orphan is not None
    assert run_worker(queue.root, "w1", fingerprint="fp", strikes=1,
                      attach_polls=1, poll_interval_s=0.0) == 0
    markers = QueueDir(queue.root).done_markers()
    assert set(markers) == {point.digest() for point in points}
    assert markers[orphan.digest]["worker"] == "w1"
    assert queue.active_leases() == []


def test_unparseable_marker_is_read_again_on_the_next_poll(tmp_path):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    torn = queue.done / "abc.json"
    torn.write_text('{"job": "abc", "points": [{"dig', encoding="utf-8")
    assert queue.done_markers() == {}
    torn.write_text(json.dumps({"job": "abc", "worker": "w1",
                                "points": [{"digest": "abc"}]}),
                    encoding="utf-8")
    assert queue.done_markers()["abc"]["worker"] == "w1"


def test_parsed_markers_are_remembered_until_a_fresh_read(tmp_path):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    queue.mark_done("abc", "w1", [("abc", 1, None)])
    assert queue.done_markers()["abc"]["worker"] == "w1"
    # A duplicate execution rewrites the marker: polls keep the first
    # parse, a fresh read shows the final content.
    queue.mark_done("abc", "w2", [("abc", 1, None)], stolen=True)
    assert queue.done_markers()["abc"]["worker"] == "w1"
    assert queue.done_markers(fresh=True)["abc"]["worker"] == "w2"


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, workers, size", [
    (952, 2, 119), (10, 2, 2), (3, 2, 1), (238, 3, 20), (7, 1, 2),
    (0, 2, 1)])
def test_batch_layout_is_contiguous_and_covers_each_point_once(
        count, workers, size):
    digests = [f"d{index:04d}" for index in range(count)]
    layout = batches(digests, workers)
    assert layout == batches(list(digests), workers)  # deterministic
    # Contiguous in campaign order, every point exactly once.
    assert [d for job in layout for d in job] == digests
    assert all(len(job) == size for job in layout[:-1])
    assert all(0 < len(job) <= size for job in layout)
    # About four jobs per worker, never more.
    assert len(layout) <= 4 * workers


def test_worker_retires_a_corrupt_batch_by_the_manifests_layout(tmp_path):
    campaign, points = _points(3)
    digests = [point.digest() for point in points]
    key = Job.key(digests)
    queue = _queue(tmp_path, campaign, jobs={key: digests})
    queue.enqueue(dict(zip(digests, points)), home="w1")
    (queue.jobs / f"{key}--w1.json").write_text("{not json",
                                                encoding="utf-8")
    # A worker knows the batch's points only from the manifest (as
    # run_worker sets them): the quarantine retires all of them.
    worker = QueueDir(queue.root)
    worker.members = read_queue_manifest(worker)["jobs"]
    assert worker.claim("w2") is None
    markers = worker.done_markers()
    assert set(markers) == set(digests)
    assert {marker["job"] for marker in markers.values()} == {key}


def test_dead_workers_multi_point_lease_is_split_per_point(tmp_path):
    campaign, points = _points(5)
    queue = _queue(tmp_path, campaign)
    queue.enqueue({point.digest(): point for point in points[:3]},
                  home="w1")
    job = QueueDir(queue.root).claim("dead")
    assert job.digests == tuple(point.digest() for point in points[:3])
    events = EventLog(queue, "observer")
    tracker = LivenessTracker(queue, strikes=1, max_retries=0)
    assert tracker.reclaim_dead({"dead"}, events) == 1
    # Even past its budget, no point of a split lease is abandoned:
    # the loss cannot say which of them killed the worker.
    assert queue.active_leases() == []
    assert queue.done_markers() == {}
    assert sorted(queue.pending()) == sorted(
        (digest, "w1") for digest in job.digests)
    assert EventLog.losses(EventLog.read_all(queue)) == {
        digest: {"dead"} for digest in job.digests}


def test_split_cut_short_by_a_write_fault_publishes_every_point_later(
        tmp_path):
    campaign, points = _points(3)
    digests = [point.digest() for point in points]
    queue = _queue(tmp_path, campaign)
    queue.enqueue(dict(zip(digests, points)), home="w1")
    job = QueueDir(queue.root).claim("dead")
    faulty = QueueDir(queue.root, fs=_FailNthWrite(2))
    # The second single's write fails: only the first is published and
    # the lease stays for the next reclaim.
    assert not faulty.reclaim(job, "dead")
    assert queue.pending() == [(digests[0], "w1")]
    # A worker finishes that single before the next reclaim, which must
    # still publish the other two points.
    assert queue.claim("w2").digest == digests[0]
    queue.mark_done(digests[0], "w2", [(digests[0], 1, None)])
    queue.release(digests[0], "w2")
    assert faulty.reclaim(job, "dead")
    assert queue.active_leases() == []
    assert {digest for digest, _ in queue.pending()} == set(digests)


def test_corrupt_split_single_retires_only_its_own_point(tmp_path):
    campaign, points = _points(3)
    digests = [point.digest() for point in points]
    queue = _queue(tmp_path, campaign)
    queue.members = {Job.key(digests): digests}
    queue.enqueue(dict(zip(digests, points)), home="w1")
    assert queue.reclaim(QueueDir(queue.root).claim("dead"), "dead")
    # The first point's single never shares the batch's key, so its
    # quarantine cannot retire (and so recompute inline) its siblings.
    (queue.jobs / f"{digests[0]}--w1.json").write_text("{not json",
                                                       encoding="utf-8")
    while queue.claim("w2") is not None:
        pass
    assert set(queue.done_markers()) == {digests[0]}
