"""Queue primitives: cached claim listings and incremental done markers."""

import json

from repro.runner import Campaign
from repro.runner.dispatch import run_worker
from repro.runner.lease import QueueDir, write_queue_manifest


def _points(count):
    campaign = Campaign.build("lease", 5, [
        ("radio-sweep", {"bus": "usb2", "samples": 1_000 + 500 * index,
                         "repetitions": 5})
        for index in range(count)])
    return campaign, list(campaign.points)


def _queue(tmp_path, campaign):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    digests = [point.digest() for point in campaign.points]
    write_queue_manifest(queue, {
        "campaign": campaign.name, "seed": campaign.seed,
        "fingerprint": "fp", "points": len(campaign),
        "digests": digests, "enqueued": sorted(digests)})
    return queue


def test_listing_entry_claimed_by_a_peer_is_skipped(tmp_path):
    campaign, points = _points(3)
    queue = _queue(tmp_path, campaign)
    for point in points:
        queue.enqueue(point, home="w1")
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
    queue.enqueue(points[0], home="w1")
    assert queue.claim("w1").digest == points[0].digest()
    # Published after w1's listing (a reclaim does the same rename):
    # the used-up listing is re-read, not reported as an empty queue.
    queue.enqueue(points[1], home="w2")
    assert queue.claim("w1").digest == points[1].digest()
    assert queue.claim("w1") is None


def test_lease_reclaimed_after_the_listing_runs_before_exit(tmp_path):
    campaign, points = _points(4)
    queue = _queue(tmp_path, campaign)
    for point in points:
        queue.enqueue(point, home="w1")
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
    torn.write_text('{"digest": "ab', encoding="utf-8")
    assert queue.done_markers() == {}
    torn.write_text(json.dumps({"digest": "abc", "worker": "w1"}),
                    encoding="utf-8")
    assert queue.done_markers()["abc"]["worker"] == "w1"


def test_parsed_markers_are_remembered_until_a_fresh_read(tmp_path):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    queue.mark_done("abc", "w1", attempts=1)
    assert queue.done_markers()["abc"]["worker"] == "w1"
    # A duplicate execution rewrites the marker: polls keep the first
    # parse, a fresh read shows the final content.
    queue.mark_done("abc", "w2", attempts=1, stolen=True)
    assert queue.done_markers()["abc"]["worker"] == "w1"
    assert queue.done_markers(fresh=True)["abc"]["worker"] == "w2"
