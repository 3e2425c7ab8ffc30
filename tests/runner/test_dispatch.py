"""Distributed dispatch: bit-identity, crash recovery, the gate."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.distcheck.manifest import load_manifest
from repro.runner import (
    Campaign,
    CampaignRunner,
    ResultCache,
    build_campaign,
)
from repro.runner.dispatch import (
    MERGED_JOURNAL_NAME,
    DispatchCoordinator,
    DispatchRefusedError,
    run_worker,
)
from repro.runner.fsops import FsOps
from repro.runner.lease import QueueDir, write_queue_manifest

REPO_MANIFEST = load_manifest("distcheck-manifest.json")


def _campaign(name="dispatched", seed=99):
    """Fast, RNG-bearing, multi-scenario: the executor-test workload."""
    specs = [("radio-sweep", {"bus": bus, "samples": samples,
                              "repetitions": 20})
             for bus in ("usb2", "usb3", "pcie")
             for samples in (2_000, 8_000)]
    specs += [("design-feasibility",
               {"index": index, "mu": 2, "max_period_ms": 1.0,
                "budget_ms": 0.5, "reliability": 0.99999})
              for index in (0, 1)]
    return Campaign.build(name, seed, specs)


def _fake_manifest(tmp_path, **scenarios):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "schema_version": 1, "tool_version": "test",
        "scenarios": {name: {"entry": f"m.{name}", "status": status}
                      for name, status in scenarios.items()},
    }), encoding="utf-8")
    return load_manifest(path)


def _payloads(result):
    return [pr.result for pr in result.point_results]


# ----------------------------------------------------------------------
# the manifest gate
# ----------------------------------------------------------------------
def test_uncertified_scenario_is_refused_before_any_job(tmp_path):
    manifest = _fake_manifest(tmp_path, **{"radio-sweep": "certified"})
    coordinator = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue", manifest=manifest,
        fingerprint="fp")
    with pytest.raises(DispatchRefusedError) as excinfo:
        coordinator.run(_campaign())
    assert "design-feasibility" in str(excinfo.value)
    assert not (tmp_path / "queue" / "jobs").exists()


def test_refused_status_is_refused_like_absence(tmp_path):
    manifest = _fake_manifest(
        tmp_path, **{"radio-sweep": "certified",
                     "design-feasibility": "refused"})
    coordinator = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue", manifest=manifest,
        fingerprint="fp")
    with pytest.raises(DispatchRefusedError, match="'refused'"):
        coordinator.run(_campaign())


def test_chaos_selftest_stays_host_local():
    # The repo manifest deliberately refuses the self-test scenario
    # (it kills its own worker process): the dispatcher must never
    # ship it.
    assert not REPO_MANIFEST.distributable("chaos-selftest")
    assert REPO_MANIFEST.refusals(["chaos-selftest"])


def test_cli_dispatch_refusal_exits_2(tmp_path, capsys):
    manifest_path = tmp_path / "empty.json"
    manifest_path.write_text(json.dumps({
        "schema_version": 1, "tool_version": "t", "scenarios": {}}),
        encoding="utf-8")
    code = main(["bench", "smoke", "--dispatch", "2",
                 "--manifest", str(manifest_path),
                 "--queue-dir", str(tmp_path / "queue"),
                 "--no-cache", "--no-journal",
                 "--output", str(tmp_path / "B.json")])
    assert code == 2
    assert "dispatch refused" in capsys.readouterr().err


def test_cli_dispatch_conflicts_exit_2(tmp_path, capsys):
    assert main(["bench", "smoke", "--dispatch", "2",
                 "--workers", "4"]) == 2
    assert main(["bench", "smoke", "--dispatch", "2", "--resume"]) == 2
    assert main(["bench", "smoke", "--dispatch", "0"]) == 2
    assert main(["bench", "--worker", str(tmp_path), "--dispatch",
                 "2"]) == 2
    assert main(["bench", "smoke", "--dispatch", "2", "--manifest",
                 str(tmp_path / "missing.json")]) == 2


# ----------------------------------------------------------------------
# bit-identity
# ----------------------------------------------------------------------
def test_dispatched_run_is_bit_identical_to_serial(tmp_path):
    campaign = _campaign()
    serial = CampaignRunner(workers=1).run(campaign)
    coordinator = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue",
        manifest=REPO_MANIFEST)
    dispatched = coordinator.run(campaign)
    assert _payloads(dispatched) == _payloads(serial)
    assert dispatched.metrics() == serial.metrics()
    assert dispatched.results_digest() == serial.results_digest()
    stats = dispatched.dispatch
    assert stats is not None and stats.jobs == len(campaign)
    assert sum(stats.per_worker_points.values()) >= len(campaign)
    # The merged journal is serial-equivalent and in campaign order.
    merged = (tmp_path / "queue" / MERGED_JOURNAL_NAME)
    lines = merged.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["digest"] for line in lines[1:]] == \
        [point.digest() for point in campaign.points]


def test_failing_point_fails_identically_under_dispatch(tmp_path):
    campaign = Campaign.build("partial", 3, [
        ("radio-sweep", {"bus": "usb2", "samples": 1_000,
                         "repetitions": 5}),
        ("radio-sweep", {"bus": "not-a-bus", "samples": 1_000,
                         "repetitions": 5}),
    ])
    serial = CampaignRunner(workers=1, max_retries=0).run(campaign)
    coordinator = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue",
        manifest=REPO_MANIFEST, max_retries=0)
    dispatched = coordinator.run(campaign)
    assert len(serial.failures) == len(dispatched.failures) == 1
    assert dispatched.failures[0].error == serial.failures[0].error
    assert dispatched.results_digest() == serial.results_digest()


def test_second_dispatch_replays_from_shared_cache(tmp_path):
    campaign = _campaign()
    cache = ResultCache(tmp_path / "cache.json")
    coordinator = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue",
        manifest=REPO_MANIFEST, cache=cache)
    cold = coordinator.run(campaign)
    warm = coordinator.run(campaign)
    assert cold.cache_hits == 0
    assert warm.cache_hits == len(campaign)
    assert warm.dispatch is not None and warm.dispatch.jobs == 0
    assert _payloads(cold) == _payloads(warm)
    assert cold.results_digest() == warm.results_digest()


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
DOOMED_WORKER = """\
import os
import signal
import sys

from repro.runner.dispatch import _process_job
from repro.runner.journal import CampaignJournal
from repro.runner.lease import EventLog, QueueDir, read_queue_manifest

queue = QueueDir(sys.argv[1])
manifest = read_queue_manifest(queue)
events = EventLog(queue, "doomed")
journal = CampaignJournal(queue.journals / "doomed.jsonl")
journal.start_raw(name=manifest["campaign"], seed=manifest["seed"],
                  fingerprint=manifest["fingerprint"],
                  points=manifest["points"],
                  digests=set(manifest["digests"]))
first = queue.claim("doomed")
assert first is not None
_process_job(queue, journal, events, first, "doomed", 2)
second = queue.claim("doomed")
assert second is not None
# SIGKILL ourselves while holding the second lease: no heartbeat, no
# done marker, no journal entry — the canonical orphaned lease.
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_killed_worker_lease_is_reclaimed_and_run_converges(tmp_path):
    # The only "worker" claims one job cleanly, then dies mid-claim on
    # a second.  The coordinator must declare it dead (stamp-based, no
    # wall clock), reclaim the orphaned lease, finish every remaining
    # point inline, and still produce the serial document bit for bit.
    script = tmp_path / "doomed.py"
    script.write_text(DOOMED_WORKER, encoding="utf-8")
    campaign = _campaign()
    serial = CampaignRunner(workers=1).run(campaign)
    coordinator = DispatchCoordinator(
        workers=1, queue_dir=tmp_path / "queue",
        manifest=REPO_MANIFEST, strikes=3,
        spawn_command=lambda worker_id: [
            sys.executable, str(script), str(tmp_path / "queue")])
    dispatched = coordinator.run(campaign)
    stats = dispatched.dispatch
    assert stats is not None
    assert stats.lease_expirations >= 1
    assert stats.reclaims >= 1
    assert stats.inline_points >= 1
    # The doomed worker's completed point survives through its journal;
    # everything else was reclaimed or drained inline.
    assert "doomed" in stats.per_worker_points
    assert _payloads(dispatched) == _payloads(serial)
    assert dispatched.results_digest() == serial.results_digest()
    assert any("exited with code" in w for w in dispatched.warnings)


# ----------------------------------------------------------------------
# worker-side refusals and safety latches
# ----------------------------------------------------------------------
def test_worker_refuses_missing_queue(tmp_path, capsys):
    code = run_worker(tmp_path / "no-queue", "w1", attach_polls=1,
                      poll_interval_s=0.0)
    assert code == 2
    assert "queue manifest" in capsys.readouterr().err


def test_worker_refuses_foreign_fingerprint(tmp_path, capsys):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    write_queue_manifest(queue, {
        "campaign": "c", "seed": 1, "fingerprint": "theirs",
        "points": 0, "digests": [], "enqueued": []})
    code = run_worker(queue.root, "w1", fingerprint="mine",
                      attach_polls=1, poll_interval_s=0.0)
    assert code == 2
    assert "fingerprint" in capsys.readouterr().err


def test_worker_drains_an_already_done_queue(tmp_path):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    write_queue_manifest(queue, {
        "campaign": "c", "seed": 1, "fingerprint": "fp",
        "points": 0, "digests": [], "enqueued": []})
    assert run_worker(queue.root, "w1", fingerprint="fp",
                      attach_polls=1, poll_interval_s=0.0) == 0


def test_queue_reset_refuses_foreign_directories(tmp_path):
    precious = tmp_path / "precious"
    precious.mkdir()
    (precious / "data.txt").write_text("irreplaceable",
                                       encoding="utf-8")
    coordinator = DispatchCoordinator(
        workers=1, queue_dir=precious, manifest=REPO_MANIFEST,
        fingerprint="fp")
    with pytest.raises(ValueError, match="refusing to wipe"):
        coordinator.run(_campaign())
    assert (precious / "data.txt").read_text(
        encoding="utf-8") == "irreplaceable"


def test_coordinator_rejects_bad_construction(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        DispatchCoordinator(workers=0, queue_dir=tmp_path,
                            manifest=REPO_MANIFEST)
    with pytest.raises(ValueError, match="max_retries"):
        DispatchCoordinator(workers=1, queue_dir=tmp_path,
                            manifest=REPO_MANIFEST, max_retries=-1)
    with pytest.raises(ValueError, match="strikes"):
        DispatchCoordinator(workers=1, queue_dir=tmp_path,
                            manifest=REPO_MANIFEST, strikes=0)


# ----------------------------------------------------------------------
# queue-operation counts
# ----------------------------------------------------------------------
class _CountingFs(FsOps):
    """Passthrough seam that counts listings per directory and reads
    per file."""

    def __init__(self):
        self.listings = Counter()
        self.reads = Counter()

    def listdir(self, directory):
        self.listings[Path(directory).name] += 1
        return super().listdir(directory)

    def read_text(self, path):
        self.reads[Path(path)] += 1
        return super().read_text(path)


def _enqueue_all(queue, campaign, homes):
    queue.initialise()
    digests = [point.digest() for point in campaign.points]
    write_queue_manifest(queue, {
        "campaign": campaign.name, "seed": campaign.seed,
        "fingerprint": "fp", "points": len(campaign),
        "digests": digests, "enqueued": sorted(digests)})
    for index, point in enumerate(campaign.points):
        queue.enqueue(point, home=homes[index % len(homes)])
    return set(digests)


def test_worker_lists_the_job_queue_a_constant_number_of_times(
        tmp_path):
    # 238 points over two home shards: the worker drains its own shard
    # and steals the other from one listing, plus the listing that
    # finds the queue empty.  Listing per claim would be O(points).
    campaign = build_campaign("sweep")
    assert len(campaign) >= 200
    fs = _CountingFs()
    queue = QueueDir(tmp_path / "queue", fs=fs)
    expected = _enqueue_all(queue, campaign, ["w1", "w2"])
    assert run_worker(queue.root, "w1", fingerprint="fp", fs=fs,
                      attach_polls=1, poll_interval_s=0.0) == 0
    assert set(queue.done_markers()) == expected
    assert fs.listings["jobs"] <= 3


def test_coordinator_reads_each_done_marker_once_while_waiting(
        tmp_path, monkeypatch):
    # The spawned workers exit at once, so the coordinator drains all
    # 238 points inline, polling the done markers after each one.
    campaign = build_campaign("sweep")
    fs = _CountingFs()
    coordinator = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue",
        manifest=REPO_MANIFEST, fingerprint="fp",
        spawn_command=lambda worker_id: [sys.executable, "-c", "pass"])
    coordinator.queue = QueueDir(tmp_path / "queue", fs=fs)
    collect = coordinator._collect
    reads_before_collect = Counter()

    def counting_collect(*args, **kwargs):
        reads_before_collect.update(fs.reads)
        return collect(*args, **kwargs)

    monkeypatch.setattr(coordinator, "_collect", counting_collect)
    dispatched = coordinator.run(campaign)
    assert dispatched.dispatch is not None
    assert dispatched.dispatch.inline_points == len(campaign)
    marker_reads = [count for path, count in reads_before_collect.items()
                    if path.parent.name == "done"]
    assert len(marker_reads) == len(campaign)
    assert max(marker_reads) == 1
    assert fs.listings["jobs"] <= 3
    serial = CampaignRunner(workers=1).run(campaign)
    assert dispatched.results_digest() == serial.results_digest()
