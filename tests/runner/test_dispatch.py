"""Distributed dispatch: bit-identity, crash recovery, the gate."""

import json
import os
import signal
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.distcheck.manifest import load_manifest
from repro.runner import (
    Campaign,
    CampaignJournal,
    CampaignRunner,
    ResultCache,
    build_campaign,
)
from repro.runner import dispatch, envconfig
from repro.runner.chaos import ChaosPlan
from repro.runner.dispatch import (
    DispatchCoordinator,
    DispatchRefusedError,
    run_worker,
)
from repro.runner.fsops import FsOps
from repro.runner.lease import QueueDir, batches, write_queue_manifest
from repro.sim.sampling import force_sequential
from repro.sim.sanitize import sanitizer_session

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


def test_parallel_runner_refuses_before_touching_the_journal(tmp_path):
    # CampaignRunner(workers=N) gates on the checked-in manifest, which
    # refuses the self-test scenario, before the journal is opened.
    journal_path = tmp_path / "run.journal.jsonl"
    journal_path.write_text("previous run\n", encoding="utf-8")
    campaign = Campaign.build("refused", 1, [
        ("chaos-selftest", {"mode": "ok"})])
    with CampaignJournal(journal_path) as journal:
        with pytest.raises(DispatchRefusedError, match="chaos-selftest"):
            CampaignRunner(workers=2).run(campaign, journal=journal)
    assert journal_path.read_text(encoding="utf-8") == "previous run\n"


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
    code = main(["bench", "smoke", "--workers", "2",
                 "--manifest", str(manifest_path),
                 "--queue-dir", str(tmp_path / "queue"),
                 "--no-cache", "--no-journal",
                 "--output", str(tmp_path / "B.json")])
    assert code == 2
    assert "dispatch refused" in capsys.readouterr().err


def _exit_code(argv):
    """``main``'s return code, or argparse's exit code on a usage
    error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_cli_invalid_counts_exit_2(tmp_path, capsys):
    # Bad counts are refused at argument parsing, in campaign and
    # worker mode alike, with a message instead of a traceback.
    for argv in (["smoke", "--workers", "0"],
                 ["smoke", "--workers", "two"],
                 ["smoke", "--retries", "-1"],
                 ["smoke", "--strikes", "0"],
                 ["--worker", str(tmp_path), "--strikes", "0"],
                 ["--worker", str(tmp_path), "--retries", "-1"]):
        assert _exit_code(["bench", *argv]) == 2, argv
        err = capsys.readouterr().err
        assert "must be >= " in err or "expected an integer" in err
    assert main(["bench", "--worker", str(tmp_path), "smoke"]) == 2
    assert "takes no campaign name" in capsys.readouterr().err
    assert main(["bench", "smoke", "--workers", "2", "--manifest",
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
    journal_path = tmp_path / "run.journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        dispatched = coordinator.run(campaign, journal=journal)
    assert _payloads(dispatched) == _payloads(serial)
    assert dispatched.metrics() == serial.metrics()
    assert dispatched.results_digest() == serial.results_digest()
    stats = dispatched.dispatch
    assert stats is not None and stats.jobs == len(campaign)
    assert sum(stats.per_worker_points.values()) >= len(campaign)
    # The journal holds every point once, each with its serial
    # payload; entries land in completion order.
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    entries = {entry["digest"]: entry["result"]
               for entry in map(json.loads, lines[1:])}
    assert len(entries) == len(lines) - 1 == len(campaign)
    assert entries == {pr.point.digest(): pr.result
                       for pr in serial.point_results}


def test_forked_workers_inherit_no_state_that_changes_a_payload(tmp_path):
    # A forked worker inherits the coordinator's force_sequential() flag
    # and sanitizer session log: they change how draws are made and
    # recorded, never what a point computes.
    campaign = build_campaign("smoke")
    serial = CampaignRunner(workers=1).run(campaign)
    with force_sequential(), sanitizer_session():
        dispatched = DispatchCoordinator(
            workers=2, queue_dir=tmp_path / "queue",
            manifest=REPO_MANIFEST).run(campaign)
    stats = dispatched.dispatch
    assert stats is not None and stats.inline_points == 0
    assert set(stats.per_worker_points) <= {"w1", "w2"}
    assert _payloads(dispatched) == _payloads(serial)
    assert dispatched.results_digest() == serial.results_digest()


def test_worker_env_reaches_only_the_forked_workers(tmp_path, monkeypatch):
    # The forks run this stand-in for run_worker: it notes the chaos
    # plan its environment carries; a w<k> worker then dies holding a
    # lease, so the points that lost it go to a stand-in worker.
    plan = ChaosPlan(seed=7).to_json()
    seen = tmp_path / "seen"
    seen.mkdir()
    real_run_worker = dispatch.run_worker

    def noting(queue_root, worker_id, **kwargs):
        (seen / worker_id).write_text(
            os.environ.get(envconfig.CHAOS_PLAN, "none"), encoding="utf-8")
        if worker_id.startswith("stand-in"):
            return real_run_worker(queue_root, worker_id, **kwargs)
        assert QueueDir(queue_root).claim(worker_id) is not None
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(dispatch, "run_worker", noting)
    campaign = _campaign()
    serial = CampaignRunner(workers=1).run(campaign)
    environ = dict(os.environ)
    dispatched = DispatchCoordinator(
        workers=1, queue_dir=tmp_path / "queue", manifest=REPO_MANIFEST,
        strikes=3, worker_env={envconfig.CHAOS_PLAN: plan}).run(campaign)
    assert dict(os.environ) == environ
    assert (seen / "w1").read_text(encoding="utf-8") == plan
    assert (seen / "stand-in-1").read_text(encoding="utf-8") == "none"
    assert dispatched.dispatch is not None
    assert "stand-in-1" in dispatched.dispatch.per_worker_points
    assert _payloads(dispatched) == _payloads(serial)


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


def test_cli_resume_with_workers_dispatches_only_the_rest(
        tmp_path, monkeypatch):
    # Truncate a serial run's journal, then resume on 2 workers: the
    # kept entries replay, only the rest are enqueued, and the document
    # is the serial one.  Run from outside the repository: the parallel
    # run finds the checked-in manifest without --manifest.
    monkeypatch.chdir(tmp_path)
    journal_path = tmp_path / "smoke.journal.jsonl"
    common = ["bench", "smoke", "--no-cache", "--journal",
              str(journal_path)]
    assert main([*common, "--output", str(tmp_path / "serial.json")]) == 0
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    kept = 4
    journal_path.write_text("\n".join(lines[:1 + kept]) + "\n",
                            encoding="utf-8")
    assert main([*common, "--workers", "2", "--resume",
                 "--queue-dir", str(tmp_path / "queue"),
                 "--output", str(tmp_path / "resumed.json")]) == 0
    serial = json.loads((tmp_path / "serial.json").read_text())
    resumed = json.loads((tmp_path / "resumed.json").read_text())
    assert resumed["journal_replays"] == kept
    assert resumed["dispatch"]["jobs"] == serial["points"] - kept
    assert resumed["results_digest"] == serial["results_digest"]
    # The front end journaled the dispatched points: complete again.
    healed = journal_path.read_text(encoding="utf-8").splitlines()
    assert len(healed) == 1 + serial["points"]
    assert not (tmp_path / "queue").exists()


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
journal.start(name=manifest["campaign"], seed=manifest["seed"],
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


def test_forked_workers_check_their_own_fingerprint(tmp_path):
    # A fork computes the fingerprint of the tree it runs, not the
    # coordinator's value: against a foreign one both refuse (exit 2)
    # and the coordinator drains the queue itself.
    campaign = _campaign()
    dispatched = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue", manifest=REPO_MANIFEST,
        fingerprint="not-this-tree").run(campaign)
    assert sorted(w.split()[2] for w in dispatched.warnings
                  if "exited with code 2" in w) == ["w1", "w2"]
    assert dispatched.dispatch is not None
    assert dispatched.dispatch.inline_points == len(campaign)
    assert _payloads(dispatched) == _payloads(
        CampaignRunner(workers=1).run(campaign))


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
    """Enqueue the coordinator's layout; returns (digests, jobs)."""
    queue.initialise()
    digests = [point.digest() for point in campaign.points]
    write_queue_manifest(queue, {
        "campaign": campaign.name, "seed": campaign.seed,
        "fingerprint": "fp", "points": len(campaign),
        "digests": digests, "enqueued": sorted(digests)})
    jobs = batches(list(zip(digests, campaign.points)), len(homes))
    for index, job in enumerate(jobs):
        queue.enqueue(dict(job), home=homes[index % len(homes)])
    return set(digests), len(jobs)


def test_worker_lists_the_job_queue_a_constant_number_of_times(
        tmp_path):
    # 238 points in jobs for two home shards: the worker lists jobs/
    # once per claim, and the layout holds at most four jobs per
    # worker however many points they carry.  Draining its own shard,
    # stealing the other and finding the queue empty cost one listing
    # per job plus one, not one per point.
    campaign = build_campaign("sweep")
    assert len(campaign) >= 200
    fs = _CountingFs()
    queue = QueueDir(tmp_path / "queue", fs=fs)
    expected, jobs = _enqueue_all(queue, campaign, ["w1", "w2"])
    assert run_worker(queue.root, "w1", fingerprint="fp", fs=fs,
                      attach_polls=1, poll_interval_s=0.0) == 0
    assert set(queue.done_markers()) == expected
    assert fs.listings["jobs"] == jobs + 1 <= 4 * 2 + 1


def test_coordinator_reads_each_done_marker_once_while_waiting(
        tmp_path, monkeypatch):
    # The spawned workers exit at once, so the coordinator drains all
    # 238 points inline, polling the done markers after each job.
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
    stats = dispatched.dispatch
    assert stats is not None
    assert stats.inline_points == stats.jobs == len(campaign)
    assert stats.batches == len(batches(campaign.points, 2)) == 8
    marker_reads = [count for path, count in reads_before_collect.items()
                    if path.parent.name == "done"]
    assert len(marker_reads) == stats.batches
    assert max(marker_reads) == 1
    assert fs.listings["jobs"] <= stats.batches + 1
    serial = CampaignRunner(workers=1).run(campaign)
    assert dispatched.results_digest() == serial.results_digest()
