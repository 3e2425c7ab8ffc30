"""Runner hardening: retries, crashed/wedged workers, journal resume.

The misbehaving points use the ``chaos-selftest`` scenario, whose fault
path is double-gated behind ``URLLC5G_CHAOS=1`` and a marker-file token
and fires exactly once — so a retried point succeeds and yields the
same payload every attempt would have produced — unless its token
cannot be written, in which case it fires on every attempt.  The
crashed and wedged workers are dispatch-queue workers: the repo
manifest refuses to distribute ``chaos-selftest``, so these tests
certify it in a manifest of their own.  The gate is set in the test
process itself, so the coordinator would fire the fault too if it ever
ran such a point in-process.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.devtools.distcheck.manifest import load_manifest
from repro.runner import (
    Campaign,
    CampaignJournal,
    CampaignRunner,
    DispatchCoordinator,
    ResultCache,
    bench_payload,
    run_point,
)


def _ok_point(value):
    return ("chaos-selftest", {"mode": "ok", "index": value})


def _payloads(result):
    return [entry.result for entry in result.point_results]


def _selftest_manifest(tmp_path):
    """A manifest that lets ``chaos-selftest`` reach the queue."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "schema_version": 1, "tool_version": "test",
        "scenarios": {name: {"entry": f"m.{name}", "status": "certified"}
                      for name in ("chaos-selftest", "radio-sweep")},
    }), encoding="utf-8")
    return load_manifest(path)


# ----------------------------------------------------------------------
# bounded retry
# ----------------------------------------------------------------------
def test_serial_retry_recovers_a_raising_point(tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    campaign = Campaign.build("retry", 5, [
        ("chaos-selftest", {"mode": "raise",
                            "token": str(tmp_path / "marker")}),
        _ok_point(1),
    ])
    result = CampaignRunner(workers=1, max_retries=2).run(campaign)
    flaky, ok = result.point_results
    assert not flaky.failed and flaky.attempts == 2
    assert not ok.failed and ok.attempts == 1
    assert result.retries == 1
    # The payload is attempt-independent: recomputing the point now
    # (marker present) gives exactly what the retry recorded.
    assert flaky.result == run_point(flaky.point)


def test_exhausted_retries_fail_the_point_not_the_campaign(
        tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    # An unwritable token directory makes the fault fire every attempt.
    campaign = Campaign.build("doomed", 5, [
        ("chaos-selftest", {"mode": "raise",
                            "token": str(tmp_path / "no-dir" / "m")}),
        _ok_point(1),
    ])
    result = CampaignRunner(workers=1, max_retries=1).run(campaign)
    doomed, ok = result.point_results
    assert doomed.failed and doomed.attempts == 2
    assert "chaos-selftest" in doomed.error
    assert doomed.result == {}
    assert not ok.failed
    assert result.failures == (doomed,)


def test_selftest_fault_path_is_inert_without_the_env_gate(
        tmp_path, monkeypatch):
    monkeypatch.delenv("URLLC5G_CHAOS", raising=False)
    campaign = Campaign.build("gated", 5, [
        ("chaos-selftest", {"mode": "raise",
                            "token": str(tmp_path / "marker")}),
    ])
    result = CampaignRunner(workers=1, max_retries=0).run(campaign)
    assert not result.point_results[0].failed
    assert not (tmp_path / "marker").exists()


# ----------------------------------------------------------------------
# crashed and wedged workers
# ----------------------------------------------------------------------
def test_killed_worker_fails_only_its_point(tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    campaign = Campaign.build("killer", 5, [
        ("chaos-selftest", {"mode": "kill",
                            "token": str(tmp_path / "marker")}),
        _ok_point(1),
        _ok_point(2),
    ])
    result = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue",
        manifest=_selftest_manifest(tmp_path), strikes=3).run(campaign)
    assert not result.failures
    assert (tmp_path / "marker").exists()  # a worker fired the fault
    # The killed worker's lease was reclaimed and its point re-run.
    assert result.dispatch is not None
    assert result.dispatch.reclaims >= 1
    for entry in result.point_results:
        assert entry.result == run_point(entry.point)


def test_point_that_always_kills_its_worker_fails_alone(
        tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    # An unwritable token: the point kills every process that runs it.
    campaign = Campaign.build("poison", 5, [
        ("chaos-selftest", {"mode": "kill",
                            "token": str(tmp_path / "no-dir" / "m")}),
        _ok_point(1),
        _ok_point(2),
        _ok_point(3),
    ])
    journal_path = tmp_path / "j.jsonl"
    with CampaignJournal(journal_path) as journal:
        result = DispatchCoordinator(
            workers=2, queue_dir=tmp_path / "queue",
            manifest=_selftest_manifest(tmp_path), strikes=3,
            max_retries=2).run(campaign, journal=journal)
    # Each lost worker was one attempt: the third loss fails the point,
    # and the coordinator (this process) never ran it.
    poison, *rest = result.point_results
    assert result.failures == (poison,)
    assert poison.attempts == 3
    assert "lost 3 worker process(es)" in poison.error
    assert result.dispatch is not None
    assert result.dispatch.lease_expirations >= 3
    for entry in rest:
        assert entry.result == run_point(entry.point)
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(rest)


def test_wedged_worker_is_killed_and_its_point_requeued(
        tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    campaign = Campaign.build("wedge", 5, [
        ("chaos-selftest", {"mode": "hang",
                            "token": str(tmp_path / "marker")}),
        _ok_point(1),
    ])
    # The stall detector kills the local workers once no point has
    # completed for stall_polls polls (about 2 s here, longer than a
    # worker takes to start); the wedged point lost a worker, so a
    # stand-in worker process re-runs it.
    result = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue",
        manifest=_selftest_manifest(tmp_path), stall_polls=40,
        strikes=3).run(campaign)
    assert not result.failures
    assert (tmp_path / "marker").exists()
    assert any("made no progress" in w for w in result.warnings)
    for entry in result.point_results:
        assert entry.result == run_point(entry.point)


def test_point_that_always_hangs_fails_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    campaign = Campaign.build("stuck", 5, [
        ("chaos-selftest", {"mode": "hang",
                            "token": str(tmp_path / "no-dir" / "m")}),
        _ok_point(1),
        _ok_point(2),
    ])
    # Each stall kills the process running the point: the worker, then
    # two stand-ins.  The third loss fails it; the other points finish.
    result = DispatchCoordinator(
        workers=1, queue_dir=tmp_path / "queue",
        manifest=_selftest_manifest(tmp_path), stall_polls=40,
        strikes=3, max_retries=2).run(campaign)
    stuck, *rest = result.point_results
    assert result.failures == (stuck,)
    assert stuck.attempts == 3
    assert any("made no progress" in w for w in result.warnings)
    assert any("stand-in-2 exited" in w for w in result.warnings)
    for entry in rest:
        assert entry.result == run_point(entry.point)


# ----------------------------------------------------------------------
# journal checkpoint / resume
# ----------------------------------------------------------------------
def _cheap_campaign(seed=99):
    specs = [("radio-sweep", {"bus": bus, "samples": samples,
                              "repetitions": 15})
             for bus in ("usb2", "usb3")
             for samples in (2_000, 6_000)]
    return Campaign.build("journaled", seed, specs)


def test_interrupted_run_resumes_to_the_uninterrupted_document(tmp_path):
    campaign = _cheap_campaign()
    baseline = CampaignRunner(workers=1).run(campaign)

    journal_path = tmp_path / "run.journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        first = CampaignRunner(workers=1).run(campaign, journal=journal)
    assert _payloads(first) == _payloads(baseline)
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(campaign)  # header + one per point

    # Simulate a crash after two completed points: keep header + 2.
    journal_path.write_text("\n".join(lines[:3]) + "\n",
                            encoding="utf-8")
    with CampaignJournal(journal_path) as journal:
        resumed = CampaignRunner(workers=1).run(campaign,
                                                journal=journal,
                                                resume=True)
    assert resumed.journal_replays == 2
    assert _payloads(resumed) == _payloads(baseline)
    replay_flags = [entry.from_journal
                    for entry in resumed.point_results]
    assert replay_flags.count(True) == 2
    # The healed journal is complete again.
    healed = journal_path.read_text(encoding="utf-8").splitlines()
    assert len(healed) == 1 + len(campaign)


INTERRUPTED_RUN = """\
import json
import sys
from pathlib import Path

from repro.devtools.distcheck.manifest import load_manifest
from repro.runner import Campaign, CampaignJournal, DispatchCoordinator

tmp = Path(sys.argv[1])
specs = json.loads((tmp / "specs.json").read_text(encoding="utf-8"))
campaign = Campaign.build("interrupted", 5, [tuple(s) for s in specs])
with CampaignJournal(tmp / "run.journal.jsonl") as journal:
    DispatchCoordinator(
        workers=2, queue_dir=tmp / "queue",
        manifest=load_manifest(tmp / "manifest.json"),
    ).run(campaign, journal=journal)
"""


def test_killed_parallel_run_resumes_from_every_finished_point(
        tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    # One point wedges its worker, so the run cannot finish; the other
    # worker completes the rest before the whole run is SIGKILLed.
    specs = [("chaos-selftest", {"mode": "hang",
                                 "token": str(tmp_path / "marker")})]
    specs += [_ok_point(index) for index in range(1, 7)]
    (tmp_path / "specs.json").write_text(json.dumps(specs),
                                         encoding="utf-8")
    manifest = _selftest_manifest(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")])
    run = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_RUN, str(tmp_path)],
        env=env, start_new_session=True)
    journal_path = tmp_path / "run.journal.jsonl"
    try:
        for _ in range(1200):
            if journal_path.exists() and len(journal_path.read_text(
                    encoding="utf-8").splitlines()) == 1 + 6:
                break
            time.sleep(0.05)
        else:
            pytest.fail("the interrupted run never journaled its points")
    finally:
        os.killpg(run.pid, signal.SIGKILL)  # coordinator and workers
        run.wait(timeout=60)

    campaign = Campaign.build("interrupted", 5, specs)
    with CampaignJournal(journal_path) as journal:
        resumed = DispatchCoordinator(
            workers=2, queue_dir=tmp_path / "queue",
            manifest=manifest).run(campaign, journal=journal,
                                   resume=True)
    assert resumed.journal_replays == 6
    assert resumed.dispatch is not None and resumed.dispatch.jobs == 1
    assert not resumed.failures
    for entry in resumed.point_results:
        assert entry.result == run_point(entry.point)
    assert len(journal_path.read_text(
        encoding="utf-8").splitlines()) == 1 + len(campaign)


def test_corrupt_journal_tail_is_discarded_with_a_warning(tmp_path):
    campaign = _cheap_campaign()
    journal_path = tmp_path / "run.journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        CampaignRunner(workers=1).run(campaign, journal=journal)
    with open(journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"digest": "truncated-mid-wr')
    with CampaignJournal(journal_path) as journal:
        resumed = CampaignRunner(workers=1).run(campaign,
                                                journal=journal,
                                                resume=True)
    assert resumed.journal_replays == len(campaign)
    assert any("corrupt or truncated" in warning
               for warning in resumed.warnings)
    assert _payloads(resumed) == \
        _payloads(CampaignRunner(workers=1).run(campaign))


def test_foreign_journal_is_ignored_not_replayed(tmp_path):
    journal_path = tmp_path / "run.journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        CampaignRunner(workers=1).run(_cheap_campaign(seed=1),
                                      journal=journal)
    with CampaignJournal(journal_path) as journal:
        resumed = CampaignRunner(workers=1).run(_cheap_campaign(seed=2),
                                                journal=journal,
                                                resume=True)
    assert resumed.journal_replays == 0
    assert any("different campaign" in warning
               for warning in resumed.warnings)


def test_journal_record_requires_start(tmp_path):
    journal = CampaignJournal(tmp_path / "j.jsonl")
    with pytest.raises(RuntimeError, match="not started"):
        journal.record("digest", {"v": 1})


# ----------------------------------------------------------------------
# the whole harness at once: corrupt cache + killed worker + resume
# ----------------------------------------------------------------------
def test_smoke_harness_survives_corruption_and_crashes(
        tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{definitely not json", encoding="utf-8")
    campaign = Campaign.build("harness", 8, [
        ("chaos-selftest", {"mode": "kill",
                            "token": str(tmp_path / "marker")}),
        _ok_point(1),
        ("radio-sweep", {"bus": "usb3", "samples": 2_000,
                         "repetitions": 10}),
    ])
    coordinator = DispatchCoordinator(
        workers=2, queue_dir=tmp_path / "queue",
        manifest=_selftest_manifest(tmp_path), strikes=3,
        cache=ResultCache(cache_path))
    with CampaignJournal(tmp_path / "j.jsonl") as journal:
        result = coordinator.run(campaign, journal=journal)
    assert not result.failures
    assert (tmp_path / "marker").exists()
    assert result.dispatch is not None
    assert result.dispatch.reclaims >= 1
    assert any("quarantined" in warning for warning in result.warnings)
    for entry in result.point_results:
        assert entry.result == run_point(entry.point)
    # Every point was journaled by the front end, once each.
    lines = (tmp_path / "j.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert sorted(json.loads(line)["digest"] for line in lines[1:]) == \
        sorted(point.digest() for point in campaign.points)

    payload = bench_payload(result)
    assert payload["failed_points"] == []
    assert payload["retries"] == result.retries
    assert payload["journal_replays"] == 0
    assert any("quarantined" in warning
               for warning in payload["warnings"])
    json.dumps(payload)  # the whole document stays serialisable
