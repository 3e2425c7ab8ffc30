"""Chaos certification: the seam, the injector, the explorer."""

import errno
import json

import pytest

from repro.devtools.distcheck.manifest import load_manifest
from repro.runner import Campaign, CampaignRunner
from repro.runner.chaos import (
    ChaosFsOps,
    ChaosPlan,
    ChaosSpec,
    FsFaultKind,
    enumerate_schedules,
    run_schedule,
)
from repro.runner.dispatch import _Backoff
from repro.runner.fsops import CRASH_POINTS, DEFAULT_FS, FsOps
from repro.runner.lease import (
    EventLog,
    HeartbeatWriter,
    LivenessTracker,
    QueueDir,
    batches,
)

REPO_MANIFEST = load_manifest("distcheck-manifest.json")


class _Killed(RuntimeError):
    """Stands in for SIGKILL so unit tests observe crash points."""


def _killer():
    def kill():
        raise _Killed()
    return kill


# ----------------------------------------------------------------------
# the passthrough seam
# ----------------------------------------------------------------------
def test_fsops_passthrough_roundtrip(tmp_path):
    fs = FsOps()
    fs.mkdir(tmp_path / "d")
    fs.write_text(tmp_path / "d" / "a.json", "A")
    fs.append_text(tmp_path / "d" / "a.json", "B")
    assert fs.read_text(tmp_path / "d" / "a.json") == "AB"
    fs.replace(tmp_path / "d" / "a.json", tmp_path / "d" / "b.json")
    assert fs.listdir(tmp_path / "d") == ["b.json"]
    fs.unlink(tmp_path / "d" / "b.json")
    assert fs.listdir(tmp_path / "d") == []


def test_fsops_listdir_is_sorted(tmp_path):
    for name in ("c", "a", "b"):
        (tmp_path / name).write_text("", encoding="utf-8")
    assert FsOps().listdir(tmp_path) == ["a", "b", "c"]


def test_crash_point_names_are_validated():
    DEFAULT_FS.crash_point("claim.pre-rename")  # no-op, registered
    with pytest.raises(ValueError, match="unknown crash point"):
        DEFAULT_FS.crash_point("not-a-point")


def test_queue_dir_defaults_to_passthrough(tmp_path):
    assert QueueDir(tmp_path).fs is DEFAULT_FS


# ----------------------------------------------------------------------
# specs and plans
# ----------------------------------------------------------------------
def test_crash_spec_requires_registered_point():
    with pytest.raises(ValueError, match="registered crash point"):
        ChaosSpec(kind=FsFaultKind.CRASH, crash_point="bogus")
    with pytest.raises(ValueError, match="registered crash point"):
        ChaosSpec(kind=FsFaultKind.CRASH)


def test_non_crash_spec_refuses_a_crash_point():
    with pytest.raises(ValueError, match="no crash_point"):
        ChaosSpec(kind=FsFaultKind.EIO_WRITE,
                  crash_point="claim.pre-rename")


def test_spec_bounds_are_validated():
    with pytest.raises(ValueError, match="probability"):
        ChaosSpec(kind=FsFaultKind.EIO_WRITE, probability=1.5)
    with pytest.raises(ValueError, match="skip"):
        ChaosSpec(kind=FsFaultKind.CRASH,
                  crash_point="release.pre", skip=-1)
    with pytest.raises(ValueError, match="max_fires"):
        ChaosSpec(kind=FsFaultKind.EIO_WRITE, max_fires=0)


def test_spec_scaling_uses_the_shared_clamp():
    spec = ChaosSpec(kind=FsFaultKind.EIO_WRITE, probability=0.4)
    assert spec.scaled(0.5).probability == pytest.approx(0.2)
    assert spec.scaled(10.0).probability == 1.0
    with pytest.raises(ValueError, match="intensity"):
        spec.scaled(-1.0)


def test_plan_json_roundtrip_is_canonical():
    plan = ChaosPlan(seed=7, marker_dir="/tmp/m", specs=(
        ChaosSpec(kind=FsFaultKind.CRASH,
                  crash_point="done-marker.pre", worker="w1"),
        ChaosSpec(kind=FsFaultKind.LIST_STALE, probability=0.25,
                  max_fires=3),
    ))
    text = plan.to_json()
    assert ChaosPlan.from_json(text) == plan
    assert ChaosPlan.from_json(text).to_json() == text
    assert bool(plan) and not bool(ChaosPlan())


def test_plan_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown chaos-plan"):
        ChaosPlan.from_json('{"seed": 0, "extra": 1}')
    with pytest.raises(ValueError, match="unknown chaos-spec"):
        ChaosSpec.from_dict({"kind": "eio-write", "extra": 1})
    with pytest.raises(ValueError, match="missing 'kind'"):
        ChaosSpec.from_dict({"probability": 1.0})


# ----------------------------------------------------------------------
# the deterministic injector
# ----------------------------------------------------------------------
def _write_sequence(fs, directory, count=40):
    """Drive identical write traffic; returns the fired indices."""
    fired = []
    for index in range(count):
        try:
            fs.write_text(directory / f"{index}.json", "x")
        except OSError:
            fired.append(index)
    return fired


def test_same_seed_same_plan_fires_identically(tmp_path):
    plan = ChaosPlan(seed=3, specs=(
        ChaosSpec(kind=FsFaultKind.EIO_WRITE, probability=0.3,
                  max_fires=5),))
    first = _write_sequence(ChaosFsOps(plan, "w1"), tmp_path)
    second = _write_sequence(ChaosFsOps(plan, "w1"), tmp_path)
    assert first == second and len(first) == 5
    # A different seed draws a different schedule (overwhelmingly).
    other = _write_sequence(
        ChaosFsOps(ChaosPlan(seed=4, specs=plan.specs), "w1"),
        tmp_path)
    assert other != first


def test_write_faults_carry_the_right_errno(tmp_path):
    for kind, code in ((FsFaultKind.EIO_WRITE, errno.EIO),
                       (FsFaultKind.ENOSPC_WRITE, errno.ENOSPC)):
        fs = ChaosFsOps(
            ChaosPlan(specs=(ChaosSpec(kind=kind),)), "w1")
        with pytest.raises(OSError) as excinfo:
            fs.write_text(tmp_path / "t.json", "x")
        assert excinfo.value.errno == code
        # max_fires=1: the next write goes through untouched.
        fs.write_text(tmp_path / "t.json", "x")
        assert (tmp_path / "t.json").read_text(encoding="utf-8") == "x"


def test_specs_narrow_to_their_worker(tmp_path):
    plan = ChaosPlan(specs=(
        ChaosSpec(kind=FsFaultKind.EIO_WRITE, worker="w2"),))
    ChaosFsOps(plan, "w1").write_text(tmp_path / "ok.json", "x")
    with pytest.raises(OSError):
        ChaosFsOps(plan, "w2").write_text(tmp_path / "no.json", "x")


def test_crash_point_kills_after_skip_count(tmp_path):
    plan = ChaosPlan(specs=(
        ChaosSpec(kind=FsFaultKind.CRASH,
                  crash_point="claim.pre-rename", skip=2),))
    fs = ChaosFsOps(plan, "w1", kill=_killer())
    fs.crash_point("claim.pre-rename")   # skipped (1)
    fs.crash_point("done-marker.pre")    # different point: ignored
    fs.crash_point("claim.pre-rename")   # skipped (2)
    with pytest.raises(_Killed):
        fs.crash_point("claim.pre-rename")
    fs.crash_point("claim.pre-rename")   # max_fires=1: spent


def test_crash_fires_are_recorded_in_the_marker_file(tmp_path):
    plan = ChaosPlan(marker_dir=str(tmp_path), specs=(
        ChaosSpec(kind=FsFaultKind.CRASH,
                  crash_point="release.pre"),))
    fs = ChaosFsOps(plan, "w1", kill=_killer())
    with pytest.raises(_Killed):
        fs.crash_point("release.pre")
    lines = (tmp_path / "fires.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {
        "kind": "crash", "crash_point": "release.pre",
        "worker": "w1", "detail": "release.pre"}


def test_list_delay_hides_the_tail_of_a_listing(tmp_path):
    for name in ("a.json", "b.json", "c.json", "d.json"):
        (tmp_path / name).write_text("", encoding="utf-8")
    fs = ChaosFsOps(ChaosPlan(specs=(
        ChaosSpec(kind=FsFaultKind.LIST_DELAY),)), "w1")
    assert fs.listdir(tmp_path) == ["a.json", "b.json"]
    # max_fires=1: the next scan sees everything.
    assert fs.listdir(tmp_path) == ["a.json", "b.json", "c.json",
                                    "d.json"]


def test_list_stale_resurrects_the_previous_listing(tmp_path):
    fs = ChaosFsOps(ChaosPlan(specs=(
        ChaosSpec(kind=FsFaultKind.LIST_STALE),)), "w1")
    (tmp_path / "old.json").write_text("", encoding="utf-8")
    assert fs.listdir(tmp_path) == ["old.json"]  # nothing cached yet
    (tmp_path / "old.json").rename(tmp_path / "new.json")
    # The stale readdir cache still lists the renamed-away entry.
    assert fs.listdir(tmp_path) == ["new.json", "old.json"]
    assert fs.listdir(tmp_path) == ["new.json"]


# ----------------------------------------------------------------------
# quarantine and degraded-mode counters
# ----------------------------------------------------------------------
def test_corrupt_job_file_is_quarantined_not_livelocked(tmp_path):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    bad = queue.jobs / ("d" * 16 + "--w1.json")
    bad.write_text("{not json", encoding="utf-8")
    events = EventLog(queue, "w1")
    assert queue.claim("w1", events) is None
    assert not bad.exists()
    quarantined = list(queue.leases.glob("*.corrupt-*"))
    assert len(quarantined) == 1
    assert quarantined[0].read_text(encoding="utf-8") == "{not json"
    # The digest is retired with an error-free marker, which is the
    # shape collect recomputes from the campaign's own point list.
    assert "d" * 16 in queue.done_markers()
    assert any(e["event"] == "quarantine"
               for e in EventLog.read_all(queue))


def test_corrupt_lease_is_quarantined_at_reclaim(tmp_path):
    queue = QueueDir(tmp_path / "queue")
    queue.initialise()
    lease = queue.leases / ("e" * 16 + "--dead.json")
    lease.write_text("{torn", encoding="utf-8")
    events = EventLog(queue, "w1")
    assert LivenessTracker(queue).reclaim_dead({"dead"}, events) == 1
    assert not lease.exists()
    assert list(queue.leases.glob("*.corrupt-*"))
    assert "e" * 16 in queue.done_markers()


def test_heartbeat_and_event_drops_are_counted(tmp_path):
    fs = ChaosFsOps(ChaosPlan(specs=(
        ChaosSpec(kind=FsFaultKind.EIO_WRITE, max_fires=3),)), "w1")
    queue = QueueDir(tmp_path / "queue", fs=fs)
    queue.initialise()
    heart = HeartbeatWriter(queue, "w1")
    heart.beat(0)
    assert heart.dropped == 1
    events = EventLog(queue, "w1")
    events.emit("start")
    events.emit("start")
    assert events.dropped == 2
    # Fault budget spent: both degrade back to working normally.
    heart.beat(1)
    events.emit("start")
    assert (heart.dropped, events.dropped) == (1, 2)
    assert len(EventLog.read_all(queue)) == 1


# ----------------------------------------------------------------------
# backoff
# ----------------------------------------------------------------------
def test_backoff_is_deterministic_per_actor():
    first = [_Backoff(0.0, "w1").sleep() for _ in range(1)]
    again = [_Backoff(0.0, "w1").sleep() for _ in range(1)]
    assert first == again
    a, b = _Backoff(0.0, "w1"), _Backoff(0.0, "w1")
    assert [a.sleep() for _ in range(6)] == [b.sleep()
                                            for _ in range(6)]
    c = _Backoff(0.0, "w2")
    assert [a.sleep() for _ in range(6)] != [c.sleep()
                                             for _ in range(6)]


def test_backoff_doubles_and_caps_in_units():
    backoff = _Backoff(0.0, "w1", cap_factor=8)
    units = [backoff.sleep() for _ in range(8)]
    # Jitter spans [0.5, 1.5) around 1, 2, 4, 8, 8, 8, ... units.
    for value, factor in zip(units, (1, 2, 4, 8, 8, 8, 8, 8)):
        assert 0.5 * factor <= value < 1.5 * factor
    backoff.reset()
    assert backoff.sleep() < 1.5


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------
def test_enumeration_covers_every_point_and_kind():
    schedules = enumerate_schedules(["w1", "w2"])
    assert {s.crash_point for s in schedules if s.crash_point} == \
        set(CRASH_POINTS)
    assert {s.kind for s in schedules} == {
        "crash", "eio-write", "enospc-write", "list-delay",
        "list-stale"}
    # Reclaim windows are composites armed on the surviving peer.
    reclaim = [s for s in schedules
               if s.crash_point.startswith("reclaim.")]
    assert all(s.worker == "w2" and len(s.specs) == 2
               for s in reclaim)
    with pytest.raises(ValueError, match="at least 2 workers"):
        enumerate_schedules(["solo"])


def test_exhaustive_enumeration_rotates_every_worker():
    default = enumerate_schedules(["w1", "w2"])
    exhaustive = enumerate_schedules(["w1", "w2"], exhaustive=True)
    # 6 worker-independent crash schedules stay single; the 2 reclaim
    # composites and 4 fault kinds multiply over both workers.
    assert len(default) == 12 and len(exhaustive) == 18
    assert {s.label for s in default} < {s.label for s in exhaustive}
    assert any(s.worker == "w1" and s.crash_point ==
               "reclaim.pre-rename" for s in exhaustive)


def _chaos_campaign():
    """Small but multi-scenario and RNG-bearing: fast to certify.

    Ten points, so 2 workers get jobs of two points each and every
    crash window also opens inside a batch.
    """
    specs = [("radio-sweep", {"bus": bus, "samples": samples,
                              "repetitions": 5})
             for samples in (1_000, 1_500)
             for bus in ("usb2", "usb3", "pcie")]
    specs += [("design-feasibility",
               {"index": index, "mu": 2, "max_period_ms": 1.0,
                "budget_ms": 0.5, "reliability": 0.99999})
              for index in (0, 1, 2, 3)]
    return Campaign.build("chaos-certify", 41, specs)


def test_chaos_campaign_makes_multi_point_jobs():
    assert all(len(job) == 2
               for job in batches(_chaos_campaign().points, 2))


@pytest.fixture(scope="module")
def serial_digest():
    return CampaignRunner(workers=1).run(
        _chaos_campaign()).results_digest()


@pytest.mark.parametrize(
    "schedule", enumerate_schedules(["w1", "w2"]),
    ids=lambda s: s.label)
def test_every_schedule_converges_bit_identical(tmp_path, schedule,
                                                serial_digest):
    outcome = run_schedule(
        schedule, _chaos_campaign(), REPO_MANIFEST,
        queue_dir=tmp_path / "queue", marker_dir=tmp_path / "markers",
        workers=2)
    assert outcome.error is None
    assert outcome.converged
    assert outcome.results_digest == serial_digest
    assert outcome.fired >= 1
