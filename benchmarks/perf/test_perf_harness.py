"""Self-tests of the perf ledger harness, at ``--size small``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  Every
child is a real subprocess, exactly as in a ledger run.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END_BY_NAME, UNIFORM_END_TO_END, UNIFORM_LAYER, WORKLOADS,
    trimmed_mean)


@pytest.fixture(scope="module")
def children() -> dict[str, dict[str, list]]:
    """Two timed children and one traced child per workload (seed 1)."""
    return {workload: {
        "timed": [run.spawn(workload, 1, "small", "timed")
                  for _ in range(2)],
        "traced": [run.spawn(workload, 1, "small", "traced")]}
        for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_children_succeed_and_check_their_outputs(children, workload):
    for child in children[workload]["timed"] + children[workload]["traced"]:
        assert not child.get("crashed"), child["errors"]
        assert child["failed"] == 0, child["errors"]
        assert child["attempted"] >= 1
        # Both pauses were answered with a calibration.
        assert child["setup_scale"] > 0 and child["scale"] > 0
        assert child["setup_scale"] != 1.0 and child["scale"] != 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced(children, workload):
    (traced,) = children[workload]["traced"]
    for timed in children[workload]["timed"]:
        assert traced["digests"] == timed["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_identical_across_runs(children, workload):
    first, second = children[workload]["timed"]
    assert run._exact_counters(first) == run._exact_counters(second)
    (traced,) = children[workload]["traced"]
    shared = run._exact_counters(traced).keys() & \
        run._exact_counters(first).keys()
    assert shared
    assert {k: run._exact_counters(traced)[k] for k in shared} == \
        {k: run._exact_counters(first)[k] for k in shared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_attributed_self_time_within_run_time(children, workload):
    (traced,) = children[workload]["traced"]
    share = traced["layer"]["trace.attributed_share"]
    assert 0.0 < share <= 1.0
    if "sim.engine.loop_self_s" in traced["layer"]:
        self_times = sum(value for name, value in traced["layer"].items()
                         if name.endswith(".self_s")
                         or name == "sim.slotted.run_s")
        assert self_times <= traced["run_s"]


def test_injected_digest_mismatch_raises_failed_share(children):
    timed = copy.deepcopy(children["testbed"]["timed"])
    clean = run.end_to_end_values("testbed", copy.deepcopy(timed), [])
    assert clean["failed_share"] == [0.0]
    reference = {"digests": ["0" * 64] + timed[0]["digests"][1:],
                 "counters": {}}
    run.audit(timed, reference)
    failed = run.end_to_end_values("testbed", timed, [])["failed_share"]
    assert failed[0] > 0.0
    assert all("digests differ" in " ".join(c["errors"]) for c in timed)


def test_counter_drift_between_children_is_a_failure(children):
    timed = copy.deepcopy(children["cell-1k-scalar"]["timed"])
    timed[1]["counters"]["sim.engine.events"] += 1
    run.audit(timed)
    assert timed[0]["failed"] == 0
    assert timed[1]["failed"] == timed[1]["attempted"]


@pytest.mark.parametrize("workload", ["testbed", "cell-10k-lossy",
                                      "campaign-sweep"])
def test_seed_changes_the_inputs(children, workload):
    other = run.spawn(workload, 2, "small", "timed")
    assert other["failed"] == 0, other["errors"]
    assert other["digests"] != children[workload]["timed"][0]["digests"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_window_prints_the_contract_object(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "testbed",
         "--seed", "5", "--seconds", "1", "--trace", trace,
         "--size", "small"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = UNIFORM_LAYER if trace == "1" else UNIFORM_END_TO_END
    assert list(result["metrics"]) == list(expected)
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}


def test_trimmed_mean_drops_one_outlier_each_side():
    assert trimmed_mean([1.0, 2.0, 3.0]) == 2.0
    assert trimmed_mean([0.0, 2.0, 2.0, 4.0, 100.0]) == 8.0 / 3.0


def _row(values):
    return {"unit": "s", **run.summary_row(values)}


def test_compare_verdicts():
    base = _row([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.0])
    faster = _row([v * 0.8 for v in base["values"]])
    slower = _row([v * 1.4 for v in base["values"]])
    same = _row(list(reversed(base["values"])))
    noisy = _row([5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 9.0, 11.0])
    assert run.verdict("wall_s", base, faster)[0] == "improved"
    assert run.verdict("wall_s", base, slower)[0] == "worse"
    assert run.verdict("wall_s", base, same)[0] == "within bound"
    assert run.verdict("wall_s", base, noisy)[0] == "unresolved"
    higher = _row([v * 1.2 for v in base["values"]])
    assert run.verdict("packets_per_s", base, higher)[0] == "improved"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(UNIFORM_END_TO_END)
    for metric in spec["end_to_end"]:
        harness = END_TO_END_BY_NAME[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == \
            (harness.unit, harness.better, harness.bound)
    assert [m["name"] for m in spec["per_layer"]] == list(UNIFORM_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
