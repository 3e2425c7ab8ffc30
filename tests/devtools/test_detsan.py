"""DetSan: the detsan rule family, the ownership map, replay checks."""

import json
from pathlib import Path

import pytest

from repro.devtools.analyze import write_baseline
from repro.devtools.analyze.baseline import Baseline, fingerprint
from repro.devtools.check import (
    RULES,
    check_paths,
    render_dot,
    render_json,
    render_sarif,
    render_text,
)
from repro.devtools.config import load_check_config
from repro.devtools.detsan import DeterminismViolation, verify_replay

REPO = Path(__file__).resolve().parents[2]


def write_tree(tmp_path, files):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tmp_path


def findings_of(violations):
    return [v for v in violations if RULES[v.rule_id].family == "detsan"]


def findings(report):
    """The surviving findings of the detsan family."""
    return findings_of(report.violations)


def rule_ids(report):
    return {v.rule_id for v in findings(report)}


# ----------------------------------------------------------------------
# seeded violation fixtures: each trips exactly its intended rule
# ----------------------------------------------------------------------
SHARED = """\
from repro.sim.rng import RngRegistry


def jitter(rng):
    return rng.normal()


def drift(rng):
    return rng.random()


def run():
    registry = RngRegistry(0)
    noise = registry.stream("noise")
    return jitter(noise) + drift(noise)
"""


def test_shared_stream_without_contract_is_flagged(tmp_path):
    write_tree(tmp_path, {"sharedmod.py": SHARED})
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"detsan-shared-stream"}
    (violation,) = findings(report)
    assert "'noise'" in violation.message
    assert "2 components" in violation.message
    assert "detsan: shared" in violation.message  # tells you the fix


def test_shared_contract_comment_accepts_the_sharing(tmp_path):
    contracted = SHARED.replace(
        'registry.stream("noise")',
        'registry.stream("noise")  # detsan: shared')
    write_tree(tmp_path, {"sharedmod.py": contracted})
    report = check_paths([tmp_path])
    assert findings(report) == []
    info = next(s for s in report.ownership.streams
                if s.template == "noise")
    assert info.shared
    assert len(info.owners) == 2


def test_unresolvable_dynamic_name_is_flagged(tmp_path):
    write_tree(tmp_path, {"dynamic.py": (
        "def acquire(registry, name):\n"
        "    return registry.stream(name)\n"
    )})
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"detsan-unresolved-stream"}
    assert report.ownership.acquisitions == 1
    assert report.ownership.resolved == 0
    assert report.ownership.resolution_rate == 0.0


def test_literal_prefix_fstring_resolves_to_a_template(tmp_path):
    write_tree(tmp_path, {"templated.py": (
        "def per_ue(registry, ue_id):\n"
        '    rng = registry.stream(f"ue{ue_id}")\n'
        "    return rng.random()\n"
    )})
    report = check_paths([tmp_path])
    assert findings(report) == []
    (info,) = report.ownership.streams
    assert info.template == "ue{*}"
    assert report.ownership.resolution_rate == 1.0


ESCAPED = """\
from repro.sim.sampling import BufferedSampler


class Node:
    def __init__(self, sampler, rng):
        self.rng = rng
        self.delays = BufferedSampler(sampler, rng)

    def step(self):
        return self.delays.sample(self.rng) + self.rng.random()
"""


def test_escaped_buffered_stream_is_flagged(tmp_path):
    write_tree(tmp_path, {"escaped.py": ESCAPED})
    report = check_paths([tmp_path])
    assert "detsan-buffered-escape" in rule_ids(report)
    (violation,) = [v for v in findings(report)
                    if v.rule_id == "detsan-buffered-escape"]
    assert "BufferedSampler" in violation.message
    assert ".random()" in violation.message


UNORDERED = """\
def one_draw(rng):
    return rng.random()


def spray(rng, targets):
    total = 0.0
    for node in set(targets):
        total += rng.normal()
    return total


def fan_out(rng, items):
    out = []
    for key in {"a", "b"}:
        out.append(one_draw(rng))
    return out
"""


def test_draws_under_unordered_iteration_are_flagged(tmp_path):
    write_tree(tmp_path, {"unordered.py": UNORDERED})
    report = check_paths([tmp_path])
    hits = [v for v in findings(report)
            if v.rule_id == "detsan-unordered-draw"]
    assert len(hits) == 2
    direct, transitive = sorted(hits, key=lambda v: v.line)
    assert "spray" in direct.message
    assert "one_draw" in transitive.message  # names the tainted callee


def test_acquired_but_never_drawn_stream_is_flagged(tmp_path):
    write_tree(tmp_path, {"dead.py": (
        "from repro.sim.rng import RngRegistry\n"
        "\n"
        "def setup():\n"
        "    registry = RngRegistry(0)\n"
        "    spare = registry.stream('spare')\n"
        "    return registry\n"
    )})
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"detsan-unused-stream"}
    (violation,) = findings(report)
    assert "'spare'" in violation.message
    assert violation.severity.name == "WARNING"


# ----------------------------------------------------------------------
# suppression mechanics: pragmas and the reviewed baseline
# ----------------------------------------------------------------------
def test_analyze_pragma_suppresses_detsan_rules(tmp_path):
    suppressed = SHARED.replace(
        'noise = registry.stream("noise")',
        'noise = registry.stream("noise")'
        '  # check: disable=detsan-shared-stream')
    write_tree(tmp_path, {"sharedmod.py": suppressed})
    report = check_paths([tmp_path])
    assert findings(report) == []
    assert [v.rule_id for v in report.suppressed] == [
        "detsan-shared-stream"]


def test_baseline_roundtrip_filters_known_findings(tmp_path):
    write_tree(tmp_path, {"sharedmod.py": SHARED})
    report = check_paths([tmp_path])
    assert report.exit_code == 1
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, report.violations)
    rerun = check_paths(
        [tmp_path],
        baseline=Baseline({fingerprint(v) for v in report.violations}))
    assert rerun.violations == []
    assert findings_of(rerun.baselined) == findings(report)
    assert rerun.exit_code == 0


def test_config_reads_detsan_table(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        "[tool.urllc5g.check]\n"
        'baseline = "accepted.json"\n'
        'cache = ".cache.json"\n'
        'ignore = ["detsan-unused-stream"]\n',
        encoding="utf-8")
    config = load_check_config(pyproject=pyproject)
    # Relative paths anchor at the pyproject's directory, so an
    # explicit --config works from any invocation cwd.
    assert config.baseline == str(tmp_path / "accepted.json")
    assert config.cache == str(tmp_path / ".cache.json")
    assert config.ignore == ("detsan-unused-stream",)


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def test_text_report_shows_map_and_resolution(tmp_path):
    write_tree(tmp_path, {"sharedmod.py": SHARED})
    report = check_paths([tmp_path])
    text = render_text(report)
    assert "stream ownership map" in text
    assert "1/1 acquisition(s) resolved" in text
    assert "noise" in text


def test_json_report_carries_streams_and_rate(tmp_path):
    write_tree(tmp_path, {"sharedmod.py": SHARED})
    payload = json.loads(render_json(check_paths([tmp_path])))
    assert payload["resolution"] == {
        "acquisitions": 1, "resolved": 1, "rate": 1.0}
    (stream,) = payload["streams"]
    assert stream["template"] == "noise"
    assert len(stream["owners"]) == 2
    assert payload["exit_code"] == 1


def test_sarif_report_uses_detsan_tool_name(tmp_path):
    # One driver for every family; detsan results ride in it.
    write_tree(tmp_path, {"sharedmod.py": SHARED})
    doc = json.loads(render_sarif(check_paths([tmp_path])))
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "urllc5g-check"
    assert [r["ruleId"] for r in run["results"]
            if r["ruleId"].startswith("detsan-")] == \
        ["detsan-shared-stream"]


def test_dot_graph_is_deterministic_and_marks_buffering(tmp_path):
    write_tree(tmp_path, {"escaped.py": ESCAPED, "sharedmod.py": SHARED})
    report = check_paths([tmp_path])
    dot = render_dot(report)
    assert dot == render_dot(report)
    assert dot.startswith("// Generated by")
    assert "digraph stream_ownership" in dot
    assert "shape=box" in dot  # consumer components


# ----------------------------------------------------------------------
# dynamic side: replay verification over the sanitizer log
# ----------------------------------------------------------------------
def test_verify_replay_passes_for_deterministic_workload():
    from repro.sim.rng import RngRegistry

    def workload():
        rng = RngRegistry(11).stream("replay")
        return [rng.random() for _ in range(5)]

    result, log = verify_replay(workload, label="unit workload")
    assert len(result) == 5
    assert log.draw_counts() == {"replay": 5}


def test_verify_replay_raises_on_draw_count_divergence():
    from repro.sim.rng import RngRegistry

    calls = []

    def workload():
        calls.append(None)
        rng = RngRegistry(11).stream("replay")
        return [rng.random() for _ in range(len(calls))]

    with pytest.raises(DeterminismViolation, match="divergence"):
        verify_replay(workload, label="drifting workload")


# ----------------------------------------------------------------------
# acceptance: the repository itself
# ----------------------------------------------------------------------
def test_src_tree_is_detsan_clean_against_reviewed_baseline():
    config = load_check_config(pyproject=REPO / "pyproject.toml")
    report = check_paths([REPO / "src"], config, use_cache=False)
    assert report.exit_code == 0, render_text(report)
    # Every acceptance threshold from the determinism contract:
    # >= 95% of stream names resolve statically, and the only accepted
    # debt is the reviewed baseline (no stray pragmas).
    assert report.ownership.resolution_rate >= 0.95
    assert findings_of(report.suppressed) == []
    # the AirLink escape, reviewed
    assert len(findings_of(report.baselined)) == 1


def test_src_ownership_map_covers_the_core_streams():
    report = check_paths([REPO / "src"], use_cache=False)
    by_template = {info.template: info
                   for info in report.ownership.streams}
    assert "upf" in by_template and by_template["upf"].buffered
    assert "link" in by_template and by_template["link"].buffered
    assert by_template["technologies"].shared
    assert "fault.{*}.{*}" in by_template
    for template in ("upf", "link", "gnb", "ue{*}"):
        assert by_template[template].owners, template
