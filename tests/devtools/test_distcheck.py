"""Distcheck: scenario closure, the five dist-* rules, certification."""

import json
from pathlib import Path

from repro.devtools.check import (
    RULES,
    check_paths,
    render_json,
    render_manifest,
    render_sarif,
    render_text,
)
from repro.devtools.config import CheckConfig, load_check_config

REPO = Path(__file__).resolve().parents[2]


def write_tree(tmp_path, files):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tmp_path


def findings_of(violations):
    return [v for v in violations if RULES[v.rule_id].family == "dist"]


def findings(report):
    """The surviving findings of the dist family."""
    return findings_of(report.violations)


def rule_ids(report):
    return {v.rule_id for v in findings(report)}


def cert_by_name(report):
    return {cert.name: cert for cert in report.certifications}


# ----------------------------------------------------------------------
# seeded violation fixtures: each trips exactly its intended rule, and
# each has a clean twin the rule must stay silent on
# ----------------------------------------------------------------------
HOST_STATE = """\
import os

from repro.runner.scenarios import scenario

__all__ = ["env_probe"]


def lookup():
    return os.environ.get("EXPERIMENT_TAG")


@scenario("env-probe")
def env_probe(params, seed):
    return {"tag": lookup()}
"""

HOST_STATE_CLEAN = """\
import os

from repro.runner.scenarios import scenario

__all__ = ["env_probe"]


def lookup():
    return os.environ.get("URLLC5G_BENCH_WORKERS")


@scenario("env-probe")
def env_probe(params, seed):
    return {"workers": lookup()}
"""


def test_env_read_outside_allowlist_fails_certification(tmp_path):
    write_tree(tmp_path, {"probe.py": HOST_STATE})
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"dist-host-state"}
    (violation,) = findings(report)
    assert "'EXPERIMENT_TAG'" in violation.message
    assert "allow-env" in violation.message
    assert report.scenarios_for(violation) == frozenset({"env-probe"})
    assert cert_by_name(report)["env-probe"].status == "failed"
    # The CI regression contract: a host-stateful scenario exits 1.
    assert report.exit_code == 1


def test_allowlisted_env_read_certifies(tmp_path):
    write_tree(tmp_path, {"probe.py": HOST_STATE_CLEAN})
    report = check_paths([tmp_path])
    assert findings(report) == []
    assert cert_by_name(report)["env-probe"].status == "certified"
    assert report.exit_code == 0


MUTABLE = """\
from repro.runner.scenarios import scenario

_RESULTS = {}


def record(key, value):
    _RESULTS[key] = value


@scenario("stateful")
def stateful(params, seed):
    record("seed", seed)
    return dict(_RESULTS)
"""

MUTABLE_CLEAN = """\
from repro.runner.scenarios import scenario


def record(results, key, value):
    results[key] = value


@scenario("stateful")
def stateful(params, seed):
    results = {}
    record(results, "seed", seed)
    return results
"""


def test_module_global_write_is_flagged_transitively(tmp_path):
    write_tree(tmp_path, {"state.py": MUTABLE})
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"dist-mutable-global"}
    (violation,) = findings(report)
    assert "_RESULTS" in violation.message
    assert "remote worker" in violation.message
    # The write is in record(), two hops from the entry point.
    assert report.scenarios_for(violation) == frozenset({"stateful"})


def test_locally_scoped_mutation_is_clean(tmp_path):
    write_tree(tmp_path, {"state.py": MUTABLE_CLEAN})
    report = check_paths([tmp_path])
    assert findings(report) == []
    assert cert_by_name(report)["stateful"].status == "certified"


BOUNDARY = """\
from concurrent.futures import ProcessPoolExecutor


def fan_out(points):
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(lambda p: p * 2, point)
                   for point in points]
    return [f.result() for f in futures]
"""

BOUNDARY_CLEAN = """\
from concurrent.futures import ProcessPoolExecutor


def double(point):
    return point * 2


def fan_out(points):
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(double, point) for point in points]
    return [f.result() for f in futures]
"""


def test_lambda_into_pool_submit_is_flagged(tmp_path):
    write_tree(tmp_path, {"pool.py": BOUNDARY})
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"dist-unpicklable-boundary"}
    (violation,) = findings(report)
    assert "a lambda" in violation.message
    assert ".submit()" in violation.message
    # Boundary hazards are program-wide: no scenario attribution.
    assert report.scenarios_for(violation) == frozenset()


def test_module_level_callable_crosses_boundary_cleanly(tmp_path):
    write_tree(tmp_path, {"pool.py": BOUNDARY_CLEAN})
    report = check_paths([tmp_path])
    assert findings(report) == []


DIGEST = """\
import json


def point_digest(payload):
    return json.dumps(payload)
"""

DIGEST_CLEAN = """\
import json


def point_digest(payload):
    return json.dumps(payload, sort_keys=True)
"""


def test_unsorted_dumps_in_digest_closure_is_flagged(tmp_path):
    write_tree(tmp_path, {"cachekey.py": DIGEST})
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"dist-digest-instability"}
    (violation,) = findings(report)
    assert "json.dumps" in violation.message
    assert "bit-identical" in violation.message


def test_sorted_dumps_in_digest_closure_is_clean(tmp_path):
    write_tree(tmp_path, {"cachekey.py": DIGEST_CLEAN})
    report = check_paths([tmp_path])
    assert findings(report) == []


def test_hash_builtin_outside_digest_closure_is_ignored(tmp_path):
    # hash() is only a hazard where it can feed a point digest.
    write_tree(tmp_path, {"plain.py": (
        "def bucket(key):\n"
        "    return hash(key) % 8\n"
    )})
    report = check_paths([tmp_path])
    assert findings(report) == []


FS_ESCAPE = """\
from pathlib import Path

from repro.runner.scenarios import scenario


def spill(out, payload):
    Path(out).write_text(payload)


@scenario("spiller")
def spiller(params, seed):
    spill(params["out"], str(seed))
    return {}
"""

FS_CLEAN = """\
from pathlib import Path

from repro.runner.scenarios import scenario


def slurp(source):
    return Path(source).read_text()


@scenario("reader")
def reader(params, seed):
    return {"config": slurp(params["source"])}
"""


def test_scenario_reachable_fs_write_is_flagged(tmp_path):
    write_tree(tmp_path, {"io.py": FS_ESCAPE})
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"dist-filesystem-escape"}
    (violation,) = findings(report)
    assert "sanctioned" in violation.message
    assert report.scenarios_for(violation) == frozenset({"spiller"})


def test_reads_are_not_filesystem_escapes(tmp_path):
    write_tree(tmp_path, {"io.py": FS_CLEAN})
    report = check_paths([tmp_path])
    assert findings(report) == []
    assert cert_by_name(report)["reader"].status == "certified"


def test_sanctioned_writer_pattern_permits_the_write(tmp_path):
    write_tree(tmp_path, {"io.py": FS_ESCAPE})
    config = CheckConfig(sanctioned_writers=("io.spill",))
    report = check_paths([tmp_path], config)
    assert findings(report) == []
    assert cert_by_name(report)["spiller"].status == "certified"


# ----------------------------------------------------------------------
# certification semantics: refusal, review, the manifest
# ----------------------------------------------------------------------
def test_refused_scenario_drops_its_findings(tmp_path):
    write_tree(tmp_path, {"probe.py": HOST_STATE})
    config = CheckConfig(refuse_scenarios=("env-probe",))
    report = check_paths([tmp_path], config)
    assert findings(report) == []
    assert report.refused_findings == 1
    assert cert_by_name(report)["env-probe"].status == "refused"
    assert report.exit_code == 0


def test_finding_shared_with_certified_scenario_still_gates(tmp_path):
    # Two scenarios reach the same env read; refusing one of them must
    # not launder the finding for the other.
    shared = HOST_STATE + (
        "\n\n@scenario(\"env-probe-b\")\n"
        "def env_probe_b(params, seed):\n"
        "    return {\"tag\": lookup()}\n"
    )
    write_tree(tmp_path, {"probe.py": shared})
    config = CheckConfig(refuse_scenarios=("env-probe",))
    report = check_paths([tmp_path], config)
    assert rule_ids(report) == {"dist-host-state"}
    assert cert_by_name(report)["env-probe-b"].status == "failed"
    assert report.exit_code == 1


def test_analyze_pragma_suppresses_dist_rules(tmp_path):
    suppressed = HOST_STATE.replace(
        'os.environ.get("EXPERIMENT_TAG")',
        'os.environ.get("EXPERIMENT_TAG")'
        '  # check: disable=dist-host-state')
    write_tree(tmp_path, {"probe.py": suppressed})
    report = check_paths([tmp_path])
    assert findings(report) == []
    assert [v.rule_id for v in report.suppressed] == ["dist-host-state"]
    # Reviewed-away findings downgrade failed -> baselined-findings.
    assert cert_by_name(report)["env-probe"].status == \
        "baselined-findings"
    assert report.exit_code == 0


def test_config_reads_distcheck_table(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        "[tool.urllc5g.check]\n"
        'allow-env = ["URLLC5G_*", "CI"]\n'
        'refuse-scenarios = ["chaos-selftest"]\n'
        'sanctioned-writers = ["repro.runner.cache.*"]\n',
        encoding="utf-8")
    config = load_check_config(pyproject=pyproject)
    assert config.allow_env == ("URLLC5G_*", "CI")
    assert config.refuse_scenarios == ("chaos-selftest",)
    assert config.sanctioned_writers == ("repro.runner.cache.*",)
    # Unset keys keep their contract defaults.
    assert config.allow_globals == ()


# ----------------------------------------------------------------------
# renderers and the certification manifest
# ----------------------------------------------------------------------
def test_text_report_shows_certifications_and_attribution(tmp_path):
    write_tree(tmp_path, {"probe.py": HOST_STATE})
    text = render_text(check_paths([tmp_path]))
    assert "scenario certification" in text
    assert "env-probe" in text
    assert "failed" in text
    assert "reached from: env-probe" in text


def test_json_report_carries_scenarios_and_attribution(tmp_path):
    write_tree(tmp_path, {"probe.py": HOST_STATE})
    payload = json.loads(render_json(check_paths([tmp_path])))
    (scenario_row,) = payload["scenarios"]
    assert scenario_row["name"] == "env-probe"
    assert scenario_row["status"] == "failed"
    (violation,) = [v for v in payload["violations"]
                    if v["family"] == "dist"]
    assert violation["rule"] == "dist-host-state"
    assert violation["scenarios"] == ["env-probe"]
    assert payload["exit_code"] == 1


def test_sarif_report_uses_distcheck_tool_name(tmp_path):
    # One driver for every family; dist results ride in it.
    write_tree(tmp_path, {"probe.py": HOST_STATE})
    doc = json.loads(render_sarif(check_paths([tmp_path])))
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "urllc5g-check"
    assert [r["ruleId"] for r in run["results"]
            if r["ruleId"].startswith("dist-")] == ["dist-host-state"]


def test_manifest_lists_every_scenario_with_verdict(tmp_path):
    write_tree(tmp_path, {"probe.py": HOST_STATE,
                          "io.py": FS_CLEAN})
    config = CheckConfig(refuse_scenarios=("env-probe",))
    report = check_paths([tmp_path], config)
    manifest = json.loads(render_manifest(report))
    assert manifest["tool"] == "urllc5g-distcheck"
    assert manifest["schema_version"] == 1
    assert manifest["exit_code"] == 0
    probe = manifest["scenarios"]["env-probe"]
    assert probe["status"] == "refused"
    assert probe["distributable"] is False
    reader = manifest["scenarios"]["reader"]
    assert reader["status"] == "certified"
    assert reader["distributable"] is True
    assert reader["reachable_functions"] >= 2
    # Deterministic byte-for-byte: CI diffs the artifact.
    assert render_manifest(report) == \
        render_manifest(report)


# ----------------------------------------------------------------------
# acceptance: the repository itself
# ----------------------------------------------------------------------
def test_every_registered_scenario_is_certified_or_reviewed(src_report):
    report = src_report
    assert report.exit_code == 0, render_text(report)
    from repro.runner.scenarios import SCENARIOS
    by_name = cert_by_name(report)
    assert set(by_name) == set(SCENARIOS)
    for name, cert in by_name.items():
        assert cert.status in ("certified", "baselined-findings",
                               "refused"), (name, cert.status)
        assert cert.findings == 0, (name, cert.findings)
    # chaos-selftest fault-injects the host; it must stay refused.
    assert by_name["chaos-selftest"].status == "refused"
    # The only accepted debt: the sanitizer log + sim clock slots,
    # each pragma'd at its line.
    assert sorted((v.rule_id, v.path.rpartition("/")[2])
                  for v in findings_of(report.suppressed)) == [
        ("dist-mutable-global", "sanitize.py")] * 2
    # The checked-in dispatch gate is exactly what the checker renders.
    assert render_manifest(report) == (
        REPO / "distcheck-manifest.json").read_text(encoding="utf-8")


def test_src_closures_reach_the_simulation_core(src_report):
    report = src_report
    sizes = {cert.name: cert.reachable
             for cert in report.certifications}
    # The latency campaigns pull in the full DES core; the analytic
    # feasibility scenario stays an order of magnitude smaller.
    assert sizes["ran-latency"] > 200
    assert sizes["design-feasibility"] < sizes["ran-latency"]
