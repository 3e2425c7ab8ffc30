"""CLI wiring: ``urllc5g check`` (static rules and the runtime sanitizer)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.check import RULES

FIXTURES = Path(__file__).parent / "fixtures"
CROSSMOD = Path(__file__).parent / "fixtures_analyze" / "crossmod"
REPO_ROOT = Path(__file__).resolve().parents[2]

HOST_STATEFUL = (
    "import os\n"
    "\n"
    "from repro.runner.scenarios import scenario\n"
    "\n"
    "\n"
    '@scenario("env-probe")\n'
    "def env_probe(params, seed):\n"
    '    return {"tag": os.environ.get("EXPERIMENT_TAG")}\n')


def test_lint_src_is_clean_and_exits_zero(capsys):
    code = main(["check", str(REPO_ROOT / "src"),
                 "--config", str(REPO_ROOT / "pyproject.toml")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 finding(s) (7 suppressed, 2 on refused scenarios)" in out


def test_lint_fixture_violations_exit_nonzero(capsys):
    code = main(["check", str(FIXTURES), "--no-config"])
    out = capsys.readouterr().out
    assert code == 1
    assert "no-wall-clock" in out
    assert "rng-discipline" in out


def test_lint_json_format(capsys):
    code = main(["check", str(FIXTURES / "bad_exports.py"),
                 "--no-config", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["exit_code"] == 1
    assert payload["violations"][0]["rule"] == "public-api-exports"


def test_lint_sarif_format(capsys):
    code = main(["check", str(FIXTURES / "bad_exports.py"),
                 "--no-config", "--format", "sarif"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["tool"]["driver"]["name"] == "urllc5g-check"


def test_analyze_src_is_clean_and_exits_zero(capsys):
    code = main(["check", str(REPO_ROOT / "src"),
                 "--config", str(REPO_ROOT / "pyproject.toml")])
    out = capsys.readouterr().out
    assert code == 0, out


def test_analyze_fixture_violations_exit_nonzero(capsys):
    code = main(["check", str(CROSSMOD), "--no-config"])
    out = capsys.readouterr().out
    assert code == 1
    assert "cross-unit-arithmetic" in out
    assert "no-wall-clock" in out


def test_analyze_sarif_format(capsys):
    code = main(["check", str(CROSSMOD), "--no-config",
                 "--format", "sarif"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    driver = document["runs"][0]["tool"]["driver"]
    assert driver["name"] == "urllc5g-check"
    assert document["runs"][0]["results"]


@pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
def test_check_has_no_baseline_flags(tmp_path, capsys, flag):
    # A finding is reviewed by a pragma in the source, not a file.
    with pytest.raises(SystemExit) as exit_info:
        main(["check", str(CROSSMOD), "--no-config",
              flag, str(tmp_path / "baseline.json")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_missing_path_is_an_error(capsys):
    code = main(["check", "no/such/dir"])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


def test_distcheck_src_certifies_and_writes_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    code = main(["check", str(REPO_ROOT / "src"),
                 "--config", str(REPO_ROOT / "pyproject.toml"),
                 "--manifest", str(manifest)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "scenario certification" in out
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    assert payload["tool"] == "urllc5g-distcheck"
    assert payload["scenarios"]["chaos-selftest"]["status"] == "refused"
    assert all(entry["status"] != "failed"
               for entry in payload["scenarios"].values())


def test_check_writes_no_manifest_unless_asked(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "probe.py").write_text(HOST_STATEFUL, encoding="utf-8")
    main(["check", "probe.py", "--no-config"])
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == [tmp_path / "probe.py"]


def test_distcheck_host_stateful_scenario_exits_one(tmp_path, capsys):
    # The CI regression contract: a scenario reaching undeclared host
    # state must fail certification with exit code 1.
    (tmp_path / "probe.py").write_text(HOST_STATEFUL, encoding="utf-8")
    code = main(["check", str(tmp_path), "--no-config"])
    out = capsys.readouterr().out
    assert code == 1
    assert "dist-host-state" in out
    assert "failed" in out


def test_sarif_metadata_is_unified_across_all_verbs(capsys):
    main(["check", str(CROSSMOD), "--no-config",
          "--format", "sarif"])
    document = json.loads(capsys.readouterr().out)
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    # One driver for every rule family: one name, the shared version,
    # a docs link and the whole registry as the indexed rule table.
    assert driver["name"] == "urllc5g-check"
    assert driver["version"] == "1.0.0"
    assert driver["informationUri"] == "docs/ANALYSIS.md"
    assert [rule["id"] for rule in driver["rules"]] == sorted(RULES)
    families = {RULES[result["ruleId"]].family
                for result in run["results"]}
    assert families == {"file", "units", "purity"}


def test_check_all_aggregates_the_four_gates(capsys, monkeypatch):
    # `urllc5g check` from the repo root: src/, the repo config, and
    # every rule family in one pass.
    monkeypatch.chdir(REPO_ROOT)
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "stream ownership map" in out
    assert "scenario certification" in out
    assert "chaos-selftest" in out and "refused" in out


def test_check_determinism_passes(capsys):
    code = main(["check", "--determinism", "--seed", "3",
                 "--packets", "8"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS" in out


def test_check_without_sanitizer_flag(tmp_path, capsys, monkeypatch):
    # Without --determinism, check is the static gate over src/ — and
    # a directory with no src/ is an error, never a green run over
    # zero files.
    monkeypatch.chdir(tmp_path)
    assert main(["check"]) == 2
    assert "no such path: src" in capsys.readouterr().err


def test_check_with_no_python_files_is_an_error(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("nothing to check\n",
                                        encoding="utf-8")
    assert main(["check", str(tmp_path), "--no-config"]) == 2
    assert "no Python files" in capsys.readouterr().err
