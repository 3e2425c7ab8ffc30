"""``urllc5g check`` as a whole: findings parity, generated docs, imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.check import RULES, check_paths, render_dot
from repro.devtools.config import CheckConfig, load_check_config

REPO = Path(__file__).resolve().parents[2]
PARITY = json.loads((Path(__file__).parent / "findings_parity.json")
                    .read_text(encoding="utf-8"))


def rows(violations):
    return sorted(([v.rule_id, v.path, v.line, v.message]
                   for v in violations),
                  key=lambda row: (row[1], row[2], row[0], row[3]))


@pytest.mark.parametrize("root", sorted(PARITY))
def test_findings_parity_with_the_four_former_tools(root, monkeypatch):
    # findings_parity.json holds every (rule, path, line, message) the
    # separate lint/analyze/detsan/distcheck front ends reported over
    # these roots — src/ under the repo config, the fixtures without
    # one — before and after ignore/pragma/baseline filtering.
    monkeypatch.chdir(REPO)
    config = (load_check_config(start=root) if root == "src"
              else CheckConfig())
    report = check_paths([root], config, use_cache=False)
    assert rows(report.unfiltered) == PARITY[root]["unfiltered"]
    assert rows(report.violations) == PARITY[root]["filtered"]


def test_every_rule_has_a_family_and_scope():
    assert {spec.family for spec in RULES.values()} == {
        "file", "units", "purity", "detsan", "dist"}
    for rule_id, spec in RULES.items():
        assert spec.rule_id == rule_id
        assert spec.scope == ("file" if spec.family == "file"
                              else "program")
        assert spec.description
        assert spec.severity in ("warning", "error")


def test_stream_ownership_doc_is_the_generator_output():
    config = load_check_config(pyproject=REPO / "pyproject.toml")
    report = check_paths([REPO / "src"], config, use_cache=False)
    # `urllc5g check src/ --format dot > docs/stream-ownership.dot`
    assert render_dot(report) + "\n" == (
        REPO / "docs" / "stream-ownership.dot").read_text(encoding="utf-8")


def test_runner_import_loads_only_the_manifest_reader():
    code = ("import sys, repro.runner; print('\\n'.join(sorted("
            "m for m in sys.modules if m.startswith('repro.devtools'))))")
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    ).stdout.split()
    assert loaded == ["repro.devtools", "repro.devtools.distcheck",
                      "repro.devtools.distcheck.manifest",
                      "repro.devtools.walker"]
