"""``urllc5g check`` as a whole: findings parity, generated docs, imports."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.check import RULES, check_paths, render_dot
from repro.devtools.config import CheckConfig, load_check_config

REPO = Path(__file__).resolve().parents[2]
PARITY = json.loads((Path(__file__).parent / "findings_parity.json")
                    .read_text(encoding="utf-8"))


def scopes(path):
    """``(first line, last line, qualified name)`` of every def and
    class in a file; none if it does not parse."""
    try:
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    except SyntaxError:
        return []
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                found.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def rows(violations):
    """Each finding as ``[rule, path, enclosing name, message]``.

    The enclosing name is the innermost def or class containing the
    finding's line, or ``<module>``: a finding keeps its row when an
    edit only moves it up or down its file.  Duplicates are kept.
    """
    by_path = {}
    out = []
    for v in violations:
        if v.path not in by_path:
            by_path[v.path] = scopes(v.path)
        inside = [scope for scope in by_path[v.path]
                  if scope[0] <= v.line <= scope[1]]
        name = (max(inside)[2] if inside else "<module>")
        out.append([v.rule_id, v.path, name, v.message])
    return sorted(out, key=lambda row: (row[1], row[2], row[0], row[3]))


@pytest.mark.parametrize("root", sorted(PARITY))
def test_findings_parity_with_the_four_former_tools(root, monkeypatch):
    # findings_parity.json holds every (rule, path, enclosing name,
    # message) the separate lint/analyze/detsan/distcheck front ends
    # reported over these roots — src/ under the repo config, the
    # fixtures without one — before and after ignore/pragma/baseline
    # filtering.
    monkeypatch.chdir(REPO)
    config = (load_check_config(start=root) if root == "src"
              else CheckConfig())
    report = check_paths([root], config)
    assert rows(report.unfiltered) == PARITY[root]["unfiltered"]
    assert rows(report.violations) == PARITY[root]["filtered"]


def test_findings_parity_ignores_moved_lines(tmp_path, monkeypatch):
    # A blank line above each finding moves it, and every line below
    # it, without changing what is found.
    root = "tests/devtools/fixtures"
    monkeypatch.chdir(REPO)
    lines_by_path = {}
    for v in check_paths([root], CheckConfig()).unfiltered:
        lines_by_path.setdefault(v.path, set()).add(v.line)
    shutil.copytree(REPO / root, tmp_path / root)
    for path, found in lines_by_path.items():
        copy = tmp_path / path
        lines = copy.read_text(encoding="utf-8").splitlines(keepends=True)
        for line in sorted(found, reverse=True):
            lines.insert(line - 1, "\n")
        copy.write_text("".join(lines), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    report = check_paths([root], CheckConfig())
    assert {(v.path, v.line) for v in report.unfiltered} != {
        (path, line) for path, found in lines_by_path.items()
        for line in found}
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


def test_stream_ownership_doc_is_the_generator_output(src_report):
    # `urllc5g check src/ --format dot > docs/stream-ownership.dot`
    assert render_dot(src_report) + "\n" == (
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
