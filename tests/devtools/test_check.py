"""``urllc5g check`` as a whole: findings parity, generated docs, imports."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.check import RULES, check_paths
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
    # fixtures without one — before and after pragma filtering.
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


#: One finding of each program-scope family, with a ``{pragma}`` slot
#: on the line it is reported at.
PRAGMA_CASES = {
    "cross-unit-arithmetic": (
        "__all__ = []\n"
        "\n"
        "\n"
        "def {name}(a_ms, b_us):\n"
        "    return a_ms + b_us{pragma}\n"),
    "transitive-unordered-schedule": (
        "__all__ = []\n"
        "\n"
        "\n"
        "def {name}(sim, ues):\n"
        "    for ue in set(ues):{pragma}\n"
        "        _wake(sim, ue)\n"
        "\n"
        "\n"
        "def _wake(sim, ue):\n"
        "    sim.schedule(0, ue)\n"),
    "detsan-unordered-draw": (
        "__all__ = []\n"
        "\n"
        "\n"
        "def {name}(rng, ues):\n"
        "    for ue in set(ues):{pragma}\n"
        "        rng.random()\n"),
    "dist-mutable-global": (
        "from repro.runner.scenarios import scenario\n"
        "\n"
        "__all__ = []\n"
        "\n"
        "_SEEN = []\n"
        "\n"
        "\n"
        '@scenario("{name}")\n'
        "def {name}(params, seed):\n"
        "    _SEEN.append(seed){pragma}\n"
        "    return len(_SEEN)\n"),
}


@pytest.mark.parametrize("rule", sorted(PRAGMA_CASES))
def test_line_pragma_reviews_each_program_family(tmp_path, rule):
    # A pragma on the finding's line is the one way to review it.
    source = PRAGMA_CASES[rule]
    (tmp_path / "first.py").write_text(
        source.format(name="first", pragma=f"  # check: disable={rule}"),
        encoding="utf-8")
    report = check_paths([tmp_path])
    assert report.violations == []
    assert [v.rule_id for v in report.suppressed] == [rule]
    assert report.exit_code == 0
    if RULES[rule].family == "dist":
        (cert,) = report.certifications
        assert (cert.status, cert.reviewed) == ("baselined-findings", 1)
    # The pragma reviews its own line only: a copy without one gates.
    (tmp_path / "second.py").write_text(
        source.format(name="second", pragma=""), encoding="utf-8")
    report = check_paths([tmp_path])
    assert [(Path(v.path).name, v.rule_id) for v in report.violations] \
        == [("second.py", rule)]
    assert report.exit_code == 1


def test_every_rule_has_a_family_and_scope():
    assert {spec.family for spec in RULES.values()} == {
        "file", "units", "purity", "dist"}
    for rule_id, spec in RULES.items():
        assert spec.rule_id == rule_id
        assert spec.scope == ("file" if spec.family == "file"
                              else "program")
        assert spec.description
        assert spec.severity in ("warning", "error")


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


DEVTOOLS_MODULES = sorted(
    ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
    .removesuffix(".__init__")
    for path in (REPO / "src" / "repro" / "devtools").rglob("*.py"))


@pytest.mark.parametrize("module", DEVTOOLS_MODULES)
def test_each_devtools_module_imports_first_in_a_fresh_interpreter(module):
    # No import order hides a cycle: each module is the first thing a
    # fresh interpreter imports.
    subprocess.run([sys.executable, "-c", f"import {module}"],
                   check=True, cwd=REPO,
                   env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
