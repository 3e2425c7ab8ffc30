"""Whole-program families (units, purity), reporters, SARIF."""

import json
from pathlib import Path

import pytest

from repro.devtools.analyze.loader import (
    conversion_units,
    load_project,
    module_qualname,
    unit_of_name,
)
from repro.devtools.analyze.units import resolve_units
from repro.devtools.check import (
    RULES,
    check_paths,
    render_json,
    render_sarif,
    render_text,
)
from repro.devtools.config import load_check_config

CROSSMOD = Path(__file__).parent / "fixtures_analyze" / "crossmod"
SAMPLING = (Path(__file__).resolve().parents[2]
            / "src" / "repro" / "sim" / "sampling.py")


def write_tree(tmp_path, files):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tmp_path


def family(violations, *families):
    return [v for v in violations if RULES[v.rule_id].family in families]


def findings(report):
    """The surviving findings of the two whole-program families."""
    return findings_of(report.violations)


def findings_of(violations):
    return family(violations, "units", "purity")


def rule_ids(report):
    return {v.rule_id for v in findings(report)}


# ----------------------------------------------------------------------
# name conventions
# ----------------------------------------------------------------------
def test_unit_of_name_suffixes():
    assert unit_of_name("budget_ms") == "ms"
    assert unit_of_name("slot_TC") == "tc"
    assert unit_of_name("x_us") == "us"
    assert unit_of_name("seconds") == "s"
    assert unit_of_name("arms") is None
    assert unit_of_name("plain") is None


def test_conversion_units_parses_converter_names():
    assert conversion_units("tc_from_us") == ("tc", "us")
    assert conversion_units("seconds_from_tc") == ("s", "tc")
    assert conversion_units("us_from_ms") == ("us", "ms")
    assert conversion_units("derive_from_scratch") is None
    assert conversion_units("plain") is None


def test_module_qualname_walks_init_chain():
    assert module_qualname(CROSSMOD / "budget.py") == "crossmod.budget"
    assert module_qualname(CROSSMOD / "__init__.py") == "crossmod"


# ----------------------------------------------------------------------
# the headline requirement: file rules pass, program rules flag
# ----------------------------------------------------------------------
def file_findings(*paths):
    return family(check_paths(paths).violations, "file")


def test_cross_module_unit_mismatch_invisible_to_lint():
    assert file_findings(CROSSMOD / "budget.py", CROSSMOD / "phy.py") == []
    report = check_paths([CROSSMOD])
    mismatches = [v for v in report.violations
                  if v.rule_id == "cross-unit-arithmetic"]
    assert len(mismatches) == 1
    assert mismatches[0].path.endswith("budget.py")
    assert "_ms" in mismatches[0].message
    assert "_us" in mismatches[0].message


def test_direct_wall_clock_is_lints_finding_not_analyzes():
    # timing.py reads the clock directly: the file rule flags it there,
    # and jitter.py, which only calls it, is not reported again.
    report = check_paths([CROSSMOD])
    timing = [v for v in report.violations if v.path.endswith("timing.py")]
    assert {v.rule_id for v in timing} == {"no-wall-clock"}
    assert [v for v in report.unfiltered
            if v.path.endswith("jitter.py")] == []


def test_transitive_schedule_in_set_loop_invisible_to_lint():
    assert file_findings(CROSSMOD / "sched.py") == []
    report = check_paths([CROSSMOD])
    loops = [v for v in report.violations
             if v.rule_id == "transitive-unordered-schedule"]
    assert len(loops) == 1
    assert loops[0].path.endswith("sched.py")
    assert "set(...)" in loops[0].message


# ----------------------------------------------------------------------
# unit-inference details
# ----------------------------------------------------------------------
def test_return_unit_inferred_through_call_chain(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/a.py": ("def base_ms():\n"
                     "    return 2.0\n"),
        "pkg/b.py": ("from pkg.a import base_ms\n"
                     "def indirection():\n"
                     "    return base_ms()\n"),
    })
    project = load_project([tmp_path / "pkg"])
    tables = resolve_units(project)
    assert tables.fn_ret["pkg.a.base_ms"] == "ms"
    assert tables.fn_ret["pkg.b.indirection"] == "ms"


def test_argument_unit_checked_against_callee_signature(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/sink.py": ("def hold(duration_us):\n"
                        "    return duration_us\n"),
        "pkg/caller.py": ("from pkg.sink import hold\n"
                          "def go(timeout_ms):\n"
                          "    return hold(timeout_ms)\n"),
    })
    report = check_paths([tmp_path / "pkg"])
    assert rule_ids(report) == {"cross-unit-argument"}
    message = findings(report)[0].message
    assert "duration" not in message or "expects _us" in message


def test_suffixed_assignment_checked(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(delay_ms):\n"
                   "    wait_us = delay_ms\n"
                   "    return wait_us\n"),
    })
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"cross-unit-assignment"}


def test_declared_return_unit_checked(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def worst_case_us(budget_ms):\n"
                   "    return budget_ms\n"),
    })
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"cross-unit-return"}


def test_comparison_between_units_checked(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def late(deadline_ms, elapsed_us):\n"
                   "    return elapsed_us > deadline_ms\n"),
    })
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"cross-unit-comparison"}


def test_conversion_call_reconciles_units(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("from repro.phy.timebase import tc_from_us\n"
                   "def f(slot_tc, margin_us):\n"
                   "    return slot_tc + tc_from_us(margin_us)\n"),
    })
    report = check_paths([tmp_path])
    assert findings(report) == [], render_text(report)


def test_converter_rejects_wrong_source_unit(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("from repro.phy.timebase import tc_from_us\n"
                   "def f(margin_ms):\n"
                   "    return tc_from_us(margin_ms)\n"),
    })
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"cross-unit-argument"}


def test_ratio_of_same_unit_is_unitless(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def utilisation(busy_us, window_us, total_ms):\n"
                   "    frac = busy_us / window_us\n"
                   "    return total_ms * frac + total_ms\n"),
    })
    report = check_paths([tmp_path])
    assert findings(report) == [], render_text(report)


def test_unknown_units_never_flag(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(a, b_ms):\n"
                   "    return a + b_ms\n"),
    })
    report = check_paths([tmp_path])
    assert findings(report) == []


@pytest.mark.parametrize("opener", ["if True:", "try:"])
def test_def_nested_in_module_level_block_keeps_its_call_edge(
        tmp_path, opener):
    closer = "" if opener == "if True:" else "except ImportError:\n    pass\n"
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/probe.py": ("import time\n"
                         f"{opener}\n"
                         "    def f():\n"
                         "        return time.time()\n"
                         f"{closer}"
                         "def g():\n"
                         "    return f()\n"
                         "def k():\n"
                         "    return time.time()\n"
                         "def h():\n"
                         "    return k()\n"),
    })
    report = check_paths([tmp_path / "pkg"])
    lines = (tmp_path / "pkg/probe.py").read_text().splitlines()
    assert sorted(lines[v.line - 1].strip() for v in report.violations
                  if v.rule_id == "no-wall-clock") == [
        "return time.time()"] * 2
    project = load_project([tmp_path / "pkg"])
    assert resolved_callees(project, "pkg.probe.g") == {"pkg.probe.f"}
    assert resolved_callees(project, "pkg.probe.h") == {"pkg.probe.k"}


def resolved_callees(project, qualname):
    """The known functions ``qualname``'s call edges resolve to."""
    return {project.resolve_function(candidate).qualname
            for edge in project.functions[qualname].call_edges
            for candidate in edge["f"]
            if project.resolve_function(candidate) is not None}


def test_inherited_method_resolves_to_the_defining_base():
    project = load_project([SAMPLING])
    target = project.resolve_callable(
        "repro.sim.sampling.BufferedSampler._next")
    assert target.qualname == "repro.sim.sampling._BlockBuffer._next"
    sample = project.functions["repro.sim.sampling.BufferedSampler.sample"]
    assert target in [project.resolve_function(candidate)
                      for edge in sample.call_edges
                      for candidate in edge["f"]]


def test_taint_flows_through_an_inherited_method(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/base.py": ("import time\n"
                        "class Base:\n"
                        "    def _stamp(self):\n"
                        "        return time.time()\n"),
        "pkg/child.py": ("from pkg.base import Base\n"
                         "class Child(Base):\n"
                         "    def run(self):\n"
                         "        return self._stamp()\n"),
    })
    project = load_project([tmp_path / "pkg"])
    assert resolved_callees(project, "pkg.child.Child.run") == {
        "pkg.base.Base._stamp"}


def test_default_rng_is_not_a_taint_source(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/registry.py": ("import numpy as np\n"
                            "def make_stream(seed):\n"
                            "    return np.random.default_rng(seed)\n"),
        "pkg/user.py": ("from pkg.registry import make_stream\n"
                        "def sample(seed):\n"
                        "    return make_stream(seed).normal()\n"),
    })
    report = check_paths([tmp_path / "pkg"])
    assert findings(report) == [], render_text(report)


# ----------------------------------------------------------------------
# pragmas and config
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_finding(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(a_ms, b_us):\n"
                   "    return a_ms + b_us"
                   "  # check: disable=cross-unit-arithmetic\n"),
    })
    report = check_paths([tmp_path])
    assert findings(report) == []
    assert len(findings_of(report.suppressed)) == 1


def test_file_pragma_suppresses_rule_everywhere(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("# check: disable-file=cross-unit-arithmetic\n"
                   "def f(a_ms, b_us):\n"
                   "    return a_ms + b_us\n"
                   "def g(c_ms, d_us):\n"
                   "    return c_ms - d_us\n"),
    })
    report = check_paths([tmp_path])
    assert findings(report) == []
    assert len(findings_of(report.suppressed)) == 2


def test_unit_annotation_seeds_declared_unit(tmp_path):
    write_tree(tmp_path, {
        "mod.py": ("def f(raw):\n"
                   "    budget = raw  # unit: ms\n"
                   "    return budget + f_us(raw)\n"
                   "def f_us(raw):\n"
                   "    return 1.0\n"),
    })
    report = check_paths([tmp_path])
    assert rule_ids(report) == {"cross-unit-arithmetic"}


def test_load_analyze_config_from_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.check]\n'
        'exclude = ["gen/*"]\n', encoding="utf-8")
    config = load_check_config(start=tmp_path)
    assert config.exclude == ("gen/*",)


def test_load_analyze_config_rejects_bad_types(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.check]\nexclude = "gen/*"\n', encoding="utf-8")
    with pytest.raises(ValueError, match="list of strings"):
        load_check_config(start=tmp_path)


# ----------------------------------------------------------------------
# syntax errors
# ----------------------------------------------------------------------
def test_unparseable_file_becomes_error_finding(tmp_path):
    write_tree(tmp_path, {"broken.py": "def broken(:\n"})
    report = check_paths([tmp_path])
    assert {v.rule_id for v in report.violations} == {"syntax-error"}
    assert report.exit_code == 1


# ----------------------------------------------------------------------
# SARIF 2.1.0 output
# ----------------------------------------------------------------------
def test_sarif_document_matches_2_1_0_shape():
    report = check_paths([CROSSMOD])
    assert report.violations  # the fixture must produce findings
    document = json.loads(render_sarif(report))
    assert document["$schema"] == (
        "https://json.schemastore.org/sarif-2.1.0.json")
    assert document["version"] == "2.1.0"
    assert len(document["runs"]) == 1
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "urllc5g-check"
    rule_ids_listed = [rule["id"] for rule in driver["rules"]]
    assert rule_ids_listed == sorted(rule_ids_listed)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in (
            "note", "warning", "error")
    assert run["results"]
    for result in run["results"]:
        assert rule_ids_listed[result["ruleIndex"]] == result["ruleId"]
        assert result["message"]["text"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        region = location["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1  # SARIF columns are 1-based


def test_sarif_lists_every_analyzer_rule_even_without_findings(tmp_path):
    write_tree(tmp_path, {"mod.py": "__all__ = []\n"})
    report = check_paths([tmp_path])
    document = json.loads(render_sarif(report))
    run = document["runs"][0]
    assert run["results"] == []
    listed = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "cross-unit-arithmetic" in listed
    assert "transitive-unordered-schedule" in listed


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_text_reporter_summarises_one_pass(tmp_path):
    source_dir = write_tree(tmp_path / "proj", {
        "pkg/__init__.py": "",
        "pkg/a.py": "def base_ms():\n    return 2.0\n",
        "pkg/b.py": ("from pkg.a import base_ms\n"
                     "import time\n"
                     "def f(x_us):\n"
                     "    return x_us + base_ms() + time.time()\n"),
    })
    report = check_paths([source_dir])
    assert report.files_checked == 3
    # One pass yields the program families and the file-scope rules.
    assert rule_ids(report) == {"cross-unit-arithmetic"}
    assert {v.rule_id for v in family(report.violations, "file")} == {
        "no-wall-clock", "public-api-exports"}
    text = render_text(report)
    assert (f"3 file(s) checked, {len(report.violations)} finding(s)"
            in text)


def test_json_reporter_round_trips():
    report = check_paths([CROSSMOD])
    payload = json.loads(render_json(report))
    assert payload["exit_code"] == 1
    assert payload["files_checked"] == report.files_checked
    rules_seen = {v["rule"] for v in payload["violations"]}
    assert "cross-unit-arithmetic" in rules_seen


# ----------------------------------------------------------------------
# the repository itself is clean in both whole-program families
# ----------------------------------------------------------------------
def test_src_tree_is_analyze_clean(src_report_unconfigured):
    report = src_report_unconfigured
    assert findings(report) == [], render_text(report)
    # No escapes: a pragma would hide a regression.
    assert findings_of(report.unfiltered) == []
