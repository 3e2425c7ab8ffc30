"""The file-scope rule family: rules, suppressions, config, reporters."""

import ast
import json
from pathlib import Path

import pytest

from repro.devtools.check import (
    RULES,
    check_paths,
    render_json,
    render_sarif,
    render_text,
)
from repro.devtools.config import CheckConfig, load_check_config
from repro.devtools.lintkit import (
    SYNTAX_ERROR_RULE_ID,
    Severity,
    registered_rules,
    run_file_rules,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

EXPECTED_RULES = {
    "no-wall-clock",
    "rng-discipline",
    "unit-suffix-mixing",
    "no-float-tick-equality",
    "unordered-iteration-before-schedule",
    "public-api-exports",
    "fault-streams-named",
}


def rule_ids_in(source: str, path: str = "mod.py") -> set[str]:
    return {v.rule_id for v in run_file_rules(path, ast.parse(source))}


def file_family(violations):
    return [v for v in violations if RULES[v.rule_id].family == "file"]


def check_source(tmp_path, source, config=None):
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    return check_paths([tmp_path], config)


def test_all_domain_rules_are_registered():
    assert EXPECTED_RULES <= set(registered_rules())
    for rule_id in EXPECTED_RULES | {SYNTAX_ERROR_RULE_ID}:
        assert RULES[rule_id].family == "file"
        assert RULES[rule_id].scope == "file"


# ----------------------------------------------------------------------
# the fixture files each trip exactly their intended rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture, expected_rule, expected_count", [
    ("bad_wall_clock.py", "no-wall-clock", 3),
    ("bad_rng.py", "rng-discipline", 5),
    ("bad_units.py", "unit-suffix-mixing", 2),
    ("bad_float_equality.py", "no-float-tick-equality", 2),
    ("bad_iteration.py", "unordered-iteration-before-schedule", 2),
    ("bad_exports.py", "public-api-exports", 1),
    ("bad_fault_stream_names.py", "fault-streams-named", 3),
])
def test_fixture_caught_by_correct_rule(fixture, expected_rule,
                                        expected_count):
    report = check_paths([FIXTURES / fixture])
    assert report.suppressed == []
    violations = file_family(report.violations)
    by_rule = {v.rule_id for v in violations}
    assert by_rule == {expected_rule}, (
        f"{fixture}: expected only {expected_rule}, got {sorted(by_rule)}")
    assert len(violations) == expected_count


def test_fixture_directory_linted_as_a_tree():
    report = check_paths([FIXTURES])
    assert report.files_checked == 8
    assert {v.rule_id for v in file_family(report.violations)} == (
        EXPECTED_RULES | {SYNTAX_ERROR_RULE_ID})
    assert report.exit_code == 1


# ----------------------------------------------------------------------
# unparseable files are findings, not crashes
# ----------------------------------------------------------------------
def test_syntax_error_reported_as_violation_not_traceback():
    report = check_paths([FIXTURES / "bad_syntax.py"])
    assert report.exit_code == 1
    # Reported once, although every rule family sees the broken file.
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule_id == SYNTAX_ERROR_RULE_ID
    assert violation.severity == Severity.ERROR
    assert violation.line == 3  # points at the malformed def
    assert "could not parse" in violation.message


def test_lint_continues_past_a_broken_file(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n",
                                        encoding="utf-8")
    (tmp_path / "ok.py").write_text("__all__ = []\nimport random\n",
                                    encoding="utf-8")
    report = check_paths([tmp_path])
    assert report.files_checked == 2
    assert {v.rule_id for v in report.violations} == {
        SYNTAX_ERROR_RULE_ID, "rng-discipline"}


def test_null_bytes_reported_as_syntax_error(tmp_path):
    (tmp_path / "nul.py").write_text("x = 1\x00\n", encoding="utf-8")
    report = check_paths([tmp_path])
    assert [v.rule_id for v in report.violations] == [
        SYNTAX_ERROR_RULE_ID]


# ----------------------------------------------------------------------
# Severity is an ordered enum
# ----------------------------------------------------------------------
def test_severity_orders_by_rank_not_lexicographically():
    # Alphabetically "error" < "note"; by severity it is the maximum.
    assert Severity.NOTE < Severity.WARNING < Severity.ERROR
    assert Severity.ERROR > Severity.NOTE
    assert max(Severity) is Severity.ERROR
    ordered = sorted([Severity.ERROR, Severity.NOTE, Severity.WARNING])
    assert ordered == [Severity.NOTE, Severity.WARNING, Severity.ERROR]


def test_severity_compares_against_plain_strings():
    # Cached findings hold plain strings; ranking must still apply.
    assert Severity.ERROR >= "warning"
    assert Severity.NOTE < "warning"
    assert Severity.WARNING == "warning"
    assert Severity("error") is Severity.ERROR


def test_severity_renders_as_its_bare_value():
    assert str(Severity.ERROR) == "error"
    assert f"{Severity.WARNING}" == "warning"
    assert json.dumps({"severity": Severity.NOTE}) == (
        '{"severity": "note"}')


# ----------------------------------------------------------------------
# clean code stays clean
# ----------------------------------------------------------------------
def test_clean_simulation_code_passes():
    source = '''"""A well-behaved component."""
import numpy as np

__all__ = ["Component"]


class Component:
    def __init__(self, sim, rng: np.random.Generator):
        self.sim = sim
        self.rng = rng

    def fire(self, delay_us: float) -> None:
        from repro.phy.timebase import tc_from_us
        self.sim.call_in(tc_from_us(delay_us), self._on_fire)

    def _on_fire(self) -> None:
        pass
'''
    assert rule_ids_in(source) == set()


def test_conversion_calls_reconcile_units():
    source = ('__all__ = []\n'
              'def f(slot_tc, margin_us, tc_from_us):\n'
              '    return slot_tc + tc_from_us(margin_us)\n')
    assert rule_ids_in(source) == set()


def test_sorted_set_iteration_is_fine():
    source = ('__all__ = []\n'
              'def f(sim, ues):\n'
              '    for ue in sorted(set(ues)):\n'
              '        sim.schedule(0, ue)\n')
    assert rule_ids_in(source) == set()


def test_rng_parameter_and_closure_are_fine():
    source = ('__all__ = []\n'
              'def outer(rng):\n'
              '    def inner():\n'
              '        return rng.normal()\n'
              '    return inner\n')
    assert rule_ids_in(source) == set()


# ----------------------------------------------------------------------
# suppressions: one pragma grammar for every family
# ----------------------------------------------------------------------
def test_inline_pragma_suppresses_one_line(tmp_path):
    report = check_source(
        tmp_path,
        '__all__ = []\n'
        'import time\n'
        'def f():\n'
        '    return time.time()  # check: disable=no-wall-clock\n')
    assert report.violations == []
    assert [v.rule_id for v in report.suppressed] == ["no-wall-clock"]


def test_file_pragma_suppresses_whole_file(tmp_path):
    report = check_source(
        tmp_path,
        '# check: disable-file=no-wall-clock\n'
        '__all__ = []\n'
        'import time\n'
        'def f():\n'
        '    return time.time()\n')
    assert report.violations == []


def test_pragma_only_silences_the_named_rule(tmp_path):
    report = check_source(
        tmp_path,
        '__all__ = []\n'
        'import random  # check: disable=no-wall-clock\n')
    assert {v.rule_id for v in report.violations} == {"rng-discipline"}


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def test_select_and_ignore(tmp_path):
    # Rule selection is gone: every rule runs, and ``ignore`` is the
    # one switch that turns a rule off.
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.check]\nselect = ["no-wall-clock"]\n',
        encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        load_check_config(start=tmp_path)
    source = '__all__ = []\nimport random\n'
    assert check_source(tmp_path, source).exit_code == 1
    ignored = check_source(
        tmp_path, source, CheckConfig(ignore=("rng-discipline",)))
    assert ignored.violations == []
    assert ignored.exit_code == 0


def test_unknown_rule_id_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        check_paths([tmp_path], CheckConfig(ignore=("no-such-rule",)))


def test_exclude_glob(tmp_path):
    bad = tmp_path / "vendored.py"
    bad.write_text("import random\n", encoding="utf-8")
    report = check_paths([tmp_path],
                         CheckConfig(exclude=("vendored.py",)))
    assert report.files_checked == 0


def test_load_config_from_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.check]\n'
        'ignore = ["public-api-exports"]\n'
        'exclude = ["gen/*"]\n',
        encoding="utf-8")
    config = load_check_config(start=tmp_path)
    assert config.ignore == ("public-api-exports",)
    assert config.exclude == ("gen/*",)
    assert config.baseline is None


def test_load_config_defaults_when_table_missing(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n",
                                             encoding="utf-8")
    config = load_check_config(start=tmp_path)
    assert config == CheckConfig()


def test_load_config_rejects_bad_types(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.check]\nignore = "oops"\n', encoding="utf-8")
    with pytest.raises(ValueError, match="list of strings"):
        load_check_config(start=tmp_path)


def test_repo_config_names_only_known_rules():
    config = load_check_config(pyproject=REPO_ROOT / "pyproject.toml")
    assert set(config.ignore) <= set(RULES)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_text_reporter_lists_violations_and_summary():
    report = check_paths([FIXTURES / "bad_units.py"])
    text = render_text(report)
    assert "unit-suffix-mixing" in text
    assert "bad_units.py:" in text
    assert "1 file(s) checked" in text


def test_json_reporter_round_trips():
    report = check_paths([FIXTURES / "bad_exports.py"])
    payload = json.loads(render_json(report))
    assert payload["exit_code"] == 1
    (violation,) = payload["violations"]
    assert violation["rule"] == "public-api-exports"
    assert violation["family"] == "file"
    assert violation["line"] == 1


def test_sarif_reporter_shares_the_common_writer():
    report = check_paths([FIXTURES / "bad_units.py"])
    document = json.loads(render_sarif(report))
    assert document["version"] == "2.1.0"
    driver = document["runs"][0]["tool"]["driver"]
    assert driver["name"] == "urllc5g-check"
    listed = {rule["id"] for rule in driver["rules"]}
    # Every registered rule appears, found or not.
    assert listed == set(RULES)
    results = document["runs"][0]["results"]
    assert {r["ruleId"] for r in results
            if RULES[r["ruleId"]].family == "file"} == {
        "unit-suffix-mixing"}


def test_clean_report_says_clean(tmp_path):
    good = tmp_path / "mod.py"
    good.write_text('__all__ = []\n', encoding="utf-8")
    text = render_text(check_paths([tmp_path]))
    assert "clean" in text


# ----------------------------------------------------------------------
# the repository itself is clean
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    config = load_check_config(pyproject=REPO_ROOT / "pyproject.toml")
    report = check_paths([REPO_ROOT / "src"], config, use_cache=False)
    assert report.exit_code == 0, render_text(report)
    # The only suppressions are the three sanctioned host-clock and
    # generator-construction sites, each a line pragma with its reason.
    assert sorted((v.rule_id, Path(v.path).name, v.line)
                  for v in report.suppressed) == [
        ("no-wall-clock", "executor.py", 237),
        ("no-wall-clock", "executor.py", 301),
        ("rng-discipline", "rng.py", 51),
    ]


# ----------------------------------------------------------------------
# fault-streams-named delegates name resolution to the detsan resolver
# ----------------------------------------------------------------------
def test_fault_stream_fstring_with_literal_prefix_is_clean():
    source = (
        "class Injector:\n"
        "    def __init__(self, rngs, kind, index):\n"
        "        self.rng = rngs.stream(f\"fault.{kind}.{index}\")\n"
    )
    assert "fault-streams-named" not in rule_ids_in(
        source, "faults/injectors.py")


def test_fault_stream_dynamic_name_reported_as_unresolvable():
    source = (
        "def acquire(rngs, name):\n"
        "    return rngs.stream(name)\n"
    )
    violations = run_file_rules("faults/dynamic.py", ast.parse(source))
    hits = [v for v in violations if v.rule_id == "fault-streams-named"]
    assert len(hits) == 1
    assert "resolved statically" in hits[0].message


def test_fault_stream_resolved_template_in_message():
    source = (
        "def acquire(rngs, index):\n"
        "    return rngs.stream(f\"link.{index}\")\n"
    )
    violations = run_file_rules("faults/wrongprefix.py",
                                ast.parse(source))
    hits = [v for v in violations if v.rule_id == "fault-streams-named"]
    assert len(hits) == 1
    assert "'link.{*}'" in hits[0].message
