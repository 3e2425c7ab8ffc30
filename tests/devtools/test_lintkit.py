"""The file-scope rule family: rules, suppressions, config, reporters."""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.analyze import load_project
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
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

EXPECTED_RULES = {
    "no-wall-clock",
    "rng-discipline",
    "no-float-tick-equality",
    "unordered-iteration-before-schedule",
    "public-api-exports",
    "fault-streams-named",
}


def file_family(violations):
    return [v for v in violations if RULES[v.rule_id].family == "file"]


def file_findings_in(tmp_path, source: str, path: str = "mod.py"):
    """The unfiltered file-rule findings of one module written at
    ``tmp_path / path``."""
    target = tmp_path / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return file_family(check_paths([tmp_path]).unfiltered)


def rule_ids_in(tmp_path, source: str, path: str = "mod.py") -> set[str]:
    return {v.rule_id for v in file_findings_in(tmp_path, source, path)}


def check_source(tmp_path, source):
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    return check_paths([tmp_path])


def test_all_domain_rules_are_registered():
    assert EXPECTED_RULES <= set(registered_rules())
    for rule_id in EXPECTED_RULES | {SYNTAX_ERROR_RULE_ID}:
        assert RULES[rule_id].family == "file"
        assert RULES[rule_id].scope == "file"


# ----------------------------------------------------------------------
# the fixture files each trip exactly their intended rule
# ----------------------------------------------------------------------
#: Fixture lines that break a second file rule as well.
ALSO_TRIPPED = {
    # The ad-hoc ``default_rng(0)`` (imported from numpy.random) breaks
    # the fault-stream contract and RNG discipline alike.
    "bad_fault_stream_names.py": {"rng-discipline": 1},
}


@pytest.mark.parametrize("fixture, expected_rule, expected_count", [
    ("bad_wall_clock.py", "no-wall-clock", 3),
    ("bad_rng.py", "rng-discipline", 5),
    ("bad_float_equality.py", "no-float-tick-equality", 2),
    ("bad_iteration.py", "unordered-iteration-before-schedule", 2),
    ("bad_exports.py", "public-api-exports", 1),
    ("bad_fault_stream_names.py", "fault-streams-named", 3),
])
def test_fixture_caught_by_correct_rule(fixture, expected_rule,
                                        expected_count):
    report = check_paths([FIXTURES / fixture])
    assert report.suppressed == []
    counts = Counter(v.rule_id for v in file_family(report.violations))
    assert counts == {expected_rule: expected_count,
                      **ALSO_TRIPPED.get(fixture, {})}


def test_units_fixture_caught_by_the_units_family():
    # Mixed-unit arithmetic and comparisons are the units family's:
    # its inference covers every line a suffix-only file rule saw.
    report = check_paths([FIXTURES / "bad_units.py"])
    assert sorted((v.rule_id, v.line) for v in report.violations) == [
        ("cross-unit-arithmetic", 7), ("cross-unit-comparison", 11)]


# ----------------------------------------------------------------------
# the file rules read the loader's records: every place a direct use
# can be written is seen
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source, rule, line, col", [
    ("import time\nSTART = time.time()\n", "no-wall-clock", 2, 8),
    ("import time\nstamp = lambda: time.time()\n", "no-wall-clock", 2, 16),
    ("import time\ndef f(t=time.time()):\n    return t\n",
     "no-wall-clock", 2, 8),
    ("import time\ndef deco(x):\n    return lambda fn: fn\n"
     "@deco(time.time())\ndef f():\n    pass\n", "no-wall-clock", 4, 6),
    ("from time import perf_counter\nclass C:\n"
     "    created = perf_counter()\n", "no-wall-clock", 3, 14),
    ("for h in set(HANDLERS):\n    SIM.schedule(0, h)\n",
     "unordered-iteration-before-schedule", 1, 0),
    ("class C:\n    for h in set(HANDLERS):\n"
     "        SIM.call_in(1, h)\n",
     "unordered-iteration-before-schedule", 2, 4),
    ("def kick(sim, handlers, run):\n    for h in set(handlers):\n"
     "        run(lambda: sim.schedule(0, h))\n",
     "unordered-iteration-before-schedule", 2, 4),
    ("draw = lambda: rng.random()\n", "rng-discipline", 1, 15),
], ids=["module-level", "lambda-body", "default-argument",
        "decorator-argument", "class-body", "set-loop-module-level",
        "set-loop-class-body", "schedule-in-lambda", "unbound-rng-in-lambda"])
def test_direct_use_reported_wherever_it_is_written(tmp_path, source, rule,
                                                    line, col):
    found = [(v.line, v.col) for v in file_findings_in(tmp_path, source)
             if v.rule_id == rule]
    assert found == [(line, col)]


def test_rng_discipline_resolves_every_numpy_spelling(tmp_path):
    source = ("import random\n"
              "import numpy.random\n"
              "from numpy.random import seed, default_rng\n"
              "numpy.random.seed(1)\n"
              "X = numpy.random.normal()\n"
              "seed(1)\n"
              "G = default_rng()\n"
              "Y = random.random()\n")
    found = [(v.line, v.message.split(";")[0])
             for v in file_findings_in(tmp_path, source)
             if v.rule_id == "rng-discipline"]
    # stdlib random is reported at its import, not at each call
    assert found == [
        (1, "stdlib 'random' is process-global state"),
        (4, "np.random.seed mutates the process-global generator"),
        (5, "np.random.normal draws from the process-global generator"),
        (6, "np.random.seed mutates the process-global generator"),
        (7, "ad-hoc default_rng() construction"),
    ]
    fault = [v.line for v in file_findings_in(
        tmp_path / "fault", "import numpy.random\n"
        "G = numpy.random.default_rng(0)\n", "faults/inject.py")
        if v.rule_id == "fault-streams-named"]
    assert fault == [2]


def test_rng_discipline_flags_every_seeding_construction(tmp_path):
    source = ("import numpy as np\n"
              "from numpy.random import PCG64, Generator\n"
              "from numpy.random.bit_generator import SeedSequence\n"
              "A = np.random.Generator(np.random.PCG64(1))\n"
              "B = Generator(PCG64(2))\n"
              "C = np.random.Generator(np.random.PCG64DXSM(3))\n"
              "D = np.random.Philox(4), np.random.SFC64(5)\n"
              "E = np.random.MT19937(6)\n"
              "F = np.random.SeedSequence(7), SeedSequence(8)\n"
              "G = np.random.bit_generator.SeedSequence(9)\n"
              "H = np.random.default_rng(10)\n"
              "I = np.random.Generator  # a reference, not a construction\n")
    found = [(v.line, v.message.split(";")[0])
             for v in file_findings_in(tmp_path, source)
             if v.rule_id == "rng-discipline"]
    assert found == [
        (4, "ad-hoc Generator() construction"),
        (4, "ad-hoc PCG64() construction"),
        (5, "ad-hoc Generator() construction"),
        (5, "ad-hoc PCG64() construction"),
        (6, "ad-hoc Generator() construction"),
        (6, "ad-hoc PCG64DXSM() construction"),
        (7, "ad-hoc Philox() construction"),
        (7, "ad-hoc SFC64() construction"),
        (8, "ad-hoc MT19937() construction"),
        (9, "ad-hoc SeedSequence() construction"),
        (9, "ad-hoc SeedSequence() construction"),
        (10, "ad-hoc SeedSequence() construction"),
        (11, "ad-hoc default_rng() construction"),
    ]


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
    # Config files name severities as plain strings; ranking must
    # still apply.
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
def test_clean_simulation_code_passes(tmp_path):
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
    assert rule_ids_in(tmp_path, source) == set()


def test_conversion_calls_reconcile_units(tmp_path):
    source = ('__all__ = []\n'
              'def f(slot_tc, margin_us, tc_from_us):\n'
              '    return slot_tc + tc_from_us(margin_us)\n')
    assert rule_ids_in(tmp_path, source) == set()


def test_sorted_set_iteration_is_fine(tmp_path):
    source = ('__all__ = []\n'
              'def f(sim, ues):\n'
              '    for ue in sorted(set(ues)):\n'
              '        sim.schedule(0, ue)\n')
    assert rule_ids_in(tmp_path, source) == set()


def test_rng_parameter_and_closure_are_fine(tmp_path):
    source = ('__all__ = []\n'
              'def outer(rng):\n'
              '    def inner():\n'
              '        return rng.normal()\n'
              '    return inner\n')
    assert rule_ids_in(tmp_path, source) == set()


@pytest.mark.parametrize("source", [
    "rng = make()\ndef draw():\n    return rng.random()\n",
    "draw = lambda rng: rng.random()\n",
    "def seed(registry):\n    global rng\n    rng = registry.stream('x')\n"
    "def draw():\n    return rng.random()\n",
    "def draw(*, rng):\n    return rng.random()\n",
    "def draw(gens):\n    return [rng.random() for rng in gens]\n",
    "def outer(registry):\n    def inner():\n        return rng.random()\n"
    "    rng = registry.stream('x')\n    return inner\n",
], ids=["module-level", "lambda-parameter", "global", "keyword-only",
        "comprehension-target", "later-in-enclosing-def"])
def test_rng_bound_in_any_visible_scope_is_fine(tmp_path, source):
    assert "rng-discipline" not in rule_ids_in(tmp_path, source)


def test_unbound_rng_in_nested_def_is_reported(tmp_path):
    source = ("def outer():\n"
              "    def inner():\n"
              "        return rng.random()\n"
              "    return inner\n")
    found = [v for v in file_findings_in(tmp_path, source)
             if v.rule_id == "rng-discipline"]
    assert {(v.line, v.col) for v in found} == {(3, 15)}
    assert any(v.message.startswith("'inner' uses 'rng'") for v in found)


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
def test_select_and_ignore(tmp_path, capsys):
    # Rule selection, the parse cache, the ``ignore`` list and the
    # baseline file are gone: every rule runs on every module, and a
    # pragma in the source is the one way to review a finding.  A
    # pyproject still naming a removed key is an error (exit 2).
    pyproject = tmp_path / "pyproject.toml"
    for stale in ('select = ["no-wall-clock"]',
                  'cache = ".urllc5g-analyze-cache.json"',
                  'ignore = ["rng-discipline"]',
                  'baseline = "check-baseline.json"'):
        pyproject.write_text(f"[tool.urllc5g.check]\n{stale}\n",
                             encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key"):
            load_check_config(start=tmp_path)
        assert main(["check", str(tmp_path),
                     "--config", str(pyproject)]) == 2
        assert "unknown key(s)" in capsys.readouterr().err


def test_exclude_glob(tmp_path):
    bad = tmp_path / "vendored.py"
    bad.write_text("import random\n", encoding="utf-8")
    report = check_paths([tmp_path],
                         CheckConfig(exclude=("vendored.py",)))
    assert report.files_checked == 0


def test_load_config_from_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.check]\n'
        'exclude = ["gen/*"]\n',
        encoding="utf-8")
    config = load_check_config(start=tmp_path)
    assert config.exclude == ("gen/*",)


def test_load_config_defaults_when_table_missing(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n",
                                             encoding="utf-8")
    config = load_check_config(start=tmp_path)
    assert config == CheckConfig()


def test_load_config_rejects_bad_types(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.urllc5g.check]\nexclude = "oops"\n', encoding="utf-8")
    with pytest.raises(ValueError, match="list of strings"):
        load_check_config(start=tmp_path)


def test_repo_config_names_only_known_rules():
    # The repo's reviews are its pragmas: each names a registered rule,
    # so none is left behind by a rule's removal or a typo.
    load_check_config(pyproject=REPO_ROOT / "pyproject.toml")
    project = load_project([REPO_ROOT / "src"])
    named = {rule for module in project.modules
             for rules in (module.file_pragmas,
                           *module.line_pragmas.values())
             for rule in rules}
    assert named and named <= set(RULES)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_text_reporter_lists_violations_and_summary():
    report = check_paths([FIXTURES / "bad_units.py"])
    text = render_text(report)
    assert "cross-unit-arithmetic" in text
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
    assert {r["ruleId"] for r in results} == {
        "cross-unit-arithmetic", "cross-unit-comparison"}


def test_clean_report_says_clean(tmp_path):
    good = tmp_path / "mod.py"
    good.write_text('__all__ = []\n', encoding="utf-8")
    text = render_text(check_paths([tmp_path]))
    assert "clean" in text


# ----------------------------------------------------------------------
# the repository itself is clean
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean(src_report):
    report = src_report
    assert report.exit_code == 0, render_text(report)
    # The only suppressions are the sanctioned host-clock and
    # generator-construction sites, each a line pragma with its reason.
    assert sorted((v.rule_id, Path(v.path).name, v.line)
                  for v in file_family(report.suppressed)) == [
        ("no-wall-clock", "executor.py", 237),
        ("no-wall-clock", "executor.py", 301),
        ("rng-discipline", "rng.py", 162),
        ("rng-discipline", "rng.py", 166),
    ]


# ----------------------------------------------------------------------
# fault-streams-named delegates name resolution to the detsan resolver
# ----------------------------------------------------------------------
def test_fault_stream_fstring_with_literal_prefix_is_clean(tmp_path):
    source = (
        "class Injector:\n"
        "    def __init__(self, rngs, kind, index):\n"
        "        self.rng = rngs.stream(f\"fault.{kind}.{index}\")\n"
    )
    assert "fault-streams-named" not in rule_ids_in(
        tmp_path, source, "faults/injectors.py")


def test_fault_stream_dynamic_name_reported_as_unresolvable(tmp_path):
    source = (
        "def acquire(rngs, name):\n"
        "    return rngs.stream(name)\n"
    )
    violations = file_findings_in(tmp_path, source, "faults/dynamic.py")
    hits = [v for v in violations if v.rule_id == "fault-streams-named"]
    assert len(hits) == 1
    assert "resolved statically" in hits[0].message


def test_fault_stream_resolved_template_in_message(tmp_path):
    source = (
        "def acquire(rngs, index):\n"
        "    return rngs.stream(f\"link.{index}\")\n"
    )
    violations = file_findings_in(tmp_path, source,
                                  "faults/wrongprefix.py")
    hits = [v for v in violations if v.rule_id == "fault-streams-named"]
    assert len(hits) == 1
    assert "'link.{*}'" in hits[0].message
