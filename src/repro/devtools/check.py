"""``urllc5g check``: every static rule in one pass over the project model.

:func:`check_paths` loads the project once and runs the five rule
families of :data:`RULES` over it: ``file``
(:mod:`repro.devtools.lintkit.rules`, run by the loader on each
module's summary and kept with it), ``units`` and
``purity`` (:mod:`repro.devtools.analyze`), ``detsan``
(:mod:`repro.devtools.detsan.ownership`) and ``dist``
(:mod:`repro.devtools.distcheck.rules`).  A ``# check:
disable=<rule>`` pragma on a finding's line or file is the only way to
review it.  The ``dist-*`` findings, only those, fold into per-scenario
verdicts:

- ``certified``: no finding in the scenario's reachability closure;
- ``baselined-findings``: every finding is pragma'd;
- ``failed``: at least one unreviewed finding survives;
- ``refused``: listed in ``refuse-scenarios``; its findings are
  dropped and a dispatcher must never ship its points off-host.

A finding attributed *only* to refused scenarios is dropped; one shared
with any other scenario still gates.  See docs/ANALYSIS.md.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.devtools.analyze.loader import Project, load_project
from repro.devtools.analyze.purity import purity_violations
from repro.devtools.analyze.units import resolve_units, unit_violations
from repro.devtools.config import CheckConfig
from repro.devtools.detsan.ownership import (DETSAN_RULES, OwnershipMap,
                                             detsan_violations)
from repro.devtools.distcheck.manifest import (DISTRIBUTABLE_STATUSES,
                                               SUPPORTED_SCHEMA_VERSION)
from repro.devtools.distcheck.rules import (DIST_RULES, certification_map,
                                            distcheck_findings)
from repro.devtools.lintkit.core import (SYNTAX_ERROR_RULE_ID, Severity,
                                         Violation, registered_rules)
from repro.devtools.sarif import TOOL_VERSION, render_sarif as _sarif

__all__ = ["RULES", "RENDERERS", "RuleSpec", "ScenarioCertification",
           "CheckReport", "check_paths", "render_text", "render_json",
           "render_sarif", "render_dot", "render_manifest"]


@dataclass(frozen=True)
class RuleSpec:
    """One registered rule."""

    rule_id: str
    family: str  # file | units | purity | detsan | dist
    severity: str
    description: str
    scope: str  # file (one module at a time) | program


_UNIT_RULES = {
    "cross-unit-arithmetic":
        "additive arithmetic mixes two different time units",
    "cross-unit-comparison":
        "comparison between values carrying different time units",
    "cross-unit-assignment":
        "value's inferred unit contradicts the target name's suffix",
    "cross-unit-return":
        "returned value's unit contradicts the function's declared unit",
    "cross-unit-argument":
        "argument's unit contradicts the callee parameter's declared unit",
}
_PURITY_RULES = {
    "transitive-unordered-schedule":
        "unordered iteration transitively schedules simulator events",
}
#: Program-scope rules whose findings are warnings, not errors.
_WARNING_RULES = frozenset({"detsan-unused-stream"})


def _registry() -> dict[str, RuleSpec]:
    specs = [RuleSpec(SYNTAX_ERROR_RULE_ID, "file", Severity.ERROR,
                      "file could not be parsed", "file")]
    specs.extend(RuleSpec(rule_id, "file", rule_cls.severity,
                          rule_cls.description, "file")
                 for rule_id, rule_cls in registered_rules().items())
    for family, table in (("units", _UNIT_RULES),
                          ("purity", _PURITY_RULES),
                          ("detsan", DETSAN_RULES), ("dist", DIST_RULES)):
        specs.extend(RuleSpec(
            rule_id, family,
            Severity.WARNING if rule_id in _WARNING_RULES
            else Severity.ERROR, description, "program")
            for rule_id, description in table.items())
    return {spec.rule_id: spec for spec in specs}


#: Every rule ``urllc5g check`` runs, keyed by id.
RULES = _registry()


@dataclass(frozen=True)
class ScenarioCertification:
    """One scenario's distributability verdict."""

    name: str
    entry: str
    status: str  # certified | baselined-findings | failed | refused
    reachable: int = 0
    findings: int = 0  # findings no pragma reviews
    reviewed: int = 0  # findings a pragma reviews


@dataclass
class CheckReport:
    """The outcome of one ``urllc5g check`` run."""

    #: Findings no pragma reviews: the gate.
    violations: list[Violation]
    #: Every finding, pragma'd or not.
    unfiltered: list[Violation]
    ownership: OwnershipMap
    certifications: list[ScenarioCertification]
    files_checked: int
    suppressed: list[Violation] = field(default_factory=list)
    refused_findings: int = 0
    #: dist finding -> names of the scenarios that reach it
    attribution: dict[Violation, frozenset[str]] = field(
        default_factory=dict, repr=False)

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations
                if v.severity >= Severity.ERROR]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def scenarios_for(self, violation: Violation) -> frozenset[str]:
        return self.attribution.get(violation, frozenset())


def _order(violation: Violation) -> tuple:
    return (violation.path, violation.line, violation.col,
            violation.rule_id)


def _module_findings(project: Project) -> list[Violation]:
    """Syntax errors (once per file) plus the file-rule findings."""
    found = []
    for module in project.modules:
        error = module.parse_error
        if error is not None:
            found.append(Violation(
                path=module.path, line=error["line"], col=error["col"],
                rule_id=SYNTAX_ERROR_RULE_ID, severity=Severity.ERROR,
                message=f"could not parse file: {error['message']}"))
        found.extend(module.file_findings)
    return found


def check_paths(paths: Iterable[str | Path],
                config: CheckConfig | None = None) -> CheckReport:
    """Run every rule family over ``paths`` and aggregate a report."""
    config = config or CheckConfig()
    project = load_project(paths, exclude=config.is_excluded)

    detsan, ownership = detsan_violations(project)
    cert = certification_map(project)
    refuse = set(config.refuse_scenarios)
    attribution: dict[Violation, frozenset[str]] = {}
    dist: list[Violation] = []
    refused_findings = 0
    for violation, scenarios in distcheck_findings(project, config, cert):
        if scenarios and scenarios <= refuse:
            refused_findings += 1
            continue
        attribution[violation] = scenarios
        dist.append(violation)
    unfiltered = sorted(
        _module_findings(project)
        + unit_violations(project, resolve_units(project))
        + purity_violations(project) + detsan + dist, key=_order)

    by_path = {module.path: module for module in project.modules}
    kept: list[Violation] = []
    suppressed: list[Violation] = []
    for violation in unfiltered:
        module = by_path[violation.path]
        off = {*module.file_pragmas,
               *module.line_pragmas.get(violation.line, ())}
        if violation.rule_id in off or "all" in off:
            suppressed.append(violation)
        else:
            kept.append(violation)

    def per_scenario(violations: list[Violation]) -> Counter:
        return Counter(name for violation in violations
                       for name in attribution.get(violation, ()))

    before, surviving = per_scenario(unfiltered), per_scenario(kept)
    certifications = []
    for entry in sorted(cert.entries, key=lambda e: e.name):
        found = reviewed = 0
        if entry.name in refuse:
            status = "refused"
        else:
            found = surviving[entry.name]
            reviewed = before[entry.name] - found
            status = ("failed" if found
                      else "baselined-findings" if reviewed
                      else "certified")
        certifications.append(ScenarioCertification(
            name=entry.name, entry=entry.qualname, status=status,
            reachable=cert.closure_sizes.get(entry.name, 0),
            findings=found, reviewed=reviewed))

    return CheckReport(
        violations=kept, unfiltered=unfiltered, ownership=ownership,
        certifications=certifications,
        files_checked=project.files_checked, suppressed=suppressed,
        refused_findings=refused_findings,
        attribution=attribution)


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def render_text(report: CheckReport) -> str:
    """Human-readable report: verdicts, findings and a summary line."""
    ownership = report.ownership
    lines = [f"stream ownership map: {len(ownership.streams)} stream(s), "
             f"{ownership.resolved}/{ownership.acquisitions} "
             "acquisition(s) resolved (full map: --format json or dot)",
             f"scenario certification "
             f"({len(report.certifications)} scenario(s)):"]
    for cert in report.certifications:
        if cert.status == "refused":
            detail = "(listed in refuse-scenarios)"
        else:
            detail = (f"({cert.reachable} reachable function(s), "
                      f"{cert.findings} finding(s), "
                      f"{cert.reviewed} reviewed)")
        lines.append(f"  {cert.name:<22} {cert.status:<20} {detail}")
    lines.append("")
    for violation in report.violations:
        lines.append(violation.render())
        if RULES[violation.rule_id].family == "dist":
            scenarios = sorted(report.scenarios_for(violation))
            lines.append("    reached from: "
                         + (", ".join(scenarios) or "(program-wide)"))
    summary = (f"{report.files_checked} file(s) checked, "
               f"{len(report.violations)} finding(s)")
    extras = [f"{count} {label}" for count, label in (
        (len(report.suppressed), "suppressed"),
        (report.refused_findings, "on refused scenarios")) if count]
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    if not report.violations:
        summary += " — clean"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: CheckReport) -> str:
    """Machine-readable report for tooling."""
    ownership = report.ownership
    payload = {
        "files_checked": report.files_checked,
        "suppressed": len(report.suppressed),
        "refused_findings": report.refused_findings,
        "exit_code": report.exit_code,
        "resolution": {"acquisitions": ownership.acquisitions,
                       "resolved": ownership.resolved,
                       "rate": ownership.resolution_rate},
        "streams": [
            {"template": info.template, "scope": info.scope,
             "owners": info.owners,
             "sites": [f"{path}:{line}" for path, line in info.sites],
             "buffered": info.buffered, "shared": info.shared}
            for info in ownership.streams],
        "scenarios": [
            {"name": cert.name, "entry": cert.entry,
             "status": cert.status,
             "reachable_functions": cert.reachable,
             "findings": cert.findings,
             "reviewed_findings": cert.reviewed}
            for cert in report.certifications],
        "violations": [
            {"path": v.path, "line": v.line, "col": v.col,
             "rule": v.rule_id, "family": RULES[v.rule_id].family,
             "severity": str(v.severity), "message": v.message,
             "scenarios": sorted(report.scenarios_for(v))}
            for v in report.violations],
    }
    return json.dumps(payload, indent=2)


def render_sarif(report: CheckReport) -> str:
    """SARIF 2.1.0 document listing every registered rule."""
    return _sarif(report.violations, tool_name="urllc5g-check",
                  rules={rule_id: (spec.description, spec.severity)
                         for rule_id, spec in RULES.items()},
                  information_uri="docs/ANALYSIS.md")


def _scope_label(scope: str) -> str:
    """Short display form of a registry-scope key."""
    parts = scope.split(":")[0].split(".")
    return ".".join(parts[-2:])


def render_dot(report: CheckReport) -> str:
    """The stream-ownership graph in Graphviz dot, for docs.

    Stream nodes are ellipses (doubled border when a buffered sampler
    claims the stream exclusively), consumer components are boxes, and
    an edge means "this component draws from this stream".  Output is
    deterministic so the generated graph can live in version control.
    """
    lines = [
        "// Generated by `urllc5g check --format dot`.",
        "digraph stream_ownership {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica", fontsize=11];',
        '  edge [fontname="Helvetica", fontsize=9];',
    ]
    owners: dict[str, str] = {}
    for index, info in enumerate(report.ownership.streams):
        style = ["shape=ellipse"]
        if info.buffered:
            style.append("peripheries=2")
        if info.shared:
            style.append("style=dashed")
        lines.append(f'  stream_{index} [label="{info.template}\\n'
                     f'({_scope_label(info.scope)})", '
                     f'{", ".join(style)}];')
        for owner in info.owners:
            if owner not in owners:
                owners[owner] = f"owner_{len(owners)}"
                short = ".".join(owner.split(".")[-2:])
                lines.append(f'  {owners[owner]} [label="{short}", '
                             'shape=box];')
            label = ' [label="buffered"]' if info.buffered else ""
            lines.append(f"  stream_{index} -> {owners[owner]}{label};")
    lines.append("}")
    return "\n".join(lines)


def render_manifest(report: CheckReport) -> str:
    """``distcheck-manifest.json``: the per-scenario dispatch gate.

    A point may only be shipped off-host when its scenario's status is
    ``certified`` or ``baselined-findings`` (read back by
    :mod:`repro.devtools.distcheck.manifest`).  Deterministic (sorted
    keys, no timestamps) so the checked-in file is diffable.  Like the
    verdicts, ``exit_code`` folds only the ``dist`` family.
    """
    dist_errors = [v for v in report.errors
                   if RULES[v.rule_id].family == "dist"]
    payload = {
        "tool": "urllc5g-distcheck",
        "tool_version": TOOL_VERSION,
        "schema_version": SUPPORTED_SCHEMA_VERSION,
        "exit_code": 1 if dist_errors else 0,
        "scenarios": {
            cert.name: {
                "entry": cert.entry,
                "status": cert.status,
                "distributable": cert.status in DISTRIBUTABLE_STATUSES,
                "reachable_functions": cert.reachable,
                "findings": cert.findings,
                "reviewed_findings": cert.reviewed,
            }
            for cert in report.certifications
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: ``--format`` name -> renderer.
RENDERERS = {"text": render_text, "json": render_json,
             "sarif": render_sarif, "dot": render_dot}
