"""Scenario reachability closure and the five ``dist-*`` rules.

Certification model: a campaign point executes remotely as
``run_point(point)`` — the scenario function registered under
``@scenario(name)`` plus everything it (transitively) calls,
including class closures for every type it constructs.  Each
distributability hazard the loader extracted (host-state reads,
module-global writes, filesystem mutations, boundary crossings,
digest-form hazards) is attributed to the set of scenarios whose
closure reaches the offending function; :mod:`repro.devtools.check`
then certifies, baselines, or refuses each scenario from that
attribution.

Violation messages deliberately never name scenarios: the reviewed
baseline fingerprints ``rule|path|message``, and attribution (which
scenarios reach a finding) must be able to change — e.g. when a new
scenario is registered — without invalidating reviewed entries.
Attribution lives in the report/manifest instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.devtools.analyze.loader import (ClassSummary, FunctionSummary,
                                           Project)
from repro.devtools.analyze.purity import _short
from repro.devtools.config import CheckConfig
from repro.devtools.lintkit.core import Severity, Violation

__all__ = ["DIST_RULES", "ENTRY_DECORATORS", "SHARED_ROOTS",
           "DIGEST_ROOTS", "ScenarioEntry", "CertificationMap",
           "find_scenario_entries", "certification_map",
           "distcheck_findings"]

#: The decorator that marks a remote-executable entry point.
ENTRY_DECORATORS = ("repro.runner.scenarios.scenario",)
#: Functions every remote point executes besides the scenario itself.
SHARED_ROOTS = ("repro.runner.scenarios.run_point",)
#: Digest-feeding functions whose names carry no digest marker.
DIGEST_ROOTS: tuple[str, ...] = ()

DIST_RULES = {
    "dist-mutable-global":
        "Module-level mutable state is written on a path reachable "
        "from a scenario entry point; remote workers would diverge "
        "from the coordinator.",
    "dist-host-state":
        "Host state (environment, cwd, __file__, hostname/pid, "
        "locale) is observed on a scenario-reachable path outside the "
        "declared allow-env contract.",
    "dist-unpicklable-boundary":
        "A lambda, closure, or local class flows into a pool-submitted "
        "callable and cannot cross the process boundary.",
    "dist-digest-instability":
        "A value feeding result-cache point digests has a canonical "
        "form that depends on iteration order or process-unstable "
        "builtins.",
    "dist-filesystem-escape":
        "A scenario-reachable path writes the filesystem outside the "
        "sanctioned artifact/journal APIs.",
}

#: Functions whose *name* marks them as digest producers; their
#: closure is the dist-digest-instability domain.
_DIGEST_NAME_MARKERS = ("digest", "fingerprint")


@dataclass(frozen=True)
class ScenarioEntry:
    """One ``@scenario(name)``-registered entry point."""

    name: str
    qualname: str
    path: str
    line: int


@dataclass
class CertificationMap:
    """Reachability closure of every scenario entry point."""

    entries: list[ScenarioEntry]
    #: function qualname -> names of the scenarios that reach it
    reached_by: dict[str, frozenset[str]]
    #: scenario name -> number of reachable functions in its closure
    closure_sizes: dict[str, int]
    #: functions in the digest-producing closure
    digest_closure: frozenset[str]


def find_scenario_entries(project: Project) -> list[ScenarioEntry]:
    """Every function carrying a registered entry decorator."""
    targets = {project._resolve(name) or name
               for name in ENTRY_DECORATORS}
    entries: list[ScenarioEntry] = []
    seen: set[str] = set()
    for qualname in sorted(project.functions):
        summary = project.functions[qualname]
        for decorator in summary.decorators:
            resolved = project._resolve(decorator["name"]) \
                or decorator["name"]
            if resolved in targets and decorator["arg"] \
                    and decorator["arg"] not in seen:
                seen.add(decorator["arg"])
                entries.append(ScenarioEntry(
                    name=decorator["arg"], qualname=qualname,
                    path=summary.path, line=summary.line))
    return entries


def _reachable(project: Project, roots: list[str]) -> set[str]:
    """Transitive call closure, with constructed-class closure.

    A resolved call to a class means the scenario constructs it, so
    *every* method of that class is conservatively reachable — this
    covers dynamic receivers (``self.probe.summary()``) that the call
    resolver cannot follow.
    """
    seen: set[str] = set()
    work = [q for q in roots if q in project.functions]
    while work:
        qualname = work.pop()
        if qualname in seen:
            continue
        seen.add(qualname)
        summary = project.functions[qualname]
        for candidate in summary.calls:
            target = project.resolve_callable(candidate)
            if isinstance(target, FunctionSummary):
                if target.qualname not in seen:
                    work.append(target.qualname)
            elif isinstance(target, ClassSummary):
                for method in target.methods:
                    method_qualname = f"{target.qualname}.{method}"
                    if method_qualname in project.functions \
                            and method_qualname not in seen:
                        work.append(method_qualname)
    return seen


def certification_map(project: Project) -> CertificationMap:
    entries = find_scenario_entries(project)
    shared = [project._resolve(root) or root for root in SHARED_ROOTS]
    reached_by: dict[str, set[str]] = {}
    closure_sizes: dict[str, int] = {}
    for entry in entries:
        closure = _reachable(project, [entry.qualname, *shared])
        closure_sizes[entry.name] = len(closure)
        for qualname in closure:
            reached_by.setdefault(qualname, set()).add(entry.name)
    digest_roots = [
        qualname for qualname, summary in project.functions.items()
        if any(marker in summary.name.lower()
               for marker in _DIGEST_NAME_MARKERS)]
    digest_roots.extend(project._resolve(root) or root
                        for root in DIGEST_ROOTS)
    return CertificationMap(
        entries=entries,
        reached_by={qualname: frozenset(names)
                    for qualname, names in reached_by.items()},
        closure_sizes=closure_sizes,
        digest_closure=frozenset(
            _reachable(project, sorted(set(digest_roots)))),
    )


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatchcase(name, pattern) for pattern in patterns)


def distcheck_findings(
        project: Project, config: CheckConfig,
        cert: CertificationMap
) -> list[tuple[Violation, frozenset[str]]]:
    """All rule findings, each paired with its scenario attribution.

    Boundary and digest findings apply program-wide (the executor and
    the cache serve every scenario), so their attribution may be empty
    — the engine treats those as never-refusable.
    """
    findings: list[tuple[Violation, frozenset[str]]] = []
    str_constants = _project_str_constants(project)
    no_scenarios: frozenset[str] = frozenset()
    for qualname in sorted(project.functions):
        summary = project.functions[qualname]
        scenarios = cert.reached_by.get(qualname, no_scenarios)
        if scenarios:
            _scenario_scoped(findings, summary, scenarios, config,
                             str_constants)
        for record in summary.boundary:
            findings.append((Violation(
                path=summary.path, line=record["line"],
                col=record["col"],
                rule_id="dist-unpicklable-boundary",
                severity=Severity.ERROR,
                message=(
                    f"'{_short(qualname)}' passes {record['hazard']} "
                    f"to .{record['method']}(); only module-level "
                    f"callables and plain data can cross the process "
                    f"boundary")), scenarios))
        if qualname in cert.digest_closure:
            _digest_scoped(findings, summary, scenarios)
    return findings


def _project_str_constants(project: Project) -> dict[str, str]:
    """qualname -> value for every module-level string constant."""
    table: dict[str, str] = {}
    for module in project.modules:
        for name, value in module.str_constants.items():
            table[f"{module.qualname}.{name}"] = value
    return table


def _scenario_scoped(
        findings: list[tuple[Violation, frozenset[str]]],
        summary: FunctionSummary, scenarios: frozenset[str],
        config: CheckConfig,
        str_constants: dict[str, str]) -> None:
    qualname = summary.qualname
    for record in summary.host_state:
        message = _host_state_message(qualname, record, config,
                                      str_constants)
        if message is None:
            continue
        findings.append((Violation(
            path=summary.path, line=record["line"], col=record["col"],
            rule_id="dist-host-state", severity=Severity.ERROR,
            message=message), scenarios))
    if not _matches(qualname, config.allow_globals):
        for record in summary.global_writes:
            findings.append((Violation(
                path=summary.path, line=record["line"],
                col=record["col"], rule_id="dist-mutable-global",
                severity=Severity.ERROR,
                message=(
                    f"'{_short(qualname)}' writes module-level state "
                    f"'{_short(record['name'])}' ({record['how']}); a "
                    f"remote worker's copy would diverge from the "
                    f"coordinator's")), scenarios))
    if not _matches(qualname, config.sanctioned_writers):
        for record in summary.fs_writes:
            findings.append((Violation(
                path=summary.path, line=record["line"],
                col=record["col"], rule_id="dist-filesystem-escape",
                severity=Severity.ERROR,
                message=(
                    f"'{_short(qualname)}' writes the filesystem via "
                    f"{record['what']}, outside the sanctioned "
                    f"artifact/journal APIs")), scenarios))


def _host_state_message(qualname: str, record: dict,
                        config: CheckConfig,
                        str_constants: dict[str, str]) -> str | None:
    kind = record["kind"]
    short = _short(qualname)
    if kind == "env":
        var = record.get("var")
        if var is None and record.get("ref"):
            var = str_constants.get(record["ref"])
        if var is not None and _matches(var, config.allow_env):
            return None
        if var is not None:
            return (f"'{short}' reads environment variable '{var}' "
                    f"outside the declared allow-env contract; a "
                    f"remote worker may see a different environment")
        return (f"'{short}' reads an environment variable through a "
                f"dynamic name ({record.get('expr')}); distcheck "
                f"cannot certify it against the allow-env contract")
    if kind == "cwd":
        return (f"'{short}' observes the host working directory via "
                f"{record['what']}(); resolve paths from explicit "
                f"parameters instead")
    if kind == "file":
        return (f"'{short}' reads __file__, anchoring behaviour to "
                f"the source checkout location on one host")
    if kind == "host-id":
        return (f"'{short}' reads host identity via "
                f"{record['what']}(); results would differ per host")
    if kind == "locale":
        return (f"'{short}' depends on process locale via "
                f"{record['what']}(); remote workers may be "
                f"configured differently")
    if kind == "process":
        return (f"'{short}' controls the worker process via "
                f"{record['what']}(); a remote point must return, "
                f"not exit")
    return None


def _digest_scoped(
        findings: list[tuple[Violation, frozenset[str]]],
        summary: FunctionSummary, scenarios: frozenset[str]) -> None:
    qualname = summary.qualname
    for record in summary.digest_hazards:
        findings.append((Violation(
            path=summary.path, line=record["line"], col=record["col"],
            rule_id="dist-digest-instability", severity=Severity.ERROR,
            message=(
                f"'{_short(qualname)}' uses {record['what']} on a "
                f"digest-feeding path; point digests must be "
                f"bit-identical across hosts")), scenarios))
    for record in summary.unordered_loops:
        findings.append((Violation(
            path=summary.path, line=record["line"], col=record["col"],
            rule_id="dist-digest-instability", severity=Severity.ERROR,
            message=(
                f"'{_short(qualname)}' iterates over {record['reason']} "
                f"on a digest-feeding path; canonical form must not "
                f"depend on iteration order")), scenarios))
