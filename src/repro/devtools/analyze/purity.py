"""Transitive purity: taint propagation through the call graph.

The file-scope rules catch ``time.time()`` *in the function you are
reading*.  They cannot see that an innocuous helper three calls away
reaches the wall clock, seeds the process-global RNG, or schedules
simulator events from inside an unordered ``set`` iteration.  This
pass propagates three taints over the whole-program call graph:

- **wall-clock** — ``time.*`` / ``datetime.now`` family;
- **global-RNG** — stdlib ``random.*`` and legacy ``numpy.random.*``
  module-level state (``default_rng`` constructs an independent
  generator and is deliberately *not* a source, so
  :class:`repro.sim.rng.RngRegistry` stays clean);
- **schedules** — calls to ``.schedule(...)`` / ``.call_in(...)``.

Only *indirectly acquired* taint is reported: a function that calls
``time.time()`` itself is the file rule ``no-wall-clock``'s business,
so the two families never double-report one line.
"""

from __future__ import annotations

from repro.devtools.lintkit.core import Severity, Violation
from repro.devtools.analyze.loader import FunctionSummary, Project

__all__ = ["purity_violations"]

_ADVICE = {
    "transitive-wall-clock":
        "take timestamps from the simulator clock instead",
    "transitive-global-rng":
        "draw from a repro.sim.rng.RngRegistry stream instead",
}


def _resolved_edges(project: Project, summary: FunctionSummary
                    ) -> list[tuple[dict, list[str]]]:
    """Each call edge with its candidates resolved to known functions."""
    edges = []
    for edge in summary.call_edges:
        resolved = []
        for candidate in edge["f"]:
            target = project.resolve_function(candidate)
            if target is not None:
                resolved.append(target.qualname)
        if resolved:
            edges.append((edge, resolved))
    return edges


def _propagate(direct: dict[str, str],
               callees: dict[str, set[str]]) -> dict[str, tuple[str, str]]:
    """Fixpoint closure of taint over the call graph.

    Returns qualname -> ("direct", what) | ("via", callee_qualname) so
    reports can show the shortest discovered chain to the real source.
    """
    tainted: dict[str, tuple[str, str]] = {
        qualname: ("direct", what) for qualname, what in direct.items()}
    changed = True
    while changed:
        changed = False
        for caller, targets in callees.items():
            if caller in tainted:
                continue
            for target in sorted(targets):
                if target in tainted:
                    tainted[caller] = ("via", target)
                    changed = True
                    break
    return tainted


def _chain(tainted: dict[str, tuple[str, str]], start: str) -> str:
    """Human-readable call chain from ``start`` down to the source."""
    hops: list[str] = []
    current = start
    for _ in range(20):
        kind, what = tainted[current]
        hops.append(_short(current))
        if kind == "direct":
            hops.append(f"{what}()")
            break
        current = what
    return " -> ".join(hops)


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


def purity_violations(project: Project) -> list[Violation]:
    """Report taint a function acquires only through its callees."""
    edges_by_fn = {
        summary.qualname: _resolved_edges(project, summary)
        for summary in project.functions.values()}
    callees = {
        qualname: {target for _, resolved in edges for target in resolved}
        for qualname, edges in edges_by_fn.items()}

    wall = _propagate(
        {q: s.wall_clock[0]["what"] for q, s in project.functions.items()
         if s.wall_clock}, callees)
    rng = _propagate(
        {q: s.global_rng[0]["what"] for q, s in project.functions.items()
         if s.global_rng}, callees)
    sched = _propagate(
        {q: "schedule" for q, s in project.functions.items()
         if s.schedules}, callees)

    violations: list[Violation] = []
    for qualname, summary in project.functions.items():
        for rule, tainted, directly in (
                ("transitive-wall-clock", wall, bool(summary.wall_clock)),
                ("transitive-global-rng", rng, bool(summary.global_rng))):
            if directly:
                continue  # the direct use is a file rule's finding
            seen_lines: set[int] = set()
            for edge, resolved in edges_by_fn[qualname]:
                hit = next((t for t in resolved if t in tainted), None)
                if hit is None or edge["line"] in seen_lines:
                    continue
                seen_lines.add(edge["line"])
                what = _chain(tainted, hit)
                violations.append(Violation(
                    path=summary.path, line=edge["line"],
                    col=edge["col"], rule_id=rule,
                    severity=Severity.ERROR,
                    message=(f"'{_short(qualname)}' calls "
                             f"'{edge['name']}' which transitively "
                             f"reaches {what}; {_ADVICE[rule]}")))
        for loop in summary.unordered_loops:
            if loop["direct"]:
                continue  # literal schedule-in-loop: a file rule's finding
            hit = None
            for candidate in loop["calls"]:
                target = project.resolve_function(candidate)
                if target is not None and target.qualname in sched:
                    hit = target.qualname
                    break
            if hit is None:
                continue
            violations.append(Violation(
                path=summary.path, line=loop["line"], col=loop["col"],
                rule_id="transitive-unordered-schedule",
                severity=Severity.ERROR,
                message=(f"'{_short(qualname)}' iterates over "
                         f"{loop['reason']} and calls "
                         f"'{_short(hit)}' which transitively schedules "
                         f"simulator events ({_chain(sched, hit)}); "
                         "iterate in sorted() order so event order "
                         "is deterministic")))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations
