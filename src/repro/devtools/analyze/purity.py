"""Transitive purity: schedule taint propagated through the call graph.

The file rule ``unordered-iteration-before-schedule`` catches a
``.schedule(...)`` call written inside a ``set`` loop.  It cannot see
that a helper called from the loop schedules simulator events three
calls away.  This pass propagates one taint, **schedules** (calls to
``.schedule(...)`` / ``.call_in(...)``), over the whole-program call
graph and reports each ``unordered_loops`` record whose calls reach
it.  A loop with ``direct`` set is the file rule's finding, so the two
never double-report one loop.

A wall-clock read or a process-global RNG draw is reported where it is
written, by ``no-wall-clock`` and ``rng-discipline``; a caller of it is
not reported again.  The call-graph helpers are shared with the detsan
draw-order pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.devtools.analyze.loader import Project

if TYPE_CHECKING:
    from repro.devtools.lintkit.core import Violation

__all__ = ["purity_violations"]


def _callees(project: Project) -> dict[str, set[str]]:
    """qualname -> the known functions its call edges resolve to."""
    callees: dict[str, set[str]] = {}
    for qualname, summary in project.functions.items():
        targets = (project.resolve_function(candidate)
                   for edge in summary.call_edges for candidate in edge["f"])
        callees[qualname] = {t.qualname for t in targets if t is not None}
    return callees


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
    """Report unordered loops that schedule only through a callee."""
    # Imported here: the file rules import the detsan pass, which
    # imports this module's call-graph helpers.
    from repro.devtools.lintkit.core import Severity, Violation
    sched = _propagate(
        {q: "schedule" for q, s in project.functions.items()
         if s.schedules}, _callees(project))

    violations: list[Violation] = []
    for qualname, summary in project.functions.items():
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
