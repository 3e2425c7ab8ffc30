"""Transitive purity: two taints propagated through the call graph.

The file rule ``unordered-iteration-before-schedule`` catches a
``.schedule(...)`` call written inside a ``set`` loop.  It cannot see
that a helper called from the loop schedules simulator events three
calls away.  This pass propagates two taints over the whole-program
call graph and reports each ``unordered_loops`` record whose body
reaches one:

- **schedules** (calls to ``.schedule(...)`` / ``.call_in(...)``):
  ``transitive-unordered-schedule``.  A loop with ``direct`` set is the
  file rule's finding, so the two never double-report one loop;
- **draws** (a call of a Generator or delay-sampler draw method):
  ``detsan-unordered-draw``, for a draw written in the loop or reached
  through a callee.  The order of draws on a stream is the order of the
  values it hands out, so it must be defined by the source.

A wall-clock read or a process-global RNG draw is reported where it is
written, by ``no-wall-clock`` and ``rng-discipline``; a caller of it is
not reported again.
"""

from __future__ import annotations

from repro.devtools.analyze.loader import Project
from repro.devtools.lintkit.core import Severity, Violation

__all__ = ["PURITY_RULES", "purity_violations"]

PURITY_RULES = {
    "transitive-unordered-schedule":
        "unordered iteration transitively schedules simulator events",
    "detsan-unordered-draw":
        "RNG draws are reachable from unordered-collection iteration, "
        "so the draw order is not defined by the source.",
}


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


def _tainted_callee(project: Project, loop: dict,
                    tainted: dict[str, tuple[str, str]]) -> str | None:
    """The first callee of ``loop`` that carries the taint, if any."""
    for candidate in loop["calls"]:
        target = project.resolve_function(candidate)
        if target is not None and target.qualname in tainted:
            return target.qualname
    return None


def purity_violations(project: Project) -> list[Violation]:
    """Report unordered loops that schedule only through a callee, or
    that draw from an RNG at all."""
    callees = _callees(project)
    sched = _propagate(
        {q: "schedule" for q, s in project.functions.items()
         if s.schedules}, callees)
    draws = _propagate(
        {q: f"{s.draws[0]['recv'] or '<expr>'}.{s.draws[0]['method']}"
         for q, s in project.functions.items() if s.draws}, callees)

    violations: list[Violation] = []

    def report(summary, loop, rule_id: str, message: str) -> None:
        violations.append(Violation(
            path=summary.path, line=loop["line"], col=loop["col"],
            rule_id=rule_id, severity=Severity.ERROR, message=message))

    for qualname, summary in project.functions.items():
        for loop in summary.unordered_loops:
            # literal schedule-in-loop: a file rule's finding
            hit = (None if loop["direct"]
                   else _tainted_callee(project, loop, sched))
            if hit is not None:
                report(summary, loop, "transitive-unordered-schedule",
                       f"'{_short(qualname)}' iterates over "
                       f"{loop['reason']} and calls "
                       f"'{_short(hit)}' which transitively schedules "
                       f"simulator events ({_chain(sched, hit)}); "
                       "iterate in sorted() order so event order "
                       "is deterministic")
            if loop["draws"]:
                report(summary, loop, "detsan-unordered-draw",
                       f"'{_short(qualname)}' draws from an RNG "
                       f"inside iteration over {loop['reason']}; "
                       "iterate in sorted() order so the draw "
                       "sequence is defined by the source")
                continue
            hit = _tainted_callee(project, loop, draws)
            if hit is not None:
                report(summary, loop, "detsan-unordered-draw",
                       f"'{_short(qualname)}' iterates over "
                       f"{loop['reason']} and calls '{_short(hit)}' "
                       f"which transitively draws "
                       f"({_chain(draws, hit)}); iterate in "
                       "sorted() order so the draw sequence is "
                       "defined by the source")
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations
