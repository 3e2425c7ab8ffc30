"""Stream → consumer-component ownership map and the detsan rules.

Consumes the acquisition/buffer/escape records the project loader
records per module in its one extraction pass
(``ModuleSummary.streams``, ``rng_buffers`` and ``rng_escapes``) and
the per-function draw sites, and produces

- the whole-program **ownership map**: every ``RngRegistry`` stream
  keyed by (registry scope, name template) with its resolved consumer
  components — the machine-checked spec behind the determinism
  contract in docs/PERFORMANCE.md;
- the five ``detsan-*`` violations (see :data:`DETSAN_RULES`).

The ordering dimension reuses the purity pass's fixpoint machinery:
functions that draw (directly or transitively) are *draw-tainted*, and
an unordered-collection loop whose body reaches a tainted callee is
reported — same lattice, new dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devtools.analyze.loader import Project
from repro.devtools.analyze.purity import (_callees, _chain, _propagate,
                                           _short)
from repro.devtools.lintkit.core import Severity, Violation

__all__ = ["DETSAN_RULES", "StreamInfo", "OwnershipMap",
           "stream_ownership", "detsan_violations"]

DETSAN_RULES = {
    "detsan-shared-stream":
        "A stream is consumed by more than one component without a "
        "declared '# detsan: shared' contract.",
    "detsan-unused-stream":
        "A stream is acquired but never drawn from (dead entropy or a "
        "wiring mistake).",
    "detsan-unresolved-stream":
        "A stream name is computed dynamically and cannot be resolved "
        "to a template; the ownership map cannot cover it.",
    "detsan-buffered-escape":
        "A generator claimed by a buffered sampler escapes to a second "
        "consumer, desynchronizing the pre-drawn block.",
    "detsan-unordered-draw":
        "RNG draws are reachable from unordered-collection iteration, "
        "so the draw order is not defined by the source.",
}


@dataclass
class StreamInfo:
    """One stream family in the ownership map."""

    scope: str
    template: str
    owners: list[str] = field(default_factory=list)
    sites: list[tuple[str, int]] = field(default_factory=list)
    buffered: bool = False
    shared: bool = False
    drawn: bool = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.scope, self.template)


@dataclass
class OwnershipMap:
    """All streams plus resolution statistics."""

    streams: list[StreamInfo] = field(default_factory=list)
    acquisitions: int = 0
    resolved: int = 0

    @property
    def resolution_rate(self) -> float:
        if self.acquisitions == 0:
            return 1.0
        return self.resolved / self.acquisitions


def _canonical_owner(project: Project, candidate: str) -> str:
    """Resolve an owner candidate through re-export chains."""
    target = project.resolve_callable(candidate)
    if target is not None:
        qualname = target.qualname
        # A component class's __init__ is the class for ownership.
        return qualname[:-9] if qualname.endswith(".__init__") else qualname
    return candidate


def stream_ownership(project: Project) -> OwnershipMap:
    """Aggregate per-module acquisition records into the stream map."""
    by_key: dict[tuple[str, str], StreamInfo] = {}
    ownership = OwnershipMap()
    # Components whose code claims a generator for a buffered sampler:
    # a stream owned by such a component is buffered even though the
    # acquisition site (the wiring code) is in another module.
    claiming: set[str] = set()
    for module in project.modules:
        for buf in module.rng_buffers:
            claiming.add(buf["func"])
            claiming.add(buf["func"].rpartition(".")[0])
    for module in project.modules:
        for record in module.streams:
            if record["scope"] is None:
                continue
            ownership.acquisitions += 1
            if not record["resolved"]:
                continue
            ownership.resolved += 1
            key = (record["scope"], record["template"])
            info = by_key.get(key)
            if info is None:
                info = StreamInfo(scope=record["scope"],
                                  template=record["template"])
                by_key[key] = info
                ownership.streams.append(info)
            for candidate in record["owner"]:
                owner = _canonical_owner(project, candidate)
                if owner not in info.owners:
                    info.owners.append(owner)
            info.sites.append((module.path, record["line"]))
            info.buffered = info.buffered or record["buffered"]
            info.shared = info.shared or record["shared"]
            info.drawn = info.drawn or record["drawn"]
    for info in ownership.streams:
        if not info.buffered:
            info.buffered = any(owner in claiming for owner in info.owners)
    ownership.streams.sort(key=lambda info: (info.template, info.scope))
    return ownership


def _draw_tainted(project: Project) -> dict[str, tuple[str, str]]:
    """Fixpoint draw taint: functions that (transitively) draw."""
    direct = {
        qualname: (f"{summary.draws[0]['recv'] or '<expr>'}"
                   f".{summary.draws[0]['method']}")
        for qualname, summary in project.functions.items()
        if summary.draws}
    return _propagate(direct, _callees(project))


def detsan_violations(project: Project
                      ) -> tuple[list[Violation], OwnershipMap]:
    """All five detsan rules over one loaded project."""
    ownership = stream_ownership(project)
    violations: list[Violation] = []

    # -- per-acquisition rules -----------------------------------------
    unused_kinds = {"discarded", "local", "attribute"}
    for module in project.modules:
        for record in module.streams:
            if record["scope"] is None:
                continue
            if not record["resolved"]:
                violations.append(Violation(
                    path=module.path, line=record["line"],
                    col=record["col"], rule_id="detsan-unresolved-stream",
                    severity=Severity.ERROR,
                    message=(f"stream name {record['arg']} in "
                             f"'{_short(record['func'])}' cannot be "
                             "resolved statically; use a literal or "
                             "f-string with a literal prefix so the "
                             "ownership map can cover it")))
                continue
            if record["uses"] == 0 and not record["drawn"] \
                    and record["owner_kind"] in unused_kinds:
                violations.append(Violation(
                    path=module.path, line=record["line"],
                    col=record["col"], rule_id="detsan-unused-stream",
                    severity=Severity.WARNING,
                    message=(f"stream '{record['template']}' is acquired "
                             f"in '{_short(record['func'])}' but never "
                             "drawn from; delete the acquisition or wire "
                             "it to its consumer")))
        for escape in module.rng_escapes:
            violations.append(Violation(
                path=module.path, line=escape["line"],
                col=escape["col"], rule_id="detsan-buffered-escape",
                severity=Severity.ERROR,
                message=(f"generator '{escape['stream_expr']}' is claimed "
                         f"by a {escape['buffer']} in "
                         f"'{_short(escape['func'])}' but {escape['detail']}"
                         "; a second consumer desynchronizes the "
                         "pre-drawn block from the scalar bit-stream")))

    # -- sharing across the aggregated map -----------------------------
    for info in ownership.streams:
        if len(info.owners) > 1 and not info.shared:
            path, line = info.sites[0]
            owners = ", ".join(f"'{_short(owner)}'"
                               for owner in info.owners)
            violations.append(Violation(
                path=path, line=line, col=0,
                rule_id="detsan-shared-stream",
                severity=Severity.ERROR,
                message=(f"stream '{info.template}' is consumed by "
                         f"{len(info.owners)} components ({owners}); "
                         "split it into per-component streams or declare "
                         "the contract with '# detsan: shared' on the "
                         "acquisition line")))

    # -- ordering dimension: draws under unordered iteration -----------
    tainted = _draw_tainted(project)
    for qualname, summary in project.functions.items():
        for loop in summary.unordered_loops:
            if loop.get("draws"):
                violations.append(Violation(
                    path=summary.path, line=loop["line"],
                    col=loop["col"], rule_id="detsan-unordered-draw",
                    severity=Severity.ERROR,
                    message=(f"'{_short(qualname)}' draws from an RNG "
                             f"inside iteration over {loop['reason']}; "
                             "iterate in sorted() order so the draw "
                             "sequence is defined by the source")))
                continue
            hit = None
            for candidate in loop["calls"]:
                target = project.resolve_function(candidate)
                if target is not None and target.qualname in tainted:
                    hit = target.qualname
                    break
            if hit is None:
                continue
            violations.append(Violation(
                path=summary.path, line=loop["line"], col=loop["col"],
                rule_id="detsan-unordered-draw",
                severity=Severity.ERROR,
                message=(f"'{_short(qualname)}' iterates over "
                         f"{loop['reason']} and calls '{_short(hit)}' "
                         f"which transitively draws "
                         f"({_chain(tainted, hit)}); iterate in "
                         "sorted() order so the draw sequence is "
                         "defined by the source")))

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations, ownership
