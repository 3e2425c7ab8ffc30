"""The file-scope rule family of ``urllc5g check``.

Each rule encodes one invariant the paper's results depend on; see
docs/ANALYSIS.md for worked examples and the suppression syntax.
Every use a rule reports — a wall-clock read, a ``random`` import, a
call into ``numpy.random``, an unbound ``rng``, an equality between
time values, a ``.stream(...)`` call, an unordered loop that schedules
— is recognised once, by the project loader's extraction
(:mod:`repro.devtools.analyze.loader`); the rules here judge its
records.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator

from repro.devtools.analyze.loader import GLOBAL_NP_RANDOM, ModuleSummary
from repro.devtools.detsan.resolver import is_resolved
from repro.devtools.lintkit.core import (
    Rule,
    Severity,
    Violation,
    register,
)

__all__ = [
    "NoWallClockRule",
    "RngDisciplineRule",
    "NoFloatTickEqualityRule",
    "UnorderedIterationBeforeScheduleRule",
    "PublicApiExportsRule",
    "FaultStreamsNamedRule",
]


@register
class NoWallClockRule(Rule):
    """Simulated time is the only clock: wall-clock reads are banned.

    ``time.time()``, ``time.perf_counter()``, ``datetime.now()`` and
    friends make behaviour depend on the host, which breaks
    bit-reproducibility of every latency figure.  Use
    ``Simulator.now`` (Tc ticks) and :mod:`repro.phy.timebase`.
    """

    rule_id = "no-wall-clock"
    severity = Severity.ERROR
    description = ("wall-clock reads (time.time, perf_counter, "
                   "datetime.now, ...) are banned in simulation code")

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        for record in summary.records("wall_clock"):
            local = record["local"]
            if not record["what"].startswith("time."):
                advice = ("timestamps in simulation output must derive "
                          "from the simulated clock")
            elif "." in local:
                advice = ("simulated components must read Simulator.now "
                          "instead")
            else:
                advice = ("simulated components must read Simulator.now "
                          "(Tc ticks) instead")
            yield self.violation(summary, record,
                                 f"wall-clock call {local}(); {advice}")


#: ``numpy.random`` callables that seed a generator: every stream must
#: come from :class:`repro.sim.rng.RngRegistry` instead.
_SEEDING_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
    "Philox", "SFC64", "MT19937",
})


@register
class RngDisciplineRule(Rule):
    """All randomness flows through explicitly threaded generators.

    The stdlib ``random`` module and the legacy ``np.random.*`` API are
    process-global state: draws depend on call interleaving, so adding a
    component perturbs every other component's samples.  Components take
    an ``np.random.Generator`` parameter and the composition root builds
    streams from :class:`repro.sim.rng.RngRegistry`.  A def or lambda
    that reads an ``rng`` bound neither in it, in an enclosing scope,
    at module level nor by an import draws from an implicit source.
    """

    rule_id = "rng-discipline"
    severity = Severity.ERROR
    description = ("no stdlib random, no np.random global state; "
                   "stochastic code takes an explicit Generator")

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        for record in summary.random_imports:
            yield self.violation(
                summary, record,
                "stdlib 'random' is process-global state; "
                "thread an np.random.Generator instead")
        for call in summary.numpy_random:
            package, _, tail = call["what"].rpartition(".")
            if tail in _SEEDING_CONSTRUCTORS:
                yield self.violation(
                    summary, call,
                    f"ad-hoc {tail}() construction; derive streams from "
                    "repro.sim.rng.RngRegistry so seeds stay coherent")
            elif package != "numpy.random":
                continue
            elif tail == "seed":
                yield self.violation(
                    summary, call,
                    "np.random.seed mutates the process-global generator; "
                    "seed an RngRegistry instead")
            elif tail in GLOBAL_NP_RANDOM:
                yield self.violation(
                    summary, call,
                    f"np.random.{tail} draws from the process-global "
                    "generator; draw from an explicit np.random.Generator")
        for read in summary.unbound_rng:
            yield self.violation(
                summary, read,
                f"'{read['func']}' uses 'rng' without declaring it; "
                "stochastic functions must accept an explicit "
                "np.random.Generator parameter")


@register
class NoFloatTickEqualityRule(Rule):
    """No ``==``/``!=`` between time quantities and floats.

    Ticks are exact integers; microsecond/millisecond values are floats
    produced by conversion and must be compared with tolerances or,
    better, compared in integer Tc.  ``latency_us == 0.5`` is a bug
    waiting for a rounding change.  Operand units are the loader's
    (:func:`repro.devtools.analyze.loader.unit_of_name` and the
    ``<target>_from_<source>`` conversions, through local bindings).
    """

    rule_id = "no-float-tick-equality"
    severity = Severity.ERROR
    description = ("equality comparison between time-suffixed values "
                   "and floats, or between float-unit time values")

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        for equality in summary.equalities:
            left, right = equality["units"]
            left_float, right_float = equality["floats"]
            for unit, other, other_float in ((left, right, right_float),
                                             (right, left, left_float)):
                if unit is None:
                    continue
                if other_float:
                    yield self.violation(
                        summary, equality,
                        f"exact equality between a _{unit} quantity "
                        "and a float literal; compare in integer Tc "
                        "or use a tolerance")
                    break
                if other not in (None, "tc") and unit != "tc":
                    yield self.violation(
                        summary, equality,
                        f"exact equality between float time values "
                        f"(_{unit} vs _{other}); compare in integer "
                        "Tc or use a tolerance")
                    break


@register
class UnorderedIterationBeforeScheduleRule(Rule):
    """Never schedule events while iterating an unordered collection.

    Iterating a ``set`` (or hash-ordered view) and calling
    ``Simulator.schedule``/``call_in`` in the loop body makes the event
    sequence — and therefore every same-tick FIFO tie-break — depend on
    hash seeding.  Sort first: ``for ue in sorted(ues): ...``.
    """

    rule_id = "unordered-iteration-before-schedule"
    severity = Severity.ERROR
    description = ("iterating a set/.keys() view and scheduling "
                   "simulator events in the loop body")

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        for loop in summary.records("unordered_loops"):
            if loop["direct"]:
                yield self.violation(
                    summary, loop,
                    f"iterates {loop['reason']} and schedules simulator "
                    "events in the loop body; iterate sorted(...) so the "
                    "event order is deterministic")

@register
class PublicApiExportsRule(Rule):
    """Every public module declares ``__all__``.

    An explicit export list keeps the API surface reviewable (the
    ``tests/test_public_api.py`` contract) and lets the other rules
    reason about what is intentionally public.  Private modules
    (``_name.py``) are exempt.
    """

    rule_id = "public-api-exports"
    severity = Severity.ERROR
    description = "public module lacks an __all__ export list"

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        name = Path(summary.path).name
        if summary.binds_all or (name.startswith("_")
                                 and name != "__init__.py"):
            return
        kind = "package" if name == "__init__.py" else "module"
        yield self.violation(
            summary, {"line": 1, "col": 0},
            f"public {kind} does not declare __all__; list its "
            "intended exports explicitly")


@register
class FaultStreamsNamedRule(Rule):
    """Fault injectors draw only from registered ``fault.*`` streams.

    The fault-injection determinism contract (docs/ROBUSTNESS.md) rests
    on every injector owning a named :class:`repro.sim.rng.RngRegistry`
    stream with a literal ``fault.`` prefix: adding or removing a fault
    plan must never perturb the draws of fault-free components, and a
    trace digest must identify which stream produced which fault.  A
    ``.stream(...)`` call in fault code whose name is not statically
    ``fault.*`` — or any direct ``numpy.random`` use — breaks that
    contract silently.  Applies only to fault modules (a ``faults``
    package directory, or ``fault``/``faults`` in the file stem).

    Stream names are judged by the template grammar of the detsan
    ownership map (:mod:`repro.devtools.detsan.resolver`):
    ``f"fault.{kind}.{index}"`` resolves to ``fault.{*}.{*}`` and
    passes, while a fully dynamic name is reported as unresolvable
    rather than silently failing the prefix check.
    """

    rule_id = "fault-streams-named"
    severity = Severity.ERROR
    description = ("fault-injection code must draw from registry "
                   "streams named 'fault.*', never ad-hoc generators")

    _FAULT_TOKENS = frozenset({"fault", "faults"})

    def _applies(self, summary: ModuleSummary) -> bool:
        path = Path(summary.path)
        if "faults" in path.parts[:-1]:
            return True
        tokens = re.split(r"[^a-z0-9]+", path.stem.lower())
        return bool(self._FAULT_TOKENS & set(tokens))

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        if not self._applies(summary):
            return
        for call in summary.streams:
            template = call["template"]
            if not call["arg"]:
                yield self.violation(
                    summary, call,
                    "fault injectors must draw from a registry "
                    "stream whose name literally starts with "
                    "'fault.' (fault.<kind>.<index>)")
            elif template is None or not is_resolved(template):
                yield self.violation(
                    summary, call,
                    "stream name cannot be resolved statically; use a "
                    "literal (or an f-string with a literal 'fault.' "
                    "prefix) so the detsan ownership map can cover it")
            elif not template.startswith("fault."):
                yield self.violation(
                    summary, call,
                    "fault injectors must draw from a registry stream "
                    "whose name literally starts with 'fault.' "
                    f"(resolves to '{template}')")
        for call in summary.numpy_random:
            yield self.violation(
                summary, call,
                f"direct numpy.random use ({call['local']}) in fault "
                "code bypasses the seed-stream registry; draw from a "
                "named 'fault.*' stream instead")
