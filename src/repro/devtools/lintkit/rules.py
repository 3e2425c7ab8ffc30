"""The file-scope rule family of ``urllc5g check``.

Each rule encodes one invariant the paper's results depend on; see
docs/ANALYSIS.md for worked examples and the suppression syntax.
Wall-clock reads, legacy ``numpy.random`` calls and unordered loops
that schedule are recognised once, by the project loader's extraction
(:mod:`repro.devtools.analyze.loader`); the rules here report its
records and resolve names through its import table.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analyze.loader import GLOBAL_NP_RANDOM, dotted_name
from repro.devtools.lintkit.core import (
    ModuleUnderLint,
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

#: Time units carried as name suffixes across the codebase.  ``tc`` is
#: the only integer unit (NR basic time unit, TS 38.211); the rest are
#: physical floats.
TIME_SUFFIXES = ("tc", "us", "ms", "ns")
FLOAT_TIME_SUFFIXES = ("us", "ms", "ns")


def _name_suffix(name: str) -> str | None:
    """The trailing time-unit suffix of ``name``, if any."""
    stem, _, tail = name.rpartition("_")
    if stem and tail in TIME_SUFFIXES:
        return tail
    return None


def _expr_unit(node: ast.expr) -> str | None:
    """Best-effort time unit of an expression.

    Names and attributes carry their suffix (``delay_us`` -> ``us``);
    calls carry the suffix of the *called* name, so a conversion such as
    ``tc_from_us(x_us)`` has unit ``tc`` and mixing it into tick
    arithmetic is fine.  Unary ops are transparent.
    """
    if isinstance(node, ast.UnaryOp):
        return _expr_unit(node.operand)
    if isinstance(node, ast.Name):
        return _name_suffix(node.id)
    if isinstance(node, ast.Attribute):
        return _name_suffix(node.attr)
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return None
        # Conversion helpers are named <target>_from_<source>
        # (tc_from_us, ms_from_tc, ...): the call's unit is the target.
        target, sep, _ = name.partition("_from_")
        if sep and target in TIME_SUFFIXES:
            return target
        return _name_suffix(name)
    return None


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

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for record in module.summary.records("wall_clock"):
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
            yield self.violation(module, record,
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
    streams from :class:`repro.sim.rng.RngRegistry`.
    """

    rule_id = "rng-discipline"
    severity = Severity.ERROR
    description = ("no stdlib random, no np.random global state; "
                   "stochastic code takes an explicit Generator")

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        loads_rng = False
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.violation(
                            module, node,
                            "stdlib 'random' is process-global state; "
                            "thread an np.random.Generator instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        module, node,
                        "stdlib 'random' is process-global state; "
                        "thread an np.random.Generator instead")
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif (isinstance(node, ast.Name) and node.id == "rng"
                  and isinstance(node.ctx, ast.Load)):
                loads_rng = True
        # Only a load of ``rng`` can be unbound: most modules have none.
        if loads_rng:
            yield from self._check_unbound_rng(module)

    def _check_call(self, module: ModuleUnderLint, node: ast.Call
                    ) -> Iterator[Violation]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        package, _, tail = module.summary.resolve_dotted(
            dotted).rpartition(".")
        if tail in _SEEDING_CONSTRUCTORS and (
                package == "numpy.random"
                or package.startswith("numpy.random.")):
            yield self.violation(
                module, node,
                f"ad-hoc {tail}() construction; derive streams from "
                "repro.sim.rng.RngRegistry so seeds stay coherent")
        elif package != "numpy.random":
            return
        elif tail == "seed":
            yield self.violation(
                module, node,
                "np.random.seed mutates the process-global generator; "
                "seed an RngRegistry instead")
        elif tail in GLOBAL_NP_RANDOM:
            yield self.violation(
                module, node,
                f"np.random.{tail} draws from the process-global "
                "generator; draw from an explicit np.random.Generator")

    def _check_unbound_rng(self, module: ModuleUnderLint
                           ) -> Iterator[Violation]:
        """Flag functions that *use* ``rng`` without receiving it.

        A load of the bare name ``rng`` that is bound neither in the
        function (parameter or assignment), in an enclosing function,
        nor at module level means the randomness source is implicit —
        the stochastic-function contract requires an explicit
        ``np.random.Generator`` argument.
        """
        module_names = _bound_names(module.tree)

        def walk(node: ast.AST, enclosing: set[str]) -> Iterator[Violation]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                    bound = enclosing | _bound_names(child)
                    if "rng" not in bound:
                        for sub in ast.walk(child):
                            if (isinstance(sub, ast.Name)
                                    and sub.id == "rng"
                                    and isinstance(sub.ctx, ast.Load)):
                                name = getattr(child, "name", "<lambda>")
                                yield self.violation(
                                    module, sub,
                                    f"'{name}' uses 'rng' without "
                                    "declaring it; stochastic functions "
                                    "must accept an explicit "
                                    "np.random.Generator parameter")
                                break
                    yield from walk(child, bound)
                else:
                    yield from walk(child, enclosing)

        yield from walk(module.tree, module_names)


def _bound_names(node: ast.AST) -> set[str]:
    """Names bound directly inside ``node``'s scope (non-recursive into
    nested function scopes for assignments, but parameters included)."""
    bound: set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.Lambda)):
        args = node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            bound.add(arg.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
        body = getattr(node, "body", [])
        if isinstance(body, ast.expr):   # lambda body binds nothing
            return bound
    else:
        body = getattr(node, "body", [])
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(sub.name)
            elif isinstance(sub, ast.ClassDef):
                bound.add(sub.name)
            elif isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, (ast.Store, ast.Del)):
                bound.add(sub.id)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    bound.add((alias.asname
                               or alias.name).split(".")[0])
    return bound


@register
class NoFloatTickEqualityRule(Rule):
    """No ``==``/``!=`` between time quantities and floats.

    Ticks are exact integers; microsecond/millisecond values are floats
    produced by conversion and must be compared with tolerances or,
    better, compared in integer Tc.  ``latency_us == 0.5`` is a bug
    waiting for a rounding change.
    """

    rule_id = "no-float-tick-equality"
    severity = Severity.ERROR
    description = ("equality comparison between time-suffixed values "
                   "and floats, or between float-unit time values")

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for a, b in ((left, right), (right, left)):
                    unit = _expr_unit(a)
                    if unit is None:
                        continue
                    if _is_float_constant(b):
                        yield self.violation(
                            module, node,
                            f"exact equality between a _{unit} quantity "
                            "and a float literal; compare in integer Tc "
                            "or use a tolerance")
                        break
                    other = _expr_unit(b)
                    if (unit in FLOAT_TIME_SUFFIXES
                            and other in FLOAT_TIME_SUFFIXES):
                        yield self.violation(
                            module, node,
                            f"exact equality between float time values "
                            f"(_{unit} vs _{other}); compare in integer "
                            "Tc or use a tolerance")
                        break


def _is_float_constant(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        return _is_float_constant(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


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

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for loop in module.summary.records("unordered_loops"):
            if loop["direct"]:
                yield self.violation(
                    module, loop,
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

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        from pathlib import Path
        name = Path(module.path).name
        if name.startswith("_") and name != "__init__.py":
            return
        for node in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.target:
                targets = [node.target]
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id == "__all__"):
                    return
        kind = "package" if module.is_package_init else "module"
        yield self.violation(
            module, module.tree,
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
    """

    rule_id = "fault-streams-named"
    severity = Severity.ERROR
    description = ("fault-injection code must draw from registry "
                   "streams named 'fault.*', never ad-hoc generators")

    _FAULT_TOKENS = frozenset({"fault", "faults"})

    def _applies(self, module: ModuleUnderLint) -> bool:
        import re
        from pathlib import Path
        path = Path(module.path)
        if "faults" in path.parts[:-1]:
            return True
        tokens = re.split(r"[^a-z0-9]+", path.stem.lower())
        return bool(self._FAULT_TOKENS & set(tokens))

    def _stream_name_violation(self, module: ModuleUnderLint,
                               node: ast.Call,
                               arg: ast.expr) -> Violation | None:
        """Validate a stream-name argument via the detsan resolver.

        Delegating to :func:`repro.devtools.detsan.resolver
        .resolve_stream_name` means f-strings and concatenations are
        judged by the same template grammar the ownership map uses:
        ``f"fault.{kind}.{index}"`` resolves to ``fault.{*}.{*}`` and
        passes, while a fully dynamic name is reported as unresolvable
        rather than silently failing the prefix check.
        """
        from repro.devtools.detsan.resolver import (is_resolved,
                                                    resolve_stream_name)
        template = resolve_stream_name(arg)
        if template is None or not is_resolved(template):
            return self.violation(
                module, node,
                "stream name cannot be resolved statically; use a "
                "literal (or an f-string with a literal 'fault.' "
                "prefix) so the detsan ownership map can cover it")
        if not template.startswith("fault."):
            return self.violation(
                module, node,
                "fault injectors must draw from a registry stream "
                "whose name literally starts with 'fault.' "
                f"(resolves to '{template}')")
        return None

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        if not self._applies(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "stream":
                if not node.args:
                    yield self.violation(
                        module, node,
                        "fault injectors must draw from a registry "
                        "stream whose name literally starts with "
                        "'fault.' (fault.<kind>.<index>)")
                else:
                    found = self._stream_name_violation(
                        module, node, node.args[0])
                    if found is not None:
                        yield found
                continue
            dotted = dotted_name(func)
            if dotted is not None and module.summary.resolve_dotted(
                    dotted).startswith("numpy.random."):
                yield self.violation(
                    module, node,
                    f"direct numpy.random use ({dotted}) in fault code "
                    "bypasses the seed-stream registry; draw from a "
                    "named 'fault.*' stream instead")
