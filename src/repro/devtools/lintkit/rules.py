"""The file-scope rule family of ``urllc5g check``.

Each rule encodes one invariant the paper's results depend on; see
docs/ANALYSIS.md for worked examples and the suppression syntax.
"""

from __future__ import annotations

import ast
from typing import Iterator

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
    "UnitSuffixMixingRule",
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


def _dotted(node: ast.expr) -> str | None:
    """Render an attribute chain like ``np.random.seed`` as a string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTracker(ast.NodeVisitor):
    """Maps local aliases back to the modules they name."""

    def __init__(self) -> None:
        self.module_aliases: dict[str, str] = {}   # alias -> module
        self.member_imports: dict[str, str] = {}   # alias -> module.member

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            self.member_imports[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}")


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

    _TIME_FUNCS = frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    })
    _DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        imports = _ImportTracker()
        imports.visit(module.tree)
        time_aliases = {alias for alias, mod in
                        imports.module_aliases.items() if mod == "time"}
        datetime_mod_aliases = {
            alias for alias, mod in imports.module_aliases.items()
            if mod == "datetime"}
        datetime_cls_aliases = {
            alias for alias, target in imports.member_imports.items()
            if target in ("datetime.datetime", "datetime.date")}
        banned_members = {
            alias for alias, target in imports.member_imports.items()
            if target in {f"time.{f}" for f in self._TIME_FUNCS}}

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in banned_members:
                yield self.violation(
                    module, node,
                    f"wall-clock call {func.id}(); simulated components "
                    "must read Simulator.now (Tc ticks) instead")
            elif isinstance(func, ast.Attribute):
                dotted = _dotted(func)
                if dotted is None:
                    continue
                head, _, tail = dotted.partition(".")
                if head in time_aliases and tail in self._TIME_FUNCS:
                    yield self.violation(
                        module, node,
                        f"wall-clock call {dotted}(); simulated "
                        "components must read Simulator.now instead")
                elif (tail.split(".")[-1] in self._DATETIME_FUNCS
                      and (head in datetime_mod_aliases
                           or head in datetime_cls_aliases)):
                    yield self.violation(
                        module, node,
                        f"wall-clock call {dotted}(); timestamps in "
                        "simulation output must derive from the "
                        "simulated clock")


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

    _LEGACY_NP = frozenset({
        "seed", "random", "rand", "randn", "randint", "random_sample",
        "normal", "uniform", "exponential", "lognormal", "poisson",
        "binomial", "choice", "shuffle", "permutation", "standard_normal",
    })

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        imports = _ImportTracker()
        imports.visit(module.tree)
        numpy_aliases = {alias for alias, mod in
                         imports.module_aliases.items() if mod == "numpy"}
        npr_aliases = {alias for alias, mod in
                       imports.module_aliases.items()
                       if mod == "numpy.random"}
        npr_aliases |= {alias for alias, target in
                        imports.member_imports.items()
                        if target == "numpy.random"}

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
                yield from self._check_call(module, node, numpy_aliases,
                                            npr_aliases)
        yield from self._check_unbound_rng(module)

    def _check_call(self, module: ModuleUnderLint, node: ast.Call,
                    numpy_aliases: set[str], npr_aliases: set[str]
                    ) -> Iterator[Violation]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        is_np_random = (
            (len(parts) == 3 and parts[0] in numpy_aliases
             and parts[1] == "random")
            or (len(parts) == 2 and parts[0] in npr_aliases))
        if not is_np_random:
            return
        tail = parts[-1]
        if tail == "seed":
            yield self.violation(
                module, node,
                "np.random.seed mutates the process-global generator; "
                "seed an RngRegistry instead")
        elif tail in self._LEGACY_NP:
            yield self.violation(
                module, node,
                f"np.random.{tail} draws from the process-global "
                "generator; draw from an explicit np.random.Generator")
        elif tail == "default_rng":
            yield self.violation(
                module, node,
                "ad-hoc default_rng() construction; derive streams from "
                "repro.sim.rng.RngRegistry so seeds stay coherent",
                severity=self.severity)

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
class UnitSuffixMixingRule(Rule):
    """Additive arithmetic must not mix ``_tc``/``_us``/``_ms`` units.

    ``slot_tc + margin_us`` silently adds ticks to microseconds.  Convert
    at the boundary with :mod:`repro.phy.timebase`
    (``slot_tc + tc_from_us(margin_us)``), which this rule recognises
    because conversion calls carry the *target* unit.  Multiplicative
    operators are exempt (scaling by dimensionless factors is fine).
    """

    rule_id = "unit-suffix-mixing"
    severity = Severity.ERROR
    description = ("additive/comparison arithmetic mixing _tc/_us/_ms "
                   "suffixed names without a timebase conversion")

    _ADDITIVE = (ast.Add, ast.Sub, ast.Mod, ast.FloorDiv)

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, self._ADDITIVE)):
                left = _expr_unit(node.left)
                right = _expr_unit(node.right)
                if left and right and left != right:
                    yield self.violation(
                        module, node,
                        f"mixes units _{left} and _{right}; convert via "
                        "repro.phy.timebase (e.g. "
                        f"{left}_from_{right}(...)) before combining")
            elif isinstance(node, ast.Compare):
                units = [_expr_unit(node.left)]
                units.extend(_expr_unit(c) for c in node.comparators)
                present = [u for u in units if u]
                if len(set(present)) > 1:
                    mixed = " and ".join(f"_{u}" for u in sorted(set(present)))
                    yield self.violation(
                        module, node,
                        f"compares values in different units ({mixed}); "
                        "convert to a common unit via repro.phy.timebase")


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

    _SCHEDULE_METHODS = frozenset({"schedule", "call_in"})

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            reason = self._unordered_reason(node.iter)
            if reason is None:
                continue
            if self._body_schedules(node.body + node.orelse):
                yield self.violation(
                    module, node,
                    f"iterates {reason} and schedules simulator events "
                    "in the loop body; iterate sorted(...) so the event "
                    "order is deterministic")

    def _unordered_reason(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set",
                                                          "frozenset"):
                return f"{func.id}(...)"
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                return "a .keys() view"
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            left = self._unordered_reason(node.left)
            right = self._unordered_reason(node.right)
            if left or right:
                return left or right
        return None

    def _body_schedules(self, body: list[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in self._SCHEDULE_METHODS):
                    return True
        return False


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
        imports = _ImportTracker()
        imports.visit(module.tree)
        numpy_aliases = {alias for alias, mod in
                         imports.module_aliases.items() if mod == "numpy"}
        npr_aliases = {alias for alias, mod in
                       imports.module_aliases.items()
                       if mod == "numpy.random"}
        npr_aliases |= {alias for alias, target in
                        imports.member_imports.items()
                        if target == "numpy.random"}
        npr_members = {alias for alias, target in
                       imports.member_imports.items()
                       if target.startswith("numpy.random.")}
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
            dotted = _dotted(func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            from_np_random = (
                (len(parts) >= 3 and parts[0] in numpy_aliases
                 and parts[1] == "random")
                or (len(parts) >= 2 and parts[0] in npr_aliases)
                or (len(parts) == 1 and parts[0] in npr_members))
            if from_np_random:
                yield self.violation(
                    module, node,
                    f"direct numpy.random use ({dotted}) in fault code "
                    "bypasses the seed-stream registry; draw from a "
                    "named 'fault.*' stream instead")
