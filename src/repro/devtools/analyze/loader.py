"""Project loader: parse once, summarise every module.

The loader walks the analysis roots with the shared
:func:`repro.devtools.walker.iter_python_files`, parses each module
once and extracts a :class:`ModuleSummary`: the symbol table
(functions, methods, classes, module constants), the call edges
resolvable from imports/``self``, per-function purity effects, the
*symbolic* unit facts the global passes resolve later, the RNG stream
facts of the ``detsan`` pass, and the raw findings of the file-scope
rules, which read only this summary.  The extraction is the one place a
wall-clock read, a ``numpy.random`` call, a ``random`` import, an
unbound ``rng``, an equality between time values, an unordered loop
that schedules, a ``.stream(...)`` call and how its generator is held,
or a buffer's claim of a generator is recognised: it evaluates every
expression a module runs, including lambda bodies, decorators, default
values and class bodies.

Symbolic unit expressions are plain dicts, so whole-program resolution
never needs the AST again:

- ``{"k": "c", "u": "us"}`` — a known lattice element
  (``tc | ns | us | ms | s | unitless | unknown``);
- ``{"k": "r", "f": [qualname, ...]}`` — the return unit of one of the
  candidate callees;
- ``{"k": "g", "n": qualname}`` — the unit of a module-level symbol;
- ``{"k": "j", "x": [expr, ...]}`` — the lattice join of sub-expressions.

The intraprocedural pass is flow-sensitive: an abstract environment of
name -> unit expression is threaded through each function body in
statement order, branches are merged by joining, and every additive
binop, comparison, suffixed assignment, return and call argument
records a *check* for :mod:`repro.devtools.analyze.units` to evaluate
once return units are known project-wide.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.devtools.walker import iter_python_files

if TYPE_CHECKING:
    from repro.devtools.lintkit.core import Violation

__all__ = [
    "UNITS",
    "GLOBAL_NP_RANDOM",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "Project",
    "load_project",
    "module_qualname",
    "unit_of_name",
    "conversion_units",
    "dotted_name",
]

#: Concrete lattice units (besides ``unitless`` and ``unknown``).
UNITS = ("tc", "ns", "us", "ms", "s")

_SUFFIX_UNITS = {"tc": "tc", "ns": "ns", "us": "us", "ms": "ms"}
_BARE_NAME_UNITS = {"tc": "tc", "ns": "ns", "us": "us", "ms": "ms",
                    "seconds": "s"}
_LONG_UNIT_NAMES = {"seconds": "s", "second": "s", **{u: u for u in UNITS}}

#: Module constants whose unit cannot be derived syntactically: the
#: timebase scale factors are durations *expressed in Tc*.
CONSTANT_UNIT_SEEDS = {
    "repro.phy.timebase.TC_PER_SECOND": "tc",
    "repro.phy.timebase.TC_PER_MS": "tc",
    "repro.phy.timebase.TC_PER_SUBFRAME": "tc",
    "repro.phy.timebase.TC_PER_FRAME": "tc",
    "repro.phy.timebase.KAPPA": "unitless",
}

_UNIT_ANNOTATION_RE = re.compile(r"#\s*unit:\s*([A-Za-z]+)")
_PRAGMA_RE = re.compile(r"#\s*check:\s*disable=([A-Za-z0-9_,\- ]+)")
_PRAGMA_FILE_RE = re.compile(
    r"#\s*check:\s*disable-file=([A-Za-z0-9_,\- ]+)")

_WALL_CLOCK_TIME_FUNCS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
})
_WALL_CLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
#: The legacy ``numpy.random`` functions that draw from (or seed) the
#: process-global generator.
GLOBAL_NP_RANDOM = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "normal", "uniform", "exponential", "lognormal", "poisson",
    "binomial", "choice", "shuffle", "permutation", "standard_normal",
})
_SCHEDULE_METHODS = frozenset({"schedule", "call_in"})
#: Method names that consume entropy when called on a Generator or a
#: delay sampler.  Used for the ordering dimension of the taint
#: lattice (draws under unordered iteration) — receiver-agnostic by
#: design, so ``self._delays[key].sample(rng)`` still counts.
_GENERATOR_DRAW_METHODS = frozenset({
    "random", "normal", "uniform", "lognormal", "exponential",
    "poisson", "integers", "choice", "standard_normal", "shuffle",
    "permutation", "sample", "sample_batch", "next",
})
#: Classes that take exclusive ownership of the Generator passed to
#: their constructor (resolved through import aliases).
_BUFFER_CLASSES = frozenset({"BufferedSampler", "UniformBuffer",
                             "LogNormalBlockServer"})
#: The sanctioned way to draw through a claimed generator: passing it
#: back to the buffer that claimed it.
_BUFFER_DRAW_METHODS = frozenset({"sample", "next"})
_DETSAN_SHARED_RE = re.compile(r"#\s*detsan:\s*shared\b")
_PASSTHROUGH_CALLS = frozenset({"float", "int", "round", "abs"})
_JOIN_CALLS = frozenset({"min", "max"})
_BUILTIN_NAMES = frozenset(dir(__import__("builtins")))
_TRY_STATEMENTS = (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") \
    else (ast.Try,)

# -- distributability extraction (consumed by repro.devtools.distcheck) --
#: Calls that read (or mutate) the process environment.
_ENV_READ_CALLS = frozenset({
    "os.environ.get", "os.getenv", "os.environ.setdefault",
    "os.environ.pop", "os.putenv",
})
#: Calls that observe — or move — the host working directory.
_CWD_CALLS = frozenset({
    "os.getcwd", "os.getcwdb", "os.chdir", "pathlib.Path.cwd",
    "Path.cwd",
})
#: Calls that read host identity (name, pid, user, platform).
_HOST_ID_CALLS = frozenset({
    "socket.gethostname", "socket.getfqdn", "platform.node",
    "platform.system", "platform.machine", "platform.release",
    "platform.platform", "platform.python_version", "os.getpid",
    "os.getppid", "os.uname", "os.getlogin", "getpass.getuser",
})
#: Calls that control the worker process itself.
_PROCESS_CALLS = frozenset({
    "os._exit", "os.abort", "os.kill", "os.fork", "os.execv",
})
#: Module-level filesystem mutators (methods are matched separately).
_FS_WRITE_CALLS = frozenset({
    "os.remove", "os.unlink", "os.rename", "os.replace",
    "os.makedirs", "os.mkdir", "os.rmdir", "os.symlink", "os.link",
    "os.truncate", "os.chmod", "os.chown",
})
#: Path-flavoured mutator methods, matched receiver-agnostically (the
#: receiver of ``.write_text`` etc. is a path whatever its static type).
_FS_WRITE_METHODS = frozenset({
    "write_text", "write_bytes", "mkdir", "touch", "unlink", "rmdir",
    "symlink_to", "hardlink_to",
})
#: Methods that ship a callable across a process-pool boundary.
_POOL_SUBMIT_METHODS = frozenset({
    "submit", "map", "apply_async", "starmap", "imap",
    "imap_unordered",
})
#: Methods that mutate their receiver in place (checked only against
#: module-level mutable bindings, so local containers never match).
_MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "setdefault", "insert",
    "remove", "discard", "pop", "popitem", "clear",
})
#: Constructors whose module-level result is mutable shared state.
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict",
    "Counter",
})


def unit_of_name(name: str) -> str | None:
    """Lattice unit carried by a name's suffix (case-insensitive)."""
    lowered = name.lower()
    stem, _, tail = lowered.rpartition("_")
    if stem and tail in _SUFFIX_UNITS:
        return _SUFFIX_UNITS[tail]
    return _BARE_NAME_UNITS.get(lowered)


def conversion_units(name: str) -> tuple[str, str] | None:
    """``(target, source)`` units of a ``<t>_from_<s>`` converter name."""
    target, sep, source = name.partition("_from_")
    if not sep:
        return None
    target_unit = _LONG_UNIT_NAMES.get(target)
    source_unit = _LONG_UNIT_NAMES.get(source)
    if target_unit and source_unit:
        return target_unit, source_unit
    return None


# ----------------------------------------------------------------------
# symbolic unit expressions
# ----------------------------------------------------------------------
def u_const(unit: str) -> dict:
    return {"k": "c", "u": unit}


U_UNKNOWN = u_const("unknown")
U_UNITLESS = u_const("unitless")


def u_join(exprs: list[dict]) -> dict:
    flat: list[dict] = []
    for expr in exprs:
        if expr["k"] == "j":
            flat.extend(expr["x"])
        else:
            flat.append(expr)
    unique = [expr for i, expr in enumerate(flat)
              if expr not in flat[:i]]
    if not unique:
        return U_UNKNOWN
    if len(unique) == 1:
        return unique[0]
    return {"k": "j", "x": unique}


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
@dataclass
class FunctionSummary:
    """Everything the global passes need to know about one function."""

    qualname: str
    name: str
    path: str
    line: int
    params: list[str] = field(default_factory=list)
    declared_unit: str | None = None
    return_expr: dict | None = None
    checks: list[dict] = field(default_factory=list)
    calls: list[str] = field(default_factory=list)
    call_edges: list[dict] = field(default_factory=list)
    wall_clock: list[dict] = field(default_factory=list)
    schedules: bool = False
    unordered_loops: list[dict] = field(default_factory=list)
    draws: list[dict] = field(default_factory=list)
    #: Decorators, resolved: ``{"name": qualname, "arg": str | None}``.
    decorators: list[dict] = field(default_factory=list)
    #: Host-state observations: env/cwd/file/host-id/locale/process.
    host_state: list[dict] = field(default_factory=list)
    #: Writes to module-level mutable bindings (incl. ``global`` rebinds).
    global_writes: list[dict] = field(default_factory=list)
    #: Filesystem mutations outside any sanctioned-writer decision.
    fs_writes: list[dict] = field(default_factory=list)
    #: Unpicklable values handed to pool submit/map call sites.
    boundary: list[dict] = field(default_factory=list)
    #: Canonical-form hazards (unsorted json.dumps, hash(), id()).
    digest_hazards: list[dict] = field(default_factory=list)

    def param_unit(self, index: int) -> str | None:
        if 0 <= index < len(self.params):
            return unit_of_name(self.params[index])
        return None

    def param_unit_by_name(self, name: str) -> str | None:
        if name in self.params:
            return unit_of_name(name)
        return None


@dataclass
class ClassSummary:
    qualname: str
    name: str
    path: str
    line: int
    fields: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    #: Base classes, as dotted names resolved through the import table.
    bases: list[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    path: str
    qualname: str
    aliases: dict[str, str] = field(default_factory=dict)
    constants: dict[str, dict] = field(default_factory=dict)
    module_checks: list[dict] = field(default_factory=list)
    functions: list[FunctionSummary] = field(default_factory=list)
    classes: list[ClassSummary] = field(default_factory=list)
    line_pragmas: dict[int, list[str]] = field(default_factory=dict)
    file_pragmas: list[str] = field(default_factory=list)
    parse_error: dict | None = None
    #: Every ``.stream(...)`` call with its name template; detsan
    #: reads those with a registry ``scope``, each with how it is held
    #: (``owner_kind``), its consumers and whether it is drawn, claimed
    #: by a buffer or declared ``# detsan: shared``.
    streams: list[dict] = field(default_factory=list)
    #: BufferedSampler/UniformBuffer constructions and their rng args.
    rng_buffers: list[dict] = field(default_factory=list)
    #: Uses of a buffer-claimed generator outside the buffered idiom.
    rng_escapes: list[dict] = field(default_factory=list)
    #: Module-level ``NAME = "literal"`` bindings (env-var name lookup).
    str_constants: dict[str, str] = field(default_factory=dict)
    #: Module-level bindings to mutable containers (dict/list/set/...).
    mutable_globals: list[str] = field(default_factory=list)
    #: Wall-clock reads and unordered loops outside every function: the
    #: module body, class bodies, and the decorators and defaults they
    #: evaluate.  Each function keeps its own in its summary.
    wall_clock: list[dict] = field(default_factory=list)
    unordered_loops: list[dict] = field(default_factory=list)
    #: What the file-scope rules read besides those and ``streams``:
    #: ``import random`` statements, calls that resolve into
    #: ``numpy.random``, ``==``/``!=`` operand pairs with their units,
    #: reads of an unbound ``rng``, and whether the module body binds
    #: ``__all__``.
    random_imports: list[dict] = field(default_factory=list)
    numpy_random: list[dict] = field(default_factory=list)
    equalities: list[dict] = field(default_factory=list)
    unbound_rng: list[dict] = field(default_factory=list)
    binds_all: bool = False
    #: Unfiltered file-scope rule findings (see :func:`run_file_rules`).
    file_findings: list[Violation] = field(default_factory=list)

    def resolve_dotted(self, dotted: str) -> str:
        """Rewrite a local dotted name through the import table."""
        head, _, tail = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{tail}" if tail else target

    def records(self, kind: str) -> Iterator[dict]:
        """Every ``kind`` record of the module (``"wall_clock"`` or
        ``"unordered_loops"``): the body's, then each function's."""
        yield from getattr(self, kind)
        for function in self.functions:
            yield from getattr(function, kind)


@dataclass
class Project:
    """All module summaries plus the cross-module symbol indexes."""

    modules: list[ModuleSummary]
    files_checked: int = 0

    def __post_init__(self) -> None:
        self.by_qualname: dict[str, ModuleSummary] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassSummary] = {}
        self.constant_seeds: dict[str, dict] = {}
        for module in self.modules:
            self.by_qualname[module.qualname] = module
            for function in module.functions:
                self.functions[function.qualname] = function
            for klass in module.classes:
                self.classes[klass.qualname] = klass
            for name, expr in module.constants.items():
                self.constant_seeds[f"{module.qualname}.{name}"] = expr
        for qualname, unit in CONSTANT_UNIT_SEEDS.items():
            self.constant_seeds[qualname] = u_const(unit)

    # ------------------------------------------------------------------
    # symbol resolution across re-export chains
    # ------------------------------------------------------------------
    def resolve_function(self, qualname: str) -> FunctionSummary | None:
        target = self.resolve_callable(qualname)
        if isinstance(target, ClassSummary):
            # A class used as a callable resolves to its __init__.
            return self.resolve_callable(f"{target.qualname}.__init__")
        return target

    def resolve_callable(self, qualname: str
                         ) -> FunctionSummary | ClassSummary | None:
        """The function or class ``qualname`` names; a method the class
        does not define resolves to the first base that does."""
        resolved = self._resolve(qualname)
        if resolved is None:
            return None
        target = self.functions.get(resolved) or self.classes.get(resolved)
        if target is not None:
            return target
        owner, _, method = resolved.rpartition(".")
        klass = self.classes.get(owner)
        if klass is None:
            return None
        return next((self.functions[f"{base.qualname}.{method}"]
                     for base in self.lineage(klass)[1:]
                     if f"{base.qualname}.{method}" in self.functions),
                    None)

    def lineage(self, klass: ClassSummary) -> list[ClassSummary]:
        """``klass`` and every base class of it the project defines,
        nearest first."""
        lineage: dict[str, ClassSummary] = {}
        work = [klass]
        while work:
            current = work.pop(0)
            if current.qualname in lineage:
                continue
            lineage[current.qualname] = current
            for base in current.bases:
                target = self.classes.get(self._resolve(base))
                if target is not None:
                    work.append(target)
        return list(lineage.values())

    def _resolve(self, qualname: str, depth: int = 0) -> str | None:
        """Follow import/re-export links until a definition is found."""
        if depth > 10 or not qualname:
            return None
        if (qualname in self.functions or qualname in self.classes
                or qualname in self.constant_seeds):
            return qualname
        head, _, tail = qualname.rpartition(".")
        if not head:
            return qualname
        module = self.by_qualname.get(head)
        if module is not None and tail in module.aliases:
            return self._resolve(module.aliases[tail], depth + 1)
        # Method on a re-exported class: resolve the class, re-append.
        method_head, _, method = head.rpartition(".")
        if method_head:
            owner = self.by_qualname.get(method_head)
            if owner is not None and method in owner.aliases:
                resolved = self._resolve(owner.aliases[method], depth + 1)
                if resolved is not None:
                    return self._resolve(f"{resolved}.{tail}", depth + 1)
        return qualname


# ----------------------------------------------------------------------
# module name derivation
# ----------------------------------------------------------------------
def module_qualname(path: Path) -> str:
    """Dotted module name, derived from the ``__init__.py`` chain."""
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    current = path.resolve().parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) if parts else path.stem


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
class _ModuleExtractor:
    """One parsed module -> a :class:`ModuleSummary`."""

    def __init__(self, path: str, qualname: str, source: str,
                 tree: ast.Module):
        self.path = path
        self.qualname = qualname
        self.lines = source.splitlines()
        self.tree = tree
        self.summary = ModuleSummary(path=path, qualname=qualname)
        self.is_package = Path(path).name == "__init__.py"
        #: Names some function declares ``global``: module bindings.
        self.declared_globals: set[str] = set()
        #: First reads of ``rng`` unbound where they were read, with
        #: their scope: a later binding in an enclosing body clears one.
        self.rng_reads: list[tuple[_FunctionExtractor, dict]] = []
        #: Lines that carry a ``# detsan: shared`` contract.
        self.shared_lines: set[int] = set()
        #: The record of every ``.stream(...)`` call, by call node: the
        #: code around the call says how the generator is held.
        self.acquisitions: dict[ast.Call, dict] = {}
        self.homes: list[_StreamHome] = []

    def run(self) -> ModuleSummary:
        self._collect_pragmas()
        self._collect_imports()
        module_fn = _FunctionExtractor(
            self, qualname=f"{self.qualname}.<module>", name="<module>",
            params=[], lineno=1, declared_unit=None, class_name=None,
            module_level=True, enclosing=None,
            home=self._home(f"{self.qualname}.<module>", None))
        module_fn.exec_block(
            [stmt for stmt in self.tree.body
             if not isinstance(stmt, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef))])
        self.summary.module_checks = module_fn.checks
        for name, expr in module_fn.env.items():
            self.summary.constants[name] = expr
        self._collect_module_bindings()
        # Definitions come after the whole body: function bodies read the
        # module constants and bindings collected above.
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_fn.eval_definition_time(stmt)
                self._extract_function(stmt, parent=self.qualname,
                                       class_name=None, enclosing=module_fn)
            elif isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt, self.qualname, module_fn)
        self.summary.wall_clock = module_fn.wall_clock
        self.summary.unordered_loops = module_fn.unordered_loops
        self.summary.unbound_rng = [read for scope, read in self.rng_reads
                                    if not scope._binds("rng")]
        self._settle_streams()
        # Imported here: the file rules import this module's tables.
        from repro.devtools.lintkit.core import run_file_rules
        self.summary.file_findings = run_file_rules(self.summary)
        return self.summary

    # -- comments ------------------------------------------------------
    def _collect_pragmas(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
            if "#" not in line:
                continue
            if _DETSAN_SHARED_RE.search(line):
                self.shared_lines.add(lineno)
            match = _PRAGMA_RE.search(line)
            if match:
                rules = [r.strip() for r in match.group(1).split(",")]
                self.summary.line_pragmas.setdefault(
                    lineno, []).extend(rules)
            match = _PRAGMA_FILE_RE.search(line)
            if match:
                self.summary.file_pragmas.extend(
                    r.strip() for r in match.group(1).split(","))

    def _collect_module_bindings(self) -> None:
        """Index module-level string constants and mutable containers,
        and note whether ``__all__`` is bound.

        Constants and containers feed the distributability pass: string
        constants resolve indirect env-var names
        (``os.environ.get(ENV_FLAG)``), mutable bindings anchor the
        dist-mutable-global rule.  Only top-level statements count —
        anything created inside a function is local.
        """
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                value, targets = stmt.value, [stmt.target]
            elif isinstance(stmt, ast.AugAssign):
                value, targets = None, [stmt.target]
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if "__all__" in names:
                self.summary.binds_all = True
            if not names or value is None:
                continue
            if isinstance(value, ast.Constant) and isinstance(
                    value.value, str):
                for name in names:
                    self.summary.str_constants[name] = value.value
            elif _is_mutable_literal(value):
                self.summary.mutable_globals.extend(names)

    def unit_annotation(self, lineno: int) -> str | None:
        """A ``# unit: tc`` annotation on the given source line."""
        if 1 <= lineno <= len(self.lines):
            match = _UNIT_ANNOTATION_RE.search(self.lines[lineno - 1])
            if match:
                unit = match.group(1).lower()
                return _LONG_UNIT_NAMES.get(unit, unit)
        return None

    # -- imports -------------------------------------------------------
    def _collect_imports(self) -> None:
        """Every import, wherever it is written, into the alias table;
        ``random`` imports and ``global`` declarations are noted too."""
        package_parts = self.qualname.split(".")
        if not self.is_package:
            package_parts = package_parts[:-1]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    self.summary.aliases[local] = target
                    if alias.name == "random":
                        self.summary.random_imports.append(_at(node))
            elif isinstance(node, ast.Global):
                self.declared_globals.update(node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    self.summary.random_imports.append(_at(node))
                base_parts = list(package_parts)
                if node.level:
                    cut = node.level - 1
                    base_parts = (base_parts[:-cut] if cut
                                  else base_parts)
                base = ".".join(base_parts)
                module = node.module or ""
                prefix = ".".join(p for p in (base if node.level else "",
                                              module) if p) \
                    if node.level else module
                if not prefix:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.summary.aliases[local] = f"{prefix}.{alias.name}"

    # -- definitions ---------------------------------------------------
    def _extract_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                          parent: str, class_name: str | None,
                          enclosing: _FunctionExtractor) -> None:
        qualname = f"{parent}.{node.name}"
        args = node.args
        params = [a.arg for a in (list(args.posonlyargs) + list(args.args))]
        if class_name and params and params[0] in ("self", "cls"):
            params = params[1:]
        conversion = conversion_units(node.name)
        declared = (conversion[0] if conversion
                    else self.unit_annotation(node.lineno)
                    or unit_of_name(node.name))
        extractor = _FunctionExtractor(
            self, qualname=qualname, name=node.name, params=params,
            lineno=node.lineno, declared_unit=declared,
            class_name=class_name, module_level=False,
            is_converter=conversion is not None, enclosing=enclosing,
            home=(self._home(qualname, parent if class_name else None)
                  if enclosing.hosts_homes else enclosing.home))
        # Every parameter binds: ``self``, keyword-only and starred too.
        extractor.env.update((name, _bound_unit(name))
                             for name in _arg_names(args))
        extractor.decorators = self._decorator_records(node)
        extractor.exec_block(node.body)
        self.summary.functions.append(extractor.finish(self.path))

    def _decorator_records(self, node: ast.FunctionDef
                           | ast.AsyncFunctionDef) -> list[dict]:
        """Resolve each decorator to a qualname plus its first str arg.

        Bare same-module names qualify against this module, so
        ``@scenario("x")`` resolves identically whether the decorator
        is imported or defined alongside its uses.
        """
        records: list[dict] = []
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            dotted = dotted_name(target)
            if dotted is None:
                continue
            head = dotted.split(".")[0]
            if head in self.summary.aliases:
                name = self.summary.resolve_dotted(dotted)
            elif "." not in dotted and dotted not in _BUILTIN_NAMES:
                name = f"{self.qualname}.{dotted}"
            else:
                name = dotted
            arg = None
            if isinstance(dec, ast.Call) and dec.args and isinstance(
                    dec.args[0], ast.Constant) and isinstance(
                    dec.args[0].value, str):
                arg = dec.args[0].value
            records.append({"name": name, "arg": arg})
        return records

    def _extract_class(self, node: ast.ClassDef, parent: str,
                       enclosing: _FunctionExtractor) -> None:
        """Summarise a class; its body runs in the ``enclosing`` scope.

        The class body's checks, wall-clock reads and unordered loops
        are the enclosing scope's: the module body's for a top-level
        class, the function's for a local one.  So are its stream facts,
        but a method not written inside a def is a stream home of its own.
        """
        enclosing.eval_definition_time(node)
        qualname = f"{parent}.{node.name}"
        klass = ClassSummary(qualname=qualname, name=node.name,
                             path=self.path, line=node.lineno)
        for base in map(dotted_name, node.bases):
            if base is not None:
                klass.bases.append(
                    self.summary.resolve_dotted(base)
                    if base.partition(".")[0] in self.summary.aliases
                    else f"{self.summary.qualname}.{base}")
        init_params: list[str] | None = None
        class_fn = _FunctionExtractor(
            self, qualname=f"{qualname}.<class>", name="<class>",
            params=[], lineno=node.lineno, declared_unit=None,
            class_name=node.name, module_level=False,
            enclosing=enclosing, home=enclosing.home)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                klass.methods.append(stmt.name)
                class_fn.eval_definition_time(stmt)
                self._extract_function(stmt, parent=qualname,
                                       class_name=node.name,
                                       enclosing=class_fn)
                if stmt.name == "__init__":
                    args = stmt.args
                    init_params = [
                        a.arg for a in (list(args.posonlyargs)
                                        + list(args.args))][1:]
            elif isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt, qualname, class_fn)
            else:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name):
                    klass.fields.append(stmt.target.id)
                class_fn.exec_stmt(stmt)
        # Dataclass-style classes take their fields as __init__ params.
        klass.fields = init_params if init_params is not None \
            else klass.fields
        enclosing.checks.extend(class_fn.checks)
        enclosing.wall_clock.extend(class_fn.wall_clock)
        enclosing.unordered_loops.extend(class_fn.unordered_loops)
        self.summary.classes.append(klass)

    # -- stream ownership ----------------------------------------------
    def _home(self, func: str, klass: str | None) -> _StreamHome:
        home = _StreamHome(func, klass)
        self.homes.append(home)
        return home

    def _settle_streams(self) -> None:
        """Derive what the acquisitions and claims need from the facts
        the extraction recorded; no AST is walked.

        A local's uses are its home's.  A ``self.X`` field is read, and
        a method's claim escapes, anywhere in the class's methods.
        """
        classes: dict[str, list[_StreamHome]] = {}
        for home in self.homes:
            if home.klass is not None:
                classes.setdefault(home.klass, []).append(home)
        for home in self.homes:
            region = classes[home.klass] if home.klass else [home]
            for record in home.streams:
                if record["owner_kind"] == "local":
                    _apply_uses(record, [home])
                    handoffs = sorted(set(record["handoffs"]))
                    if handoffs and not record["drawn"]:
                        record["owner_kind"] = "local-arg"
                        record["owner"] = handoffs
                    elif handoffs:
                        # Drawn here *and* handed off: the sharing rule
                        # sees both consumers of the one acquisition.
                        record["owner"] = [home.func] + handoffs
                elif record["owner_kind"] == "attribute":
                    _apply_uses(record, region)
            for claim, name, call in home.claims:
                for anchor, expr, detail in _escapes(name, call, region):
                    self.summary.rng_escapes.append({
                        **anchor, "buffer": claim["buffer"],
                        "stream_expr": expr, "func": home.func,
                        "detail": detail})


class _FunctionExtractor:
    """Flow-sensitive abstract interpretation of one function body."""

    def __init__(self, module: _ModuleExtractor, *, qualname: str,
                 name: str, params: list[str], lineno: int,
                 declared_unit: str | None, class_name: str | None,
                 module_level: bool, enclosing: _FunctionExtractor | None,
                 home: _StreamHome, is_converter: bool = False):
        self.module = module
        #: The scope this code is written in: its names are visible here.
        self.enclosing = enclosing
        #: Where this code's stream facts go.
        self.home = home
        #: Whether a def written here is a stream home of its own: it is
        #: unless it is written inside another def.
        self.hosts_homes = module_level or (
            name == "<class>" and enclosing.hosts_homes)
        self.qualname = qualname
        self.name = name
        self.params = params
        self.declared_unit = declared_unit
        # A <target>_from_<source> converter changes units by contract;
        # its body would otherwise always fail its own return check.
        self.is_converter = is_converter
        self.class_name = class_name
        self.module_level = module_level
        # Where the definitions of this body are named: a def in a
        # module-level (or class-body) ``if``/``try`` is the module's
        # (the class's), not a local of the synthetic body.
        self.scope = (qualname.rpartition(".")[0]
                      if name in ("<module>", "<class>") else qualname)
        self.env: dict[str, dict] = {}
        self.local_defs: dict[str, str] = {}
        self.checks: list[dict] = []
        self.calls: list[str] = []
        self.call_edges: list[dict] = []
        self.return_exprs: list[dict] = []
        self.wall_clock: list[dict] = []
        self.schedules = False
        self.unordered_loops: list[dict] = []
        self.draws: list[dict] = []
        self.decorators: list[dict] = []
        self.host_state: list[dict] = []
        self.global_writes: list[dict] = []
        self.fs_writes: list[dict] = []
        self.boundary: list[dict] = []
        self.digest_hazards: list[dict] = []
        self._lambda_names: set[str] = set()
        self.local_classes: set[str] = set()
        # The unordered loops this code sits in, the enclosing scopes'
        # included: a call written inside a loop's body belongs to the
        # loop even from a nested def, class or lambda.
        self._loop_stack: list[dict] = (list(enclosing._loop_stack)
                                        if enclosing is not None else [])
        # The def or lambda whose unbound ``rng`` read is reported next;
        # None in a module or class body, and once one is reported.
        self._reader: str | None = (None if name in ("<module>", "<class>")
                                    else name)
        self._lineno = lineno

    def finish(self, path: str) -> FunctionSummary:
        return FunctionSummary(
            qualname=self.qualname,
            name=self.name,
            path=path,
            line=self._lineno,
            params=self.params,
            declared_unit=self.declared_unit,
            return_expr=(u_join(self.return_exprs)
                         if self.return_exprs else None),
            checks=self.checks,
            calls=sorted(set(self.calls)),
            call_edges=self.call_edges,
            wall_clock=self.wall_clock,
            schedules=self.schedules,
            unordered_loops=self.unordered_loops,
            draws=self.draws,
            decorators=self.decorators,
            host_state=self.host_state,
            global_writes=self.global_writes,
            fs_writes=self.fs_writes,
            boundary=self.boundary,
            digest_hazards=self.digest_hazards,
        )

    # -- statements ----------------------------------------------------
    def exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested functions get their own summary; bare-name calls to
            # them resolve through local_defs, so taint still flows.
            self.eval_definition_time(stmt)
            self.local_defs[stmt.name] = f"{self.scope}.{stmt.name}"
            self.module._extract_function(stmt, parent=self.scope,
                                          class_name=self.class_name,
                                          enclosing=self)
        elif isinstance(stmt, ast.ClassDef):
            self.local_classes.add(stmt.name)
            self.module._extract_class(stmt, self.scope, self)
        elif isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value)
            for target in stmt.targets:
                self._eval_target(target)
                self._assign(target, value, stmt)
                if isinstance(target, ast.Subscript):
                    self._module_mutation(target.value, stmt,
                                          "item assignment")
            if isinstance(stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._lambda_names.add(target.id)
            self._hold(stmt.value, stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            value = (self.eval_expr(stmt.value)
                     if stmt.value is not None else None)
            self._eval_target(stmt.target)
            if value is not None:
                self._assign(stmt.target, value, stmt)
                self._hold(stmt.value, [stmt.target])
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval_expr(stmt.value)
            self._eval_target(stmt.target)
            if isinstance(stmt.target, ast.Subscript):
                self._module_mutation(stmt.target.value, stmt,
                                      "augmented item assignment")
            target_unit = self._target_unit(stmt.target, stmt)
            if target_unit is not None and isinstance(
                    stmt.op, (ast.Add, ast.Sub, ast.Mod, ast.FloorDiv)):
                self._record("cross-unit-arithmetic", stmt, {
                    "a": u_const(target_unit), "b": value,
                    "ctx": f"augmented assignment to "
                           f"'{_target_name(stmt.target)}'"})
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.eval_expr(stmt.value)
                self.return_exprs.append(value)
                if self.declared_unit is not None and not self.is_converter:
                    self._record("cross-unit-return", stmt, {
                        "declared": self.declared_unit, "v": value,
                        "fn": self.name})
        elif isinstance(stmt, (ast.If,)):
            self.eval_expr(stmt.test)
            self._branches(stmt, [stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.While):
            self.eval_expr(stmt.test)
            self._branches(stmt, [stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars)
            self.exec_block(stmt.body)
        elif isinstance(stmt, _TRY_STATEMENTS):
            blocks = [stmt.body]
            for handler in stmt.handlers:
                if handler.type is not None:
                    self.eval_expr(handler.type)
                blocks.append(handler.body)
            self._branches(stmt, blocks)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
            acquired = self.module.acquisitions.get(stmt.value)
            if acquired is not None:
                acquired.update(owner_kind="discarded", uses=0)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._eval_target(target)
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, ast.Match):
            self.eval_expr(stmt.subject)
            for case in stmt.cases:
                if case.guard is not None:
                    self.eval_expr(case.guard)
            self._branches(stmt, [case.body for case in stmt.cases])
        elif isinstance(stmt, ast.Global):
            # A ``global`` declaration inside a function announces a
            # rebind of module state — the canonical relocation hazard.
            if not self.module_level:
                for name in stmt.names:
                    self.global_writes.append({
                        "line": stmt.lineno, "col": stmt.col_offset,
                        "name": f"{self.module.qualname}.{name}",
                        "how": "declared global and rebound"})
        # pass/break/continue/import/nonlocal: no unit effect

    def _branches(self, stmt: ast.stmt,
                  blocks: list[list[ast.stmt]]) -> None:
        before = dict(self.env)
        outcomes: list[dict[str, dict]] = []
        for block in blocks:
            self.env = dict(before)
            self.exec_block(block)
            outcomes.append(self.env)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor, ast.Match)) \
                or (isinstance(stmt, ast.If) and not stmt.orelse):
            outcomes.append(before)
        merged: dict[str, dict] = {}
        names = set()
        for outcome in outcomes:
            names.update(outcome)
        for name in names:
            merged[name] = u_join([
                outcome.get(name, before.get(name, U_UNKNOWN))
                for outcome in outcomes])
        self.env = merged

    def eval_definition_time(self, node: ast.FunctionDef
                             | ast.AsyncFunctionDef
                             | ast.ClassDef) -> None:
        """Evaluate what a ``def`` or ``class`` statement runs in this
        scope: decorators, default values, base classes."""
        exprs = list(node.decorator_list)
        if isinstance(node, ast.ClassDef):
            exprs += node.bases + [kw.value for kw in node.keywords]
        else:
            exprs += node.args.defaults + node.args.kw_defaults
        for expr in exprs:
            if expr is not None:
                self.eval_expr(expr)

    def _exec_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        self.eval_expr(stmt.iter)
        self._bind(stmt.target)
        reason = _unordered_reason(stmt.iter)
        loop_record = None
        if reason is not None:
            loop_record = {
                "line": stmt.lineno, "col": stmt.col_offset,
                "reason": reason, "calls": [], "direct": False,
                "draws": False,
            }
            self._loop_stack.append(loop_record)
        try:
            self._branches(stmt, [stmt.body, stmt.orelse])
        finally:
            if loop_record is not None:
                self._loop_stack.pop()
                loop_record["calls"] = sorted(set(loop_record["calls"]))
                self.unordered_loops.append(loop_record)

    # -- assignments ---------------------------------------------------
    def _bind(self, target: ast.expr) -> None:
        """Evaluate a loop, ``with`` or comprehension target and bind
        the names it stores."""
        self._eval_target(target)
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                         ast.Store):
                self.env[node.id] = _bound_unit(node.id)

    def _eval_target(self, target: ast.expr) -> None:
        """Evaluate what a store target reads (``d[key()] = v``)."""
        if isinstance(target, ast.Subscript):
            self.eval_expr(target.value)
            self.eval_expr(target.slice)
        elif isinstance(target, ast.Attribute):
            self.eval_expr(target.value)
        elif isinstance(target, ast.Starred):
            self._eval_target(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._eval_target(element)

    def _target_unit(self, target: ast.expr, stmt: ast.stmt
                     ) -> str | None:
        annotated = self.module.unit_annotation(stmt.lineno)
        if annotated is not None:
            return annotated
        name = _target_name(target)
        if name is None:
            return None
        return unit_of_name(name.rpartition(".")[2] or name)

    def _assign(self, target: ast.expr, value: dict,
                stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, U_UNKNOWN, stmt)
            return
        target_unit = self._target_unit(target, stmt)
        if target_unit is not None:
            self._record("cross-unit-assignment", stmt, {
                "target": _target_name(target),
                "declared": target_unit, "v": value})
        if isinstance(target, ast.Name):
            self.env[target.id] = (u_const(target_unit) if target_unit
                                   else value)

    # -- expressions ---------------------------------------------------
    def eval_expr(self, node: ast.expr) -> dict:
        if isinstance(node, ast.Constant):
            return (U_UNITLESS if isinstance(node.value, (int, float))
                    and not isinstance(node.value, bool) else U_UNKNOWN)
        if isinstance(node, ast.Name):
            self.home.load(node.id)
            if node.id == "__file__" and "__file__" not in self.env:
                self.host_state.append({
                    "line": node.lineno, "col": node.col_offset,
                    "kind": "file", "what": "__file__",
                    "var": None, "ref": None, "expr": "__file__"})
            elif node.id == "rng" and self._reader is not None \
                    and not self._binds("rng"):
                # Stochastic code takes its generator as a parameter.
                self.module.rng_reads.append(
                    (self, {**_at(node), "func": self._reader}))
                self._reader = None
            return self._name_unit(node.id)
        if isinstance(node, ast.Attribute):
            self.eval_expr(node.value)
            self._receiver(node.value, node.attr, call=False)
            dotted = dotted_name(node)
            if dotted is not None:
                resolved = self.module.summary.resolve_dotted(dotted)
                constant = u_const_for_qualname(resolved)
                if constant is not None:
                    return constant
                head = dotted.split(".")[0]
                if head in self.module.summary.aliases:
                    return {"k": "g", "n": resolved}
            unit = unit_of_name(node.attr)
            return u_const(unit) if unit else U_UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.eval_expr(node.operand)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.BoolOp):
            return u_join([self.eval_expr(v) for v in node.values])
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test)
            return u_join([self.eval_expr(node.body),
                           self.eval_expr(node.orelse)])
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            base = self.eval_expr(node.value)
            self.eval_expr(node.slice)
            self._subscript_host_state(node)
            if isinstance(node.slice, ast.Constant) and isinstance(
                    node.slice.value, str):
                unit = unit_of_name(node.slice.value)
                if unit:
                    return u_const(unit)
            return base
        if isinstance(node, ast.Starred):
            return self.eval_expr(node.value)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for element in node.elts:
                self.eval_expr(element)
            return U_UNKNOWN
        if isinstance(node, ast.Dict):
            for child in (*node.keys, *node.values):
                if child is not None:
                    self.eval_expr(child)
            return U_UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            outer = self.env
            self.env = dict(outer)
            for generator in node.generators:
                self.eval_expr(generator.iter)
                self._bind(generator.target)
                for condition in generator.ifs:
                    self.eval_expr(condition)
            if isinstance(node, ast.DictComp):
                self.eval_expr(node.key)
                self.eval_expr(node.value)
            else:
                self.eval_expr(node.elt)
            self.env = outer
            return U_UNKNOWN
        if isinstance(node, ast.NamedExpr):
            self.eval_expr(node.value)
            self._bind(node.target)
            return U_UNKNOWN
        if isinstance(node, ast.Lambda):
            # The body runs later, but it is this scope's code: its
            # calls, reads and schedules are recorded here.
            args = node.args
            for default in (*args.defaults, *args.kw_defaults):
                if default is not None:
                    self.eval_expr(default)
            outer, reader = self.env, self._reader
            self.env = dict(outer)
            self.env.update((name, _bound_unit(name))
                            for name in _arg_names(args))
            self._reader = "<lambda>"
            self.eval_expr(node.body)
            self.env, self._reader = outer, reader
            return U_UNKNOWN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(child)
        return U_UNKNOWN

    def _binds(self, name: str) -> bool:
        """Whether ``name`` is bound here: in this scope or an enclosing
        one (the module body last), by an import, or as a global."""
        scope = self
        while scope is not None:
            if name in scope.env or name in scope.local_defs:
                return True
            scope = scope.enclosing
        return (name in self.module.summary.aliases
                or name in self.module.declared_globals)

    def _name_unit(self, name: str) -> dict:
        if name in self.env:
            return self.env[name]
        if name in self.module.summary.constants and not self.module_level:
            return {"k": "g", "n": f"{self.module.qualname}.{name}"}
        if name in self.module.summary.aliases:
            target = self.module.summary.aliases[name]
            return u_const_for_qualname(target) or {"k": "g", "n": target}
        unit = unit_of_name(name)
        return u_const(unit) if unit else U_UNKNOWN

    def _binop(self, node: ast.BinOp) -> dict:
        left = self.eval_expr(node.left)
        right = self.eval_expr(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mod)):
            self._record("cross-unit-arithmetic", node, {
                "a": left, "b": right,
                "ctx": f"'{type(node.op).__name__.lower()}' expression"})
            return u_join([left, right])
        if isinstance(node.op, ast.FloorDiv):
            self._record("cross-unit-arithmetic", node, {
                "a": left, "b": right, "ctx": "floor division"})
            return U_UNITLESS
        if isinstance(node.op, ast.Mult):
            return {"k": "m", "a": left, "b": right}
        if isinstance(node.op, (ast.Div,)):
            return {"k": "d", "a": left, "b": right}
        return U_UNKNOWN

    def _compare(self, node: ast.Compare) -> dict:
        operands = [self.eval_expr(node.left)]
        operands.extend(self.eval_expr(c) for c in node.comparators)
        if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                               ast.Eq, ast.NotEq)) for op in node.ops):
            self._record("cross-unit-comparison", node, {"xs": operands})
        exprs = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                pair = (index, index + 1)
                self.module.summary.equalities.append({
                    **_at(node),
                    "units": [_time_unit(operands[i]) for i in pair],
                    "floats": [_is_float_literal(exprs[i]) for i in pair]})
        return U_UNKNOWN

    def _call(self, node: ast.Call) -> dict:
        kw_units = {keyword.arg: self.eval_expr(keyword.value)
                    for keyword in node.keywords
                    if keyword.arg is not None}
        for keyword in node.keywords:
            if keyword.arg is None:
                self.eval_expr(keyword.value)
        arg_units = [self.eval_expr(arg) for arg in node.args]

        func = node.func
        callee_name: str | None = None
        candidates: list[str] = []
        if isinstance(func, ast.Name):
            callee_name = func.id
            candidates = self._resolve_name_call(func.id)
        elif isinstance(func, ast.Attribute):
            self.eval_expr(func.value)
            callee_name = func.attr
            candidates = self._resolve_attr_call(func)
            self._detect_schedule(func, node)
            self._receiver(func.value, func.attr, call=True)
            if func.attr == "stream":
                self._stream_call(node)
            if func.attr in _GENERATOR_DRAW_METHODS:
                draw = {"line": node.lineno, "col": node.col_offset,
                        "recv": dotted_name(func.value), "method": func.attr}
                self.draws.append(draw)
                self.home.draws.append(draw)
                for loop in self._loop_stack:
                    loop["draws"] = True
            if func.attr in _MUTATING_METHODS:
                self._module_mutation(func.value, node,
                                      f".{func.attr}() call")
            if func.attr in _POOL_SUBMIT_METHODS:
                self._detect_boundary(func, node)
        else:
            self.eval_expr(func)
        self._detect_impurity(func, node)
        self._detect_host_state(func, node)
        self._detect_fs_write(func, node)
        self._detect_digest_hazard(func, node)

        # The <target>_from_<source> naming convention is authoritative
        # even when the converter is defined outside the analysis roots.
        conversion = (conversion_units(callee_name)
                      if callee_name is not None else None)
        if candidates:
            self.calls.extend(candidates)
            edge = {"f": candidates, "line": node.lineno,
                    "col": node.col_offset,
                    "name": callee_name or "<call>"}
            self.call_edges.append(edge)
            if self._loop_stack:
                for loop in self._loop_stack:
                    loop["calls"].extend(candidates)
        self._hand_over(node, candidates)
        if candidates or conversion is not None:
            for index, value in enumerate(arg_units):
                if isinstance(node.args[index], ast.Starred):
                    continue
                check = {"f": candidates, "i": index, "v": value,
                         "callee": callee_name}
                if conversion is not None and index == 0:
                    check["param_unit"] = conversion[1]
                self._record("cross-unit-argument", node, check)
        for kw_name, value in kw_units.items():
            self._record("cross-unit-argument", node, {
                "f": candidates, "kw": kw_name, "v": value,
                "callee": callee_name or "<call>"})

        if callee_name in _PASSTHROUGH_CALLS and arg_units:
            return arg_units[0]
        if callee_name in _JOIN_CALLS and arg_units:
            return u_join(arg_units)
        if callee_name == "sum" and arg_units:
            return arg_units[0]
        if isinstance(func, ast.Attribute) and func.attr in (
                "floor", "ceil") and arg_units:
            return arg_units[0]
        if conversion is not None:
            return u_const(conversion[0])
        if candidates:
            return {"k": "r", "f": candidates}
        if callee_name is not None:
            unit = unit_of_name(callee_name)
            if unit:
                return u_const(unit)
        return U_UNKNOWN

    def _resolve_name_call(self, name: str) -> list[str]:
        if name in self.local_defs:
            return [self.local_defs[name]]
        if name in self.env:
            # A parameter or locally rebound name; its target is dynamic.
            return []
        if name in self.module.summary.aliases:
            return [self.module.summary.aliases[name]]
        if name in _BUILTIN_NAMES:
            return []
        # Otherwise assume a sibling definition in the same module.
        return [f"{self.module.qualname}.{name}"]

    def _resolve_attr_call(self, func: ast.Attribute) -> list[str]:
        dotted = dotted_name(func)
        if dotted is None:
            return []
        head = dotted.split(".")[0]
        if head in ("self", "cls") and self.class_name is not None:
            tail = dotted.split(".", 1)[1]
            if "." not in tail:
                return [f"{self.module.qualname}.{self.class_name}.{tail}"]
            return []
        if head in self.module.summary.aliases:
            return [self.module.summary.resolve_dotted(dotted)]
        return []

    # -- stream ownership ----------------------------------------------
    def _stream_call(self, node: ast.Call) -> None:
        """A ``.stream(...)`` call: the one record of it, read by the
        fault-streams-named rule and, if it has a registry ``scope``,
        by detsan.  The code around the call fills in how it is held."""
        from repro.devtools.detsan.resolver import (is_resolved,
                                                    resolve_stream_name)
        name = node.args[0] if node.args else None
        template = resolve_stream_name(name) if name is not None else None
        scope = (self._registry_scope(node.func.value, node.lineno)
                 if name is not None else None)
        func = self.home.func
        record = {
            **_at(node),
            "arg": ast.unparse(name) if name is not None else None,
            "template": template, "resolved": is_resolved(template),
            "scope": scope, "func": func,
            "owner_kind": "other", "owner": [func], "holder": None,
            "uses": 1, "drawn": False, "buffered": False, "handoffs": [],
            "shared": node.lineno in self.module.shared_lines,
        }
        self.module.summary.streams.append(record)
        self.module.acquisitions[node] = record
        if scope is not None:
            self.home.streams.append(record)

    def _registry_scope(self, recv: ast.expr, line: int) -> str | None:
        """Registry-scope key for an acquisition, or None if the
        receiver does not look like an RngRegistry.

        Scoping keeps independent registries (one per run/system) from
        being conflated: ``self.rngs`` streams key by the owning class,
        plain locals by the home, and a fresh ``RngRegistry(...)`` /
        ``fork(...)`` receiver by its call site.
        """
        home = self.home
        dotted = dotted_name(recv)
        if dotted is not None:
            last = dotted.rpartition(".")[2].lower()
            if "rng" not in last and last != "registry":
                return None
            if dotted.startswith("self.") and home.klass:
                return home.klass
            return home.func
        if isinstance(recv, ast.Call):
            if isinstance(recv.func, ast.Attribute) \
                    and recv.func.attr == "fork":
                return f"{home.func}:{line}"
            callee = dotted_name(recv.func)
            if callee is not None and self.module.summary.resolve_dotted(
                    callee).rpartition(".")[2] == "RngRegistry":
                return f"{home.func}:{line}"
        return None

    def _receiver(self, value: ast.expr, attr: str, call: bool) -> None:
        """``value.attr``: a load of a ``self.X`` field, or a stream
        used inline (drawn, if ``call`` and ``attr`` draws)."""
        if isinstance(value, ast.Name) and value.id == "self":
            self.home.load(f"self.{attr}")
        acquired = self.module.acquisitions.get(value)
        if acquired is not None:
            acquired.update(owner_kind="inline",
                            drawn=call and attr in _GENERATOR_DRAW_METHODS)

    def _hold(self, value: ast.expr, targets: list[ast.expr]) -> None:
        """An assignment of an acquired stream (who holds it) or of a
        name to ``self.X`` (an alias a claim follows)."""
        acquired = self.module.acquisitions.get(value)
        if acquired is not None:
            target = targets[0] if len(targets) == 1 else None
            # A name a class body binds is a class attribute, no local.
            if isinstance(target, ast.Name) and self.name != "<class>":
                acquired.update(owner_kind="local", holder=target.id)
            elif isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self" and self.home.klass:
                acquired.update(owner_kind="attribute",
                                holder=f"self.{target.attr}",
                                owner=[self.home.klass])
        elif isinstance(value, ast.Name):
            for target in targets:
                dotted = dotted_name(target)
                if dotted is not None and dotted.startswith("self."):
                    self.home.aliases.append((value.id, dotted))

    def _hand_over(self, node: ast.Call, candidates: list[str]) -> None:
        """The generators a call is handed: a stream acquired in its
        arguments, each name or attribute passed, a buffer's claim."""
        home = self.home
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            acquired = self.module.acquisitions.get(arg)
            if acquired is not None:
                acquired.update(owner_kind="argument",
                                owner=candidates or [home.func])
            elif isinstance(arg, (ast.Name, ast.Attribute)):
                dotted = dotted_name(arg)
                if dotted is not None:
                    home.handed.append((dotted, node, candidates))
        buffer = candidates[0].rpartition(".")[2] if candidates else None
        if buffer not in _BUFFER_CLASSES:
            return
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if buffer == "BufferedSampler":
            rng = node.args[1] if len(node.args) > 1 else kwargs.get("rng")
        else:
            rng = node.args[0] if node.args else kwargs.get("rng")
        if rng is None:
            return
        acquired = self.module.acquisitions.get(rng)
        name = None
        if acquired is not None and acquired["arg"] is not None:
            if acquired["scope"] is not None:
                acquired.update(buffered=True, drawn=True)
        else:
            name = dotted_name(rng)
        claim = {**_at(node), "buffer": buffer, "func": home.func}
        self.module.summary.rng_buffers.append(claim)
        if name is not None:
            home.claims.append((claim, name, node))

    # -- purity --------------------------------------------------------
    def _detect_schedule(self, func: ast.Attribute,
                         node: ast.Call) -> None:
        if func.attr in _SCHEDULE_METHODS:
            self.schedules = True
            for loop in self._loop_stack:
                loop["direct"] = True

    def _detect_impurity(self, func: ast.expr, node: ast.Call) -> None:
        dotted = dotted_name(func)
        if dotted is None:
            return
        resolved = self.module.summary.resolve_dotted(dotted)
        if resolved.startswith("numpy.random."):
            self.module.summary.numpy_random.append(
                {**_at(node), "what": resolved, "local": dotted})
        parts = resolved.split(".")
        if (parts[0] == "time" and len(parts) == 2
                and parts[1] in _WALL_CLOCK_TIME_FUNCS) or (
                    parts[0] == "datetime"
                    and parts[-1] in _WALL_CLOCK_DATETIME_FUNCS):
            self.wall_clock.append(
                {**_at(node), "what": resolved, "local": dotted})

    # -- distributability ----------------------------------------------
    def _detect_host_state(self, func: ast.expr,
                           node: ast.Call) -> None:
        dotted = dotted_name(func)
        if dotted is None:
            return
        head = dotted.split(".")[0]
        if head in self.env or head in self.local_defs:
            return
        resolved = self.module.summary.resolve_dotted(dotted)
        if resolved in _ENV_READ_CALLS:
            key = node.args[0] if node.args else None
            var, ref, expr = (self._env_var(key) if key is not None
                              else (None, None, "<missing>"))
            self._host(node, "env", resolved, var=var, ref=ref,
                       expr=expr)
        elif resolved in _CWD_CALLS:
            self._host(node, "cwd", resolved)
        elif resolved in _HOST_ID_CALLS:
            self._host(node, "host-id", resolved)
        elif resolved.split(".")[0] == "locale":
            self._host(node, "locale", resolved)
        elif resolved in _PROCESS_CALLS:
            self._host(node, "process", resolved)

    def _host(self, node: ast.AST, kind: str, what: str, *,
              var: str | None = None, ref: str | None = None,
              expr: str | None = None) -> None:
        self.host_state.append({
            "line": getattr(node, "lineno", 1),
            "col": getattr(node, "col_offset", 0),
            "kind": kind, "what": what, "var": var, "ref": ref,
            "expr": expr})

    def _subscript_host_state(self, node: ast.Subscript) -> None:
        dotted = dotted_name(node.value)
        if dotted is None:
            return
        if self.module.summary.resolve_dotted(dotted) != "os.environ":
            return
        var, ref, expr = self._env_var(node.slice)
        self._host(node, "env", "os.environ[...]", var=var, ref=ref,
                   expr=expr)

    def _env_var(self, node: ast.expr
                 ) -> tuple[str | None, str | None, str]:
        """``(literal name, constant qualname, source text)`` of a key.

        Indirect names resolve through this module's string constants;
        imported constants come back as a ``ref`` qualname for the
        whole-program pass to look up across modules.
        """
        expr = ast.unparse(node)
        if isinstance(node, ast.Constant) and isinstance(
                node.value, str):
            return node.value, None, expr
        if isinstance(node, ast.Name) and node.id not in self.env:
            value = self.module.summary.str_constants.get(node.id)
            if value is not None:
                return value, None, expr
            if node.id in self.module.summary.aliases:
                return None, self.module.summary.aliases[node.id], expr
        elif isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None \
                    and dotted.split(".")[0] in self.module.summary.aliases:
                return None, self.module.summary.resolve_dotted(dotted), expr
        return None, None, expr

    def _module_mutation(self, base: ast.expr, node: ast.AST,
                         how: str) -> None:
        if self.module_level or not isinstance(base, ast.Name):
            return
        name = base.id
        if name in self.env or name in self.local_defs:
            return
        if name in self.module.summary.mutable_globals:
            self.global_writes.append({
                "line": getattr(node, "lineno", 1),
                "col": getattr(node, "col_offset", 0),
                "name": f"{self.module.qualname}.{name}", "how": how})

    def _detect_fs_write(self, func: ast.expr, node: ast.Call) -> None:
        if isinstance(func, ast.Name):
            if func.id == "open" and func.id not in self.env \
                    and func.id not in self.local_defs \
                    and func.id not in self.module.summary.aliases:
                mode = self._open_mode(node)
                if mode is not None and any(c in mode for c in "wax+"):
                    self._fs(node, f"open(..., {mode!r})")
            return
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "open":
            mode = self._open_mode(node)
            if mode is not None and any(c in mode for c in "wax+"):
                self._fs(node, f".open(..., {mode!r})")
            return
        if func.attr in _FS_WRITE_METHODS:
            self._fs(node, f".{func.attr}()")
            return
        dotted = dotted_name(func)
        if dotted is None:
            return
        head = dotted.split(".")[0]
        if head in self.env or head in self.local_defs:
            return
        resolved = self.module.summary.resolve_dotted(dotted)
        if resolved in _FS_WRITE_CALLS or resolved.split(".")[0] in (
                "shutil", "tempfile"):
            self._fs(node, f"{resolved}()")

    def _open_mode(self, node: ast.Call) -> str | None:
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(
                mode.value, str):
            return mode.value
        return None

    def _fs(self, node: ast.Call, what: str) -> None:
        self.fs_writes.append({"line": node.lineno,
                               "col": node.col_offset, "what": what})

    def _detect_boundary(self, func: ast.Attribute,
                         node: ast.Call) -> None:
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            hazard = self._boundary_hazard(arg)
            if hazard is not None:
                self.boundary.append({
                    "line": node.lineno, "col": node.col_offset,
                    "method": func.attr, "hazard": hazard})

    def _boundary_hazard(self, arg: ast.expr) -> str | None:
        if isinstance(arg, ast.Lambda):
            return "a lambda"
        if isinstance(arg, ast.Name):
            if arg.id in self.local_defs:
                return f"the locally defined function '{arg.id}'"
            if arg.id in self._lambda_names:
                return f"the lambda bound to '{arg.id}'"
            if arg.id in self.local_classes:
                return f"the locally defined class '{arg.id}'"
        if isinstance(arg, ast.Call) and isinstance(
                arg.func, ast.Name) and arg.func.id in self.local_classes:
            return f"an instance of the local class '{arg.func.id}'"
        return None

    def _detect_digest_hazard(self, func: ast.expr,
                              node: ast.Call) -> None:
        if isinstance(func, ast.Name):
            if func.id in ("hash", "id") and func.id not in self.env \
                    and func.id not in self.local_defs \
                    and func.id not in self.module.summary.aliases:
                what = ("builtin hash() (salted per-process via "
                        "PYTHONHASHSEED)" if func.id == "hash" else
                        "builtin id() (memory-layout dependent)")
                self.digest_hazards.append({
                    "line": node.lineno, "col": node.col_offset,
                    "what": what})
            return
        dotted = dotted_name(func)
        if dotted is None:
            return
        if self.module.summary.resolve_dotted(dotted) == "json.dumps":
            sort_ok = any(
                keyword.arg == "sort_keys"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords)
            if not sort_ok:
                self.digest_hazards.append({
                    "line": node.lineno, "col": node.col_offset,
                    "what": "json.dumps(...) without sort_keys=True"})

    # -- bookkeeping ---------------------------------------------------
    def _record(self, rule: str, node: ast.AST, payload: dict) -> None:
        check = {"rule": rule,
                 "line": getattr(node, "lineno", 1),
                 "col": getattr(node, "col_offset", 0)}
        check.update(payload)
        self.checks.append(check)


class _StreamHome:
    """Where detsan attributes stream facts: the module body, or a def
    not written inside another def, each with the class bodies, defs and
    lambdas written in it (a closure's uses are its maker's)."""

    def __init__(self, func: str, klass: str | None):
        self.func = func
        #: A method's class: its fields and claims are read class-wide.
        self.klass = klass
        #: The draws written here, each also in its function's summary.
        self.draws: list[dict] = []
        #: The registry-stream acquisitions made here.
        self.streams: list[dict] = []
        #: Claims of a named generator: ``(claim, name, call)``.
        self.claims: list[tuple[dict, str, ast.Call]] = []
        #: How often each name and ``self.X`` field is loaded.
        self.loads: dict[str, int] = {}
        #: Names and attributes passed to a call: ``(name, call,
        #: candidates)``.
        self.handed: list[tuple[str, ast.Call, list[str]]] = []
        #: ``self.X = name`` assignments: ``(name, "self.X")``.
        self.aliases: list[tuple[str, str]] = []

    def load(self, name: str) -> None:
        self.loads[name] = self.loads.get(name, 0) + 1


def _method(call: ast.Call) -> str | None:
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def _apply_uses(record: dict, region: list[_StreamHome]) -> None:
    """Count the loads of a stream's holder in ``region`` and note which
    draw it, claim it for a buffer, or hand it to another callee."""
    holder = record["holder"]
    record["uses"] = sum(home.loads.get(holder, 0) for home in region)
    for home in region:
        if any(draw["recv"] == holder for draw in home.draws):
            record["drawn"] = True
        for name, call, candidates in home.handed:
            if name != holder:
                continue
            last = candidates[0].rpartition(".")[2] if candidates else None
            if last in _BUFFER_CLASSES:
                # Claimed by a buffered sampler: consumed, but the
                # buffer is machinery, not a second owner.
                record["buffered"] = record["drawn"] = True
            elif _method(call) in _BUFFER_DRAW_METHODS:
                # The sanctioned sampler.sample(rng) idiom.
                record["drawn"] = True
            else:
                record["handoffs"].extend(
                    candidates or [ast.unparse(call.func)])


def _escapes(name: str, claim: ast.Call, region: list[_StreamHome]
             ) -> Iterator[tuple[dict, str, str]]:
    """Uses of a claimed generator outside the buffered idiom.

    The claimed rng may only flow back into the claiming sampler
    (``.sample(rng)`` / ``.next``); a direct draw or a hand-off to any
    other callee desynchronizes the pre-drawn block from the scalar
    bit-stream, so it is an escape even on a conditional path.  A claim
    of a bare name follows its ``self.X = name`` aliases.
    """
    names = {name}
    if "." not in name:
        names.update(alias for home in region
                     for value, alias in home.aliases if value == name)
    for home in region:
        for draw in home.draws:
            if draw["recv"] in names:
                yield ({"line": draw["line"], "col": draw["col"]},
                       draw["recv"],
                       f"drawn directly via .{draw['method']}()")
        for used, call, candidates in home.handed:
            if used not in names or call is claim \
                    or _method(call) in _BUFFER_DRAW_METHODS:
                continue
            last = candidates[0].rpartition(".")[2] if candidates else None
            if last in _BUFFER_CLASSES:
                detail = f"also claimed by a second {last}"
            else:
                callee = (candidates[0] if candidates
                          else ast.unparse(call.func))
                detail = f"passed to {callee}()"
            yield _at(call), used, detail


def _at(node: ast.AST) -> dict:
    """A record's anchor: the node's line and column."""
    return {"line": node.lineno, "col": node.col_offset}


def _arg_names(args: ast.arguments) -> list[str]:
    """Every name a parameter list binds."""
    return [arg.arg for arg in (*args.posonlyargs, *args.args, args.vararg,
                                *args.kwonlyargs, args.kwarg)
            if arg is not None]


def _bound_unit(name: str) -> dict:
    """The unit of a freshly bound parameter or loop variable."""
    return u_const(unit_of_name(name) or "unknown")


def _time_unit(expr: dict) -> str | None:
    """The concrete time unit of a unit expression, if it has one."""
    return expr["u"] if expr["k"] == "c" and expr["u"] in UNITS else None


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        return _is_float_literal(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def u_const_for_qualname(qualname: str) -> dict | None:
    unit = CONSTANT_UNIT_SEEDS.get(qualname)
    return u_const(unit) if unit else None


def _target_name(target: ast.expr) -> str | None:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return dotted_name(target)
    return None


def dotted_name(node: ast.expr) -> str | None:
    """Render an attribute chain like ``np.random.seed`` as a string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES)


def _unordered_reason(node: ast.expr) -> str | None:
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return "a .keys() view"
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        left = _unordered_reason(node.left)
        right = _unordered_reason(node.right)
        if left or right:
            return left or right
    return None


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_project(paths: Iterable[str | Path], *,
                 exclude: Callable[[str], bool] | None = None) -> Project:
    """Parse/extract every module under ``paths`` into a project model."""
    modules: list[ModuleSummary] = []
    files_checked = 0
    for path in iter_python_files(paths):
        path_str = path.as_posix()
        if exclude is not None and exclude(path_str):
            continue
        files_checked += 1
        qualname = module_qualname(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            modules.append(ModuleSummary(
                path=path_str, qualname=qualname,
                parse_error={"line": 1, "col": 0, "message": str(exc)}))
            continue
        try:
            source = raw.decode("utf-8")
            tree = ast.parse(source, filename=path_str)
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            col = (getattr(exc, "offset", 1) or 1) - 1
            message = (exc.msg if isinstance(exc, SyntaxError) and exc.msg
                       else str(exc))
            modules.append(ModuleSummary(
                path=path_str, qualname=qualname,
                parse_error={"line": line, "col": max(col, 0),
                             "message": message}))
            continue
        modules.append(
            _ModuleExtractor(path_str, qualname, source, tree).run())
    return Project(modules=modules, files_checked=files_checked)
