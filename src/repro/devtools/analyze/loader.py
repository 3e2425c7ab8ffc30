"""Project loader: parse once, summarise every module.

The loader walks the analysis roots with the shared
:func:`repro.devtools.walker.iter_python_files`, parses each module
once (or restores it from the incremental cache without parsing — see
:data:`PARSE_HOOKS`), and extracts a :class:`ModuleSummary`: the symbol
table (functions, methods, classes, module constants), the call edges
resolvable from imports/``self``, per-function purity effects, the
*symbolic* unit facts the global passes resolve later, and the raw
findings of the file-scope rules, which run on the same AST.

Symbolic unit expressions are plain JSON-able dicts so summaries can be
cached to disk and whole-program resolution never needs the AST again:

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
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.devtools.lintkit.core import run_file_rules
from repro.devtools.walker import iter_python_files

__all__ = [
    "PARSE_HOOKS",
    "UNITS",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "Project",
    "load_project",
    "module_qualname",
    "unit_of_name",
    "conversion_units",
]

#: Hooks called with the file path on every real ``ast.parse``.  Tests
#: register a counter here to assert the incremental cache performs
#: zero re-parses on an unchanged tree.
PARSE_HOOKS: list[Callable[[str], None]] = []

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
_GLOBAL_NP_RANDOM = frozenset({
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
#: back to the buffered sampler (plus the ``owns`` identity probe).
_BUFFER_DRAW_METHODS = frozenset({"sample", "sample_batch", "next", "owns"})
_DETSAN_SHARED_RE = re.compile(r"#\s*detsan:\s*shared\b")
_PASSTHROUGH_CALLS = frozenset({"float", "int", "round", "abs"})
_JOIN_CALLS = frozenset({"min", "max"})
_BUILTIN_NAMES = frozenset(dir(__import__("builtins")))

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
    global_rng: list[dict] = field(default_factory=list)
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


@dataclass
class ModuleSummary:
    path: str
    qualname: str
    content_hash: str = ""
    aliases: dict[str, str] = field(default_factory=dict)
    constants: dict[str, dict] = field(default_factory=dict)
    module_checks: list[dict] = field(default_factory=list)
    functions: list[FunctionSummary] = field(default_factory=list)
    classes: list[ClassSummary] = field(default_factory=list)
    line_pragmas: dict[int, list[str]] = field(default_factory=dict)
    file_pragmas: list[str] = field(default_factory=list)
    parse_error: dict | None = None
    #: RngRegistry stream acquisitions (see :class:`_StreamWalker`).
    streams: list[dict] = field(default_factory=list)
    #: BufferedSampler/UniformBuffer constructions and their rng args.
    rng_buffers: list[dict] = field(default_factory=list)
    #: Uses of a buffer-claimed generator outside the buffered idiom.
    rng_escapes: list[dict] = field(default_factory=list)
    #: Module-level ``NAME = "literal"`` bindings (env-var name lookup).
    str_constants: dict[str, str] = field(default_factory=dict)
    #: Module-level bindings to mutable containers (dict/list/set/...).
    mutable_globals: list[str] = field(default_factory=list)
    #: Raw file-scope rule findings (see :func:`run_file_rules`).
    file_findings: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        # JSON turns the int line_pragmas keys into strings;
        # from_json turns them back.
        from dataclasses import asdict
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "ModuleSummary":
        fields = dict(payload)
        fields["functions"] = [FunctionSummary(**f)
                               for f in payload["functions"]]
        fields["classes"] = [ClassSummary(**c) for c in payload["classes"]]
        fields["line_pragmas"] = {int(line): rules for line, rules
                                  in payload["line_pragmas"].items()}
        return cls(**fields)


@dataclass
class Project:
    """All module summaries plus the cross-module symbol indexes."""

    modules: list[ModuleSummary]
    files_checked: int = 0
    parsed: int = 0
    from_cache: int = 0

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
        resolved = self._resolve(qualname)
        if resolved is None:
            return None
        summary = self.functions.get(resolved)
        if summary is not None:
            return summary
        # A class used as a callable resolves to its __init__.
        klass = self.classes.get(resolved)
        if klass is not None:
            return self.functions.get(f"{resolved}.__init__")
        return None

    def resolve_callable(self, qualname: str
                         ) -> FunctionSummary | ClassSummary | None:
        resolved = self._resolve(qualname)
        if resolved is None:
            return None
        return (self.functions.get(resolved)
                or self.classes.get(resolved))

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

    def run(self) -> ModuleSummary:
        self._collect_pragmas()
        self._collect_imports()
        module_fn = _FunctionExtractor(
            self, qualname=f"{self.qualname}.<module>", name="<module>",
            params=[], lineno=1, declared_unit=None, class_name=None,
            module_level=True)
        module_fn.exec_block(
            [stmt for stmt in self.tree.body
             if not isinstance(stmt, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef))])
        self.summary.module_checks = module_fn.checks
        for name, expr in module_fn.env.items():
            self.summary.constants[name] = expr
        self._collect_module_bindings()
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(stmt, parent=self.qualname,
                                       class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt)
        _StreamWalker(self).run()
        self.summary.file_findings = [
            {"line": v.line, "col": v.col, "rule": v.rule_id,
             "severity": str(v.severity), "message": v.message}
            for v in run_file_rules(self.path, self.tree)]
        return self.summary

    # -- comments ------------------------------------------------------
    def _collect_pragmas(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
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
        """Index module-level string constants and mutable containers.

        Both feed the distributability pass: string constants resolve
        indirect env-var names (``os.environ.get(ENV_FLAG)``), mutable
        bindings anchor the dist-mutable-global rule.  Only top-level
        statements count — anything created inside a function is local.
        """
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
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
            elif isinstance(node, ast.ImportFrom):
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

    def resolve_dotted(self, dotted: str) -> str:
        """Rewrite a local dotted name through the import table."""
        head, _, tail = dotted.partition(".")
        target = self.summary.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{tail}" if tail else target

    # -- definitions ---------------------------------------------------
    def _extract_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                          parent: str, class_name: str | None) -> None:
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
            is_converter=conversion is not None)
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
            dotted = _dotted(target)
            if dotted is None:
                continue
            head = dotted.split(".")[0]
            if head in self.summary.aliases:
                name = self.resolve_dotted(dotted)
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

    def _extract_class(self, node: ast.ClassDef) -> None:
        qualname = f"{self.qualname}.{node.name}"
        klass = ClassSummary(qualname=qualname, name=node.name,
                             path=self.path, line=node.lineno)
        init_params: list[str] | None = None
        class_fn = _FunctionExtractor(
            self, qualname=f"{qualname}.<class>", name="<class>",
            params=[], lineno=node.lineno, declared_unit=None,
            class_name=node.name, module_level=False)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                klass.methods.append(stmt.name)
                self._extract_function(stmt, parent=qualname,
                                       class_name=node.name)
                if stmt.name == "__init__":
                    args = stmt.args
                    init_params = [
                        a.arg for a in (list(args.posonlyargs)
                                        + list(args.args))][1:]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                klass.fields.append(stmt.target.id)
                class_fn.exec_stmt(stmt)
            elif isinstance(stmt, ast.Assign):
                class_fn.exec_stmt(stmt)
        # Dataclass-style classes take their fields as __init__ params.
        klass.fields = init_params if init_params is not None \
            else klass.fields
        self.summary.module_checks.extend(class_fn.checks)
        self.summary.classes.append(klass)


class _FunctionExtractor:
    """Flow-sensitive abstract interpretation of one function body."""

    def __init__(self, module: _ModuleExtractor, *, qualname: str,
                 name: str, params: list[str], lineno: int,
                 declared_unit: str | None, class_name: str | None,
                 module_level: bool, is_converter: bool = False):
        self.module = module
        self.qualname = qualname
        self.name = name
        self.params = params
        self.declared_unit = declared_unit
        # A <target>_from_<source> converter changes units by contract;
        # its body would otherwise always fail its own return check.
        self.is_converter = is_converter
        self.class_name = class_name
        self.module_level = module_level
        self.env: dict[str, dict] = {
            param: u_const(unit_of_name(param) or "unknown")
            for param in params
        }
        self.local_defs: dict[str, str] = {}
        self.checks: list[dict] = []
        self.calls: list[str] = []
        self.call_edges: list[dict] = []
        self.return_exprs: list[dict] = []
        self.wall_clock: list[dict] = []
        self.global_rng: list[dict] = []
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
        self._loop_stack: list[dict] = []
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
            global_rng=self.global_rng,
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
            self.local_defs[stmt.name] = f"{self.qualname}.{stmt.name}"
            self.module._extract_function(stmt, parent=self.qualname,
                                          class_name=self.class_name)
        elif isinstance(stmt, ast.ClassDef):
            self.local_classes.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, stmt)
                if isinstance(target, ast.Subscript):
                    self._module_mutation(target.value, stmt,
                                          "item assignment")
            if isinstance(stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._lambda_names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign):
            value = (self.eval_expr(stmt.value)
                     if stmt.value is not None else None)
            if value is not None:
                self._assign(stmt.target, value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval_expr(stmt.value)
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
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            blocks = [stmt.body]
            for handler in stmt.handlers:
                blocks.append(handler.body)
            self._branches(stmt, blocks)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
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
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)) \
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

    def _exec_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        self.eval_expr(stmt.iter)
        if isinstance(stmt.target, ast.Name):
            unit = unit_of_name(stmt.target.id)
            self.env[stmt.target.id] = u_const(unit or "unknown")
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
            if node.id == "__file__" and "__file__" not in self.env:
                self.host_state.append({
                    "line": node.lineno, "col": node.col_offset,
                    "kind": "file", "what": "__file__",
                    "var": None, "ref": None, "expr": "__file__"})
            return self._name_unit(node.id)
        if isinstance(node, ast.Attribute):
            self.eval_expr(node.value)
            dotted = _dotted(node)
            if dotted is not None:
                resolved = self.module.resolve_dotted(dotted)
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
            for generator in node.generators:
                self.eval_expr(generator.iter)
                for condition in generator.ifs:
                    self.eval_expr(condition)
            if isinstance(node, ast.DictComp):
                self.eval_expr(node.key)
                self.eval_expr(node.value)
            else:
                self.eval_expr(node.elt)
            return U_UNKNOWN
        if isinstance(node, ast.Lambda):
            return U_UNKNOWN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(child)
        return U_UNKNOWN

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
            if func.attr in _GENERATOR_DRAW_METHODS:
                self.draws.append({
                    "line": node.lineno, "col": node.col_offset,
                    "recv": _dotted(func.value), "method": func.attr})
                for loop in self._loop_stack:
                    loop["draws"] = True
            if func.attr in _MUTATING_METHODS:
                self._module_mutation(func.value, node,
                                      f".{func.attr}() call")
            if func.attr in _POOL_SUBMIT_METHODS:
                self._detect_boundary(func, node)
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
        dotted = _dotted(func)
        if dotted is None:
            return []
        head = dotted.split(".")[0]
        if head in ("self", "cls") and self.class_name is not None:
            tail = dotted.split(".", 1)[1]
            if "." not in tail:
                return [f"{self.module.qualname}.{self.class_name}.{tail}"]
            return []
        if head in self.module.summary.aliases:
            return [self.module.resolve_dotted(dotted)]
        return []

    # -- purity --------------------------------------------------------
    def _detect_schedule(self, func: ast.Attribute,
                         node: ast.Call) -> None:
        if func.attr in _SCHEDULE_METHODS:
            self.schedules = True
            for loop in self._loop_stack:
                loop["direct"] = True

    def _detect_impurity(self, func: ast.expr, node: ast.Call) -> None:
        dotted = _dotted(func)
        if dotted is None:
            return
        resolved = self.module.resolve_dotted(dotted)
        parts = resolved.split(".")
        if parts[0] == "time" and len(parts) == 2 \
                and parts[1] in _WALL_CLOCK_TIME_FUNCS:
            self._effect(self.wall_clock, node, resolved)
        elif resolved in {f"time.{f}" for f in _WALL_CLOCK_TIME_FUNCS}:
            self._effect(self.wall_clock, node, resolved)
        elif parts[0] == "datetime" and parts[-1] in \
                _WALL_CLOCK_DATETIME_FUNCS:
            self._effect(self.wall_clock, node, resolved)
        elif parts[0] == "random" and len(parts) == 2:
            self._effect(self.global_rng, node, resolved)
        elif len(parts) >= 2 and parts[-2] == "random" \
                and parts[0] in ("numpy",) and (
                    parts[-1] in _GLOBAL_NP_RANDOM):
            self._effect(self.global_rng, node, resolved)

    def _effect(self, sink: list[dict], node: ast.Call,
                what: str) -> None:
        sink.append({"line": node.lineno, "col": node.col_offset,
                     "what": what})

    # -- distributability ----------------------------------------------
    def _detect_host_state(self, func: ast.expr,
                           node: ast.Call) -> None:
        dotted = _dotted(func)
        if dotted is None:
            return
        head = dotted.split(".")[0]
        if head in self.env or head in self.local_defs:
            return
        resolved = self.module.resolve_dotted(dotted)
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
        dotted = _dotted(node.value)
        if dotted is None:
            return
        if self.module.resolve_dotted(dotted) != "os.environ":
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
            dotted = _dotted(node)
            if dotted is not None \
                    and dotted.split(".")[0] in self.module.summary.aliases:
                return None, self.module.resolve_dotted(dotted), expr
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
        dotted = _dotted(func)
        if dotted is None:
            return
        head = dotted.split(".")[0]
        if head in self.env or head in self.local_defs:
            return
        resolved = self.module.resolve_dotted(dotted)
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
        dotted = _dotted(func)
        if dotted is None:
            return
        if self.module.resolve_dotted(dotted) == "json.dumps":
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


class _StreamWalker:
    """Collect RNG stream acquisitions, buffer claims, and escapes.

    A separate, parent-aware pass (rather than more state inside the
    flow-sensitive :class:`_FunctionExtractor`) because classifying an
    acquisition depends on its *syntactic context* — the assignment
    target, the enclosing call, the chained attribute — which the
    bottom-up expression evaluator never sees.  Records land on the
    module summary for the project-level ``detsan`` pass.
    """

    def __init__(self, module: _ModuleExtractor):
        self.module = module
        self.shared_lines = {
            lineno for lineno, line in enumerate(module.lines, start=1)
            if _DETSAN_SHARED_RE.search(line)}

    def run(self) -> None:
        top = [stmt for stmt in self.module.tree.body
               if not isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef,
                                        ast.ClassDef))]
        if top:
            self._scan(top, f"{self.module.qualname}.<module>", None, top)
        self._walk_body(self.module.tree.body, self.module.qualname,
                        None, None)

    def _walk_body(self, stmts: list[ast.stmt], scope: str,
                   class_qualname: str | None,
                   class_node: ast.ClassDef | None) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs are scanned as part of the enclosing
                # function's subtree (attributed to the outer scope).
                region = [class_node] if class_node is not None \
                    else stmt.body
                self._scan(stmt.body, f"{scope}.{stmt.name}",
                           class_qualname, region)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{scope}.{stmt.name}"
                self._walk_body(stmt.body, qualname, qualname, stmt)

    # -- one function (or the module body) ------------------------------
    def _scan(self, stmts: list[ast.stmt], func: str,
              class_qualname: str | None,
              region: list[ast.AST] | ast.ClassDef | None) -> None:
        from repro.devtools.detsan.resolver import (is_resolved,
                                                    is_stream_acquisition,
                                                    resolve_stream_name)
        parents: dict[ast.AST, ast.AST] = {}
        nodes: list[ast.AST] = []
        for stmt in stmts:
            for parent in ast.walk(stmt):
                nodes.append(parent)
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
        by_node: dict[int, dict] = {}
        for node in nodes:
            if not (isinstance(node, ast.Call)
                    and is_stream_acquisition(node)):
                continue
            scope = self._receiver_scope(node.func.value, func,
                                         class_qualname, node.lineno)
            if scope is None:
                continue
            template = resolve_stream_name(node.args[0])
            record = {
                "line": node.lineno, "col": node.col_offset,
                "template": template, "resolved": is_resolved(template),
                "arg": ast.unparse(node.args[0]),
                "scope": scope, "func": func,
                "owner_kind": "other", "owner": [func],
                "attr": None, "local": None,
                "drawn": False, "uses": 1, "handoffs": [],
                "buffered": False,
                "shared": node.lineno in self.shared_lines,
            }
            self._classify(node, record, parents, func, class_qualname)
            by_node[id(node)] = record
            self.module.summary.streams.append(record)
        for record in by_node.values():
            if record["owner_kind"] == "local":
                self._refine_local(record, nodes, parents, func,
                                   class_qualname)
            elif record["owner_kind"] == "attribute":
                self._refine_attribute(record, func, class_qualname)
        self._scan_buffers(nodes, parents, func, class_qualname,
                           region, by_node)

    def _receiver_scope(self, recv: ast.expr, func: str,
                        class_qualname: str | None,
                        line: int) -> str | None:
        """Registry-scope key for an acquisition, or None if the
        receiver does not look like an RngRegistry.

        Scoping keeps independent registries (one per run/system) from
        being conflated: ``self.rngs`` streams key by the owning class,
        plain locals by the enclosing function, and a fresh
        ``RngRegistry(...)``/``fork(...)`` receiver by its call site.
        """
        dotted = _dotted(recv)
        if dotted is not None:
            last = dotted.rpartition(".")[2].lower()
            if "rng" not in last and last != "registry":
                return None
            if dotted.startswith("self.") and class_qualname:
                return class_qualname
            return func
        if isinstance(recv, ast.Call):
            if isinstance(recv.func, ast.Attribute) \
                    and recv.func.attr == "fork":
                return f"{func}:{line}"
            callee = _dotted(recv.func)
            if callee is not None:
                resolved = self.module.resolve_dotted(callee)
                if resolved.rpartition(".")[2] == "RngRegistry":
                    return f"{func}:{line}"
        return None

    def _classify(self, node: ast.Call, record: dict,
                  parents: dict[ast.AST, ast.AST], func: str,
                  class_qualname: str | None) -> None:
        parent = parents.get(node)
        if isinstance(parent, ast.keyword):
            parent = parents.get(parent)
        if isinstance(parent, ast.Call) and node is not parent.func:
            record["owner_kind"] = "argument"
            record["owner"] = (self._callee_candidates(
                parent, class_qualname) or [func])
            return
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (parent.targets
                       if isinstance(parent, ast.Assign)
                       else [parent.target])
            if len(targets) == 1:
                target = targets[0]
                if isinstance(target, ast.Attribute) and isinstance(
                        target.value, ast.Name) \
                        and target.value.id == "self" and class_qualname:
                    record["owner_kind"] = "attribute"
                    record["owner"] = [class_qualname]
                    record["attr"] = target.attr
                    return
                if isinstance(target, ast.Name):
                    record["owner_kind"] = "local"
                    record["local"] = target.id
                    return
            record["owner_kind"] = "other"
            return
        if isinstance(parent, ast.Attribute) and parent.value is node:
            grand = parents.get(parent)
            record["owner_kind"] = "inline"
            if parent.attr in _GENERATOR_DRAW_METHODS and isinstance(
                    grand, ast.Call) and grand.func is parent:
                record["drawn"] = True
            return
        if isinstance(parent, ast.Expr):
            record["owner_kind"] = "discarded"
            record["uses"] = 0
            return

    def _callee_candidates(self, call: ast.Call,
                           class_qualname: str | None) -> list[str]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            aliases = self.module.summary.aliases
            if name in aliases:
                return [aliases[name]]
            if name in _BUILTIN_NAMES:
                return []
            return [f"{self.module.qualname}.{name}"]
        dotted = _dotted(func)
        if dotted is None:
            return []
        head, _, tail = dotted.partition(".")
        if head in ("self", "cls") and class_qualname and "." not in tail:
            return [f"{class_qualname}.{tail}"]
        if head in self.module.summary.aliases:
            return [self.module.resolve_dotted(dotted)]
        return []

    # -- use analysis ---------------------------------------------------
    def _refine_local(self, record: dict, nodes: list[ast.AST],
                      parents: dict[ast.AST, ast.AST], func: str,
                      class_qualname: str | None) -> None:
        name = record["local"]
        uses = [node for node in nodes
                if isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)]
        self._apply_uses(record, uses, parents, class_qualname)
        handoffs = sorted(set(record["handoffs"]))
        if record["uses"] == 0:
            record["owner"] = [func]
        elif handoffs and not record["drawn"]:
            record["owner_kind"] = "local-arg"
            record["owner"] = handoffs
        elif handoffs:
            # Drawn locally *and* handed off: multiple consumers from
            # one acquisition; the sharing rule sees both owners.
            record["owner"] = [func] + handoffs
        else:
            record["owner"] = [func]

    def _refine_attribute(self, record: dict, func: str,
                          class_qualname: str | None) -> None:
        """Class-wide uses of a ``self.<attr> = rngs.stream(...)`` field."""
        class_node = self._class_node(class_qualname)
        if class_node is None:
            return
        parents: dict[ast.AST, ast.AST] = {}
        nodes: list[ast.AST] = []
        for parent in ast.walk(class_node):
            nodes.append(parent)
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        attr = record["attr"]
        uses = [node for node in nodes
                if isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and isinstance(node.ctx, ast.Load)]
        self._apply_uses(record, uses, parents, class_qualname)
        record["owner"] = [class_qualname]

    def _apply_uses(self, record: dict, uses: list[ast.AST],
                    parents: dict[ast.AST, ast.AST],
                    class_qualname: str | None) -> None:
        record["uses"] = len(uses)
        for use in uses:
            parent = parents.get(use)
            if isinstance(parent, ast.Attribute) and parent.value is use:
                grand = parents.get(parent)
                if parent.attr in _GENERATOR_DRAW_METHODS and isinstance(
                        grand, ast.Call) and grand.func is parent:
                    record["drawn"] = True
                continue
            if isinstance(parent, ast.keyword):
                parent = parents.get(parent)
            if isinstance(parent, ast.Call) and use is not parent.func:
                candidates = self._callee_candidates(parent,
                                                     class_qualname)
                last = candidates[0].rpartition(".")[2] if candidates \
                    else None
                callee_attr = (parent.func.attr
                               if isinstance(parent.func, ast.Attribute)
                               else None)
                if last in _BUFFER_CLASSES:
                    # Claimed by a buffered sampler: consumed, but the
                    # buffer is machinery, not a second owner.
                    record["buffered"] = True
                    record["drawn"] = True
                elif callee_attr in _BUFFER_DRAW_METHODS:
                    # The sanctioned sampler.sample(rng) idiom.
                    record["drawn"] = True
                else:
                    record["handoffs"].extend(
                        candidates or [ast.unparse(parent.func)])

    def _class_node(self, class_qualname: str | None
                    ) -> ast.ClassDef | None:
        if class_qualname is None:
            return None
        name = class_qualname.rpartition(".")[2]
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                return node
        return None

    # -- buffer claims and escapes --------------------------------------
    def _scan_buffers(self, nodes: list[ast.AST],
                      parents: dict[ast.AST, ast.AST], func: str,
                      class_qualname: str | None,
                      region: list[ast.AST] | ast.ClassDef | None,
                      by_node: dict[int, dict]) -> None:
        from repro.devtools.detsan.resolver import is_stream_acquisition
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            candidates = self._callee_candidates(node, class_qualname)
            buffer = candidates[0].rpartition(".")[2] if candidates \
                else None
            if buffer not in _BUFFER_CLASSES:
                continue
            kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            if buffer == "BufferedSampler":
                rng_node = (node.args[1] if len(node.args) > 1
                            else kwargs.get("rng"))
            else:
                rng_node = (node.args[0] if node.args
                            else kwargs.get("rng"))
            if rng_node is None:
                continue
            if isinstance(rng_node, ast.Call) \
                    and is_stream_acquisition(rng_node):
                acq = by_node.get(id(rng_node))
                if acq is not None:
                    acq["buffered"] = True
                    acq["drawn"] = True
                descr = "stream:" + (acq["template"] if acq
                                     and acq["template"] else
                                     ast.unparse(rng_node))
                dotted = None
            else:
                dotted = _dotted(rng_node)
                descr = dotted or ast.unparse(rng_node)
            self.module.summary.rng_buffers.append({
                "line": node.lineno, "col": node.col_offset,
                "buffer": buffer, "rng": descr, "func": func,
            })
            if dotted is not None:
                self._scan_escapes(node, dotted, buffer, func,
                                   class_qualname, region)

    def _scan_escapes(self, claim: ast.Call, dotted: str, buffer: str,
                      func: str, class_qualname: str | None,
                      region: list[ast.AST] | ast.ClassDef | None
                      ) -> None:
        """Uses of a claimed generator outside the buffered idiom.

        The claimed rng may only flow back into the claiming sampler
        (``.sample(rng)`` / ``.sample_batch`` / ``.next`` / ``.owns``);
        a direct draw or a hand-off to any other callee desynchronizes
        the pre-drawn block from the scalar bit-stream, so it is
        recorded as an escape even when it sits on a conditional path.
        """
        if region is None:
            return
        roots: list[ast.AST] = (region if isinstance(region, list)
                                else [region])
        names = {dotted}
        if "." not in dotted:
            # The claim took a bare local/param; its `self.X = rng`
            # aliases share the stream.
            for root in roots:
                for node in ast.walk(root):
                    if isinstance(node, ast.Assign) \
                            and isinstance(node.value, ast.Name) \
                            and node.value.id == dotted:
                        for target in node.targets:
                            target_dotted = _dotted(target)
                            if target_dotted \
                                    and target_dotted.startswith("self."):
                                names.add(target_dotted)
        parents: dict[ast.AST, ast.AST] = {}
        nodes: list[ast.AST] = []
        for root in roots:
            for parent in ast.walk(root):
                nodes.append(parent)
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
        claim_args = set(map(id, claim.args)) | {
            id(kw.value) for kw in claim.keywords}
        for node in nodes:
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            node_dotted = _dotted(node)
            if node_dotted not in names or id(node) in claim_args:
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                grand = parents.get(parent)
                if parent.attr in _GENERATOR_DRAW_METHODS and isinstance(
                        grand, ast.Call) and grand.func is parent:
                    self._record_escape(grand, buffer, node_dotted, func,
                                        f"drawn directly via "
                                        f".{parent.attr}()")
                continue
            if isinstance(parent, ast.keyword):
                parent = parents.get(parent)
            if isinstance(parent, ast.Call) and node is not parent.func:
                callee_attr = (parent.func.attr
                               if isinstance(parent.func, ast.Attribute)
                               else None)
                if callee_attr in _BUFFER_DRAW_METHODS:
                    continue
                candidates = self._callee_candidates(parent,
                                                     class_qualname)
                last = candidates[0].rpartition(".")[2] if candidates \
                    else None
                if last in _BUFFER_CLASSES:
                    self._record_escape(
                        parent, buffer, node_dotted, func,
                        f"also claimed by a second {last}")
                    continue
                callee = (candidates[0] if candidates
                          else ast.unparse(parent.func))
                self._record_escape(parent, buffer, node_dotted, func,
                                    f"passed to {callee}()")

    def _record_escape(self, node: ast.AST, buffer: str, expr: str,
                       func: str, detail: str) -> None:
        self.module.summary.rng_escapes.append({
            "line": getattr(node, "lineno", 1),
            "col": getattr(node, "col_offset", 0),
            "buffer": buffer, "stream_expr": expr, "func": func,
            "detail": detail,
        })


def u_const_for_qualname(qualname: str) -> dict | None:
    unit = CONSTANT_UNIT_SEEDS.get(qualname)
    return u_const(unit) if unit else None


def _target_name(target: ast.expr) -> str | None:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return _dotted(target)
    return None


def _dotted(node: ast.expr) -> str | None:
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
def _parse_module(path: Path, source: str) -> ast.Module:
    for hook in PARSE_HOOKS:
        hook(path.as_posix())
    return ast.parse(source, filename=path.as_posix())


def load_project(paths: Iterable[str | Path], *,
                 exclude: Callable[[str], bool] | None = None,
                 cache=None) -> Project:
    """Parse/extract every module under ``paths`` into a project model.

    ``cache`` is an :class:`repro.devtools.analyze.cache.AnalysisCache`
    (or None); a cache hit restores the stored summary without calling
    ``ast.parse`` at all.
    """
    modules: list[ModuleSummary] = []
    files_checked = 0
    parsed = 0
    from_cache = 0
    for path in iter_python_files(paths):
        path_str = path.as_posix()
        if exclude is not None and exclude(path_str):
            continue
        files_checked += 1
        try:
            raw = path.read_bytes()
        except OSError as exc:
            summary = ModuleSummary(
                path=path_str, qualname=module_qualname(path),
                parse_error={"line": 1, "col": 0, "message": str(exc)})
            modules.append(summary)
            continue
        digest = hashlib.sha256(raw).hexdigest()
        if cache is not None:
            hit = cache.lookup(path_str, digest)
            if hit is not None:
                modules.append(hit)
                from_cache += 1
                continue
        qualname = module_qualname(path)
        try:
            source = raw.decode("utf-8")
            tree = _parse_module(path, source)
            parsed += 1
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            col = (getattr(exc, "offset", 1) or 1) - 1
            message = (exc.msg if isinstance(exc, SyntaxError) and exc.msg
                       else str(exc))
            summary = ModuleSummary(
                path=path_str, qualname=qualname, content_hash=digest,
                parse_error={"line": line, "col": max(col, 0),
                             "message": message})
            modules.append(summary)
            if cache is not None:
                cache.store(path_str, digest, summary)
            continue
        summary = _ModuleExtractor(path_str, qualname, source, tree).run()
        summary.content_hash = digest
        modules.append(summary)
        if cache is not None:
            cache.store(path_str, digest, summary)
    return Project(modules=modules, files_checked=files_checked,
                   parsed=parsed, from_cache=from_cache)
