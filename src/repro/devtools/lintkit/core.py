"""File-scope rule framework: severities, findings, the rule registry.

A :class:`Rule` inspects one module and yields :class:`Violation`
objects.  Rules register themselves with :func:`register`; the project
loader runs every registered rule through :func:`run_file_rules` once
it has summarised the module, so a rule reads only the summary: its
import table and the extraction's records (see
:mod:`repro.devtools.analyze.loader`).  Suppression by ``# check:``
pragmas is applied afterwards by the shared pipeline, the same way for
every rule family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.devtools.analyze.loader import ModuleSummary

__all__ = [
    "Severity",
    "SYNTAX_ERROR_RULE_ID",
    "Violation",
    "Rule",
    "register",
    "registered_rules",
    "run_file_rules",
]


class Severity(str, enum.Enum):
    """Violation severities, ordered ``NOTE < WARNING < ERROR``.

    A ``str`` subclass so existing code (and configuration files) can
    keep comparing against the plain strings ``"error"``/``"warning"``;
    ordering comparisons rank by severity, not lexicographically, so
    every rule family shares one "is this at least a warning?"
    predicate.  ``ERROR`` fails the build, the others do not.
    """

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    # A str-mixin enum would otherwise render as "Severity.ERROR" on
    # some interpreter versions; reports need the bare value.
    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def rank(self) -> int:
        return _SEVERITY_RANKS[self.value]

    def _coerced_rank(self, other: object) -> int | None:
        if isinstance(other, Severity):
            return other.rank
        if isinstance(other, str) and other in _SEVERITY_RANKS:
            return _SEVERITY_RANKS[other]
        return None

    def __lt__(self, other: object) -> bool:
        rank = self._coerced_rank(other)
        if rank is None:
            return NotImplemented
        return self.rank < rank

    def __le__(self, other: object) -> bool:
        rank = self._coerced_rank(other)
        if rank is None:
            return NotImplemented
        return self.rank <= rank

    def __gt__(self, other: object) -> bool:
        rank = self._coerced_rank(other)
        if rank is None:
            return NotImplemented
        return self.rank > rank

    def __ge__(self, other: object) -> bool:
        rank = self._coerced_rank(other)
        if rank is None:
            return NotImplemented
        return self.rank >= rank


_SEVERITY_RANKS = {"note": 0, "warning": 1, "error": 2}

#: Pseudo-rule id under which unparseable files are reported.
SYNTAX_ERROR_RULE_ID = "syntax-error"


@dataclass(frozen=True)
class Violation:
    """One finding, anchored to a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity}[{self.rule_id}] {self.message}")


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`severity` and
    :attr:`description`, and implement :meth:`check`.
    """

    rule_id: str = ""
    severity: str = Severity.ERROR
    description: str = ""

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, summary: ModuleSummary, record: dict,
                  message: str) -> Violation:
        """A finding at a loader record's line and column."""
        return Violation(
            path=summary.path,
            line=record["line"],
            col=record["col"],
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} lacks a rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id!r}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def registered_rules() -> dict[str, type[Rule]]:
    """All registered rules, keyed by id (import side-effect of rules.py)."""
    from repro.devtools.lintkit import rules as _rules  # noqa: F401
    return dict(_REGISTRY)


def run_file_rules(summary: ModuleSummary) -> list[Violation]:
    """Every registered file-scope rule over one module, unfiltered.

    The project loader calls this with the module's summary and keeps
    the findings with it; pragmas apply later, once, to every rule
    family.
    """
    return [violation
            for _, rule_cls in sorted(registered_rules().items())
            for violation in rule_cls().check(summary)]
