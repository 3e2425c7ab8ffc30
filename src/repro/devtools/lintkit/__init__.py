"""File-scope rules for ``urllc5g check``: one parsed module at a time.

The framework (:mod:`.core`) defines :class:`Rule`, :class:`Violation`
and the rule registry; the seven domain rules live in :mod:`.rules`,
and importing this package registers them all.  The rules run on the
AST the project loader already parsed (see docs/ANALYSIS.md).
"""

from repro.devtools.lintkit.core import (
    SYNTAX_ERROR_RULE_ID,
    ModuleUnderLint,
    Rule,
    Severity,
    Violation,
    register,
    registered_rules,
    run_file_rules,
)
from repro.devtools.lintkit import rules  # noqa: F401  (registers rules)

__all__ = [
    "ModuleUnderLint",
    "Rule",
    "SYNTAX_ERROR_RULE_ID",
    "Severity",
    "Violation",
    "register",
    "registered_rules",
    "rules",
    "run_file_rules",
]
