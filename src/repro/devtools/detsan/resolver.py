"""Static resolution of RNG stream-name expressions.

``RngRegistry.stream(name)`` takes a plain string, an f-string template
(``f"ue{ue_id}"``), or — in code detsan rejects — something computed at
runtime.  This module canonicalizes those expressions into *templates*:
literal text is kept, every interpolated hole becomes the placeholder
:data:`DYNAMIC`, so ``f"fault.{kind.value}.{index}"`` resolves to
``"fault.{*}.{*}"``.  A template is *resolved* when it has a literal
prefix — enough to identify the stream family for ownership analysis
and for prefix policies like the ``fault-streams-named`` lint rule.

Kept dependency-free (``ast`` only) so both the lint layer and the
analyze/detsan project passes can share it without import cycles.
"""

from __future__ import annotations

import ast

__all__ = [
    "DYNAMIC",
    "resolve_stream_name",
    "is_resolved",
]

#: Placeholder substituted for every non-literal fragment of a name.
DYNAMIC = "{*}"


def resolve_stream_name(node: ast.expr) -> str | None:
    """Canonical template for a stream-name expression, or ``None``.

    Handles string constants, f-strings (holes become ``{*}``), and
    ``+`` concatenation of resolvable parts.  Returns ``None`` for
    expressions with no statically known fragment at all (bare names,
    function calls, ``%``/``.format`` formatting).
    """
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            elif isinstance(value, ast.FormattedValue):
                parts.append(DYNAMIC)
            else:  # pragma: no cover - no other node kinds today
                parts.append(DYNAMIC)
        template = "".join(parts)
        return template if template.replace(DYNAMIC, "") else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = resolve_stream_name(node.left)
        right = resolve_stream_name(node.right)
        if left is None and right is None:
            return None
        return (left or DYNAMIC) + (right or DYNAMIC)
    return None


def is_resolved(template: str | None) -> bool:
    """Whether a template identifies its stream family statically.

    Requires a literal (non-placeholder) prefix: ``"fault.{*}.{*}"``
    is resolved, ``"{*}.jitter"`` is not — without the leading literal
    the ownership map cannot tell which family the stream joins.
    """
    return (template is not None and template != ""
            and not template.startswith(DYNAMIC))
