"""SARIF 2.1.0 output for ``urllc5g check``.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format code scanners upload to review UIs; emitting
it lets every rule family feed GitHub code scanning and any SARIF
viewer through one driver.  The writer is a pure function from
violations + rule metadata to the document, so tests can assert on the
exact shape.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from repro.devtools.lintkit.core import Violation

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "TOOL_VERSION",
           "render_sarif"]

SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

#: The driver version; tracks the project version in pyproject.toml.
TOOL_VERSION = "1.0.0"


def render_sarif(violations: Sequence[Violation], *, tool_name: str,
                 rules: Mapping[str, tuple[str, str]],
                 information_uri: str) -> str:
    """A SARIF 2.1.0 document, serialised with stable key order.

    ``rules`` maps every rule id to its (description, severity); the
    severity vocabulary (note/warning/error) is SARIF's ``level``.
    Rule objects are sorted by id and every result references its rule
    by index, as the spec recommends.
    """
    rule_ids = sorted(rules)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    rule_objects = [
        {
            "id": rule_id,
            "shortDescription": {"text": rules[rule_id][0]},
            "defaultConfiguration": {"level": str(rules[rule_id][1])},
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": violation.rule_id,
            "ruleIndex": rule_index[violation.rule_id],
            "level": str(violation.severity),
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(violation.line, 1),
                            # SARIF columns are 1-based, findings 0-based.
                            "startColumn": violation.col + 1,
                        },
                    },
                }
            ],
        }
        for violation in violations
    ]
    driver = {
        "name": tool_name,
        "version": TOOL_VERSION,
        "informationUri": information_uri,
        "rules": rule_objects,
    }
    return json.dumps({
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }, indent=2, sort_keys=True)
