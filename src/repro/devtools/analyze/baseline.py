"""Reviewed baseline of accepted analyzer findings.

New analyzers on old code always surface a mix of true positives (fix
them) and accepted debt (baseline it).  The baseline is a JSON file of
finding fingerprints — ``rule | src-relative path | message`` — checked
in and reviewed like code.  ``urllc5g check`` fails only on findings
*not* in the baseline, so CI gates on regressions while the backlog is
burned down deliberately.

Fingerprints deliberately exclude line numbers: inserting a line above
an accepted finding must not resurrect it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.lintkit.core import Violation

__all__ = ["Baseline", "fingerprint", "load_baseline", "write_baseline"]

BASELINE_SCHEMA_VERSION = 1


def _stable_path(path: str) -> str:
    """Path from its last ``src``/``tests`` segment, so fingerprints
    survive being computed from different working directories."""
    parts = Path(path).as_posix().split("/")
    for anchor in ("src", "tests"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return parts[-1]


def fingerprint(violation: Violation) -> str:
    raw = (f"{violation.rule_id}|{_stable_path(violation.path)}|"
           f"{violation.message}")
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


@dataclass
class Baseline:
    """The set of accepted finding fingerprints."""

    fingerprints: set[str] = field(default_factory=set)

    def filter(self, violations: Iterable[Violation]
               ) -> tuple[list[Violation], list[Violation]]:
        """Split into (new findings, findings the baseline accepts)."""
        kept: list[Violation] = []
        accepted: list[Violation] = []
        for violation in violations:
            if fingerprint(violation) in self.fingerprints:
                accepted.append(violation)
            else:
                kept.append(violation)
        return kept, accepted


def load_baseline(path: str | Path) -> Baseline:
    """Load a baseline file; a missing file is an empty baseline."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError:
        return Baseline()
    if not isinstance(payload, dict):
        raise ValueError(f"malformed baseline file: {path}")
    entries = payload.get("findings", [])
    return Baseline(fingerprints={
        entry["fingerprint"] for entry in entries
        if isinstance(entry, dict) and "fingerprint" in entry})


def write_baseline(path: str | Path,
                   violations: Sequence[Violation]) -> None:
    """Write all current findings as the new accepted baseline.

    Entries carry the human-readable finding next to its fingerprint so
    baseline diffs are reviewable; only the fingerprint is matched.
    """
    findings = sorted(
        ({"fingerprint": fingerprint(violation),
          "rule": violation.rule_id,
          "path": _stable_path(violation.path),
          "message": violation.message}
         for violation in violations),
        key=lambda entry: (entry["rule"], entry["path"],
                           entry["fingerprint"]))
    unique = [entry for i, entry in enumerate(findings)
              if not i or findings[i - 1]["fingerprint"]
              != entry["fingerprint"]]
    payload = {"schema_version": BASELINE_SCHEMA_VERSION,
               "findings": unique}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
