"""Consumption side of ``distcheck-manifest.json``: the dispatch gate.

``urllc5g check`` certifies every ``@scenario`` entry point, and
``check --manifest`` writes the verdicts to a deterministic manifest
(:func:`repro.devtools.check.render_manifest`).
This module is the *reader* the campaign dispatcher uses before
shipping a point to a remote worker: a scenario may leave the host
only when its manifest status is ``certified`` or
``baselined-findings``.  Everything else — ``failed``, ``refused``
(e.g. ``chaos-selftest``, which deliberately kills its own process),
or simply *absent from the manifest* — is refused, because an
uncertified scenario could smuggle host state, filesystem writes or
digest instability onto a fleet where nobody would notice.

The reader is deliberately strict: an unreadable file, a wrong
``schema_version`` or a malformed scenario table all raise
:class:`ManifestError` rather than degrade to "allow everything".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "DISTRIBUTABLE_STATUSES",
    "DistManifest",
    "ManifestError",
    "SUPPORTED_SCHEMA_VERSION",
    "ScenarioVerdict",
    "load_manifest",
]

#: Statuses that permit off-host execution (the dispatcher contract of
#: :func:`repro.devtools.check.render_manifest`).
DISTRIBUTABLE_STATUSES = frozenset({"certified", "baselined-findings"})

#: The manifest schema this reader understands.
SUPPORTED_SCHEMA_VERSION = 1


class ManifestError(ValueError):
    """The manifest file is missing, unreadable or malformed."""


@dataclass(frozen=True)
class ScenarioVerdict:
    """One scenario's certification entry as read from the manifest."""

    name: str
    entry: str
    status: str

    @property
    def distributable(self) -> bool:
        """Whether the dispatcher may ship this scenario off-host."""
        return self.status in DISTRIBUTABLE_STATUSES


@dataclass(frozen=True)
class DistManifest:
    """A parsed, validated ``distcheck-manifest.json``."""

    path: str
    tool_version: str
    scenarios: Mapping[str, ScenarioVerdict]

    def verdict(self, scenario: str) -> ScenarioVerdict | None:
        """The manifest entry for ``scenario``, or None if absent."""
        return self.scenarios.get(scenario)

    def distributable(self, scenario: str) -> bool:
        """Whether ``scenario`` is certified for off-host execution.

        Absence is a refusal: a scenario the certifier has never seen
        carries no evidence it is safe to ship.
        """
        verdict = self.scenarios.get(scenario)
        return verdict is not None and verdict.distributable

    def refusals(self, scenarios: Iterable[str]) -> list[str]:
        """Human-readable refusal reasons, one per refused scenario.

        Empty when every scenario in ``scenarios`` is distributable —
        the dispatcher's go/no-go check.
        """
        reasons = []
        for name in sorted(set(scenarios)):
            verdict = self.scenarios.get(name)
            if verdict is None:
                reasons.append(
                    f"scenario {name!r} is absent from the distcheck "
                    f"manifest {self.path}; re-run `urllc5g check "
                    "--manifest` to certify it")
            elif not verdict.distributable:
                reasons.append(
                    f"scenario {name!r} has manifest status "
                    f"{verdict.status!r}; only certified/"
                    "baselined-findings scenarios may leave the host")
        return reasons


def load_manifest(path: str | Path) -> DistManifest:
    """Read and validate a certification manifest.

    Raises :class:`ManifestError` on any defect — the dispatcher must
    fail closed, never fall back to "everything is distributable".
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(
            f"cannot read distcheck manifest {path}: {exc}; run "
            "`urllc5g check src/ --manifest "
            f"{path.name}` to generate it") from exc
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ManifestError(
            f"distcheck manifest {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ManifestError(
            f"distcheck manifest {path} must be a JSON object")
    schema = payload.get("schema_version")
    if schema != SUPPORTED_SCHEMA_VERSION:
        raise ManifestError(
            f"distcheck manifest {path} has schema_version {schema!r}; "
            f"this reader understands {SUPPORTED_SCHEMA_VERSION}")
    table = payload.get("scenarios")
    if not isinstance(table, dict):
        raise ManifestError(
            f"distcheck manifest {path} has no 'scenarios' table")
    scenarios: dict[str, ScenarioVerdict] = {}
    for name, entry in table.items():
        if (not isinstance(name, str)
                or not isinstance(entry, dict)
                or not isinstance(entry.get("status"), str)):
            raise ManifestError(
                f"distcheck manifest {path} has a malformed entry "
                f"for {name!r}")
        scenarios[name] = ScenarioVerdict(
            name=name,
            entry=str(entry.get("entry", "")),
            status=entry["status"])
    return DistManifest(path=str(path),
                        tool_version=str(payload.get("tool_version",
                                                     "")),
                        scenarios=scenarios)
