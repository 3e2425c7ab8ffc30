"""Distributability certification of ``@scenario`` entry points.

:mod:`.rules` is the ``dist`` rule family of ``urllc5g check``: it
certifies each registered campaign entry point as safe to execute on a
remote host — no reachable writes to module-level mutable state, no
undeclared host-state observation, nothing unpicklable crossing the
process boundary, order-stable digest material, and no filesystem
writes outside the sanctioned artifact/journal APIs.  ``check
--manifest`` writes the per-scenario verdicts to
``distcheck-manifest.json``; :mod:`.manifest` is the fail-closed reader
the campaign dispatcher uses.  See the "Distributability contract"
chapter in docs/ANALYSIS.md.

Only the manifest reader is imported here, so the runner's dispatch
gate does not pay for loading the analyzer.
"""

from repro.devtools.distcheck.manifest import (
    DISTRIBUTABLE_STATUSES,
    DistManifest,
    ManifestError,
    ScenarioVerdict,
    load_manifest,
)

__all__ = [
    "DISTRIBUTABLE_STATUSES",
    "DistManifest",
    "ManifestError",
    "ScenarioVerdict",
    "load_manifest",
]
