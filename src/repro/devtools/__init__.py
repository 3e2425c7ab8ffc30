"""Developer tooling for the urllc5g reproduction.

- :mod:`repro.devtools.check` — ``urllc5g check``: one static pass over
  the shared project model (:mod:`repro.devtools.analyze.loader`) that
  runs every rule family — per-file rules (:mod:`.lintkit`),
  cross-module time units and transitive purity (:mod:`.analyze`) and
  scenario distributability (:mod:`.distcheck`) — configured by one
  ``[tool.urllc5g.check]`` table (:mod:`repro.devtools.config`); see
  docs/ANALYSIS.md;
- :mod:`repro.devtools.determinism` — a runtime sanitizer that runs a
  scenario twice with the same seed and compares trace digests.

Shared infrastructure: :mod:`repro.devtools.walker` (file discovery)
and :mod:`repro.devtools.sarif` (SARIF 2.1.0 output).

Nothing is imported here: the campaign runner imports the walker and
the distcheck manifest reader, and must not pay for the analyzer.
"""

__all__: list[str] = []
