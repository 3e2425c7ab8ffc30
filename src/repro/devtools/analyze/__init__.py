"""The shared project model and the whole-program unit/purity passes.

:mod:`.loader` parses every module under the checked roots once into a
project model (symbol table + call graph + per-module summaries); every
``urllc5g check`` rule family runs over that model.  Two of the
families live here:

- **time-unit inference** (:mod:`.units`): abstract interpretation over
  the unit lattice ``tc | ns | us | ms | s | unitless | unknown``,
  seeded from name suffixes, the :mod:`repro.phy.timebase` converter
  signatures and ``# unit:`` annotations, propagated through
  assignments, returns and call boundaries;
- **transitive purity** (:mod:`.purity`): a ``set`` loop that calls a
  function which schedules simulator events, found through the call
  graph where the file-scope rule sees no ``.schedule(...)`` call.

See docs/ANALYSIS.md.
"""

from repro.devtools.analyze.loader import Project, load_project

__all__ = [
    "Project",
    "load_project",
]
