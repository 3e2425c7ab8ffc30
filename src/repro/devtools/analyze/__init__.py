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
- **transitive purity** (:mod:`.purity`): wall-clock, global-RNG and
  unordered-iteration-before-scheduling taint propagated through the
  call graph, catching the helper-indirection cases the file-scope
  rules are blind to.

:mod:`.baseline` holds the reviewed-findings file shared by every
family.  See docs/ANALYSIS.md.
"""

from repro.devtools.analyze.baseline import (
    Baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.analyze.loader import Project, load_project

__all__ = [
    "Baseline",
    "Project",
    "load_baseline",
    "load_project",
    "write_baseline",
]
