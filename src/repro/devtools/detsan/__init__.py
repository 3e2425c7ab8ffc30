"""DetSan: two-sided determinism checking for RNG stream ownership.

The determinism contract says every ``RngRegistry`` stream has exactly
one well-ordered consumer (docs/PERFORMANCE.md).  This package checks
it from both sides:

- **Static** (:mod:`.ownership`, :mod:`.resolver`): the ``detsan``
  rule family of ``urllc5g check`` resolves every stream-name
  literal/template over the shared project model, computes the
  stream → component ownership map, and reports sharing, dead streams,
  unresolvable names, buffered-stream escapes, and draws reachable from
  unordered iteration.
- **Dynamic** (:mod:`repro.sim.sanitize`, re-exported here, plus
  :mod:`.runtime`): ``URLLC5G_SANITIZE=1`` wraps vended generators in
  recording proxies that enforce exclusive claims at runtime and stay
  bit-identical to unsanitized runs.
"""

from repro.sim.sanitize import (DeterminismViolation, RecordingGenerator,
                                SanitizeLog, sanitize_active,
                                sanitizer_session)
from repro.devtools.detsan.ownership import (DETSAN_RULES, OwnershipMap,
                                             StreamInfo, stream_ownership)
from repro.devtools.detsan.resolver import (DYNAMIC, is_resolved,
                                            resolve_stream_name)
from repro.devtools.detsan.runtime import compare_draw_logs, verify_replay

__all__ = [
    "DETSAN_RULES",
    "DYNAMIC",
    "DeterminismViolation",
    "OwnershipMap",
    "RecordingGenerator",
    "SanitizeLog",
    "StreamInfo",
    "compare_draw_logs",
    "is_resolved",
    "resolve_stream_name",
    "sanitize_active",
    "sanitizer_session",
    "stream_ownership",
    "verify_replay",
]
