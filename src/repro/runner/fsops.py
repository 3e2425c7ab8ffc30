"""The injectable filesystem-operations seam of the queue protocol.

Every filesystem transition the dispatch layer performs — the atomic
renames of claim/reclaim, done-marker and heartbeat writes, journal and
event appends, directory scans — goes through one small :class:`FsOps`
object instead of calling :mod:`os` directly.  The default instance
(:data:`DEFAULT_FS`) is a pure passthrough: no state, no branching
beyond the call, zero overhead — so with no chaos plan installed the
protocol behaves exactly as it did before the seam existed.

The seam exists for :mod:`repro.runner.chaos`: a ``ChaosFsOps``
subclass injects deterministic EIO/ENOSPC write failures, delayed or
stale directory listings, and — at the named :data:`CRASH_POINTS` —
kills the worker process mid-transition, so every crash window of the
lease protocol can be explored systematically (``urllc5g
chaosdispatch``).

Crash points mark the instants where the protocol's crash-safety
argument changes shape (see docs/ROBUSTNESS.md for the taxonomy):

======================  ================================================
``claim.pre-rename``    before ``jobs/ -> leases/``: job file intact
``claim.post-rename``   lease held, payload unread: orphaned lease
``journal.pre-flush``   point computed, payload not yet durable
``done-marker.pre``     journal durable, completion not yet visible
``done-marker.post``    marker visible, lease still held
``release.pre``         fully published, lease not yet dropped
``reclaim.pre-rename``  dead peer's lease about to be re-homed
``reclaim.post-rename`` job re-published, reclaimer about to move on
======================  ================================================
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.runner.cache import atomic_write_text

__all__ = ["CRASH_POINTS", "DEFAULT_FS", "FsOps"]

#: Every named protocol transition a chaos plan may kill a worker at.
CRASH_POINTS = (
    "claim.pre-rename",
    "claim.post-rename",
    "journal.pre-flush",
    "done-marker.pre",
    "done-marker.post",
    "release.pre",
    "reclaim.pre-rename",
    "reclaim.post-rename",
)


class FsOps:
    """Passthrough filesystem operations (the zero-overhead default).

    Subclasses override individual operations to inject faults; the
    base class performs the real operation and nothing else.  Callers
    hold whatever error-handling policy they had before the seam —
    every method raises exactly what the underlying :mod:`os` call
    raises.
    """

    def crash_point(self, name: str) -> None:
        """Announce a named protocol transition (no-op by default).

        The name must be registered in :data:`CRASH_POINTS` so a typo'd
        call site cannot silently create an unexplorable crash window.
        """
        if name not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {name!r}; register it in "
                "repro.runner.fsops.CRASH_POINTS")

    def replace(self, source: str | Path, target: str | Path) -> None:
        """Atomic rename (the protocol's only transition primitive)."""
        os.replace(source, target)

    def unlink(self, path: str | Path) -> None:
        os.unlink(path)

    def mkdir(self, path: str | Path) -> None:
        Path(path).mkdir(parents=True, exist_ok=True)

    def listdir(self, directory: str | Path) -> list[str]:
        """Sorted entry names of ``directory`` (raises ``OSError``)."""
        return sorted(entry.name for entry in Path(directory).iterdir())

    def read_text(self, path: str | Path) -> str:
        return Path(path).read_text(encoding="utf-8")

    def read_tail(self, path: str | Path, offset: int) -> bytes:
        """The bytes of ``path`` from ``offset`` to its current end."""
        with open(path, "rb") as handle:
            handle.seek(offset)
            return handle.read()

    def write_text(self, path: str | Path, text: str) -> None:
        """Atomic whole-file write (temp file + rename)."""
        atomic_write_text(Path(path), text)

    def append_text(self, path: str | Path, text: str) -> None:
        """Append and flush one record (journals, event logs)."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()


#: The shared passthrough instance every component defaults to.
DEFAULT_FS = FsOps()
