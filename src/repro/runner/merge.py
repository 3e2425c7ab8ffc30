"""Deterministic merge of per-worker campaign journals.

A dispatched campaign leaves one :class:`~repro.runner.journal.
CampaignJournal` per worker in ``<queue>/journals/``.  Collect-time
merging must produce *exactly* the document a serial run produces, so
the merge is deterministic in everything observable:

- journals are processed in sorted-filename order;
- a journal whose header does not match the campaign identity —
  foreign fingerprint (a worker running different code), different
  campaign, seed, or format — is rejected whole, with a warning, and
  its points recomputed by the coordinator rather than trusted;
- a corrupt or truncated *tail* (the crash artifact of a killed
  worker) discards entries from the first bad line onward of that one
  journal only, never touching other workers' entries;
- two workers journaling the same point (a lease falsely reclaimed
  while the original owner was still computing) is legal **iff** the
  payloads are bit-identical — points are pure functions of
  ``(scenario, params, seed)``, so a divergent duplicate is a
  determinism violation and raises :class:`JournalMergeError` loudly
  instead of silently picking a winner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.runner.cache import RUNNER_VERSION
from repro.runner.fsops import DEFAULT_FS, FsOps

__all__ = [
    "JournalMergeError",
    "JournalMerger",
    "MergeOutcome",
    "MergedEntry",
    "merge_worker_journals",
]


class JournalMergeError(RuntimeError):
    """Two workers produced different payloads for the same point."""


@dataclass(frozen=True)
class MergedEntry:
    """One point's merged payload plus its provenance."""

    digest: str
    result: dict[str, Any]
    attempts: int
    workers: tuple[str, ...]


@dataclass
class MergeOutcome:
    """Everything collect needs from the journal directory."""

    entries: dict[str, MergedEntry] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    journals_read: int = 0
    journals_rejected: int = 0
    duplicate_points: int = 0


def _parse(line: str) -> Any:
    try:
        return json.loads(line)
    except ValueError:
        return None


class JournalMerger:
    """Merges worker journals incrementally, while workers append.

    Each :meth:`read` consumes only the complete lines appended since
    the previous call, so the coordinator records every payload as soon
    as it is journaled and still parses each line once.  ``digests`` is
    the set of points to merge; entries outside it are ignored (a
    reused queue directory cannot smuggle stale points into the
    document).  Reads go through the ``fs`` seam (passthrough by
    default) like every other queue operation.  ``--resume`` reads the
    campaign journal through the same merger
    (:class:`~repro.runner.journal.CampaignJournal`).
    """

    def __init__(self, *, name: str, seed: int, fingerprint: str,
                 digests: set[str], fs: FsOps | None = None):
        self.outcome = MergeOutcome()
        self._identity = (name, seed, fingerprint)
        self._digests = digests
        self._fs = fs if fs is not None else DEFAULT_FS
        #: path -> (bytes, lines) consumed so far.
        self._consumed: dict[Path, tuple[int, int]] = {}
        #: Journals rejected whole or read up to a corrupt line.
        self._closed: set[Path] = set()

    def read(self, paths: Iterable[str | Path], *,
             final: bool = False) -> list[MergedEntry]:
        """Merge what was appended to ``paths``; returns new points.

        Without ``final`` a last line with no newline yet is left for
        the next call (its worker may be mid-append) and an unreadable
        journal is tried again later; with ``final`` both count as the
        crash artifacts they are.
        """
        fresh: list[MergedEntry] = []
        for path in sorted(Path(p) for p in paths):
            if path in self._closed:
                continue
            start, number = self._consumed.get(path, (0, 0))
            try:
                data = self._fs.read_tail(path, start)
            except OSError as exc:
                if final:
                    self._reject(path, f"journal {path.name} is "
                                       f"unreadable ({exc}); its points "
                                       "will be recomputed")
                continue
            end = len(data) if final else data.rfind(b"\n") + 1
            if end == 0:
                continue
            lines = data[:end].decode("utf-8", "replace").splitlines()
            if number == 0:
                problem = self._header_problem(_parse(lines[0]))
                if problem:
                    self._reject(path, f"journal {path.name} {problem}; "
                                       "none of its entries are used")
                    continue
                self.outcome.journals_read += 1
            self._consumed[path] = (start + end, number + len(lines))
            skip = 1 if number == 0 else 0
            for number, line in enumerate(lines[skip:],
                                          start=number + skip + 1):
                entry = _parse(line)
                if (not isinstance(entry, dict)
                        or not isinstance(entry.get("digest"), str)
                        or not isinstance(entry.get("result"), dict)):
                    self.outcome.warnings.append(
                        f"journal {path.name} line {number} is corrupt "
                        "or truncated; discarding it and any later "
                        "entries of that journal")
                    self._closed.add(path)
                    break
                merged = self._merge(entry, path.stem)
                if merged is not None:
                    fresh.append(merged)
        return fresh

    def _header_problem(self, header: Any) -> str:
        name, seed, fingerprint = self._identity
        if (not isinstance(header, dict)
                or header.get("journal_version") != RUNNER_VERSION
                or header.get("campaign") != name
                or header.get("seed") != seed):
            return "belongs to a different campaign, seed or format"
        if header.get("fingerprint") != fingerprint:
            return ("was written against a different source "
                    "fingerprint (the code changed since, or mixed code "
                    "versions on the fleet)")
        return ""

    def _reject(self, path: Path, warning: str) -> None:
        self.outcome.warnings.append(warning)
        self.outcome.journals_rejected += 1
        self._closed.add(path)

    def _merge(self, entry: dict[str, Any],
               worker: str) -> MergedEntry | None:
        """Fold one entry in; returns it if its point is new."""
        digest = entry["digest"]
        if digest not in self._digests:
            return None
        attempts = entry.get("attempts")
        attempts = attempts if isinstance(attempts, int) else 1
        entries = self.outcome.entries
        existing = entries.get(digest)
        if existing is None:
            entries[digest] = MergedEntry(
                digest=digest, result=entry["result"],
                attempts=attempts, workers=(worker,))
            return entries[digest]
        self.outcome.duplicate_points += 1
        if existing.result != entry["result"]:
            raise JournalMergeError(
                f"point {digest[:12]}... was journaled by "
                f"{existing.workers[0]} and {worker} with different "
                "payloads — scenario points must be pure functions of "
                "(scenario, params, seed); this is a determinism "
                "violation, not a merge conflict")
        entries[digest] = MergedEntry(
            digest=digest, result=existing.result,
            attempts=existing.attempts,
            workers=existing.workers + (worker,))
        return None


def merge_worker_journals(paths: Iterable[str | Path], *,
                          name: str, seed: int, fingerprint: str,
                          digests: set[str],
                          fs: FsOps | None = None) -> MergeOutcome:
    """Merge complete worker journals into one digest-keyed result map."""
    merger = JournalMerger(name=name, seed=seed, fingerprint=fingerprint,
                           digests=digests, fs=fs)
    merger.read(paths, final=True)
    return merger.outcome
