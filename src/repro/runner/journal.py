"""Append-only campaign journal: checkpoint/resume for bench runs.

A campaign that dies mid-run (OOM-killed worker host, Ctrl-C, power
loss) should not have to recompute the points it already finished.  The
journal is a JSONL file: a header line identifying the campaign (name,
seed, source fingerprint, runner version) followed by one line per
completed point, flushed as soon as the point's payload is known.

On ``--resume`` the runner replays matching journal entries instead of
recomputing them.  Because every point payload is a pure function of
(point identity, seed, source tree), a replayed result is bit-identical
to a recomputed one — a killed-and-resumed campaign merges to exactly
the document an uninterrupted run produces (the acceptance criterion of
docs/ROBUSTNESS.md).  A header that does not match the campaign being
run — different campaign, seed, fingerprint or format — makes the whole
journal non-replayable; a corrupt or truncated *tail* (the typical
crash artifact) only discards entries from the first bad line onward.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.runner.cache import RUNNER_VERSION
from repro.runner.fsops import DEFAULT_FS, FsOps
from repro.runner.merge import JournalMerger

__all__ = ["CampaignJournal"]


class CampaignJournal:
    """Crash-safe record of completed points for one campaign run.

    Every write goes through the ``fs`` seam (passthrough by default)
    so dispatch workers under a chaos plan can have journal appends
    fail with EIO/ENOSPC — or die at the ``journal.pre-flush`` crash
    point — exactly where a real filesystem would fail them.
    """

    def __init__(self, path: str | Path, fs: FsOps | None = None):
        self.path = Path(path)
        self.fs = fs if fs is not None else DEFAULT_FS
        #: Anomalies met while reading a prior journal (mismatched
        #: header, truncated tail...), surfaced in bench documents.
        self.warnings: list[str] = []
        self._started = False

    # ------------------------------------------------------------------
    def start(self, *, name: str, seed: int, fingerprint: str,
              points: int, digests: set[str], resume: bool = False
              ) -> dict[str, tuple[dict[str, Any], int]]:
        """Open the journal for this run; returns replayable results.

        The campaign is identified by ``(name, seed, fingerprint)`` and
        its point ``digests``, so dispatch workers
        (:mod:`repro.runner.dispatch`) journal against the queue
        manifest without ever materialising a
        :class:`~repro.runner.campaign.Campaign`.  With
        ``resume`` the existing file is read first and every entry
        matching the campaign comes back as ``digest -> (result,
        attempts)``.  The file is then rewritten (atomically) as a clean
        header plus the surviving entries — healing any truncated tail —
        and left open for appending.  Without ``resume`` the file is
        simply truncated to a fresh header.
        """
        self.close()
        replayed: dict[str, tuple[dict[str, Any], int]] = {}
        if resume and self.path.is_file():
            merger = JournalMerger(name=name, seed=seed,
                                   fingerprint=fingerprint,
                                   digests=digests, fs=self.fs)
            merger.read([self.path], final=True)
            self.warnings.extend(merger.outcome.warnings)
            replayed = {digest: (entry.result, entry.attempts)
                        for digest, entry in merger.outcome.entries.items()}
        header = {
            "journal_version": RUNNER_VERSION,
            "campaign": name,
            "seed": seed,
            "fingerprint": fingerprint,
            "points": points,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for digest, (result, attempts) in replayed.items():
            lines.append(self._entry_line(digest, result, attempts))
        self.fs.write_text(self.path, "\n".join(lines) + "\n")
        self._started = True
        return replayed

    def record(self, digest: str, result: Mapping[str, Any],
               attempts: int = 1) -> None:
        """Checkpoint one completed point (appended and flushed now)."""
        if not self._started:
            raise RuntimeError("journal not started; call start() first")
        self.fs.crash_point("journal.pre-flush")
        self.fs.append_text(self.path,
                            self._entry_line(digest, result, attempts)
                            + "\n")

    def close(self) -> None:
        """End the recording session (idempotent)."""
        self._started = False

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    @staticmethod
    def _entry_line(digest: str, result: Mapping[str, Any],
                    attempts: int) -> str:
        return json.dumps({"digest": digest, "result": dict(result),
                           "attempts": attempts}, sort_keys=True)
