"""Content-hash result cache for campaign points.

A point's payload is a pure function of two things: the point identity
(scenario + canonical params + derived seed, hashed by
:meth:`~repro.runner.campaign.ScenarioPoint.digest`) and the behaviour
of the simulation source itself.  The cache therefore keys every entry
on the point digest and stores alongside it a *source fingerprint* — a
hash over every ``.py`` file of the ``repro`` package except
``devtools`` (tooling cannot change simulation results).  A lookup
hits only when both match, so editing any simulation module invalidates
every cached point at once while re-running an unchanged tree replays
entirely from disk.

Writes are atomic (temp file + ``os.replace``) so concurrent campaign
runs sharing one cache file can never observe a torn payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.devtools.walker import iter_python_files

__all__ = [
    "DEFAULT_CACHE_PATH",
    "RUNNER_VERSION",
    "ResultCache",
    "atomic_write_text",
    "source_fingerprint",
]

#: Bump on any change to the result payload schema or point hashing.
RUNNER_VERSION = "1"

DEFAULT_CACHE_PATH = ".urllc5g-bench-cache.json"

#: Top-level ``repro`` subpackages whose content cannot affect
#: simulation results (static-analysis tooling only).
_FINGERPRINT_EXCLUDED = ("devtools",)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` with no partially-written window.

    The payload lands in a sibling temp file first and is moved into
    place with ``os.replace``, which is atomic on POSIX and Windows —
    a reader (or a parallel writer) sees either the old file or the
    new one, never an interleaving.  A missing parent directory is
    created.
    """
    path = Path(path)
    # Random temp names: writers on different hosts may target the
    # same path through a shared filesystem.
    prefix = f".{path.name}."
    try:
        fd, temp = tempfile.mkstemp(suffix=".tmp", prefix=prefix,
                                    dir=path.parent)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(suffix=".tmp", prefix=prefix,
                                    dir=path.parent)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def source_fingerprint(roots: Iterable[str | Path] | None = None
                       ) -> str:
    """Hash of the source files campaign results depend on.

    Defaults to the installed ``repro`` package minus ``devtools``.
    The fingerprint covers relative paths and file contents, so both
    edits and renames invalidate cached results.
    """
    excluded: tuple[str, ...] = ()
    if roots is None:
        roots = [Path(__file__).resolve().parents[1]]
        excluded = _FINGERPRINT_EXCLUDED
    digest = hashlib.sha256()
    seen: set[Path] = set()
    for root in roots:
        root = Path(root)
        base = root if root.is_dir() else root.parent
        for path in iter_python_files([root]):
            relative = path.relative_to(base)
            if relative.parts and relative.parts[0] in excluded:
                continue
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            digest.update(str(relative).encode("utf-8"))
            digest.update(b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class ResultCache:
    """Content-addressed store of per-point result payloads."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        #: Human-readable notes about anomalies met while loading (a
        #: quarantined corrupt file, ...), surfaced in bench documents.
        self.warnings: list[str] = []
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            raw = self.path.read_bytes()
        except OSError:
            return  # no cache yet: the normal first-run case
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("cache payload is not a JSON object")
            if payload.get("runner_version") != RUNNER_VERSION:
                # A valid file from another runner version is stale, not
                # corrupt: start fresh (it will be overwritten).  Warn
                # loudly, though — on a dispatched fleet a version
                # mismatch means some host is running different code,
                # which would otherwise only show up as a mysteriously
                # cold cache (the quarantine path already surfaces the
                # corrupt-file case the same way).
                self.warnings.append(
                    f"result cache {self.path} was written by runner "
                    f"version {payload.get('runner_version')!r} "
                    f"(current {RUNNER_VERSION!r}); treating every "
                    "entry as stale — check for mixed code versions "
                    "if this host is part of a dispatched campaign")
                return
            entries = payload.get("entries")
            if not isinstance(entries, dict):
                raise ValueError("cache 'entries' is not an object")
            for digest, entry in entries.items():
                if (not isinstance(digest, str)
                        or not isinstance(entry, dict)
                        or not isinstance(entry.get("fingerprint"), str)
                        or not isinstance(entry.get("result"), dict)):
                    raise ValueError(
                        f"malformed cache entry for {digest!r}")
        except (ValueError, UnicodeDecodeError) as exc:
            self._quarantine(raw, exc)
            return
        self.entries = entries

    def _quarantine(self, raw: bytes, exc: Exception) -> None:
        """Move a corrupt/truncated cache file aside and start fresh.

        The file is renamed to ``<path>.corrupt-<digest>`` (content
        hash, so repeated runs against the same corpse do not pile up
        copies) rather than deleted: the evidence stays inspectable and
        the next save writes a clean file in its place.
        """
        content_digest = hashlib.sha256(raw).hexdigest()[:12]
        quarantine = self.path.with_name(
            f"{self.path.name}.corrupt-{content_digest}")
        try:
            os.replace(self.path, quarantine)
        except OSError:
            quarantine = self.path  # rename failed: leave it in place
        self.warnings.append(
            f"result cache {self.path} was corrupt ({exc}); quarantined "
            f"to {quarantine.name} and starting fresh")

    def lookup(self, point_digest: str,
               fingerprint: str) -> dict[str, Any] | None:
        """The stored payload for a point, iff the source still matches."""
        entry = self.entries.get(point_digest)
        if entry is None or entry.get("fingerprint") != fingerprint:
            self.misses += 1
            return None
        result = entry.get("result")
        if not isinstance(result, dict):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, point_digest: str, fingerprint: str,
              result: Mapping[str, Any]) -> None:
        """Record one freshly computed point payload."""
        self.entries[point_digest] = {"fingerprint": fingerprint,
                                      "result": dict(result)}
        self._dirty = True

    def save(self) -> None:
        """Persist atomically (no-op when nothing changed)."""
        if not self._dirty:
            return
        payload = {"runner_version": RUNNER_VERSION,
                   "entries": self.entries}
        atomic_write_text(self.path, json.dumps(payload, sort_keys=True))
        self._dirty = False
