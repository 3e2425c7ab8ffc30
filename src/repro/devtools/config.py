"""Load ``urllc5g check`` configuration from ``pyproject.toml``.

One ``[tool.urllc5g.check]`` table configures every rule family:
``ignore`` (rule ids), ``exclude`` (path globs), ``baseline`` and
``cache`` (files), and the distributability contract — ``allow-env``
(environment-variable name globs), ``refuse-scenarios``,
``allow-globals`` and ``sanctioned-writers`` (function qualname
globs).  Relative ``baseline``/``cache`` paths are anchored at the
pyproject's directory, so ``--config /elsewhere/pyproject.toml``
honours the reviewed baseline from any working directory.  See
docs/ANALYSIS.md.

``tomllib`` ships with Python 3.11+; on older interpreters (the
project floor is 3.10) configuration falls back to the defaults rather
than pulling in a third-party TOML parser.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path

try:
    import tomllib
except ImportError:  # pragma: no cover - Python 3.10 fallback
    tomllib = None  # type: ignore[assignment]

__all__ = ["CheckConfig", "find_pyproject", "glob_match",
           "load_check_config"]

_LIST_KEYS = ("ignore", "exclude", "allow-env", "refuse-scenarios",
              "allow-globals", "sanctioned-writers")
_PATH_KEYS = ("baseline", "cache")


@dataclass
class CheckConfig:
    """Which findings count, and the distributability contract."""

    ignore: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    baseline: str | None = None
    cache: str | None = None
    #: The reviewed env-var contract: runner knobs are snapshot-managed.
    allow_env: tuple[str, ...] = ("URLLC5G_*",)
    refuse_scenarios: tuple[str, ...] = ()
    allow_globals: tuple[str, ...] = ()
    sanctioned_writers: tuple[str, ...] = ()

    def is_excluded(self, path: str) -> bool:
        return any(glob_match(path, pattern) for pattern in self.exclude)


def glob_match(path: str, pattern: str) -> bool:
    """Match ``pattern`` against the path or any of its suffix segments.

    ``"sim/rng.py"`` matches ``src/repro/sim/rng.py`` so config entries
    stay stable when the tree is checked from a different root.
    """
    parts = Path(path).as_posix().split("/")
    return any(fnmatch.fnmatch("/".join(parts[i:]), pattern)
               for i in range(len(parts)))


def find_pyproject(start: str | Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = Path(start).resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_check_config(pyproject: str | Path | None = None,
                      start: str | Path = ".") -> CheckConfig:
    """Build a :class:`CheckConfig` from the nearest pyproject.

    A missing file, a missing table or a pre-3.11 interpreter yield the
    default config; unknown keys and mistyped values raise ValueError.
    """
    if tomllib is None:  # pragma: no cover - Python 3.10 fallback
        return CheckConfig()
    path = Path(pyproject) if pyproject is not None else (
        find_pyproject(start))
    if path is None or not path.is_file():
        return CheckConfig()
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("urllc5g", {}).get("check", {})
    if not isinstance(table, dict):
        raise ValueError("[tool.urllc5g.check] must be a table")
    unknown = set(table) - set(_LIST_KEYS) - set(_PATH_KEYS)
    if unknown:
        raise ValueError(
            f"[tool.urllc5g.check] unknown key(s): {sorted(unknown)}")
    kwargs: dict[str, object] = {}
    for key in _PATH_KEYS:
        if key in table:
            if not isinstance(table[key], str):
                raise ValueError(
                    f"[tool.urllc5g.check] {key} must be a string")
            kwargs[key] = str(path.parent / table[key])
    for key in _LIST_KEYS:
        if key in table:
            value = table[key]
            if (not isinstance(value, list)
                    or not all(isinstance(item, str) for item in value)):
                raise ValueError(f"[tool.urllc5g.check] {key} must be "
                                 "a list of strings")
            kwargs[key.replace("-", "_")] = tuple(value)
    return CheckConfig(**kwargs)  # type: ignore[arg-type]
