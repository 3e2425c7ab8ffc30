"""Shared fixtures for the static-analysis tests.

A cold ``check`` of ``src/`` takes a few seconds, so the tests that only
read its report share one pass per configuration.
"""

from pathlib import Path

import pytest

from repro.devtools.check import check_paths
from repro.devtools.config import load_check_config

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def src_report():
    """``check`` of ``src/`` under the repository's pyproject config."""
    config = load_check_config(pyproject=REPO / "pyproject.toml")
    return check_paths([REPO / "src"], config)


@pytest.fixture(scope="session")
def src_report_unconfigured():
    """``check`` of ``src/`` with the default config (no ignores, no
    baseline)."""
    return check_paths([REPO / "src"])
