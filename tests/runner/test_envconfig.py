"""The frozen environment snapshot: one read, one consistent config."""

import pytest

from repro.runner import envconfig
from repro.runner.envconfig import EnvSnapshot, refresh, snapshot


@pytest.fixture(autouse=True)
def clean_snapshot(monkeypatch):
    """Each test starts from an unset snapshot and a clean env."""
    for name in (envconfig.BENCH_WORKERS, envconfig.BENCH_NO_CACHE,
                 envconfig.SANITIZE, envconfig.CHAOS,
                 envconfig.CHAOS_PLAN):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(envconfig, "_current", None)
    yield
    monkeypatch.setattr(envconfig, "_current", None)


def test_defaults_with_no_knobs_set():
    assert snapshot() == EnvSnapshot(
        bench_workers=None, bench_no_cache=False,
        sanitize=False, chaos=False, chaos_plan=None)


def test_every_knob_is_read(monkeypatch):
    monkeypatch.setenv(envconfig.BENCH_WORKERS, "6")
    monkeypatch.setenv(envconfig.BENCH_NO_CACHE, "yes")
    monkeypatch.setenv(envconfig.SANITIZE, "1")
    monkeypatch.setenv(envconfig.CHAOS, "1")
    monkeypatch.setenv(envconfig.CHAOS_PLAN, '{"specs":[]}')
    assert snapshot() == EnvSnapshot(
        bench_workers=6, bench_no_cache=True,
        sanitize=True, chaos=True, chaos_plan='{"specs":[]}')


def test_flags_require_exactly_one(monkeypatch):
    # SANITIZE/CHAOS use the documented "1" contract; NO_CACHE is any
    # non-empty value (matching the historical benchmark behaviour).
    monkeypatch.setenv(envconfig.SANITIZE, "true")
    monkeypatch.setenv(envconfig.CHAOS, "0")
    monkeypatch.setenv(envconfig.BENCH_NO_CACHE, "0")
    knobs = snapshot()
    assert knobs.sanitize is False
    assert knobs.chaos is False
    assert knobs.bench_no_cache is True


def test_non_integer_worker_count_raises(monkeypatch):
    monkeypatch.setenv(envconfig.BENCH_WORKERS, "many")
    with pytest.raises(ValueError, match="must be an integer"):
        snapshot()


def test_snapshot_is_immutable():
    knobs = snapshot()
    with pytest.raises(Exception):
        knobs.sanitize = True  # type: ignore[misc]


def test_current_is_frozen_until_refresh(monkeypatch):
    assert envconfig.current().chaos is False
    # A mid-run environment mutation must NOT be observed...
    monkeypatch.setenv(envconfig.CHAOS, "1")
    assert envconfig.current().chaos is False
    # ...until the next campaign start re-reads the knobs.
    assert refresh().chaos is True
    assert envconfig.current().chaos is True


def test_refresh_runs_at_campaign_start(monkeypatch):
    from repro.runner import Campaign, CampaignRunner

    monkeypatch.setenv(envconfig.CHAOS, "1")
    campaign = Campaign.from_grid(
        "envconfig-smoke", 1, "design-feasibility",
        grid={"index": [0]},
        fixed={"mu": 1, "max_period_ms": 1.0,
               "budget_ms": 1.0, "reliability": 0.999})
    CampaignRunner(workers=1).run(campaign)
    assert envconfig.current().chaos is True
