"""CampaignRunner: serial/parallel equivalence and cache integration."""

import pytest

from repro.runner import Campaign, CampaignRunner, ResultCache


def _cheap_campaign(name="cheap", seed=99):
    """Fast, RNG-bearing points: enough to expose ordering bugs."""
    specs = [("radio-sweep", {"bus": bus, "samples": samples,
                              "repetitions": 20})
             for bus in ("usb2", "usb3", "pcie")
             for samples in (2_000, 8_000)]
    specs += [("design-feasibility",
               {"index": index, "mu": 2, "max_period_ms": 1.0,
                "budget_ms": 0.5, "reliability": 0.99999})
              for index in (0, 1)]
    return Campaign.build(name, seed, specs)


def _payloads(result):
    return [point_result.result for point_result in result.point_results]


def test_workers_must_be_positive():
    with pytest.raises(ValueError, match=">= 1"):
        CampaignRunner(workers=0)


def test_serial_and_parallel_runs_are_bit_identical():
    campaign = _cheap_campaign()
    serial = CampaignRunner(workers=1).run(campaign)
    parallel = CampaignRunner(workers=2).run(campaign)
    assert _payloads(serial) == _payloads(parallel)
    assert serial.dispatch is None
    assert parallel.dispatch is not None
    assert parallel.dispatch.jobs == len(campaign)
    assert [p.point for p in serial.point_results] == \
        list(campaign.points)
    assert serial.cache_hits == parallel.cache_hits == 0


def test_cache_replays_unchanged_points(tmp_path):
    campaign = _cheap_campaign()
    cache = ResultCache(tmp_path / "cache.json")
    runner = CampaignRunner(workers=1, cache=cache, fingerprint="fp-a")
    cold = runner.run(campaign)
    warm = runner.run(campaign)
    assert cold.cache_hit_rate == 0.0
    assert warm.cache_hit_rate == 1.0
    assert all(point.from_cache for point in warm.point_results)
    assert _payloads(cold) == _payloads(warm)

    # A fresh process (fresh cache object) replays from disk too.
    rewarmed = CampaignRunner(workers=1,
                              cache=ResultCache(tmp_path / "cache.json"),
                              fingerprint="fp-a").run(campaign)
    assert rewarmed.cache_hit_rate == 1.0
    assert _payloads(rewarmed) == _payloads(cold)


def test_cache_misses_when_source_fingerprint_changes(tmp_path):
    campaign = _cheap_campaign()
    cache_path = tmp_path / "cache.json"
    CampaignRunner(workers=1, cache=ResultCache(cache_path),
                   fingerprint="fp-a").run(campaign)
    changed = CampaignRunner(workers=1, cache=ResultCache(cache_path),
                             fingerprint="fp-b").run(campaign)
    assert changed.cache_hits == 0
    assert changed.cache_misses == len(campaign)


def test_cache_misses_when_params_change(tmp_path):
    cache = ResultCache(tmp_path / "cache.json")
    runner = CampaignRunner(workers=1, cache=cache, fingerprint="fp")
    runner.run(Campaign.build("one", 1, [
        ("radio-sweep", {"bus": "usb3", "samples": 2_000,
                         "repetitions": 10})]))
    shifted = runner.run(Campaign.build("two", 1, [
        ("radio-sweep", {"bus": "usb3", "samples": 2_001,
                         "repetitions": 10})]))
    assert shifted.cache_hits == 0


def test_metrics_flatten_only_scalars():
    campaign = Campaign.build("tiny", 3, [
        ("design-feasibility",
         {"index": 0, "mu": 2, "max_period_ms": 1.0,
          "budget_ms": 0.5, "reliability": 0.99999})])
    result = CampaignRunner(workers=1).run(campaign)
    metrics = result.metrics()
    label = campaign.points[0].label
    assert f"{label}/universe" in metrics
    assert f"{label}/period_tc" in metrics
    # Strings, lists and booleans are payload, not gateable metrics.
    assert f"{label}/letters" not in metrics
    assert f"{label}/feasible_accesses" not in metrics
    assert f"{label}/dl_ok" not in metrics
    assert result.wall_clock_s >= 0.0


def test_unknown_scenario_is_contained_as_a_failed_point():
    campaign = Campaign.build("bad", 1, [("no-such-scenario", {"x": 1})])
    result = CampaignRunner(workers=1, max_retries=0).run(campaign)
    (entry,) = result.point_results
    assert entry.failed
    assert entry.result == {}
    assert "unknown scenario" in (entry.error or "")
    assert result.failures == (entry,)
