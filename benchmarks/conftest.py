"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures, asserts
its *shape* against the paper, and writes the rendered artifact to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can record
paper-vs-measured values.

The replication-heavy benchmarks (fig5, fig6, sensitivity, multi-UE,
exhaustive search) no longer run their sweeps inline: they declare a
campaign and hand it to the session-wide :data:`campaign_runner`,
which shares one content-hash result cache across the whole benchmark
session (see ``docs/CAMPAIGNS.md``).  With more than one worker each
campaign runs through the dispatch queue, which forks its worker
processes per campaign.  Set ``URLLC5G_BENCH_WORKERS`` to control the
worker count and ``URLLC5G_BENCH_NO_CACHE=1`` to force recomputation.
"""

import os
from pathlib import Path

import pytest

from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.timebase import tc_from_ms
from repro.radio.interface import usb3
from repro.radio.os_jitter import gpos
from repro.radio.radio_head import RadioHead
from repro.runner import (CampaignRunner, ResultCache,
                          atomic_write_text, envconfig)
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon

RESULTS_DIR = Path(__file__).parent / "results"

CACHE_PATH = Path(__file__).parent / ".urllc5g-bench-cache.json"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def campaign_runner():
    """One runner + one result cache shared by every campaign
    benchmark."""
    knobs = envconfig.refresh()
    workers = (knobs.bench_workers if knobs.bench_workers is not None
               else min(4, os.cpu_count() or 1))
    cache = None if knobs.bench_no_cache else ResultCache(CACHE_PATH)
    return CampaignRunner(workers=max(1, workers), cache=cache)


def write_artifact(name: str, content: str) -> None:
    """Persist a rendered artifact for the experiment record.

    Atomic (temp file + ``os.replace``): parallel benchmark workers or
    concurrent sessions can never interleave partial artifacts.
    """
    atomic_write_text(RESULTS_DIR / f"{name}.txt", content + "\n")


def testbed_system(access: AccessMode, seed: int) -> RanSystem:
    """The §7 testbed: DDDU @ 0.5 ms slots, USB B210, stock kernel."""
    radio_head = RadioHead("b210", usb3(), gpos())
    return RanSystem(testbed_dddu(),
                     RanConfig(access=access, gnb_radio_head=radio_head,
                               seed=seed))


def uniform_arrivals(n: int, horizon_ms: float, seed: int) -> list[int]:
    """The §7 workload: packets uniform within the pattern."""
    return uniform_in_horizon(n, tc_from_ms(horizon_ms),
                              RngRegistry(seed).stream("arrivals"))
