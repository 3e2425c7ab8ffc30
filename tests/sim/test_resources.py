"""Unit tests for the shared CPU resource."""

import pytest

from repro.phy.timebase import us_from_tc
from repro.sim.engine import Simulator
from repro.sim.resources import CpuResource


def test_single_core_serialises_jobs():
    sim = Simulator()
    cpu = CpuResource(sim, n_cores=1)
    finished = []
    assert cpu.execute(100, lambda: finished.append(sim.now)) == 0
    assert cpu.execute(100, lambda: finished.append(sim.now)) == 100
    sim.run_until_idle()
    assert finished == [100, 200]
    assert cpu.jobs_executed == 2
    assert cpu.queueing_tc == 100
    assert cpu.mean_queueing_us() == us_from_tc(100) / 2


def test_two_cores_run_in_parallel():
    sim = Simulator()
    cpu = CpuResource(sim, n_cores=2)
    finished = []
    cpu.execute(100, lambda: finished.append(sim.now))
    cpu.execute(100, lambda: finished.append(sim.now))
    sim.run_until_idle()
    assert finished == [100, 100]
    assert cpu.mean_queueing_us() == 0.0


def test_idle_gaps_do_not_accumulate():
    sim = Simulator()
    cpu = CpuResource(sim, n_cores=1)
    finished = []
    cpu.execute(50, lambda: finished.append(sim.now))
    sim.run_until_idle()
    # Submit long after the first job finished: no queueing.
    waits = []
    sim.schedule(1_000, lambda: waits.append(cpu.execute(
        50, lambda: finished.append(sim.now))))
    sim.run_until_idle()
    assert finished == [50, 1_050]
    assert waits == [0]


def test_zero_duration_job_allowed():
    sim = Simulator()
    cpu = CpuResource(sim, n_cores=1)
    done = []
    cpu.execute(0, lambda: done.append(sim.now))
    sim.run_until_idle()
    assert done == [0]


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CpuResource(sim, n_cores=0)
    cpu = CpuResource(sim, 1)
    with pytest.raises(ValueError):
        cpu.execute(-1, lambda: None)
    with pytest.raises(ValueError):
        cpu.utilisation_until(0)


def test_utilisation():
    sim = Simulator()
    cpu = CpuResource(sim, n_cores=2)
    cpu.execute(100, lambda: None)
    sim.run_until_idle()
    assert cpu.utilisation_until(100) == pytest.approx(0.5)


def test_contention_inflates_observed_processing():
    """The §7 effect: with one core and a burst of concurrent jobs,
    response times grow linearly with queue position."""
    sim = Simulator()
    cpu = CpuResource(sim, n_cores=1)
    completions = []
    for _ in range(10):
        cpu.execute(10, lambda: completions.append(sim.now))
    sim.run_until_idle()
    assert completions == [10 * (i + 1) for i in range(10)]
