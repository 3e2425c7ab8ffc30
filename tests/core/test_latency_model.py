"""Unit and property tests for the analytical latency model (Fig 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency_model import LatencyModel, ProtocolTimings
from repro.mac.catalog import (
    fdd,
    minimal_dm,
    minimal_du,
    minimal_mini_slot,
    minimal_mu,
    testbed_dddu,
)
from repro.mac.types import AccessMode, Direction
from repro.phy.timebase import tc_from_ms, tc_from_us, us_from_tc


# ---------------------------------------------------------------------------
# Fig 4: the DM configuration's three worst cases
# ---------------------------------------------------------------------------
def test_dm_grant_free_ul_worst_case_is_exactly_half_ms():
    model = LatencyModel(minimal_dm())
    extremes = model.extremes(Direction.UL, AccessMode.GRANT_FREE)
    assert extremes.worst_tc == tc_from_ms(0.5)


def test_dm_dl_worst_case_is_exactly_half_ms():
    model = LatencyModel(minimal_dm())
    extremes = model.extremes(Direction.DL)
    assert extremes.worst_tc == tc_from_ms(0.5)


def test_dm_grant_based_ul_violates_and_reaches_one_ms():
    # Fig 4 (top): the grant-based chain spans a full 1 ms.
    model = LatencyModel(minimal_dm())
    extremes = model.extremes(Direction.UL, AccessMode.GRANT_BASED)
    assert extremes.worst_tc > tc_from_ms(0.5)
    assert extremes.worst_tc == pytest.approx(tc_from_ms(1.0), rel=0.01)


@pytest.mark.parametrize("scheme, direction, access, worst_tc, worst_us", [
    (minimal_dm, Direction.DL, AccessMode.GRANT_FREE, 983_040, 500.0),
    (minimal_dm, Direction.UL, AccessMode.GRANT_FREE, 983_040, 500.0),
    (minimal_dm, Direction.UL, AccessMode.GRANT_BASED, 1_966_080, 1000.0),
    (minimal_du, Direction.DL, AccessMode.GRANT_FREE, 1_475_072, 750.3),
], ids=["dm-dl", "dm-ul-grant-free", "dm-ul-grant-based", "du-dl"])
def test_fig4_worst_cases_exact_in_tc(scheme, direction, access, worst_tc,
                                      worst_us):
    """Fig 4's analytic numbers, pinned exactly in integer Tc."""
    extremes = LatencyModel(scheme()).extremes(direction, access)
    assert extremes.worst_tc == worst_tc
    assert round(us_from_tc(extremes.worst_tc), 1) == worst_us


def test_dm_grant_chain_stage_order():
    model = LatencyModel(minimal_dm())
    trace = model.ul_grant_based_chain(arrival=0)
    assert (trace.arrival <= trace.sr_tx_start <= trace.sr_received
            <= trace.scheduled <= trace.grant_tx
            <= trace.grant_processed <= trace.data_window_start
            < trace.completion)
    durations = trace.stage_durations()
    assert sum(durations.values()) == trace.latency_tc


def test_worst_case_trace_matches_extremes():
    model = LatencyModel(minimal_dm())
    trace = model.worst_case_trace()
    extremes = model.extremes(Direction.UL, AccessMode.GRANT_BASED)
    assert trace.latency_tc == extremes.worst_tc


# ---------------------------------------------------------------------------
# other configurations (Table 1 cells individually)
# ---------------------------------------------------------------------------
def test_du_dl_worst_case_is_three_quarters_ms():
    extremes = LatencyModel(minimal_du()).extremes(Direction.DL)
    assert us_from_tc(extremes.worst_tc) == pytest.approx(750.0, rel=0.01)


def test_mu_dl_violates():
    extremes = LatencyModel(minimal_mu()).extremes(Direction.DL)
    assert extremes.worst_tc > tc_from_ms(0.5)


def test_fdd_grant_based_meets_exactly():
    model = LatencyModel(fdd())
    extremes = model.extremes(Direction.UL, AccessMode.GRANT_BASED)
    assert extremes.worst_tc == tc_from_ms(0.5)


def test_mini_slot_grant_based_well_under_budget():
    model = LatencyModel(minimal_mini_slot())
    extremes = model.extremes(Direction.UL, AccessMode.GRANT_BASED)
    assert extremes.worst_tc < tc_from_ms(0.3)


def test_dddu_grant_based_worst_case_spans_two_periods():
    # §7: the worst case "misses one TDD pattern and must wait for the
    # next one" — ~4 ms for the 2 ms DDDU pattern.
    model = LatencyModel(testbed_dddu())
    extremes = model.extremes(Direction.UL, AccessMode.GRANT_BASED)
    assert extremes.worst_tc == pytest.approx(tc_from_ms(4.0), rel=0.01)


def test_grant_free_saves_about_one_period_on_dddu():
    # §7: "this one TDD period overhead can be eliminated by utilizing
    # grant-free access".
    model = LatencyModel(testbed_dddu())
    based = model.extremes(Direction.UL, AccessMode.GRANT_BASED)
    free = model.extremes(Direction.UL, AccessMode.GRANT_FREE)
    saving = based.worst_tc - free.worst_tc
    assert saving == pytest.approx(tc_from_ms(2.0), rel=0.01)


# ---------------------------------------------------------------------------
# timings plumbing
# ---------------------------------------------------------------------------
def test_timings_validation():
    with pytest.raises(ValueError):
        ProtocolTimings(sr_duration=-1)
    with pytest.raises(ValueError):
        ProtocolTimings(min_tx_duration=0)


def test_leads_shift_completions():
    lead = tc_from_us(300.0)
    base = LatencyModel(minimal_dm())
    shifted = LatencyModel(minimal_dm(), ProtocolTimings(dl_lead=lead))
    assert shifted.dl_completion(0) >= base.dl_completion(0)


def test_sr_decode_delays_grant():
    base = LatencyModel(minimal_dm()).ul_grant_based_chain(0)
    slow = LatencyModel(
        minimal_dm(),
        ProtocolTimings(sr_decode=tc_from_us(200.0)),
    ).ul_grant_based_chain(0)
    assert slow.scheduled >= base.scheduled


def test_completion_dispatch():
    model = LatencyModel(minimal_dm())
    assert model.completion(0, Direction.DL) == model.dl_completion(0)
    assert model.completion(0, Direction.UL, AccessMode.GRANT_FREE) == \
        model.ul_grant_free_completion(0)
    assert model.completion(0, Direction.UL, AccessMode.GRANT_BASED) == \
        model.ul_grant_based_completion(0)


def test_extremes_metadata():
    model = LatencyModel(minimal_dm())
    dl = model.extremes(Direction.DL)
    assert dl.access is None and dl.direction is Direction.DL
    ul = model.extremes(Direction.UL, AccessMode.GRANT_FREE)
    assert ul.access is AccessMode.GRANT_FREE
    assert "DM" in str(ul)
    assert ul.meets(tc_from_ms(0.5))


# ---------------------------------------------------------------------------
# property: candidate enumeration finds the true extrema
# ---------------------------------------------------------------------------
SCHEMES = [minimal_du, minimal_dm, minimal_mu,
           minimal_mini_slot, fdd, testbed_dddu]


@given(
    scheme_index=st.integers(0, len(SCHEMES) - 1),
    arrivals=st.lists(st.integers(0, 4 * tc_from_ms(2)), min_size=5,
                      max_size=40),
    mode=st.sampled_from(["dl", "gf", "gb"]),
)
@settings(max_examples=120, deadline=None)
def test_no_sampled_latency_exceeds_reported_worst(scheme_index,
                                                   arrivals, mode):
    scheme = SCHEMES[scheme_index]()
    model = LatencyModel(scheme)
    if mode == "dl":
        extremes = model.extremes(Direction.DL)
        completion = model.dl_completion
    elif mode == "gf":
        extremes = model.extremes(Direction.UL, AccessMode.GRANT_FREE)
        completion = model.ul_grant_free_completion
    else:
        extremes = model.extremes(Direction.UL, AccessMode.GRANT_BASED)
        completion = model.ul_grant_based_completion
    for arrival in arrivals:
        latency = completion(arrival) - arrival
        assert extremes.best_tc <= latency <= extremes.worst_tc


@given(
    scheme_index=st.integers(0, len(SCHEMES) - 1),
    arrivals=st.lists(st.integers(0, 4 * tc_from_ms(2)), min_size=1,
                      max_size=40),
)
@settings(max_examples=120, deadline=None)
def test_grant_based_completion_is_the_chain_completion(scheme_index,
                                                        arrivals):
    model = LatencyModel(SCHEMES[scheme_index]())
    for arrival in arrivals:
        assert model.ul_grant_based_completion(arrival) == \
            model.ul_grant_based_chain(arrival).completion
