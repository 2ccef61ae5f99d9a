from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from autonetsim.kernel import (
    MS, NS, SEC, US, EventKind, Oscillator, SchedulingInPast, SimTimeOverflow,
    Simulator, fmt_duration, parse_byte_count, parse_duration, parse_rate,
)


def make_sim():
    sim = Simulator()
    log = []
    sim.register("probe", lambda ev: log.append((ev.time, ev.payload)))
    return sim, log


def test_forward_scheduling_returns_handle():
    sim, _ = make_sim()
    sim.run_until(3)
    ev = sim.schedule(5, "probe", EventKind.TIMER)
    assert ev.time == 5 and ev.seq > 0


def test_scheduling_in_past_rejected():
    sim, _ = make_sim()
    sim.run_until(3)
    with pytest.raises(SchedulingInPast):
        sim.schedule(2, "probe", EventKind.TIMER)


def test_equal_time_fifo_tie_break():
    sim, log = make_sim()
    sim.schedule(5, "probe", EventKind.TIMER, "late")
    sim.schedule(3, "probe", EventKind.TIMER, "first")
    sim.schedule(3, "probe", EventKind.TIMER, "second")
    sim.run_until(10)
    assert log == [(3, "first"), (3, "second"), (5, "late")]


def test_run_until_empty_list_advances_to_horizon():
    sim, _ = make_sim()
    summary = sim.run_until(1 * SEC)
    assert summary.events_dispatched == 0
    assert summary.final_time == 1 * SEC
    assert sim.now == 1 * SEC


def test_run_until_horizon_cut():
    sim, log = make_sim()
    sim.schedule(10 * US, "probe", EventKind.TIMER)
    summary = sim.run_until(1 * US)
    assert summary.events_dispatched == 0
    assert not log


def test_events_at_horizon_are_dispatched():
    sim, log = make_sim()
    sim.schedule(1 * MS, "probe", EventKind.TIMER)
    sim.run_until(1 * MS)
    assert log == [(1 * MS, None)]


def test_periodic_source_count_inclusive_horizon():
    # 10 ms horizon, 1 ms period, offset 0: floor(10/1)+1 = 11 dispatches.
    sim = Simulator()
    fired = []

    def fire(ev):
        fired.append(ev.time)
        sim.schedule(ev.time + 1 * MS, "src", EventKind.FIRE_SOURCE)

    sim.register("src", fire)
    sim.schedule(0, "src", EventKind.FIRE_SOURCE)
    sim.run_until(10 * MS)
    assert len(fired) == 11


def test_cancellation():
    sim, log = make_sim()
    ev = sim.schedule(5, "probe", EventKind.TIMER)
    sim.cancel(ev)
    summary = sim.run_until(10)
    assert summary.events_dispatched == 0 and not log


def test_idle_at_is_false_outside_dispatch():
    sim, _ = make_sim()
    assert not sim.idle_at(0)  # set-up code keeps its deferred events
    sim.schedule(5, "probe", EventKind.TIMER)
    sim.run_until(10)
    assert not sim.idle_at(10)


def test_idle_at_holds_only_when_nothing_else_is_queued_at_the_tick():
    sim = Simulator()
    seen = []
    sim.register("probe", lambda ev: seen.append(
        (ev.payload, sim.idle_at(ev.time), sim.idle_at(ev.time + 1))))
    sim.schedule(3, "probe", EventKind.TIMER, "alone")
    sim.schedule(5, "probe", EventKind.TIMER, "before a live one")
    sim.schedule(5, "probe", EventKind.TIMER, "last at 5")
    sim.schedule(6, "probe", EventKind.TIMER, "at 6")
    sim.run_until(10)
    assert seen == [
        ("alone", True, False),
        ("before a live one", False, False),
        ("last at 5", True, False),
        ("at 6", True, False),
    ]


def test_idle_at_is_false_with_a_cancelled_entry_at_the_tick():
    sim = Simulator()
    seen = []
    sim.register("probe", lambda ev: seen.append(sim.idle_at(ev.time)))
    sim.schedule(5, "probe", EventKind.TIMER)
    sim.cancel(sim.schedule(5, "probe", EventKind.TIMER))
    sim.run_until(10)
    assert seen == [False]


def test_time_never_decreases_and_trace_is_ordered():
    sim = Simulator(trace=True)
    sim.register("a", lambda ev: None)
    for t in (7, 3, 3, 9):
        sim.schedule(t, "a", EventKind.TIMER)
    sim.run_until(10)
    times = [t for t, _, _, _ in sim.trace]
    assert times == sorted(times)
    keys = [(t, s) for t, s, _, _ in sim.trace]
    assert keys == sorted(keys)


def test_overflow_guard():
    sim, _ = make_sim()
    with pytest.raises(SimTimeOverflow):
        sim.schedule(2**63, "probe", EventKind.TIMER)


def test_negative_time_is_an_overflow_and_earlier_time_is_in_the_past():
    sim, _ = make_sim()
    with pytest.raises(SimTimeOverflow):
        sim.schedule(-1, "probe", EventKind.TIMER)  # also while now == 0
    sim.run_until(3)
    with pytest.raises(SimTimeOverflow):
        sim.schedule(-1, "probe", EventKind.TIMER)
    with pytest.raises(SchedulingInPast):
        sim.schedule(2, "probe", EventKind.TIMER)


def test_oscillator_identity():
    osc = Oscillator(0)
    assert osc.local_to_ideal(1 * SEC) == 1 * SEC


def test_oscillator_fast_clock():
    # +100 ppm: one local second is slightly less ideal time.
    osc = Oscillator(100)
    ideal = osc.local_to_ideal(1 * SEC)
    expected = round(Fraction(10**18, 1_000_100))
    assert ideal == expected == 999_900_009_999
    # displayed at nanosecond resolution this is 999 900 010 ns
    assert round(ideal / NS) == 999_900_010


def test_oscillator_slow_clock():
    osc = Oscillator(-100)
    expected = round(Fraction(10**18, 999_900))
    assert osc.local_to_ideal(1 * SEC) == expected
    assert expected == 1_000_100_010_001


@given(
    drift=st.integers(min_value=-1000, max_value=1000),
    t=st.integers(min_value=0, max_value=10 * SEC),
)
def test_oscillator_roundtrip_within_one_tick(drift, t):
    osc = Oscillator(drift)
    assert abs(osc.ideal_to_local(osc.local_to_ideal(t)) - t) <= 1
    assert abs(osc.local_to_ideal(osc.ideal_to_local(t)) - t) <= 1


@given(
    drift=st.integers(min_value=-999, max_value=999),
    a=st.integers(min_value=0, max_value=SEC),
    b=st.integers(min_value=0, max_value=SEC),
)
def test_oscillator_monotone(drift, a, b):
    osc = Oscillator(drift)
    if a <= b:
        assert osc.local_to_ideal(a) <= osc.local_to_ideal(b)


def test_parse_helpers():
    assert parse_duration("2ms") == 2 * MS
    assert parse_duration("125us") == 125 * US
    assert parse_duration("1s") == SEC
    assert parse_rate("100Mb/s") == 100_000_000
    assert parse_rate("500kb/s") == 500_000
    assert parse_rate("0.5Mb/s") == 500_000
    assert parse_duration("1.5us") == 1_500_000
    assert parse_rate("1.5Mb/s") == 1_500_000
    with pytest.raises(ValueError, match=r"^duration '0.5ps' is not a whole number of ticks$"):
        parse_duration("0.5ps")
    with pytest.raises(ValueError, match=r"^rate '0b/s' must be positive$"):
        parse_rate("0b/s")
    assert parse_byte_count("46B") == 46
    assert fmt_duration(2 * MS) == "2ms"
    with pytest.raises(ValueError):
        parse_duration("2 furlongs")
