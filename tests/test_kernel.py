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


def test_cancelled_event_does_not_move_the_clock():
    sim, _ = make_sim()
    sim.schedule(5, "probe", EventKind.TIMER)
    sim.cancel(sim.schedule(9, "probe", EventKind.TIMER))
    assert sim.run_to_completion().final_time == 5


def test_same_tick_events_and_deferred_calls_run_in_call_order():
    sim = Simulator()
    log = []

    def probe(ev):
        log.append(ev.payload)
        if ev.payload == "first":
            sim.schedule(5, "probe", EventKind.TIMER, "event a")
            sim.defer(lambda: (log.append("call b"), sim.defer(lambda: log.append("call e"))))
            sim.schedule(5, "probe", EventKind.TIMER, "event c")
            sim.defer(lambda: log.append("call d"))
            sim.schedule(6, "probe", EventKind.TIMER, "at 6")

    sim.register("probe", probe)
    sim.schedule(5, "probe", EventKind.TIMER, "first")
    sim.schedule(5, "probe", EventKind.TIMER, "queued before")
    sim.run_until(10)
    assert log == ["first", "queued before", "event a", "call b", "event c", "call d",
                   "call e", "at 6"]


def test_defer_at_set_up_keeps_its_place_among_events_at_the_tick():
    sim, log = make_sim()
    sim.schedule(0, "probe", EventKind.TIMER, "before")
    sim.defer(lambda: log.append((sim.now, "deferred")))
    sim.schedule(0, "probe", EventKind.TIMER, "after")
    sim.run_until(3)
    sim.schedule(3, "probe", EventKind.TIMER, "before at 3")
    sim.defer(lambda: log.append((sim.now, "deferred at 3")))
    sim.schedule(3, "probe", EventKind.TIMER, "after at 3")
    summary = sim.run_until(3)
    assert log == [(0, "before"), (0, "deferred"), (0, "after"),
                   (3, "before at 3"), (3, "deferred at 3"), (3, "after at 3")]
    assert summary.events_dispatched == 2


def test_a_raising_handler_leaves_the_rest_of_its_tick_in_order():
    sim = Simulator()
    log = []

    def probe(ev):
        log.append(ev.payload)
        if ev.payload == "first":
            sim.schedule(5, "probe", EventKind.TIMER, "queued at 5")
            sim.defer(lambda: log.append("deferred at 5"))
            raise RuntimeError("handler fault")

    sim.register("probe", probe)
    sim.schedule(5, "probe", EventKind.TIMER, "first")
    sim.schedule(5, "probe", EventKind.TIMER, "heap at 5")
    sim.schedule(6, "probe", EventKind.TIMER, "at 6")
    with pytest.raises(RuntimeError):
        sim.run_until(10)
    assert sim.now == 5 and sim.pending() == 4
    summary = sim.run_until(10)
    # (time, seq): the heap entry at 5 predates the queued one, the deferred call comes last at 5
    assert log == ["first", "heap at 5", "queued at 5", "deferred at 5", "at 6"]
    assert summary.events_dispatched == 3


def test_cancelled_same_tick_event_is_skipped():
    sim = Simulator()
    log = []

    def probe(ev):
        log.append(ev.payload)
        if ev.payload == "first":
            doomed = sim.schedule(ev.time, "probe", EventKind.TIMER, "cancelled")
            sim.schedule(ev.time, "probe", EventKind.TIMER, "kept")
            sim.cancel(doomed)

    sim.register("probe", probe)
    sim.schedule(5, "probe", EventKind.TIMER, "first")
    summary = sim.run_until(10)
    assert log == ["first", "kept"]
    assert summary.events_dispatched == 2


def test_pending_counts_the_same_tick_queue():
    sim = Simulator()
    seen = []

    def probe(ev):
        if ev.payload == "first":
            seen.append(sim.pending())  # "later" only
            sim.schedule(ev.time, "probe", EventKind.TIMER)
            sim.defer(lambda: seen.append(sim.pending()))
            sim.cancel(sim.schedule(ev.time, "probe", EventKind.TIMER))
            seen.append(sim.pending())

    sim.register("probe", probe)
    sim.schedule(5, "probe", EventKind.TIMER, "first")
    sim.schedule(7, "probe", EventKind.TIMER, "later")
    sim.defer(lambda: None)
    assert sim.pending() == 3
    sim.run_until(10)
    assert seen == [1, 3, 1]
    assert sim.pending() == 0


def test_deferred_calls_are_not_events():
    sim = Simulator(trace=True)
    calls = []
    sim.register("probe", lambda ev: sim.defer(lambda: calls.append(sim.now)))
    sim.schedule(4, "probe", EventKind.TIMER)
    sim.defer(lambda: calls.append(sim.now))
    summary = sim.run_until(10)
    assert calls == [0, 4]
    assert summary.events_dispatched == 1
    assert [(t, target) for t, _, target, _ in sim.trace] == [(4, "probe")]


_ENTRY_LIMIT = 60

# What the n-th entry does when it runs: ("event", offset) schedules an event
# `offset` ticks ahead, ("call", 0) defers a call.
_actions = st.lists(
    st.one_of(st.tuples(st.just("event"), st.sampled_from([0, 0, 1, 3])),
              st.just(("call", 0))),
    max_size=3)


def _dispatch_order(plan, initial):
    """Entry ids in the order the simulator runs them."""
    sim = Simulator()
    order = []
    created = [0]

    def add(kind, offset):
        entry = created[0]
        created[0] += 1
        if kind == "call":
            sim.defer(lambda: act(entry))
        else:
            sim.schedule(sim.now + offset, "probe", EventKind.TIMER, entry)

    def act(entry):
        order.append(entry)
        for kind, offset in plan[entry % len(plan)]:
            if created[0] < _ENTRY_LIMIT:
                add(kind, offset)

    sim.register("probe", lambda ev: act(ev.payload))
    for kind, offset in initial:
        add(kind, offset)
    sim.run_to_completion()
    return order


def _reference_order(plan, initial):
    """The same entries, each given (time, seq) at creation and run in that order."""
    entries = []
    order = []
    now = 0

    def add(kind, offset):
        seq = len(entries)
        entries.append((now + (offset if kind == "event" else 0), seq))

    for kind, offset in initial:
        add(kind, offset)
    done = set()
    while len(done) < len(entries):
        now, entry = min(e for e in entries if e[1] not in done)
        done.add(entry)
        order.append(entry)
        for kind, offset in plan[entry % len(plan)]:
            if len(entries) < _ENTRY_LIMIT:
                add(kind, offset)
    return order


@given(plan=st.lists(_actions, min_size=1, max_size=6),
       initial=st.lists(st.one_of(st.tuples(st.just("event"), st.integers(0, 4)),
                                  st.just(("call", 0))), min_size=1, max_size=5))
def test_dispatch_equals_time_then_insertion_order(plan, initial):
    assert _dispatch_order(plan, initial) == _reference_order(plan, initial)


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


# The oscillator as it was before the integer rewrite: Fraction arithmetic per call.
def _reference_round_half_away(x: Fraction) -> int:
    """Round to the nearest integer, ties away from zero."""
    if x >= 0:
        return int((2 * x + 1) // 2)
    return -int((-2 * x + 1) // 2)


class ReferenceOscillator:
    """Constant-rate inaccurate clock.

    A local clock running fast by ``drift_ppm`` parts per million sees
    ``(10^6 + drift_ppm)`` of its own ticks per ``10^6`` ideal ticks.  The
    mapping between local and ideal time is monotone and bijective for any
    |drift_ppm| < 10^6, and drift 0 is the identity.
    """

    def __init__(self, drift_ppm: int | Fraction = 0):
        drift = Fraction(drift_ppm)
        if abs(drift) >= 10**6:
            raise ValueError("|drift_ppm| must be < 10^6")
        self.drift_ppm = drift

    def local_to_ideal(self, local: int) -> int:
        if local < 0:
            raise ValueError("local time must be >= 0")
        ideal = Fraction(local) * 10**6 / (10**6 + self.drift_ppm)
        return _reference_round_half_away(ideal)

    def ideal_to_local(self, ideal: int) -> int:
        local = Fraction(ideal) * (10**6 + self.drift_ppm) / 10**6
        return _reference_round_half_away(local)



drifts = st.one_of(
    st.integers(-999_999, 999_999),
    st.fractions(-999_999, 999_999, max_denominator=10**6),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(999_999_999, 1000)]),
)


@given(drift=drifts, local=st.integers(0, 2**62), ideal=st.integers(-(2**62), 2**62))
def test_oscillator_matches_the_reference_oscillator(drift, local, ideal):
    osc, ref = Oscillator(drift), ReferenceOscillator(drift)
    assert osc.drift_ppm == ref.drift_ppm
    assert osc.local_to_ideal(local) == ref.local_to_ideal(local)
    assert osc.ideal_to_local(ideal) == ref.ideal_to_local(ideal)


# 10^6 / (10^6 + drift) is 5/2, 25/2, ..., 15625/2: an odd local time is a tie.
@given(drift=st.sampled_from([-600_000, -920_000, -984_000, -996_800, -999_360, -999_872]),
       k=st.integers(0, 2**40))
def test_oscillator_rounds_local_ties_like_the_reference(drift, k):
    local = 2 * k + 1
    exact = Fraction(local * 10**6, 10**6 + drift)
    assert exact.denominator == 2
    ideal = Oscillator(drift).local_to_ideal(local)
    assert ideal == exact + Fraction(1, 2) == ReferenceOscillator(drift).local_to_ideal(local)


# (10^6 + a/2) / 10^6 with a odd: an odd multiple of 10^6, of either sign, is a tie.
@given(a=st.integers(-999_999, 999_998).map(lambda n: 2 * n + 1), k=st.integers(-(2**30), 2**30))
def test_oscillator_rounds_ideal_ties_like_the_reference(a, k):
    drift, ideal = Fraction(a, 2), 10**6 * (2 * k + 1)
    exact = ideal * (10**6 + drift) / 10**6
    assert exact.denominator == 2
    local = Oscillator(drift).ideal_to_local(ideal)
    away = Fraction(1 if ideal > 0 else -1, 2)
    assert local == exact + away == ReferenceOscillator(drift).ideal_to_local(ideal)


@pytest.mark.parametrize("drift, local, ideal", [
    (-200_000, 2, 3), (-200_000, 10, 13), (-600_000, 1, 3), (-600_000, 7, 18),
])
def test_oscillator_rounds_a_local_tie_up(drift, local, ideal):
    assert Oscillator(drift).local_to_ideal(local) == ideal == ReferenceOscillator(drift).local_to_ideal(local)


@pytest.mark.parametrize("drift, ideal, local", [
    (Fraction(1, 2), 10**6, 1_000_001), (Fraction(1, 2), -(10**6), -1_000_001),
    (Fraction(-1, 2), 10**6, 1_000_000), (Fraction(-1, 2), -(10**6), -1_000_000),
    (500_000, 1, 2), (500_000, -1, -2), (500_000, 3, 5), (500_000, -3, -5),
])
def test_oscillator_rounds_an_ideal_tie_away_from_zero(drift, ideal, local):
    assert Oscillator(drift).ideal_to_local(ideal) == local == ReferenceOscillator(drift).ideal_to_local(ideal)


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
