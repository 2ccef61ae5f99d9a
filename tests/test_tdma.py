import random
from bisect import bisect_left, insort
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from autonetsim.andl.tdma import (
    CycleTooLong, ScheduleInfeasible, TtFlow, generate_tdma_schedule,
)
from autonetsim.ethernet import TdmaWindow, violations
from autonetsim.kernel import MS, SEC, US


def flow(fid, ct, period, hops, gaps=()):
    return TtFlow(fid, ct, period, tuple(hops), tuple(gaps))


def test_single_message_single_link():
    cycle, windows, releases = generate_tdma_schedule([
        flow("m1:a", 1, 1 * MS, [("x->y", 6_720_000)]),
    ])
    assert cycle == 1 * MS
    (w,) = windows
    assert (w.offset, w.duration) == (0, 6_720_000)
    assert releases["m1:a"] == [0]


def test_two_messages_share_link_without_overlap():
    cycle, windows, _ = generate_tdma_schedule([
        flow("m1:a", 1, 1 * MS, [("x->y", 6_720_000)]),
        flow("m2:a", 2, 1 * MS, [("x->y", 6_720_000)]),
    ])
    ws = sorted((w for w in windows if w.link == "x->y"), key=lambda w: w.offset)
    assert [w.offset for w in ws] == [0, 6_720_000]
    assert violations(cycle, windows) == []


def test_multihop_alignment_includes_processing_delay():
    _, windows, _ = generate_tdma_schedule([
        flow("m:a", 7, 1 * MS, [("a->s", 6_720_000), ("s->b", 6_720_000)], [8 * US]),
    ])
    first = next(w for w in windows if w.link == "a->s")
    second = next(w for w in windows if w.link == "s->b")
    assert second.offset == first.offset + first.duration + 8 * US


def test_overutilized_link_infeasible():
    with pytest.raises(ScheduleInfeasible):
        generate_tdma_schedule([
            flow("m1:a", 1, 1 * MS, [("x->y", 600 * US)]),
            flow("m2:a", 2, 1 * MS, [("x->y", 600 * US)]),
        ])


def test_cycle_cap():
    with pytest.raises(CycleTooLong):
        generate_tdma_schedule([
            flow("m1:a", 1, 7 * SEC, [("x->y", 10 * US)]),
            flow("m2:a", 2, 9 * SEC, [("x->y", 10 * US)]),
        ])


def test_mixed_periods_instances():
    cycle, windows, releases = generate_tdma_schedule([
        flow("fast:a", 1, 1 * MS, [("x->y", 50 * US)]),
        flow("slow:a", 2, 4 * MS, [("x->y", 50 * US)]),
    ])
    assert cycle == 4 * MS
    assert len([w for w in windows if w.ct_id == 1]) == 4
    assert len(releases["fast:a"]) == 4
    assert violations(cycle, windows) == []


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_randomized_schedules_satisfy_invariants(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    links = ["a->s", "s->b", "s->c"]
    flows = []
    for i in range(rng.randint(1, 8)):
        period = rng.choice([1 * MS, 2 * MS, 4 * MS, 8 * MS])
        n_hops = rng.randint(1, 2)
        if n_hops == 1:
            hops = [(rng.choice(links), rng.choice([10, 50, 120]) * US)]
            gaps = []
        else:
            dur = rng.choice([10, 50, 120]) * US
            hops = [("a->s", dur), (rng.choice(["s->b", "s->c"]), dur)]
            gaps = [8 * US]
        flows.append(flow(f"f{i}:r", i, period, hops, gaps))
    try:
        cycle, windows, releases = generate_tdma_schedule(flows)
    except ScheduleInfeasible:
        return
    assert violations(cycle, windows) == []
    for f in flows:
        assert len(releases[f.flow_id]) == cycle // f.period


def test_empty_input():
    _, windows, releases = generate_tdma_schedule([])
    assert windows == [] and releases == {}


# The generator as it was before the per-hop rewrite: every instance of every
# hop checked against the placed windows and a tentative copy of its own.
def _reference_lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def _reference_overlaps(intervals: list[tuple[int, int]], start: int, end: int) -> bool:
    idx = bisect_left(intervals, (end, end))
    if idx > 0 and intervals[idx - 1][1] > start:
        return True
    if idx < len(intervals) and intervals[idx][0] < end:
        return True
    return False


def reference_generate_tdma_schedule(
    flows: list[TtFlow], cycle_cap: int = 10 * SEC
) -> tuple[int, list[TdmaWindow], dict[str, list[int]]]:
    """Place windows for every flow; returns the cycle, the windows and, per
    flow, the release offsets of its first hop inside the cycle."""
    if not flows:
        return 1, [], {}
    cycle = _reference_lcm([f.period for f in flows])
    if cycle > cycle_cap:
        raise CycleTooLong(f"schedule cycle {cycle} ticks exceeds cap {cycle_cap}")
    placed: dict[str, list[tuple[int, int]]] = {}
    windows: list[TdmaWindow] = []
    releases: dict[str, list[int]] = {}

    for flow in sorted(flows, key=lambda f: (f.period, f.ct_id, f.flow_id)):
        period = flow.period
        instances = cycle // period
        upstream = [0]
        for k in range(1, len(flow.hops)):
            prev_link, prev_dur = flow.hops[k - 1]
            upstream.append(upstream[k - 1] + prev_dur + flow.gaps[k - 1])

        candidates = {0}
        for k, (link, dur) in enumerate(flow.hops):
            for start, end in placed.get(link, ()):
                candidates.add((end - upstream[k]) % period)
            candidates.add((-upstream[k]) % period)
            candidates.add((cycle - dur - upstream[k]) % period)

        chosen = None
        for shift in sorted(candidates):
            tentative: dict[str, list[tuple[int, int]]] = {}
            ok = True
            for j in range(instances):
                for k, (link, dur) in enumerate(flow.hops):
                    start = (j * period + shift + upstream[k]) % cycle
                    end = start + dur
                    if end > cycle:
                        ok = False
                        break
                    existing = placed.get(link, [])
                    if _reference_overlaps(existing, start, end):
                        ok = False
                        break
                    mine = tentative.setdefault(link, [])
                    if _reference_overlaps(mine, start, end):
                        ok = False
                        break
                    insort(mine, (start, end))
                if not ok:
                    break
            if ok:
                chosen = (shift, tentative)
                break
        if chosen is None:
            raise ScheduleInfeasible(
                f"no feasible offset for flow {flow.flow_id} (ct {flow.ct_id})"
            )
        shift, tentative = chosen
        for link, intervals in tentative.items():
            dest = placed.setdefault(link, [])
            for iv in intervals:
                insort(dest, iv)
        for j in range(instances):
            for k, (link, dur) in enumerate(flow.hops):
                start = (j * period + shift + upstream[k]) % cycle
                windows.append(TdmaWindow(flow.ct_id, link, start, dur))
        releases[flow.flow_id] = sorted(
            (j * period + shift) % cycle for j in range(instances)
        )

    assert not violations(cycle, windows), "generated schedule violates its own invariants"
    return cycle, windows, releases


LINKS = ["a->s", "s->b", "s->c", "b->s", "s->a", "c->s"]


@st.composite
def flow_sets(draw):
    # Harmonic period sets, as a vehicle's TT traffic has, and two that are not.
    base = draw(st.sampled_from([1_000, 1_200, 4_096]))
    multiples = draw(st.sampled_from([(1, 2, 4), (1, 2, 4, 8), (1, 4, 16), (2, 3), (1, 2, 3, 6)]))
    periods = [base * m for m in multiples]
    wide = draw(st.booleans())  # else every window is short and most sets fit
    flows = []
    for i in range(draw(st.integers(1, 12))):
        period = draw(st.sampled_from(periods))
        links = draw(st.lists(st.sampled_from(LINKS), min_size=1, max_size=4, unique=True))
        durations = st.integers(1, period // 16)
        if wide:
            durations = st.one_of(durations, st.integers(1, period + period // 4),
                                  st.sampled_from([period - 1, period, period + 1]))
        hops = tuple((link, draw(durations)) for link in links)
        gaps = tuple(draw(st.integers(0, period // 4)) for _ in links[1:])
        flows.append(TtFlow(f"f{i}:r", draw(st.integers(1, 6)), period, hops, gaps,
                            scheduled_release=draw(st.booleans())))
    return flows, draw(st.sampled_from([10 * SEC, 10 * SEC, 10 * SEC, max(periods) - 1]))


def _outcome(generate, flows, cycle_cap):
    try:
        return generate(flows, cycle_cap)
    except (ScheduleInfeasible, CycleTooLong) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=400)
@given(flow_sets())
def test_generator_matches_the_reference_generator(case):
    flows, cycle_cap = case
    assert _outcome(generate_tdma_schedule, flows, cycle_cap) == \
        _outcome(reference_generate_tdma_schedule, flows, cycle_cap)


def test_a_flow_that_crosses_a_link_twice_is_refused():
    with pytest.raises(AssertionError, match="crosses a link twice"):
        generate_tdma_schedule([flow("m:a", 1, 1 * MS, [("x->y", 10 * US), ("x->y", 10 * US)], [0])])
