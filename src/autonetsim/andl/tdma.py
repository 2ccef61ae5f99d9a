"""Feasible-schedule generation for time-triggered streams.

First-fit heuristic: flows are placed in ascending period order; each
flow's per-link windows are offset by the cumulative upstream transmission
durations plus switch processing delays, and the whole pattern is shifted
to the earliest phase that avoids overlap on every link it touches.  The
candidate shifts are 0 and, for each hop, the shifts that start it at the
end of a window already on its link or at the cycle start, both modulo the
period; the smallest one whose half-open windows fit inside the cycle and
meet no placed window wins.  That is the least feasible shift: one tick
less makes a hop's phase wrap from 0 or an instance meet a window that
ends at its start.  The result is a valid starting point, not an optimum.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from math import gcd

from ..kernel import SEC
from ..ethernet import TdmaWindow, violations


class ScheduleInfeasible(Exception):
    pass


class CycleTooLong(Exception):
    pass


@dataclass(frozen=True)
class TtFlow:
    flow_id: str
    ct_id: int
    period: int
    hops: tuple[tuple[str, int], ...]  # (directed link, frame duration)
    gaps: tuple[int, ...]              # processing delay between consecutive hops
    scheduled_release: bool = True     # False for flush-driven aggregate streams


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def _overlaps(intervals: list[tuple[int, int]], start: int, end: int) -> bool:
    """Whether [start, end) meets one of ``intervals``, sorted and disjoint."""
    idx = bisect_left(intervals, (end, end))
    return idx > 0 and intervals[idx - 1][1] > start


def _fits(hops: list[tuple[str, int, int, list]], shift: int, period: int, cycle: int) -> bool:
    """Whether every instance of every hop, shifted by ``shift``, ends inside
    the cycle and meets no window already placed on its link."""
    for _, upstream, dur, busy in hops:
        # A hop's instances start at its phase plus multiples of the period,
        # so the last one ends inside the cycle iff the first ends inside the period.
        phase = (shift + upstream) % period
        if phase + dur > period:
            return False
        for start in range(phase, cycle, period):
            if _overlaps(busy, start, start + dur):
                return False
    return True


def generate_tdma_schedule(
    flows: list[TtFlow], cycle_cap: int = 10 * SEC
) -> tuple[int, list[TdmaWindow], dict[str, list[int]]]:
    """Place windows for every flow; returns the cycle, the windows and, per
    flow, the release offsets of its first hop inside the cycle."""
    if not flows:
        return 1, [], {}
    cycle = _lcm([f.period for f in flows])
    if cycle > cycle_cap:
        raise CycleTooLong(f"schedule cycle {cycle} ticks exceeds cap {cycle_cap}")
    placed: dict[str, list[tuple[int, int]]] = {}
    windows: list[TdmaWindow] = []
    releases: dict[str, list[int]] = {}

    for flow in sorted(flows, key=lambda f: (f.period, f.ct_id, f.flow_id)):
        period = flow.period
        # A path is simple, so a flow's windows on one link are those of one
        # hop, one per period, and cannot overlap once they fit in the period.
        assert len({link for link, _ in flow.hops}) == len(flow.hops), "a flow crosses a link twice"
        hops = []  # (link, upstream offset, duration, windows already on the link)
        upstream = 0
        for k, (link, dur) in enumerate(flow.hops):
            if k:
                upstream += flow.hops[k - 1][1] + flow.gaps[k - 1]
            hops.append((link, upstream, dur, placed.setdefault(link, [])))

        candidates = {0}
        for _, up, dur, busy in hops:
            for _, end in busy:
                candidates.add((end - up) % period)
            candidates.add((-up) % period)
        for shift in sorted(candidates):
            if _fits(hops, shift, period, cycle):
                break
        else:
            raise ScheduleInfeasible(
                f"no feasible offset for flow {flow.flow_id} (ct {flow.ct_id})"
            )

        for _, up, dur, busy in hops:
            for start in range((shift + up) % period, cycle, period):
                insort(busy, (start, start + dur))
        for j in range(cycle // period):
            for link, up, dur, _ in hops:
                windows.append(TdmaWindow(flow.ct_id, link, (j * period + shift + up) % cycle, dur))
        releases[flow.flow_id] = list(range(shift, cycle, period))

    assert not violations(cycle, windows), "generated schedule violates its own invariants"
    return cycle, windows, releases
