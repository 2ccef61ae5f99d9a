"""The egress port against the port it replaced, departure by departure.

``CreditState``, ``BagState``, ``bag_gate``, ``TdmaSchedule`` and ``EthPort``
below are the egress port as it was before each traffic class became one
queue object, kept verbatim as the reference (``BE_PRECEDENCE`` with them).
Hypothesis feeds the reference and ``autonetsim.ethernet.EthPort`` the same
arrival traces and compares every delivery tick, recorded vector and scalar,
link total and dispatched event.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from autonetsim import ethernet
from autonetsim.ethernet import (
    AVB, AVB_LABELS, BE, BE_LABELS, DEFAULT_QUEUE_CAPACITY, RC, TT, EthFrame,
    TdmaWindow, eth_frame_duration, eth_wire_bits,
)
from autonetsim.kernel import MS, US, Event, EventKind, Simulator
from autonetsim.metrics import SCALE, MetricStore

BE_PRECEDENCE = tuple((p, BE_LABELS[p]) for p in range(7, -1, -1))  # highest 802.1Q first


class CreditState:
    """Credit-based shaper state for one AVB class on one port."""

    __slots__ = ("idle_slope", "send_slope", "scaled", "last_update", "_points")

    def __init__(self, idle_slope: int, port_rate: int, points: list | None = None):
        if idle_slope <= 0:
            raise ValueError("idle_slope must be positive")
        self.idle_slope = idle_slope
        self.send_slope = idle_slope - port_rate
        self.scaled = 0  # credit in bits, scaled by 10^12
        self.last_update = 0
        self._points = points  # (tick, scaled credit), or None when not recorded
        if points is not None:
            points.append((0, 0))

    def advance(self, now: int, waiting: bool, transmitting: bool) -> None:
        """Integrate credit over [last_update, now] under one constant phase."""
        dt = now - self.last_update
        if dt <= 0:
            return
        if transmitting:
            slope = self.send_slope
        elif waiting:
            slope = self.idle_slope
        else:
            slope = 0
        self.scaled += slope * dt
        self.last_update = now
        if self._points is not None:
            self._points.append((now, self.scaled))

    def reset_if_positive(self, now: int) -> None:
        if self.scaled > 0:
            self.scaled = 0
            if self._points is not None:
                self._points.append((now, 0))

    def zero_crossing(self, now: int) -> int:
        """First tick at which credit is back to >= 0, accruing at idle_slope."""
        if self.scaled >= 0:
            return now
        deficit = -self.scaled
        return now + (deficit + self.idle_slope - 1) // self.idle_slope

    @property
    def credit_bits(self) -> Fraction:
        return Fraction(self.scaled, SCALE)


@dataclass
class BagState:
    vl_id: int
    bag: int
    last_departure: int | None = None

    def __post_init__(self) -> None:
        if self.bag <= 0:
            raise ValueError("bag must be positive")


def bag_gate(state: BagState, now: int) -> int:
    """Earliest permitted departure for the virtual link."""
    if state.last_departure is None or now >= state.last_departure + state.bag:
        return now
    return state.last_departure + state.bag


class TdmaSchedule:
    """Offline window plan; windows on one link never overlap in a cycle."""

    def __init__(self, cycle_length: int, windows: list[TdmaWindow]):
        self.cycle_length = cycle_length
        self.windows = windows
        self._by_link: dict[str, list[TdmaWindow]] = {}
        for w in self.windows:
            self._by_link.setdefault(w.link, []).append(w)
        for ws in self._by_link.values():
            ws.sort(key=lambda w: w.offset)
        self._starts: dict[str, list[int]] = {
            link: [w.offset for w in ws] for link, ws in self._by_link.items()
        }

    def violations(self) -> list[str]:
        out = []
        for link, ws in self._by_link.items():
            for w in ws:
                if w.offset < 0 or w.offset + w.duration > self.cycle_length:
                    out.append(f"window {w.ct_id} on {link} leaves the cycle")
            for a, b in zip(ws, ws[1:]):
                if a.offset + a.duration > b.offset:
                    out.append(f"windows {a.ct_id} and {b.ct_id} overlap on {link}")
        return out

    def windows_for(self, link: str) -> list[TdmaWindow]:
        return self._by_link.get(link, [])

    def covering(self, link: str, cyc: int) -> TdmaWindow | None:
        ws = self._by_link.get(link)
        if not ws:
            return None
        idx = bisect_right(self._starts[link], cyc) - 1
        if idx >= 0:
            w = ws[idx]
            if cyc <= w.offset + w.duration:
                return w
        return None

    def next_begin(self, link: str, now: int) -> int | None:
        """Absolute time of the first window start strictly after now."""
        starts = self._starts.get(link)
        if not starts:
            return None
        cyc = now % self.cycle_length
        idx = bisect_right(starts, cyc)
        if idx < len(starts):
            return now + (starts[idx] - cyc)
        return now + (self.cycle_length - cyc) + starts[0]

    def next_open_for_ct(self, link: str, ct_id: int, now: int, duration: int) -> int | None:
        """Next absolute start of a window of ct_id long enough for duration."""
        best = None
        cyc = now % self.cycle_length
        for w in self._by_link.get(link, []):
            if w.ct_id != ct_id or w.duration < duration:
                continue
            delta = (w.offset - cyc) % self.cycle_length
            if delta == 0:
                delta = self.cycle_length
            t = now + delta
            if best is None or t < best:
                best = t
        return best

    def max_gap(self, link: str) -> int | None:
        """Longest window-free stretch on the link; None when unscheduled."""
        ws = self._by_link.get(link)
        if not ws:
            return None
        gaps = []
        for a, b in zip(ws, ws[1:]):
            gaps.append(b.offset - (a.offset + a.duration))
        wrap = (self.cycle_length - (ws[-1].offset + ws[-1].duration)) + ws[0].offset
        gaps.append(wrap)
        return max(gaps)


class EthPort:
    """One direction of a full-duplex link with the class-based egress logic."""

    def __init__(
        self,
        sim: Simulator,
        store: MetricStore,
        owner: str,
        peer_label: str,
        rate: int,
        capacity: int = DEFAULT_QUEUE_CAPACITY,
        schedule: TdmaSchedule | None = None,
        idle_slope_a: int = 0,
        idle_slope_b: int = 0,
    ):
        self.sim = sim
        self.store = store
        self.owner = owner
        self.path = f"{owner}.port.{peer_label}"
        self.link = f"{owner}->{peer_label}"
        self.rate = rate
        self.capacity = capacity
        self.schedule = schedule
        self.peer = None  # wired after construction: .receive(frame, now, port)

        self.tt_queues: dict[int, deque[EthFrame]] = {}
        self.rc_queue: list[tuple[int, int, int, EthFrame]] = []  # (enq_t, vl, order, frame)
        self.bags: dict[int, BagState] = {}
        self.avb_queues = {"A": deque(), "B": deque()}
        self.credit: dict[str, CreditState] = {}
        if idle_slope_a:
            self.credit["A"] = CreditState(idle_slope_a, rate, self._credit_points("A"))
        if idle_slope_b:
            self.credit["B"] = CreditState(idle_slope_b, rate, self._credit_points("B"))
        # (label, shaper, queue) per reserved AVB class; empty on unreserved ports.
        self._shapers = tuple(
            (AVB_LABELS[cls], state, self.avb_queues[cls]) for cls, state in self.credit.items()
        )
        self.be_queues = [deque() for _ in range(8)]
        self._durations: dict[int, int] = {}  # payload length -> ticks on this port

        self._order = 0
        self._tx: tuple[EthFrame, str] | None = None  # (frame, class label)
        self._tx_end = 0  # end tick of the current (or last) transmission
        self._wakeup_at: int | None = None
        self._kick_pending = False
        self._max_gap = schedule.max_gap(self.link) if schedule else None
        sim.register(self.path, self._handle)

    def _credit_points(self, cls: str) -> list | None:
        if not self.store.flags.credit:
            return None
        return self.store.scaled_vec(self.path, f"credit[{cls}]")

    def _duration(self, payload_len: int) -> int:
        dur = self._durations.get(payload_len)
        if dur is None:
            dur = self._durations[payload_len] = eth_frame_duration(payload_len, self.rate)
        return dur

    # -- queue plumbing -------------------------------------------------

    def _queue_of(self, tag) -> tuple:
        """The queue holding a tag's frames, and its label."""
        kind = type(tag)
        if kind is BE:
            return self.be_queues[tag.priority], BE_LABELS[tag.priority]
        if kind is AVB:
            return self.avb_queues[tag.cls], AVB_LABELS[tag.cls]
        if kind is RC:
            return self.rc_queue, "RC"
        queue = self.tt_queues.get(tag.ct_id)
        if queue is None:
            queue = self.tt_queues[tag.ct_id] = deque()
        return queue, f"TT[{tag.ct_id}]"

    def enqueue(self, frame: EthFrame, now: int) -> None:
        tag = frame.tag
        queue, label = self._queue_of(tag)
        store = self.store
        if len(queue) >= self.capacity:
            store.count_drop(self.path, label)
            if store.flags.queues:
                store.record_queue(self.path, label, now, len(queue))
            return
        kind = type(tag)
        if kind is not TT and self._max_gap is not None:
            # A frame longer than every window-free stretch can never start.
            if self._duration(frame.payload_len) > self._max_gap:
                store.count_drop(self.path, label, reason="guardband")
                return
        if self._shapers:
            self._credit_advance(now)
        if kind is RC:
            self._order += 1
            queue.append((now, tag.vl_id, self._order, frame))
            self.bags.setdefault(tag.vl_id, BagState(tag.vl_id, tag.bag))
        else:
            queue.append(frame)
        if store.flags.queues:
            store.record_queue(self.path, label, now, len(queue))
        # While a transmission runs past this tick a kick would find the port
        # busy and do nothing; _complete kicks when the transmission ends.
        if self._tx_end <= now:
            self._kick()

    def _kick(self) -> None:
        """Defer selection to the end of the tick so simultaneous arrivals
        compete as one batch instead of first-caller-wins."""
        if not self._kick_pending:
            self._kick_pending = True
            self.sim.defer(self._kicked)

    def _kicked(self) -> None:
        self._kick_pending = False
        self.try_send(self.sim.now)

    # -- credit bookkeeping ----------------------------------------------

    def _credit_advance(self, now: int) -> None:
        sending = self._tx[1] if self._tx is not None else None
        for label, state, queue in self._shapers:
            state.advance(now, bool(queue), label == sending)

    def _credit_settle(self, now: int, sent: str | None) -> None:
        """Advance every shaper to now, class ``sent`` having transmitted
        since its last update, and zero the positive credit of each shaper
        with nothing queued; the port is idle from now on."""
        for label, state, queue in self._shapers:
            state.advance(now, bool(queue), label == sent)
            if not queue:
                state.reset_if_positive(now)

    # -- transmission selection --------------------------------------------

    def _fits_guard_band(self, duration: int, now: int) -> bool:
        begin = self.schedule.next_begin(self.link, now)
        return begin is None or now + duration <= begin

    def _select(self, now: int):
        """Return (frame, class label, duration, queue) or None, dequeuing the winner."""
        sched = self.schedule
        # TT: only inside a window and only the window's ct.
        if sched is not None:
            cyc = now % sched.cycle_length
            w = sched.covering(self.link, cyc)
            if w is not None:
                q = self.tt_queues.get(w.ct_id)
                if q:
                    dur = self._duration(q[0].payload_len)
                    if cyc + dur <= w.offset + w.duration:
                        return q.popleft(), f"TT[{w.ct_id}]", dur, q
        # RC: oldest frame whose BAG gate is open, ties by lowest vl id.
        rc_queue = self.rc_queue
        if rc_queue:
            best = None
            for entry in rc_queue:
                enq_t, vl, order, frame = entry
                if bag_gate(self.bags[vl], now) > now:
                    continue
                dur = self._duration(frame.payload_len)
                if sched is not None and not self._fits_guard_band(dur, now):
                    continue
                key = (enq_t, vl, order)
                if best is None or key < best[0]:
                    best = (key, entry, dur)
            if best is not None:
                _, entry, dur = best
                rc_queue.remove(entry)
                return entry[3], "RC", dur, rc_queue
        # AVB A then B: gate open when credit >= 0.
        for cls, q in self.avb_queues.items():
            if not q:
                continue
            state = self.credit.get(cls)
            if state is None:
                raise RuntimeError(f"AVB class {cls} frame on {self.path} without a reservation")
            if state.scaled < 0:
                continue
            dur = self._duration(q[0].payload_len)
            if sched is None or self._fits_guard_band(dur, now):
                return q.popleft(), AVB_LABELS[cls], dur, q
        # Best effort, highest 802.1Q priority first.
        for prio, label in BE_PRECEDENCE:
            q = self.be_queues[prio]
            if not q:
                continue
            dur = self._duration(q[0].payload_len)
            if sched is None or self._fits_guard_band(dur, now):
                return q.popleft(), label, dur, q
        return None

    def try_send(self, now: int) -> None:
        if self._tx is not None:
            return
        if self._shapers:
            self._credit_settle(now, None)
        picked = self._select(now)
        if picked is None:
            self._plan_wakeup(now)
            return
        frame, label, dur, queue = picked
        self._tx = (frame, label)
        self._tx_end = end = now + dur
        store = self.store
        if store.flags.queues:
            store.record_queue(self.path, label, now, len(queue))
        tag = frame.tag
        kind = type(tag)
        if kind is RC:
            self.bags[tag.vl_id].last_departure = now
            store.vec(self.path, f"txStart[vl{tag.vl_id}]", now, eth_wire_bits(frame.payload_len))
        elif kind is AVB:
            assert self.credit[tag.cls].scaled >= 0, "CBS gate violated"
            store.vec(self.path, f"txStart[{label}]", now, eth_wire_bits(frame.payload_len))
        self.sim.schedule(end, self.path, EventKind.PORT_TX_DONE, frame)

    def _plan_wakeup(self, now: int) -> None:
        candidates: list[int] = []
        sched = self.schedule
        if sched is not None:
            for ct, q in self.tt_queues.items():
                while q:
                    dur = self._duration(q[0].payload_len)
                    t = sched.next_open_for_ct(self.link, ct, now, dur)
                    if t is None:
                        # No window will ever fit this frame: schedule fault.
                        q.popleft()
                        self.store.count_drop(self.path, f"TT[{ct}]", reason="unschedulable")
                        continue
                    candidates.append(t)
                    break
        for enq_t, vl, order, frame in self.rc_queue:
            gate = bag_gate(self.bags[vl], now)
            if gate > now:
                candidates.append(gate)
        for _, state, q in self._shapers:
            if q and state.scaled < 0:
                candidates.append(state.zero_crossing(now))
        if sched is not None and (
            self.rc_queue
            or any(self.avb_queues.values())
            or any(self.be_queues)
        ):
            begin = sched.next_begin(self.link, now)
            if begin is not None:
                candidates.append(begin)
        if not candidates:
            return
        t = min(candidates)
        if t <= now:
            t = now + 1
        if self._wakeup_at is None or t < self._wakeup_at:
            self._wakeup_at = t
            self.sim.schedule(t, self.path, EventKind.PORT_TRY_SEND)

    # -- event handling -----------------------------------------------------

    def _handle(self, ev: Event) -> None:
        kind = ev.kind
        if kind is EventKind.PORT_TRY_SEND:  # a wakeup
            if self._wakeup_at is not None and ev.time >= self._wakeup_at:
                self._wakeup_at = None
            self.try_send(ev.time)
        elif kind is EventKind.PORT_TX_DONE:
            self._complete(ev)

    def _complete(self, ev: Event) -> None:
        frame = ev.payload
        now = ev.time
        if self._shapers:
            self._credit_settle(now, self._tx[1])
        self._tx = None
        self.store.link_completed(self.link, eth_wire_bits(frame.payload_len))
        if self.peer is not None:
            self.peer.receive(frame, now, self)
        self._kick()


# -- the comparison --------------------------------------------------------------

RATES = (100_000_000, 1_000_000_000)
HORIZON = 2 * MS


class Peer:
    """Logs deliveries; at one, lets in the group waiting for it, before the
    port selects its next frame."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []
        self.waiting = None  # the index of the group due at the next delivery

    def receive(self, frame, now, port):
        self.got.append((frame.message, now))
        if self.waiting is not None:
            self.sim.schedule(now, "arrivals", EventKind.TIMER, self.waiting)
            self.waiting = None


@st.composite
def traces(draw):
    """A port's settings, its TDMA windows (maybe none) and the frames that
    arrive at it: (tick, [(tag, payload), ...]) groups, each group enqueued
    by one event, in tick order.  A group with tick None arrives at the
    first delivery after the group before it."""
    rate = draw(st.sampled_from(RATES))
    slopes = [draw(st.one_of(st.just(0), st.integers(rate // 100, 3 * rate // 4))) for _ in "AB"]
    windows, cycle = [], None
    if draw(st.booleans()):
        cycle = draw(st.sampled_from([500 * US, 1 * MS]))
        n = draw(st.integers(1, 3))
        slot = cycle // n
        for k in range(n):
            # Some windows are too short for any frame; some leave gaps too short for long frames.
            duration = draw(st.one_of(st.integers(US // 2, 8 * US), st.integers(8 * US, slot // 2),
                                      st.integers(slot - 150 * US, slot - US)))
            offset = k * slot + draw(st.integers(0, slot - duration))
            windows.append(TdmaWindow(draw(st.integers(1, 2)), "s1->en2", offset, duration))
    vls = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    classes = [[BE(p) for p in range(8)],
               [RC(vl, draw(st.integers(10 * US, 1 * MS))) for vl in vls],  # one BAG per vl
               [AVB(1, cls) for cls, slope in zip("AB", slopes) if slope],
               [TT(ct) for ct in (1, 2, 9)]]  # ct 9 has no window
    tags = st.one_of([st.sampled_from(tags) for tags in classes if tags])
    payloads = st.one_of(st.integers(46, 1500), st.sampled_from([46, 1500]))
    ticks = st.one_of(st.integers(0, 40).map(lambda k: k * 50 * US), st.integers(0, HORIZON))
    if windows:  # the tick a window opens, or one frame time before it
        opens = st.builds(lambda k, w: k * cycle + w.offset, st.integers(0, HORIZON // cycle), st.sampled_from(windows))
        before = st.builds(lambda t, payload: max(0, t - eth_frame_duration(payload, rate)), opens,
                           st.sampled_from([46, 1500]))
        ticks = st.one_of(ticks, opens, before)
    frames = st.lists(st.tuples(tags, payloads), min_size=1, max_size=4)
    groups = draw(st.lists(st.tuples(st.one_of(ticks, st.none()), frames), min_size=1, max_size=12))
    ordered = iter(sorted(tick for tick, _ in groups if tick is not None))
    groups = [(tick if tick is None else next(ordered), group) for tick, group in groups]
    return rate, draw(st.integers(1, 8)), slopes, cycle, windows, groups


def run(port_class, trace):
    """Everything a run of ``port_class`` over ``trace`` leaves behind."""
    rate, capacity, (slope_a, slope_b), cycle, windows, groups = trace
    sim = Simulator(trace=True)
    store = MetricStore()
    if port_class is EthPort:  # the reference reads a schedule of all links
        plan = {"schedule": TdmaSchedule(cycle, windows) if windows else None}
    else:  # the port holds its own link's windows in offset order
        plan = {"windows": sorted(windows, key=lambda w: w.offset), "cycle": cycle}
    port = port_class(sim, store, "s1", "en2", rate, capacity=capacity, **plan,
                      idle_slope_a=slope_a, idle_slope_b=slope_b)
    port.peer = peer = Peer(sim)

    def arrive(ev):
        k = ev.payload
        for i, (tag, payload) in enumerate(groups[k][1]):
            port.enqueue(EthFrame(("dst", "en2"), payload, tag, ev.time, message=f"{k}.{i}"), ev.time)
        if k + 1 < len(groups):
            tick = groups[k + 1][0]
            if tick is None:
                peer.waiting = k + 1
            else:  # a later group at this tick arrives after the selection
                sim.schedule(max(tick, ev.time), "arrivals", EventKind.TIMER, k + 1)

    sim.register("arrivals", arrive)
    sim.schedule(groups[0][0] or 0, "arrivals", EventKind.TIMER, 0)
    dispatched = sim.run_to_completion().events_dispatched
    return {"deliveries": peer.got, "trace": sim.trace, "dispatched": dispatched,
            "vectors": store.vectors, "scaled": store.scaled, "scalars": store.scalars,
            "link_bits": store.link_bits, "link_frames": store.link_frames}


# A class A frame ends with credit left and its queue empty, and the next one
# arrives as it ends: the completion's credit reset is seen.  Random traces
# seldom line these up.
RESET_AT_COMPLETION = (100_000_000, 8, [75_000_000, 0], None, [],
                       [(0, [(BE(0), 1500)]), (1 * US, [(AVB(1, "A"), 46)]),
                        (125 * US, [(BE(0), 46)]), (None, [(AVB(1, "A"), 46)])])

# Two windows in a 1 ms cycle: ct 1 at [100, 110] us and ct 2 at [600, 610] us.
EDGE_WINDOWS = [TdmaWindow(1, "s1->en2", 100 * US, 10 * US), TdmaWindow(2, "s1->en2", 600 * US, 10 * US)]
# Frames ready at the tick the first window ends: that window still covers the
# tick, but no frame fits in what is left of it.
READY_AT_WINDOW_END = (100_000_000, 8, [0, 0], 1 * MS, EDGE_WINDOWS,
                       [(110 * US, [(TT(1), 46), (BE(0), 46), (BE(1), 1500)])])
# Frames in the gap after the cycle's last window: the next start is the next
# cycle's first, and a 1500 B frame at 990 us would overrun it.
GAP_AFTER_LAST_WINDOW = (100_000_000, 8, [0, 0], 1 * MS, EDGE_WINDOWS,
                         [(610 * US, [(TT(2), 46)]), (990 * US, [(BE(0), 1500), (TT(1), 46), (BE(3), 46)])])


@settings(max_examples=1000, deadline=None)
@example(trace=RESET_AT_COMPLETION)
@example(trace=READY_AT_WINDOW_END)
@example(trace=GAP_AFTER_LAST_WINDOW)
@given(trace=traces())
def test_port_matches_the_reference_port(trace):
    assert run(ethernet.EthPort, trace) == run(EthPort, trace)
