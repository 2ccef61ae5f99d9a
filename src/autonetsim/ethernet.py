"""Switched real-time Ethernet model.

Every directed link endpoint owns an egress port with per-class FIFO queues.
Four traffic classes coexist on a port and are served by strict precedence:

    TT (only inside its scheduled window) > RC (BAG gate open)
    > AVB class A (credit >= 0) > AVB class B (credit >= 0)
    > best effort (802.1Q priority, FIFO within priority)

A non-TT frame additionally starts only if it completes before the next
scheduled window begins (guard band by lookahead; preemption is not
modeled).  AVB classes are shaped by a credit-based shaper: credit grows at
idle_slope while frames wait, drains at send_slope while transmitting, and
resets to zero when the queue empties with positive credit.  Credit is kept
as an integer scaled by 10^12 (slope in bit/s times ticks) and recorded as
that integer, so the trajectory is exact.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from collections import deque
from fractions import Fraction

from .kernel import SEC, US, Event, EventKind, Positive, Simulator, Ticks
from .metrics import SCALE, MetricStore

# Wire overhead per frame: preamble+SFD 8, MAC header 14, FCS 4, IFG 12.
ETH_OVERHEAD_BYTES = 38
ETH_MIN_PAYLOAD = 46
ETH_MAX_PAYLOAD = 1500
DEFAULT_HW_DELAY = 8 * US
DEFAULT_QUEUE_CAPACITY = 512


class PayloadOutOfRange(ValueError):
    pass


def eth_wire_bits(payload_len: int) -> int:
    return 8 * (payload_len + ETH_OVERHEAD_BYTES)


def eth_frame_duration(payload_len: int, rate: int) -> int:
    """Ticks to put one frame on the wire, preamble through interframe gap."""
    if not ETH_MIN_PAYLOAD <= payload_len <= ETH_MAX_PAYLOAD:
        raise PayloadOutOfRange(f"payload must be 46..1500 bytes, got {payload_len}")
    bits = eth_wire_bits(payload_len)
    return (bits * SEC + rate // 2) // rate


# --------------------------------------------------------------------------
# Traffic class tags
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TT:
    ct_id: int


@dataclass(frozen=True)
class RC:
    vl_id: int
    bag: int  # minimum gap between consecutive departures of this virtual link


@dataclass(frozen=True)
class AVB:
    stream_id: int
    cls: str = "A"

    def __post_init__(self) -> None:
        if self.cls not in ("A", "B"):
            raise ValueError("AVB class must be A or B")


@dataclass(frozen=True)
class BE:
    priority: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 7:
            raise ValueError("802.1Q priority must be 0..7")


@dataclass
class EthFrame:
    key: tuple  # the forwarding key the compiler gave this frame's run
    payload_len: int
    tag: TT | RC | AVB | BE
    creation_time: int
    message: str | None = None
    records: list | None = None  # aggregated CAN records, if any
    logical_len: int | None = None  # content length before minimum-size padding

    def __post_init__(self) -> None:
        if not ETH_MIN_PAYLOAD <= self.payload_len <= ETH_MAX_PAYLOAD:
            raise PayloadOutOfRange(
                f"payload must be 46..1500 bytes, got {self.payload_len}"
            )


BE_LABELS = tuple(f"BE[{p}]" for p in range(8))
BE_PRECEDENCE = tuple((p, BE_LABELS[p]) for p in range(7, -1, -1))  # highest 802.1Q first
AVB_LABELS = {"A": "AVB_A", "B": "AVB_B"}


def pad_payload(logical_len: int) -> int:
    """Frames shorter than the Ethernet minimum are padded on the wire."""
    return max(ETH_MIN_PAYLOAD, logical_len)


def record_station_latency(store: MetricStore, station: str, frame: EthFrame, now: int) -> None:
    """At ``station``, the latency of ``frame``'s message and of each record it carries."""
    if store.flags.stations:
        if frame.message is not None:
            store.station_latency(station, frame.message, frame.creation_time, now)
        for record in frame.records or ():
            if record.message is not None:
                store.station_latency(station, record.message, record.creation, now)


# --------------------------------------------------------------------------
# Shaper state
# --------------------------------------------------------------------------

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


def check_reservation_cap(idle_slope_a: int, idle_slope_b: int, port_rate: int) -> bool:
    """At most 75 percent of a port may be reserved across both AVB classes."""
    return 4 * (idle_slope_a + idle_slope_b) <= 3 * port_rate


# --------------------------------------------------------------------------
# TDMA schedule
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TdmaWindow:
    ct_id: int
    link: str  # directed link "owner->peer"
    offset: Ticks
    duration: Positive


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


def tt_receive_check(
    schedule: TdmaSchedule, link: str, ct_id: int, arrival: int, tolerance: int = 0
) -> bool:
    """Accept a TT frame whose arrival falls inside its window (+tolerance)."""
    cyc = arrival % schedule.cycle_length
    for w in schedule.windows_for(link):
        if w.ct_id != ct_id:
            continue
        if w.offset <= cyc <= w.offset + w.duration + tolerance:
            return True
        # window whose tolerance band wraps past the cycle end
        if w.offset <= cyc + schedule.cycle_length <= w.offset + w.duration + tolerance:
            return True
    return False


# --------------------------------------------------------------------------
# Egress port
# --------------------------------------------------------------------------

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


# --------------------------------------------------------------------------
# Switch
# --------------------------------------------------------------------------

class Switch:
    """Store-and-forward switch with a static forwarding table."""

    def __init__(self, sim: Simulator, store: MetricStore, name: str, hw_delay: int = DEFAULT_HW_DELAY):
        self.sim = sim
        self.store = store
        self.name = name
        self.hw_delay = hw_delay
        self.table: dict[tuple, list[EthPort]] = {}
        sim.register(name, self._handle)

    def add_route(self, key: tuple, ports: list[EthPort]) -> None:
        self.table[key] = ports

    def receive(self, frame: EthFrame, now: int, in_port=None) -> None:
        record_station_latency(self.store, self.name, frame, now)
        self.sim.schedule(now + self.hw_delay, self.name, EventKind.SWITCH_FORWARD, frame)

    def _handle(self, ev: Event) -> None:
        frame: EthFrame = ev.payload
        ports = self.table.get(frame.key)
        if not ports:
            self.store.count_drop(self.name, "forwarding", reason="unknown_destination")
            return
        for port in ports:
            port.enqueue(frame, ev.time)
