"""Switched real-time Ethernet model.

Every directed link endpoint owns an egress port.  As in IEEE 802.1Q-2018
§8.6.8, the port is an ordered set of traffic classes, each with its own
queue and selection rule, served by strict precedence:

    TT (only inside its scheduled window) > RC (BAG gate open)
    > AVB class A (credit >= 0) > AVB class B (credit >= 0)
    > best effort (802.1Q priority 7..0, FIFO within priority)

Each port holds its own link's TDMA windows in offset order and the
schedule's cycle, as an 802.1Qbv port holds its gate control list.  A non-TT
frame additionally starts only if it completes before the next of those
windows begins (guard band by lookahead; preemption is not modeled).

AVB classes are shaped by a credit-based shaper: credit grows at idle_slope
while frames wait, drains at send_slope while transmitting, and resets to
zero when the queue empties with positive credit.  Credit is kept as an
integer scaled by 10^12 (slope in bit/s times ticks) and recorded as that
integer, so the trajectory is exact.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Annotated

from .kernel import (PORT_TRY_SEND, PORT_TX_DONE, SEC, SWITCH_FORWARD, US, Event, OnDemand, Positive, Range,
                     Simulator, Ticks, Transmitter)
from .metrics import MetricStore

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


PRIORITY = Range(0, 7)  # of a best-effort frame, IEEE 802.1Q


@dataclass(frozen=True)
class BE:
    priority: int = 0

    def __post_init__(self) -> None:
        if not PRIORITY.low <= self.priority <= PRIORITY.high:
            raise ValueError(f"802.1Q priority must be {PRIORITY.low}..{PRIORITY.high}")


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
AVB_LABELS = {"A": "AVB_A", "B": "AVB_B"}


def pad_payload(logical_len: int) -> int:
    """Frames shorter than the Ethernet minimum are padded on the wire."""
    return max(ETH_MIN_PAYLOAD, logical_len)


def record_station_latency(rx: OnDemand, frame: EthFrame, now: int) -> None:
    """Into a station's recorded ``rx`` series, the latency of ``frame``'s
    message and of each record it carries."""
    if frame.message is not None:
        rx[frame.message].add(now, now - frame.creation_time)
    for record in frame.records or ():
        if record.message is not None:
            rx[record.message].add(now, now - record.creation)


# --------------------------------------------------------------------------
# Shaper state
# --------------------------------------------------------------------------

class CreditState:
    """Credit-based shaper state for one AVB class on one port; the port
    integrates it (``EthPort._credit_settle``)."""

    __slots__ = ("idle_slope", "send_slope", "scaled", "last_update", "points")

    def __init__(self, idle_slope: int, port_rate: int, points: list | None = None):
        if idle_slope <= 0:
            raise ValueError("idle_slope must be positive")
        self.idle_slope = idle_slope
        self.send_slope = idle_slope - port_rate
        self.scaled = 0  # credit in bits, scaled by 10^12
        self.last_update = 0
        self.points = points  # (tick, scaled credit), or None when not recorded
        if points is not None:
            points.append((0, 0))

    def zero_crossing(self, now: int) -> int:
        """First tick at which credit is back to >= 0, accruing at idle_slope."""
        if self.scaled >= 0:
            return now
        deficit = -self.scaled
        return now + (deficit + self.idle_slope - 1) // self.idle_slope


def check_reservation_cap(idle_slope_a: int, idle_slope_b: int, port_rate: int) -> bool:
    """At most 75 percent of a port may be reserved across both AVB classes."""
    return 4 * (idle_slope_a + idle_slope_b) <= 3 * port_rate


# --------------------------------------------------------------------------
# TDMA schedule
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TdmaWindow:
    ct_id: int
    link: Annotated[str, ("port",)]  # directed link "owner->peer"
    offset: Ticks
    duration: Positive


def windows_by_link(windows: list[TdmaWindow]) -> dict[str, list[TdmaWindow]]:
    """The windows of each link, in offset order; links in the order they first appear."""
    by_link: dict[str, list[TdmaWindow]] = {}
    for w in windows:
        by_link.setdefault(w.link, []).append(w)
    for ws in by_link.values():
        ws.sort(key=lambda w: w.offset)
    return by_link


def violations(cycle: int, windows: list[TdmaWindow]) -> list[str]:
    """Each window that leaves the cycle and each pair that overlaps on a link."""
    out = []
    for link, ws in windows_by_link(windows).items():
        for w in ws:
            if w.offset < 0 or w.offset + w.duration > cycle:
                out.append(f"window {w.ct_id} on {link} leaves the cycle")
        for a, b in zip(ws, ws[1:]):
            if a.offset + a.duration > b.offset:
                out.append(f"windows {a.ct_id} and {b.ct_id} overlap on {link}")
    return out


# --------------------------------------------------------------------------
# Traffic classes: one queue object each, asked two questions while it holds
# a frame.  take(now, latest, durations) removes and returns (frame, duration,
# txStart series or None) for the frame the class lets start at ``now`` and
# end by ``latest`` (the next window's start, or None), else None.  wake(now)
# is the first tick after ``now`` from which the class's own gate lets a
# waiting frame start, or None when that gate holds nothing back.
# --------------------------------------------------------------------------

class FifoClass(deque):
    """Frames served in arrival order: best effort at one 802.1Q priority,
    or one TT class inside its window."""

    __slots__ = ("label",)
    series = None  # where starts are recorded; None when they are not

    def take(self, now: int, latest: int | None, durations: dict):
        dur = durations[self[0].payload_len]
        if latest is None or now + dur <= latest:
            return self.popleft(), dur, self.series
        return None

    def wake(self, now: int) -> int | None:
        return None


class ShapedClass(FifoClass):
    """A reserved AVB class: a FIFO whose head may start at credit >= 0."""

    __slots__ = ("credit", "series")

    def take(self, now: int, latest: int | None, durations: dict):
        if self.credit.scaled >= 0:
            return FifoClass.take(self, now, latest, durations)
        return None

    def wake(self, now: int) -> int | None:
        return self.credit.zero_crossing(now) if self.credit.scaled < 0 else None


class RateConstrainedClass(list):
    """(enqueue tick, vl id, frame) in arrival order.  A virtual link starts a frame
    a BAG after its last start at the earliest; of the frames that may start, the
    oldest goes first, ties to the lowest vl id, then to the earlier arrival."""

    # open_at: vl id -> first tick its BAG lets a frame start; starts: vl id -> txStart series
    __slots__ = ("label", "open_at", "starts")

    def take(self, now: int, latest: int | None, durations: dict):
        open_at = self.open_at
        best = None
        for i, (enq_t, vl, frame) in enumerate(self):
            if best is not None and enq_t > best_t:
                break  # enqueue ticks never decrease along the list
            if open_at.get(vl, now) > now:
                continue
            dur = durations[frame.payload_len]
            if latest is not None and now + dur > latest:
                continue
            if best is None or vl < best_vl:
                best, best_t, best_vl, best_dur = i, enq_t, vl, dur
        if best is None:
            return None
        frame = self.pop(best)[2]
        open_at[best_vl] = now + frame.tag.bag
        return frame, best_dur, self.starts[best_vl]

    def wake(self, now: int) -> int | None:
        open_at = self.open_at
        gates = [gate for _, vl, _ in self if (gate := open_at.get(vl, now)) > now]
        return min(gates) if gates else None


def _labelled(cls, label: str):
    queue = cls()
    queue.label = label
    return queue


class _Durations(dict):
    """Payload length -> ticks on the wire at ``rate``, computed once per length."""

    __slots__ = ("rate",)

    def __missing__(self, payload_len: int) -> int:
        dur = self[payload_len] = eth_frame_duration(payload_len, self.rate)
        return dur


# --------------------------------------------------------------------------
# Egress port
# --------------------------------------------------------------------------

class EthPort(Transmitter):
    """One direction of a full-duplex link: TT windows over a tuple of traffic
    classes.  What is on the wire (``_tx``) is the class queue of the frame."""

    def __init__(
        self,
        sim: Simulator,
        store: MetricStore,
        owner: str,
        peer_label: str,
        rate: int,
        capacity: int = DEFAULT_QUEUE_CAPACITY,
        windows: Sequence[TdmaWindow] = (),
        cycle: int | None = None,
        idle_slope_a: int = 0,
        idle_slope_b: int = 0,
    ):
        self.path = f"{owner}.port.{peer_label}"
        super().__init__(sim, self.path)
        self.store = store
        self.owner = owner
        self.link = f"{owner}->{peer_label}"
        self.rate = rate
        self.capacity = capacity
        self.peer = None  # wired after construction: .receive(frame, now)

        # Per class label, its QueueLength series, made at the class's first point.
        self.lengths = OnDemand(self._length_series) if store.flags.queues else None
        self.tt_queues: dict[int, FifoClass] = {}
        self.rc_queue = _labelled(RateConstrainedClass, "RC")
        self.rc_queue.open_at = {}
        self.rc_queue.starts = OnDemand(self._start_series)
        self.avb_queues: dict[str, ShapedClass] = {}  # reserved classes only
        self.credit: dict[str, CreditState] = {}
        for cls, idle_slope in (("A", idle_slope_a), ("B", idle_slope_b)):
            if idle_slope:
                points = store.scaled_vec(self.path, f"credit[{cls}]") if store.flags.credit else None
                queue = self.avb_queues[cls] = _labelled(ShapedClass, AVB_LABELS[cls])
                queue.series = store.series(self.path, f"txStart[{queue.label}]")
                queue.credit = self.credit[cls] = CreditState(idle_slope, rate, points)
        self._shaped = tuple(self.avb_queues.values())
        self.be_queues = [_labelled(FifoClass, label) for label in BE_LABELS]
        # Precedence: RC, reserved AVB A then B, BE 7..0.
        self.classes = (self.rc_queue, *self._shaped, *reversed(self.be_queues))
        self._durations = _Durations()
        self._durations.rate = rate

        self._wakeup_at: int | None = None
        # This link's TDMA windows in offset order, and their starts: empty when unscheduled.
        # The cycle is None only when the network has no schedule.
        self.windows = windows
        self._starts = starts = [w.offset for w in windows]
        self.cycle = cycle
        # The longest window-free stretch, wrapping into the next cycle; None when unscheduled.
        self._max_gap = max(nxt - w.offset - w.duration
                            for w, nxt in zip(windows, starts[1:] + [cycle + starts[0]])) if windows else None

    def _length_series(self, label: str):
        return self.store.queue_series(self.path, label)

    def _start_series(self, vl: int):
        return self.store.series(self.path, f"txStart[vl{vl}]")

    # -- queue plumbing -------------------------------------------------

    def enqueue(self, frame: EthFrame, now: int) -> None:
        tag = frame.tag
        kind = type(tag)
        entry = frame
        if kind is BE:
            queue = self.be_queues[tag.priority]
        elif kind is AVB:
            queue = self.avb_queues.get(tag.cls)
            if queue is None:
                raise RuntimeError(f"AVB class {tag.cls} frame on {self.path} without a reservation")
        elif kind is RC:
            queue, entry = self.rc_queue, (now, tag.vl_id, frame)
        else:
            queue = self.tt_queues.get(tag.ct_id)
            if queue is None:
                queue = self.tt_queues[tag.ct_id] = _labelled(FifoClass, f"TT[{tag.ct_id}]")
        if len(queue) >= self.capacity:
            self.store.count_drop(self.path, queue.label)
            if self.lengths is not None:
                self.lengths[queue.label].add(now, len(queue))
            return
        # A frame longer than every window-free stretch can never start.
        if kind is not TT and self._max_gap is not None and self._durations[frame.payload_len] > self._max_gap:
            self.store.count_drop(self.path, queue.label, reason="guardband")
            return
        if self._shaped:
            self._credit_settle(now, idle=False)
        queue.append(entry)
        if self.lengths is not None:
            self.lengths[queue.label].add(now, len(queue))
        self.wake(now)

    def _credit_settle(self, now: int, idle: bool) -> None:
        """Integrate every shaper's credit over [its last update, now] under
        one constant phase: send_slope for the class on the wire, idle_slope
        for a class with frames waiting, flat otherwise.  When the port goes
        ``idle``, also zero the positive credit of each shaper with nothing
        queued."""
        sending = self._tx
        for queue in self._shaped:
            credit = queue.credit
            dt = now - credit.last_update
            if dt > 0:
                if queue is sending:
                    credit.scaled += credit.send_slope * dt
                elif queue:
                    credit.scaled += credit.idle_slope * dt
                credit.last_update = now
                if credit.points is not None:
                    credit.points.append((now, credit.scaled))
            if idle and not queue and credit.scaled > 0:
                credit.scaled = 0
                if credit.points is not None:
                    credit.points.append((now, 0))

    # -- transmission selection --------------------------------------------

    def _select(self, now: int):
        """(class queue, what its take returned) for the frame that starts now, or
        None; and on a scheduled link the first window start after now, else None."""
        starts = self._starts
        latest = None
        if starts:
            cyc = now % self.cycle
            i = bisect_right(starts, cyc)
            latest = now - cyc + (starts[i] if i < len(starts) else self.cycle + starts[0])
            if i:
                # TT: only the last window begun, its ct, and a frame that ends inside it.
                w = self.windows[i - 1]
                q = self.tt_queues.get(w.ct_id)
                if q:
                    dur = self._durations[q[0].payload_len]
                    if cyc + dur <= w.offset + w.duration:
                        return (q, (q.popleft(), dur, None)), latest
        for q in self.classes:
            if q:
                taken = q.take(now, latest, self._durations)
                if taken is not None:
                    return (q, taken), latest
        return None, latest

    def try_send(self, now: int) -> None:
        if self._tx is not None:
            return
        # At the tick a transmission ends its PORT_TX_DONE has settled already.
        if self._shaped and self._tx_end != now:
            self._credit_settle(now, idle=True)
        picked, latest = self._select(now)
        if picked is None:
            self._plan_wakeup(now, latest)
            return
        queue, (frame, dur, series) = picked
        self._tx = queue
        self._tx_end = end = now + dur
        if self.lengths is not None:
            self.lengths[queue.label].add(now, len(queue))
        if series is not None:
            series.add(now, 8 * (frame.payload_len + ETH_OVERHEAD_BYTES))
        self.sim.schedule(end, self.path, PORT_TX_DONE, frame)

    def _plan_wakeup(self, now: int, latest: int | None) -> None:
        candidates: list[int] = []
        cycle = self.cycle
        if cycle is not None:
            cyc = now % cycle
            for ct, q in self.tt_queues.items():
                while q:
                    dur = self._durations[q[0].payload_len]
                    # Ticks to the next start, after now, of a window of ct that fits the frame.
                    waits = [(w.offset - cyc) % cycle or cycle
                             for w in self.windows if w.ct_id == ct and w.duration >= dur]
                    if not waits:
                        # No window will ever fit this frame: schedule fault.
                        q.popleft()
                        self.store.count_drop(self.path, q.label, reason="unschedulable")
                        continue
                    candidates.append(now + min(waits))
                    break
        waiting = False
        for q in self.classes:
            if q:
                waiting = True
                t = q.wake(now)
                if t is not None:
                    candidates.append(t)
        if waiting and latest is not None:
            candidates.append(latest)
        if not candidates:
            return
        t = min(candidates)
        if t <= now:
            t = now + 1
        if self._wakeup_at is None or t < self._wakeup_at:
            self._wakeup_at = t
            self.sim.schedule(t, self.path, PORT_TRY_SEND)

    # -- event handling -----------------------------------------------------

    def _handle(self, ev: Event) -> None:
        now = ev.time
        if ev.kind is PORT_TRY_SEND:  # a wakeup
            if self._wakeup_at is not None and now >= self._wakeup_at:
                self._wakeup_at = None
            self.try_send(now)
            return
        # PORT_TX_DONE: the frame on the wire has left the port.
        frame = ev.payload
        if self._shaped:
            self._credit_settle(now, idle=True)
        self._tx = None
        self.store.link_completed(self.link, 8 * (frame.payload_len + ETH_OVERHEAD_BYTES))
        if self.peer is not None:
            self.peer.receive(frame, now)
        self.wake(now)


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
        self.rx = store.station_series(name)
        sim.register(name, self._handle)

    def add_route(self, key: tuple, ports: list[EthPort]) -> None:
        self.table[key] = ports

    def receive(self, frame: EthFrame, now: int) -> None:
        if self.rx is not None:
            record_station_latency(self.rx, frame, now)
        self.sim.schedule(now + self.hw_delay, self.name, SWITCH_FORWARD, frame)

    def _handle(self, ev: Event) -> None:
        frame: EthFrame = ev.payload
        ports = self.table.get(frame.key)
        if not ports:
            self.store.count_drop(self.name, "forwarding", reason="unknown_destination")
            return
        now = ev.time
        for port in ports:
            port.enqueue(frame, now)
