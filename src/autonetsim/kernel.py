"""Discrete-event simulation core.

Simulation time is an integer count of picosecond ticks.  One picosecond
divides both CAN bit times (2 us at 500 kbit/s) and Ethernet bit times
(10 ns at 100 Mbit/s) exactly, so every transmission duration used by the
models is representable without rounding drift.

Events are dispatched in strict (time, seq) order where seq is a global
insertion counter; two runs over the same configuration therefore produce
identical event traces.  Randomness, when a model asks for it, comes from
a single seeded generator owned by the simulator.

Work due at the current tick waits in a same-tick queue, the delta cycle
of SystemC (IEEE 1666).  An event scheduled at ``now`` and a call handed to
``Simulator.defer`` are appended to the queue instead of the heap, during
dispatch and at set-up alike.  A heap entry at tick T was pushed while the
clock was still before T, so every heap entry at ``now`` is older than
anything in the queue: the kernel drains those first and then the queue,
and dispatch stays in exact (time, seq) order.  A handler that raises
leaves the rest of its tick where it was, and the next run goes on from
there in the same order.  A deferred call is a bound method run with no
``Event``, no handler lookup and no count in ``events_dispatched`` or the
trace.  Models defer work in one place, ``Transmitter.wake``: a medium that
carries one frame at a time (a CAN bus, an egress port) selects its next
frame once per tick, after everything already due at that tick.  No
arbitration waits for a later tick; only an egress port whose gates hold
its frames back schedules a wakeup event for the tick they open.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from enum import Enum, auto
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from typing import Annotated, Any, Callable

# Tick multipliers (1 tick = 1 ps).
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
SEC = 1_000_000_000_000

# Scheduled times must stay inside a signed 64-bit tick counter.
MAX_TICKS = 2**63 - 1


@dataclass(frozen=True)
class Range:
    """The bounds of an integer field of a config document, checked when a
    document is loaded and where an ANDL listing gives the value."""

    low: int
    high: int = MAX_TICKS

    def check(self, value: int) -> int:
        """``value``; ValueError(the bound it leaves in words, ``value``) when it is out of range."""
        if value < self.low:
            raise ValueError("positive" if self.low == 1 else f"at least {self.low}", value)
        if value > self.high:
            raise ValueError(f"at most {self.high}", value)
        return value


class OnDemand(dict):
    """A dict that makes the value of a key at its first lookup, as ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


TICKS = Range(0)
POSITIVE = Range(1)
Ticks = Annotated[int, TICKS]        # a time or an offset
Positive = Annotated[int, POSITIVE]  # a rate, a period, a duration or a count


class SimulationError(Exception):
    """Base class for simulator faults."""


class SchedulingInPast(SimulationError):
    """An event was scheduled before the current simulation time."""


class SimTimeOverflow(SimulationError):
    """A time value left the signed 64-bit tick range."""


_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ps|ns|us|ms|s)\s*$")
_RATE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(G|M|k)?(?:b|bit)/s\s*$")
_BYTES_RE = re.compile(r"^\s*(\d+)\s*B\s*$")

_DURATION_UNITS = {"ps": PS, "ns": NS, "us": US, "ms": MS, "s": SEC}
_RATE_PREFIX = {None: 1, "k": 10**3, "M": 10**6, "G": 10**9}


def _number(digits: str) -> int | Fraction:
    """An unsigned literal matched by the unit patterns; exact, as an int when it has no point."""
    return Fraction(digits) if "." in digits else int(digits)


def parse_duration(text: str) -> int:
    """Parse a duration like ``2ms`` or ``125us`` into ticks."""
    m = _DURATION_RE.match(text)
    if not m:
        raise ValueError(f"not a duration: {text!r}")
    number, unit = m.groups()
    value = _number(number) * _DURATION_UNITS[unit]
    if value.denominator != 1:
        raise ValueError(f"duration {text!r} is not a whole number of ticks")
    return int(value)


def parse_rate(text: str) -> int:
    """Parse a rate like ``100Mb/s`` or ``500kb/s`` into bits per second."""
    m = _RATE_RE.match(text)
    if not m:
        raise ValueError(f"not a rate: {text!r}")
    number, prefix = m.groups()
    value = _number(number) * _RATE_PREFIX[prefix]
    if value.denominator != 1:
        raise ValueError(f"rate {text!r} is not a whole number of bits per second")
    if not value:
        raise ValueError(f"rate {text!r} must be positive")
    return int(value)


def parse_byte_count(text: str) -> int:
    """Parse a payload size like ``46B`` into bytes."""
    m = _BYTES_RE.match(text)
    if not m:
        raise ValueError(f"not a byte count: {text!r}")
    return int(m.group(1))


def fmt_duration(ticks: int) -> str:
    """Render ticks with the largest unit that divides them evenly."""
    for unit, factor in (("s", SEC), ("ms", MS), ("us", US), ("ns", NS)):
        if ticks and ticks % factor == 0:
            return f"{ticks // factor}{unit}"
    return f"{ticks}ps"


def check_time(ticks: int) -> int:
    if not 0 <= ticks <= MAX_TICKS:
        raise SimTimeOverflow(f"time {ticks} outside [0, 2^63-1] ticks")
    return ticks


class EventKind(Enum):
    """Tags naming what an event means to its target module."""

    TIMER = auto()
    FIRE_SOURCE = auto()
    TT_RELEASE = auto()
    # Never scheduled: a CAN bus arbitrates in a deferred call.  The member stays
    # because the benchmark reads its count (perfbench/pipeline.py).
    CAN_ARBITRATE = auto()
    CAN_TX_DONE = auto()
    PORT_TRY_SEND = auto()
    PORT_TX_DONE = auto()
    SWITCH_FORWARD = auto()
    POOL_FLUSH = auto()
    GW_CAN_EGRESS = auto()
    GW_ETH_EGRESS = auto()


# Each kind as a module global, which the models' per-event paths read: ``EventKind.X``
# is an enum attribute lookup, about 100 ns on CPython 3.11.7 (124 ns on 3.10, 26 ns on
# 3.12) against about 10 ns for a global, and an Ethernet frame-hop made four of them.
(TIMER, FIRE_SOURCE, TT_RELEASE, CAN_ARBITRATE, CAN_TX_DONE, PORT_TRY_SEND,
 PORT_TX_DONE, SWITCH_FORWARD, POOL_FLUSH, GW_CAN_EGRESS, GW_ETH_EGRESS) = EventKind


class Event:
    """A scheduled occurrence; also serves as its own cancellation handle."""

    __slots__ = ("time", "seq", "target", "kind", "payload", "cancelled")

    def __init__(self, time: int, seq: int, target: str, kind: EventKind, payload: Any):
        self.time = time
        self.seq = seq
        self.target = target
        self.kind = kind
        self.payload = payload
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(t={self.time}, seq={self.seq}, target={self.target}, kind={self.kind.name})"


@dataclass(frozen=True)
class RunSummary:
    events_dispatched: int
    final_time: int


class Simulator:
    """Future-event-list engine with integer time and FIFO tie-breaking."""

    def __init__(self, seed: int = 0, trace: bool = False):
        self.now: int = 0
        self.rng = random.Random(seed)
        self._heap: list[tuple[int, int, Event]] = []
        self._ready: deque[Event | Callable[[], None]] = deque()  # due at now, in seq order
        self._seq = 0
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self.trace: list[tuple[int, int, str, str]] | None = [] if trace else None

    def register(self, path: str, handler: Callable[[Event], None]) -> None:
        """Bind a module path to its event handler."""
        if path in self._handlers:
            raise ValueError(f"module path already registered: {path}")
        self._handlers[path] = handler

    def schedule(self, time: int, target: str, kind: EventKind, payload: Any = None) -> Event:
        """Insert an event into the future event list and return its handle."""
        if not self.now <= time <= MAX_TICKS:
            check_time(time)  # outside the tick range is an overflow, not the past
            raise SchedulingInPast(
                f"event for {target} at {time} is before current time {self.now}"
            )
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, target, kind, payload)
        if time == self.now:
            self._ready.append(ev)
        else:
            heappush(self._heap, (time, seq, ev))
        return ev

    def defer(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` at the current tick, after everything already due at it."""
        self._ready.append(fn)

    def cancel(self, event: Event) -> None:
        """Mark an event dead; it is skipped (not counted) at dispatch time."""
        event.cancelled = True

    def _dispatch_through(self, t_end: int) -> int:
        """Dispatch every live event with time <= t_end, and every deferred
        call due by then; return how many events ran."""
        heap = self._heap
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        handlers = self._handlers
        trace = self.trace
        now = self.now
        dispatched = 0
        while True:
            if ready and not (heap and heap[0][0] == now):
                item = popleft()
            elif heap and heap[0][0] <= t_end:
                now, _, item = pop(heap)
            else:
                break
            if item.__class__ is not Event:
                self.now = now
                item()
                continue
            if item.cancelled:
                continue
            self.now = now
            handler = handlers.get(item.target)
            if handler is None:
                raise SimulationError(f"event targets unregistered module {item.target!r}")
            if trace is not None:
                trace.append((now, item.seq, item.target, item.kind.name))
            handler(item)
            dispatched += 1
        return dispatched

    def run_until(self, t_end: int) -> RunSummary:
        """Dispatch every event with time <= t_end (inclusive horizon).

        Afterwards the current time equals t_end even if the event list
        emptied earlier.
        """
        check_time(t_end)
        if t_end < self.now:
            raise SchedulingInPast(f"horizon {t_end} is before current time {self.now}")
        dispatched = self._dispatch_through(t_end)
        self.now = t_end
        return RunSummary(dispatched, self.now)

    def run_to_completion(self) -> RunSummary:
        """Dispatch until the event list is empty (used to drain in-flight work)."""
        return RunSummary(self._dispatch_through(MAX_TICKS), self.now)

    def pending(self) -> int:
        """Events not cancelled, and deferred calls, still to run."""
        items = [entry[2] for entry in self._heap]
        items.extend(self._ready)
        return sum(1 for item in items if item.__class__ is not Event or not item.cancelled)


class Transmitter:
    """A medium that carries one frame at a time: what is on the wire
    (``_tx``), the tick its transmission ends (``_tx_end``) and the one
    selection it has pending.

    A subclass defines ``_handle``, the handler registered under ``path``
    (the completion of a transmission among its events), and
    ``try_send(now)``, which starts the next transmission if one may start:
    it sets ``_tx`` and ``_tx_end`` and schedules the completion.
    """

    def __init__(self, sim: Simulator, path: str):
        self.sim = sim
        self._tx = None
        self._tx_end = 0  # end tick of the current (or last) transmission
        self._kick_pending = False
        sim.register(path, self._handle)

    def wake(self, now: int) -> None:
        """Select at the end of this tick, once, so that frames arriving at one
        tick compete as one batch; nothing while a transmission runs past
        ``now``, whose completion wakes the medium again."""
        if self._tx_end <= now and not self._kick_pending:
            self._kick_pending = True
            self.sim.defer(self._kicked)

    def _kicked(self) -> None:
        self._kick_pending = False
        self.try_send(self.sim.now)


class Oscillator:
    """Constant-rate inaccurate clock.

    A local clock running fast by ``drift_ppm`` parts per million sees
    ``(10^6 + drift_ppm)`` of its own ticks per ``10^6`` ideal ticks.  The
    mapping between local and ideal time is monotone and bijective for any
    |drift_ppm| < 10^6, and drift 0 is the identity.  Both directions are
    exact integer arithmetic and round half away from zero.
    """

    def __init__(self, drift_ppm: int | Fraction = 0):
        if abs(drift_ppm) >= 10**6:
            raise ValueError("|drift_ppm| must be < 10^6")
        self.drift_ppm = drift_ppm
        p, q = drift_ppm.as_integer_ratio()
        ideal, local = 10**6 * q, 10**6 * q + p  # ideal ticks per local ticks
        g = gcd(ideal, local)
        self._ideal, self._local = ideal // g, local // g

    def local_to_ideal(self, local: int) -> int:
        if local < 0:
            raise ValueError("local time must be >= 0")
        m = self._local
        return (2 * local * self._ideal + m) // (2 * m)

    def ideal_to_local(self, ideal: int) -> int:
        m = self._ideal
        if ideal >= 0:
            return (2 * ideal * self._local + m) // (2 * m)
        return -((-2 * ideal * self._local + m) // (2 * m))
