"""CAN bus model: priority arbitration, frame timing, controller buffers.

The bus is non-preemptive: whenever it goes idle every attached controller
offers its best pending frame and the numerically smallest identifier wins.
Ties on equal identifier (a configuration fault on a real bus) fall back to
the lowest attachment index so the simulation stays totally ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .kernel import SEC, Event, EventKind, Simulator
from .metrics import MetricStore

# Standard 11-bit frame: SOF + arbitration + control + CRC + ACK + EOF + 3-bit
# interframe space = 47 bits of overhead around an 8*n bit payload.
CAN_OVERHEAD_BITS = 47
CAN_MAX_PAYLOAD = 8
CAN_MAX_ID = 2047


def worst_case_stuff_bits(payload_len: int) -> int:
    """Upper bound on inserted stuff bits for a standard frame."""
    return (34 + 8 * payload_len) // 4


def can_frame_duration(payload_len: int, bitrate: int, stuffing: bool = False) -> int:
    """Wire time of one frame in ticks, rounded to the nearest tick."""
    if not 0 <= payload_len <= CAN_MAX_PAYLOAD:
        raise ValueError(f"CAN payload must be 0..8 bytes, got {payload_len}")
    bits = CAN_OVERHEAD_BITS + 8 * payload_len
    if stuffing:
        bits += worst_case_stuff_bits(payload_len)
    return (bits * SEC + bitrate // 2) // bitrate


def can_wire_bits(payload_len: int, stuffing: bool = False) -> int:
    bits = CAN_OVERHEAD_BITS + 8 * payload_len
    if stuffing:
        bits += worst_case_stuff_bits(payload_len)
    return bits


@dataclass
class CanFrame:
    can_id: int
    payload: bytes
    origin_bus: str
    creation_time: int
    message: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.can_id <= CAN_MAX_ID:
            raise ValueError(f"CAN id must fit 11 bits, got {self.can_id}")
        if len(self.payload) > CAN_MAX_PAYLOAD:
            raise ValueError(f"CAN payload limited to 8 bytes, got {len(self.payload)}")

    @property
    def payload_len(self) -> int:
        return len(self.payload)


def arbitrate(pending: list[tuple[int, int, CanFrame]]) -> CanFrame | None:
    """Pick the winner among (can_id, node_index, frame) candidates."""
    if not pending:
        return None
    return min(pending, key=lambda c: (c[0], c[1]))[2]


class NodeCanPort:
    """Controller of an application node: unbounded FIFO transmit queue."""

    def __init__(self, node: str):
        self.node = node
        self.queue: deque[tuple[CanFrame, int]] = deque()
        self._order = 0
        self.subscriptions: set[int] = set()
        self.on_rx = None  # callable(frame, now)

    def submit(self, frame: CanFrame) -> None:
        self._order += 1
        self.queue.append((frame, self._order))

    def best(self) -> tuple[int, int, CanFrame] | None:
        if not self.queue:
            return None
        frame, order = min(self.queue, key=lambda e: (e[0].can_id, e[1]))
        return (frame.can_id, order, frame)

    def take(self, frame: CanFrame) -> None:
        for entry in self.queue:
            if entry[0] is frame:
                self.queue.remove(entry)
                return
        raise LookupError("frame not queued")

    def wants(self, can_id: int) -> bool:
        return can_id in self.subscriptions

    def deliver(self, frame: CanFrame, now: int) -> None:
        if self.on_rx is not None:
            self.on_rx(frame, now)


class GatewayCanPort:
    """Gateway-side transmit interface: one message object per CAN id.

    Placing a batch (the burst produced by decoding one aggregate frame)
    queues its records in order.  If a later batch finds frames of the same
    id still waiting, the stale ones are overwritten and counted as drops.
    """

    def __init__(self, gateway: str, bus: str, store: MetricStore):
        self.node = gateway
        self.bus = bus
        self.store = store
        self.slots: dict[int, deque[CanFrame]] = {}
        self.subscriptions: set[int] = set()
        self.on_rx = None

    def place_batch(self, frames: list[CanFrame], now: int) -> None:
        by_id: dict[int, list[CanFrame]] = {}
        for f in frames:
            by_id.setdefault(f.can_id, []).append(f)
        for can_id, batch in by_id.items():
            slot = self.slots.setdefault(can_id, deque())
            if slot:
                self.store.scalar_add(f"{self.node}.canif[{self.bus}]", "overwrites", len(slot), "frames")
                slot.clear()
            slot.extend(batch)
        self.store.record_queue(
            f"{self.node}.canif[{self.bus}]", "txObjects", now,
            sum(len(s) for s in self.slots.values()),
        )

    def best(self) -> tuple[int, int, CanFrame] | None:
        candidates = [(i, s[0]) for i, s in self.slots.items() if s]
        if not candidates:
            return None
        can_id, frame = min(candidates, key=lambda c: c[0])
        return (can_id, 0, frame)

    def take(self, frame: CanFrame) -> None:
        slot = self.slots[frame.can_id]
        assert slot[0] is frame
        slot.popleft()

    def wants(self, can_id: int) -> bool:
        return can_id in self.subscriptions

    def deliver(self, frame: CanFrame, now: int) -> None:
        if self.on_rx is not None:
            self.on_rx(frame, now)


class CanBus:
    """Shared bus: serializes frames, delivers to matching receivers."""

    def __init__(
        self,
        sim: Simulator,
        store: MetricStore,
        name: str,
        bitrate: int = 500_000,
        segment: str = "",
        stuffing: bool = False,
    ):
        if bitrate <= 0:
            raise ValueError("bitrate must be positive")
        self.sim = sim
        self.store = store
        self.name = name
        self.bitrate = bitrate
        self.segment = segment or name
        self.stuffing = stuffing
        self.ports: list = []
        self.busy_until = 0
        self._sending: tuple[CanFrame, object] | None = None
        self._arb_scheduled = False
        self.sent = 0
        self.delivered = 0
        sim.register(name, self._handle)

    def attach(self, port) -> int:
        """Attach a controller; the return value is its node index."""
        self.ports.append(port)
        return len(self.ports) - 1

    def notify(self, now: int) -> None:
        """A controller gained a pending frame; arbitrate once the bus idles."""
        if self._sending is None and not self._arb_scheduled:
            self._arb_scheduled = True
            self.sim.schedule(max(now, self.busy_until), self.name, EventKind.CAN_ARBITRATE)

    def _handle(self, ev: Event) -> None:
        if ev.kind is EventKind.CAN_ARBITRATE:
            self._arb_scheduled = False
            self._arbitrate(ev.time)
        elif ev.kind is EventKind.CAN_TX_DONE:
            self._complete(ev.time)

    def _arbitrate(self, now: int) -> None:
        if self._sending is not None or now < self.busy_until:
            return
        pending = []
        for idx, port in enumerate(self.ports):
            best = port.best()
            if best is not None:
                pending.append((best[0], idx, best[2]))
        frame = arbitrate(pending)
        if frame is None:
            return
        port = self.ports[next(idx for _, idx, f in pending if f is frame)]
        port.take(frame)
        duration = can_frame_duration(frame.payload_len, self.bitrate, self.stuffing)
        self.busy_until = now + duration
        self._sending = (frame, port)
        self.sim.schedule(self.busy_until, self.name, EventKind.CAN_TX_DONE)

    def _complete(self, now: int) -> None:
        assert self._sending is not None
        frame, sender = self._sending
        self._sending = None
        self.sent += 1
        self.store.link_completed(self.name, now, can_wire_bits(frame.payload_len, self.stuffing))
        for port in self.ports:
            if port is sender:
                continue
            if port.wants(frame.can_id):
                self.delivered += 1
                port.deliver(frame, now)
        # Anything still pending re-arbitrates immediately; the 3-bit
        # interframe space is already part of the frame duration.
        if any(port.best() is not None for port in self.ports):
            self._arb_scheduled = True
            self.sim.schedule(now, self.name, EventKind.CAN_ARBITRATE)
