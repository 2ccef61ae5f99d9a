"""CAN bus model: priority arbitration, frame timing, controller buffers.

The bus is non-preemptive: whenever it goes idle every attached controller
offers its best pending frame and the numerically smallest identifier wins.
Ties on equal identifier (a configuration fault on a real bus) fall back to
the lowest attachment index so the simulation stays totally ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from heapq import heappop, heappush

from .kernel import CAN_TX_DONE, SEC, Event, Simulator, Transmitter
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
    payload_len: int
    creation_time: int
    message: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.can_id <= CAN_MAX_ID:
            raise ValueError(f"CAN id must fit 11 bits, got {self.can_id}")
        if not 0 <= self.payload_len <= CAN_MAX_PAYLOAD:
            raise ValueError(f"CAN payload limited to 8 bytes, got {self.payload_len}")


class NodeCanPort:
    """Controller of an application node: unbounded transmit queue, kept in
    the bus's heap."""

    def __init__(self, node: str):
        self.node = node
        self.on_rx = None  # callable(frame, now)
        self.bus: CanBus | None = None  # set by CanBus.attach
        self._index = 0
        self._order = 0

    def enqueue(self, frame: CanFrame, now: int) -> None:
        """Queue ``frame`` for transmission and wake the bus."""
        self._order += 1
        bus = self.bus
        heappush(bus.pending, (frame.can_id, self._index, self._order, frame, None))
        bus.wake(now)


class GatewayCanPort:
    """Gateway-side transmit interface: one message object per CAN id.

    Placing a batch (the burst produced by decoding one aggregate frame)
    queues its records in order.  If a later batch finds frames of the same
    id still waiting, the stale ones are overwritten and counted as drops;
    their bus heap entries are dropped when they reach the top.  Placing a
    batch wakes the bus.
    """

    def __init__(self, gateway: str, bus_name: str, store: MetricStore):
        self.node = gateway
        self.path = f"{gateway}.canif[{bus_name}]"
        self.store = store
        self.lengths = store.queue_series(self.path, "txObjects")
        self.slots: dict[int, deque[CanFrame]] = {}
        self.occupancy = 0  # frames in all slots
        self.on_rx = None
        self.bus: CanBus | None = None  # set by CanBus.attach
        self._index = 0
        self._order = 0

    def place_batch(self, frames: list[CanFrame], now: int) -> None:
        by_id: dict[int, list[CanFrame]] = {}
        for f in frames:
            by_id.setdefault(f.can_id, []).append(f)
        store = self.store
        bus, index = self.bus, self._index
        pending = bus.pending
        for can_id, batch in by_id.items():
            slot = self.slots.setdefault(can_id, deque())
            if slot:
                store.scalar_add(self.path, "overwrites", len(slot), "frames")
                self.occupancy -= len(slot)
                slot.clear()
            slot.extend(batch)
            self.occupancy += len(batch)
            for f in batch:
                self._order += 1
                heappush(pending, (can_id, index, self._order, f, self))
        if self.lengths is not None:
            self.lengths.add(now, self.occupancy)
        bus.wake(now)


class CanBus(Transmitter):
    """Shared bus: serializes frames, delivers to matching receivers.

    Every pending frame of every controller sits in one heap keyed by
    (can_id, attachment index, submission order): the arbitration order,
    found in O(log n) without polling the controllers.  The bus also owns
    the subscriptions: per id, the receiving controllers in attachment
    order.

    Arbitration is the bus's ``try_send``.  A controller that gains a frame
    and the completion of a transmission wake the bus (``Transmitter.wake``),
    so it arbitrates once at the end of the tick, after everything already
    due at it; no arbitration waits for a later tick.
    """

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
        super().__init__(sim, name)
        self.store = store
        self.name = name
        self.bitrate = bitrate
        self.segment = segment or name
        self.stuffing = stuffing
        self.ports: list = []
        self._receivers: dict[int, tuple] = {}  # can_id -> subscribed ports, attachment order
        self.pending: list[tuple[int, int, int, CanFrame, GatewayCanPort | None]] = []
        self._timing: dict[int, tuple[int, int]] = {}  # payload length -> (ticks, wire bits)
        self.delivered = 0

    def attach(self, port) -> int:
        """Attach a controller; the return value is its node index."""
        port.bus = self
        port._index = len(self.ports)
        self.ports.append(port)
        return port._index

    def subscribe(self, port, can_id: int) -> None:
        """Deliver frames with ``can_id`` to an attached controller."""
        if not (port._index < len(self.ports) and self.ports[port._index] is port):
            raise ValueError(f"{port.node} is not attached to bus {self.name}")
        receivers = self._receivers.get(can_id, ())
        if port not in receivers:
            self._receivers[can_id] = tuple(sorted(receivers + (port,), key=lambda p: p._index))

    def _handle(self, ev: Event) -> None:
        # CAN_TX_DONE: the frame on the wire reaches every subscriber but its sender.
        now = ev.time
        frame, sender, wire_bits = self._tx
        self._tx = None
        self.store.link_completed(self.name, wire_bits)
        for port in self._receivers.get(frame.can_id, ()):
            if port is not sender:
                self.delivered += 1
                on_rx = port.on_rx
                if on_rx is not None:
                    on_rx(frame, now)
        # Anything still pending re-arbitrates at this tick, after the work
        # already due at it; the 3-bit interframe space is already part of
        # the frame duration.
        if self._top() is not None:
            self.wake(now)

    def _top(self):
        """The winning heap entry, or None; overwritten gateway frames are dropped."""
        pending = self.pending
        while pending:
            entry = pending[0]
            port = entry[4]
            if port is None:
                return entry
            slot = port.slots[entry[0]]
            # Slot frames were pushed in order, so a live entry at the top
            # is its slot's head; an overwritten one is in no slot.
            if slot and slot[0] is entry[3]:
                return entry
            heappop(pending)
        return None

    def try_send(self, now: int) -> None:
        """Arbitrate: put the winning frame on the wire as (frame, sender, wire
        bits).  The bus is woken only with a live frame pending, and the
        woken call runs after the completion due at its tick."""
        can_id, index, _, frame, gw_port = self._top()
        heappop(self.pending)
        if gw_port is not None:
            gw_port.slots[can_id].popleft()
            gw_port.occupancy -= 1
        size = frame.payload_len
        timing = self._timing.get(size)
        if timing is None:
            timing = self._timing[size] = (
                can_frame_duration(size, self.bitrate, self.stuffing),
                can_wire_bits(size, self.stuffing),
            )
        self._tx_end = end = now + timing[0]
        self._tx = (frame, self.ports[index], timing[1])
        self.sim.schedule(end, self.name, CAN_TX_DONE)
