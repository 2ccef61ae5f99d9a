"""CAN<->Ethernet gateway: path finding, pooling, and transformation.

A gateway routes by a static table; frames without a matching rule are
dropped and counted.  CAN records bound for Ethernet are buffered in pools:
every record carries a hold-up time, the pool deadline is the minimum of
``arrival + hold-up`` over its content, and expiry releases everything that
has arrived so far, one Ethernet frame per forwarding key holding the
records bound there (split only when an aggregate would exceed the maximum
payload).  The model carries payload lengths, not bytes; an aggregate is as
long as its fixed layout (``aggregate_len``):

    [record count: 2 bytes BE] then per record
    [id: 2 bytes BE (11 bits used)] [dlc: 1 byte] [payload: dlc bytes]

zero-padded up to the 46-byte Ethernet minimum.  The gateway processing
delay is charged once per traversal, on the egress side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .can import CanFrame, GatewayCanPort
from .ethernet import ETH_MAX_PAYLOAD, EthFrame, pad_payload, record_station_latency
from .kernel import GW_CAN_EGRESS, GW_ETH_EGRESS, MS, POOL_FLUSH, US, Event, Simulator
from .metrics import MetricStore

DEFAULT_PROCESSING_DELAY = 40 * US   # measured CAN-Ethernet gateway

RECORD_HEADER = 3   # 2-byte id + 1-byte dlc
COUNT_PREFIX = 2


@dataclass(frozen=True)
class CanRecord:
    can_id: int
    payload_len: int
    message: str | None = None
    creation: int = 0


def aggregate_len(records: int, payload_bytes: int) -> int:
    """Ethernet payload length of an aggregate of ``records`` records that carry
    ``payload_bytes`` CAN payload bytes in all."""
    return pad_payload(COUNT_PREFIX + records * RECORD_HEADER + payload_bytes)


def split_records(records: list[CanRecord]) -> list[list[CanRecord]]:
    """Greedy FIFO split so every chunk's aggregate fits the maximum payload."""
    chunks: list[list[CanRecord]] = []
    current: list[CanRecord] = []
    size = COUNT_PREFIX
    for r in records:
        need = RECORD_HEADER + r.payload_len
        if current and size + need > ETH_MAX_PAYLOAD:
            chunks.append(current)
            current, size = [], COUNT_PREFIX
        current.append(r)
        size += need
    if current:
        chunks.append(current)
    return chunks


def compute_holdup(
    can_id: int,
    period: int,
    policy: str = "config1",
    explicit: dict[int, int] | None = None,
) -> int:
    """Hold-up time for a CAN id under one of the id-band policies.

    An explicit per-id entry always wins over the banded policy.
    """
    if explicit is not None and can_id in explicit:
        return explicit[can_id]
    if policy == "config2" and can_id < 101:
        return 1 * MS
    if policy in ("config1", "config2"):
        if can_id < 101:
            return 0
        if can_id <= 200:
            return period // 4
        if can_id <= 300:
            return period // 2
        return (3 * period) // 4
    raise ValueError(f"unknown hold-up policy {policy!r}")


# --------------------------------------------------------------------------
# Routing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RouteDest:
    """One forwarding action of a routing rule."""

    kind: str                 # "pool" | "eth" | "can"
    pool: str | None = None   # pool id for kind == "pool"
    tag: object | None = None  # egress traffic-class tag for Ethernet emission
    keys: tuple[tuple, ...] = ()  # forwarding keys for Ethernet emission, one frame each
    bus: str | None = None    # destination bus for CAN emission
    can_id: int | None = None  # id on the destination bus


@dataclass
class PoolEntry:
    record: CanRecord
    arrival: int
    keys: tuple[tuple, ...]
    tag: object


class Pool:
    """Aggregation buffer with per-message hold-up times."""

    def __init__(
        self,
        sim: Simulator,
        store: MetricStore,
        gateway: str,
        pool_id: str,
        holdup_by_id: dict[int, int],
        on_flush,
    ):
        self.sim = sim
        self.store = store
        self.pool_id = pool_id
        self.path = f"{gateway}.pool.{pool_id}"
        self.holdup_by_id = dict(holdup_by_id)
        self.on_flush = on_flush
        self.buffered: list[PoolEntry] = []
        self.holdups = store.series(self.path, "holdUpTime")
        self.lengths = store.queue_series(self.path, "pool")
        self._timer = None
        sim.register(self.path, self._handle)

    @property
    def deadline(self) -> int | None:
        """When the armed flush timer fires; None while the pool is idle."""
        return None if self._timer is None else self._timer.time

    def insert(self, record: CanRecord, now: int, keys: tuple[tuple, ...], tag) -> None:
        self.buffered.append(PoolEntry(record, now, keys, tag))
        candidate = now + self.holdup_by_id[record.can_id]
        timer = self._timer
        if timer is None or candidate < timer.time:
            if timer is not None:
                self.sim.cancel(timer)
            self._timer = self.sim.schedule(candidate, self.path, POOL_FLUSH, False)
        if self.lengths is not None:
            self.lengths.add(now, len(self.buffered))

    def _handle(self, ev: Event) -> None:
        now = ev.time
        if ev.payload is False:
            # Re-arm once behind any same-tick arrivals so a frame landing
            # exactly at the deadline is still included (FIFO order).
            self._timer = self.sim.schedule(now, self.path, POOL_FLUSH, True)
            return
        # The flush: everything buffered so far leaves the pool.
        self._timer = None
        if not self.buffered:
            return
        entries = self.buffered
        self.buffered = []
        for e in entries:
            self.holdups.add(now, now - e.arrival)
        if self.lengths is not None:
            self.lengths.add(now, 0)
        self.on_flush(entries, now)


class Gateway:
    """Gateway node tying router, pools, and transformation together."""

    def __init__(
        self,
        sim: Simulator,
        store: MetricStore,
        name: str,
        processing_delay: int = DEFAULT_PROCESSING_DELAY,
    ):
        self.sim = sim
        self.store = store
        self.name = name
        self.processing_delay = processing_delay
        self.can_rules: dict[tuple[str, int], list[RouteDest]] = {}
        self.key_rules: dict[tuple[str, tuple], list[RouteDest]] = {}
        self.pools: dict[str, Pool] = {}
        self.can_ports: dict[str, GatewayCanPort] = {}  # by bus name
        self.eth_port = None
        self.eth_segment = "backbone"
        self.rx = store.station_series(name)
        self.aggregates = store.series(name, "aggregateCount")
        sim.register(name, self._handle)

    # -- wiring -----------------------------------------------------------

    def attach_bus(self, bus) -> GatewayCanPort:
        port = GatewayCanPort(self.name, bus.name, self.store)
        port.on_rx = lambda frame, now, _bus=bus: self.on_can_rx(_bus, frame, now)
        bus.attach(port)
        self.can_ports[bus.name] = port
        return port

    def add_pool(self, pool_id: str, holdup_by_id: dict[int, int]) -> Pool:
        pool = Pool(
            self.sim, self.store, self.name, pool_id, holdup_by_id,
            on_flush=self._emit_aggregates,
        )
        self.pools[pool_id] = pool
        return pool

    def add_can_rule(self, segment: str, can_id: int, dests: list[RouteDest]) -> None:
        self.can_rules[(segment, can_id)] = dests
        for port in self.can_ports.values():
            if port.bus.segment == segment:
                port.bus.subscribe(port, can_id)

    def add_key_rule(self, segment: str, key: tuple, dests: list[RouteDest]) -> None:
        self.key_rules[(segment, key)] = dests

    # -- CAN ingress ----------------------------------------------------------

    def on_can_rx(self, bus, frame: CanFrame, now: int) -> None:
        if frame.message is not None and self.rx is not None:
            self.rx[frame.message].add(now, now - frame.creation_time)
        dests = self.can_rules.get((bus.segment, frame.can_id))
        if not dests:
            self.store.count_drop(self.name, "router", reason="no_rule")
            return
        record = CanRecord(frame.can_id, frame.payload_len, frame.message, frame.creation_time)
        for d in dests:
            if d.kind == "pool":
                self.pools[d.pool].insert(record, now, d.keys, d.tag)
            elif d.kind == "eth":
                self._emit_aggregates([PoolEntry(record, now, d.keys, d.tag)], now)
            elif d.kind == "can":
                out = CanFrame(d.can_id, frame.payload_len, frame.creation_time, frame.message)
                self.sim.schedule(
                    now + self.processing_delay, self.name,
                    GW_CAN_EGRESS, (d.bus, [out]),
                )

    # -- pool flush / Ethernet egress -------------------------------------------

    def _emit_aggregates(self, entries: list[PoolEntry], now: int) -> None:
        """One aggregate per forwarding key, carrying only the records bound there."""
        by_key: dict[tuple, list[CanRecord]] = {}
        for e in entries:
            for key in e.keys:
                by_key.setdefault(key, []).append(e.record)
        tag = entries[0].tag
        frames = []
        for key, records in by_key.items():
            for chunk in split_records(records):
                size = aggregate_len(len(chunk), sum(r.payload_len for r in chunk))
                frame = EthFrame(
                    key=key, payload_len=size, tag=tag, creation_time=now, message=None, records=chunk,
                )
                frames.append(frame)
                self.aggregates.add(now, len(chunk))
        self.sim.schedule(
            now + self.processing_delay, self.name, GW_ETH_EGRESS, frames
        )

    # -- Ethernet ingress ----------------------------------------------------

    def receive(self, frame: EthFrame, now: int, port=None) -> None:
        if self.rx is not None:
            record_station_latency(self.rx, frame, now)
        # Every rule for Ethernet ingress leads to CAN: a gateway has one Ethernet link.
        segment = self.eth_segment
        if frame.records:
            # Aggregate: route each embedded record on its own.
            batches: dict[str, list[CanFrame]] = {}
            for record in frame.records:
                dests = self.can_rules.get((segment, record.can_id))
                if not dests:
                    self.store.count_drop(self.name, "router", reason="no_rule")
                    continue
                for d in dests:
                    out = CanFrame(d.can_id, record.payload_len, record.creation, record.message)
                    batches.setdefault(d.bus, []).append(out)
            for bus_name, batch in batches.items():
                self.sim.schedule(
                    now + self.processing_delay, self.name,
                    GW_CAN_EGRESS, (bus_name, batch),
                )
            return
        dests = self.key_rules.get((segment, frame.key))
        if not dests:
            self.store.count_drop(self.name, "router", reason="no_rule")
            return
        for d in dests:
            out = CanFrame(d.can_id, min(8, frame.logical_len), frame.creation_time, frame.message)
            self.sim.schedule(
                now + self.processing_delay, self.name,
                GW_CAN_EGRESS, (d.bus, [out]),
            )

    # -- deferred egress events -------------------------------------------------

    def _handle(self, ev: Event) -> None:
        now = ev.time
        if ev.kind is GW_ETH_EGRESS:
            for frame in ev.payload:
                self.eth_port.enqueue(frame, now)
        elif ev.kind is GW_CAN_EGRESS:
            bus_name, batch = ev.payload
            self.can_ports[bus_name].place_batch(batch, now)
