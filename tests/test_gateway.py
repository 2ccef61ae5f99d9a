import pytest
from hypothesis import given, strategies as st

from autonetsim.ethernet import ETH_MAX_PAYLOAD, TT
from autonetsim.gateway import (
    COUNT_PREFIX, RECORD_HEADER, CanRecord, Pool, aggregate_len, compute_holdup, split_records,
)
from autonetsim.kernel import MS, US, EventKind, Simulator
from autonetsim.metrics import MetricStore


def rec(i, n=8):
    return CanRecord(i, n)


def encode_records(records: list[CanRecord]) -> bytes:
    """Reference encoding of the documented aggregate layout, with zero payload bytes:
    [count:2][id:2][dlc:1][payload:dlc]..., zero-padded to 46 bytes."""
    out = bytearray(len(records).to_bytes(COUNT_PREFIX, "big"))
    for r in records:
        out += r.can_id.to_bytes(2, "big")
        out.append(r.payload_len)
        out += bytes(r.payload_len)
    if len(out) < 46:
        out += bytes(46 - len(out))
    return bytes(out)


def test_aggregate_len_single_record_padded_to_minimum():
    assert aggregate_len(1, 6) == len(encode_records([CanRecord(37, 6)])) == 46


def test_aggregate_len_23_full_records_single_frame():
    # the largest observed aggregation (23 full records) still fits one frame
    records = [CanRecord(100 + i, 8) for i in range(23)]
    chunks = split_records(records)
    assert len(chunks) == 1
    assert aggregate_len(23, 23 * 8) == len(encode_records(chunks[0]))
    assert aggregate_len(23, 23 * 8) == COUNT_PREFIX + 23 * (RECORD_HEADER + 8) == 255


def test_split_preserves_fifo_order():
    records = [CanRecord(i % 2048, 8) for i in range(200)]  # 200*13+2 > 1500
    chunks = split_records(records)
    assert len(chunks) == 2
    flat = [r for chunk in chunks for r in chunk]
    assert flat == records
    for chunk in chunks:
        assert len(encode_records(chunk)) <= 1500


@given(st.lists(st.tuples(st.integers(0, 2047), st.integers(0, 8)), max_size=300))
def test_split_chunks_are_fifo_and_sized_as_the_layout(items):
    records = [CanRecord(i, n) for i, n in items]
    chunks = split_records(records)
    assert [r for chunk in chunks for r in chunk] == records
    for chunk in chunks:
        size = aggregate_len(len(chunk), sum(r.payload_len for r in chunk))
        assert size == len(encode_records(chunk)) <= ETH_MAX_PAYLOAD


def test_holdup_policy_bands():
    assert compute_holdup(50, 10 * MS, "config1") == 0
    assert compute_holdup(150, 100 * MS, "config1") == 25 * MS
    assert compute_holdup(250, 100 * MS, "config1") == 50 * MS
    assert compute_holdup(510, 200 * MS, "config1") == 150 * MS
    assert compute_holdup(50, 10 * MS, "config2") == 1 * MS
    assert compute_holdup(150, 100 * MS, "config2") == 25 * MS
    assert compute_holdup(510, 200 * MS, "config1", explicit={510: 2 * MS}) == 2 * MS
    with pytest.raises(ValueError):
        compute_holdup(1, MS, "config9")


class FlushLog:
    def __init__(self):
        self.flushes = []

    def __call__(self, entries, now):
        self.flushes.append((now, [e.record.can_id for e in entries]))


def make_pool(holdups):
    sim = Simulator()
    store = MetricStore()
    log = FlushLog()
    pool = Pool(sim, store, "gw1", "p1", holdups, on_flush=log)
    return sim, store, pool, log


def test_pool_deadline_from_first_insert():
    sim, store, pool, log = make_pool({37: 2 * MS})
    pool.insert(rec(37, 6), 0, ("gw2",), TT(102))
    assert pool.deadline == 2 * MS
    sim.run_until(10 * MS)
    assert log.flushes == [(2 * MS, [37])]
    assert pool.buffered == [] and pool.deadline is None


def test_pool_deadline_min_rule():
    sim, store, pool, log = make_pool({1: 5 * MS, 2: 3 * MS, 3: 10 * MS})
    pool.insert(rec(1), 0, ("gw2",), TT(1))
    assert pool.deadline == 5 * MS
    pool.insert(rec(2), 0, ("gw2",), TT(1))
    assert pool.deadline == 3 * MS  # shorter hold-up pulls the deadline in
    pool.insert(rec(3), 0, ("gw2",), TT(1))
    assert pool.deadline == 3 * MS  # longer hold-up never pushes it out
    sim.run_until(20 * MS)
    assert log.flushes == [(3 * MS, [1, 2, 3])]


def test_pool_insert_exactly_at_deadline_is_included():
    sim, store, pool, log = make_pool({1: 2 * MS, 2: 9 * MS})
    pool.insert(rec(1), 0, ("gw2",), TT(1))

    # a second record lands exactly when the flush timer fires
    def late_insert(ev):
        pool.insert(rec(2), ev.time, ("gw2",), TT(1))

    sim.register("late", late_insert)
    sim.schedule(2 * MS, "late", EventKind.TIMER)
    sim.run_until(20 * MS)
    assert log.flushes == [(2 * MS, [1, 2])]


def test_transform_aggregate_to_can_burst_after_processing_delay():
    from autonetsim.can import CanBus, NodeCanPort, can_frame_duration
    from autonetsim.ethernet import EthFrame
    from autonetsim.gateway import Gateway, RouteDest

    sim = Simulator()
    store = MetricStore()
    bus = CanBus(sim, store, "cb2", 500_000, "canbus")
    gw = Gateway(sim, store, "gw2")  # default 40 us processing delay
    gw.attach_bus(bus)
    gw.eth_segment = "backbone"
    gw.add_can_rule("backbone", 37, [RouteDest(kind="can", bus="cb2", can_id=37)])
    got = []
    rx = NodeCanPort("cn2")
    rx.on_rx = lambda frame, now: got.append(now)
    bus.attach(rx)
    bus.subscribe(rx, 37)
    records = [CanRecord(37, 6, "msg1", 0) for _ in range(3)]
    frame = EthFrame(("dst", "gw2"), 46, None, 0, records=records)
    gw.receive(frame, 0)
    sim.run_to_completion()
    dur = can_frame_duration(6, 500_000)
    # all three records hit the bus interface together after 40 us, then serialize
    assert got == [40 * US + dur, 40 * US + 2 * dur, 40 * US + 3 * dur]


def test_pool_residence_bounded_by_holdup():
    sim, store, pool, log = make_pool({1: 4 * MS, 2: 2 * MS})
    pool.insert(rec(1), 0, ("gw2",), TT(1))
    pool.insert(rec(2), 1 * MS, ("gw2",), TT(1))
    sim.run_until(20 * MS)
    (t, ids), = log.flushes
    assert t == 3 * MS  # record 2's hold-up expired first
    samples = store.vectors[("gw1.pool.p1", "holdUpTime")]
    assert [(ts, v) for ts, v in samples] == [(3 * MS, 3 * MS), (3 * MS, 2 * MS)]
    assert all(v <= 4 * MS for _, v in samples)
