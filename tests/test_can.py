import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autonetsim.can import (
    CanBus, CanFrame, GatewayCanPort, NodeCanPort,
    can_frame_duration, can_wire_bits, worst_case_stuff_bits,
)
from autonetsim.kernel import US, EventKind, Simulator
from autonetsim.metrics import MetricStore


def test_frame_duration_examples():
    assert can_frame_duration(8, 500_000) == 222 * US   # 111 bits
    assert can_frame_duration(0, 500_000) == 94 * US    # 47 overhead bits only
    assert can_frame_duration(6, 500_000) == 190 * US   # 95 bits


def test_wire_bits_and_stuffing():
    assert can_wire_bits(8) == 111
    assert worst_case_stuff_bits(8) == (34 + 64) // 4
    assert can_frame_duration(8, 500_000, stuffing=True) == (111 + 24) * 2 * US


def test_frame_invariants():
    with pytest.raises(ValueError):
        CanFrame(4096, 0, 0)
    with pytest.raises(ValueError):
        CanFrame(1, 9, 0)
    with pytest.raises(ValueError):
        CanFrame(1, -1, 0)


def arbitrate(pending: list[tuple[int, int, CanFrame]]) -> CanFrame | None:
    """The reference arbitration order: of (can_id, node_index, frame)
    candidates, the lowest id wins, ties to the lowest node index."""
    if not pending:
        return None
    return min(pending, key=lambda c: (c[0], c[1]))[2]


def test_arbitrate_lowest_id():
    frames = [
        (331, 0, CanFrame(331, 1, 0)),
        (17, 1, CanFrame(17, 1, 0)),
        (510, 2, CanFrame(510, 1, 0)),
    ]
    assert arbitrate(frames).can_id == 17
    assert arbitrate([frames[2]]).can_id == 510
    assert arbitrate([]) is None


def bus_fixture(bitrate=500_000, trace=False):
    sim = Simulator(trace=trace)
    store = MetricStore()
    bus = CanBus(sim, store, "cb1", bitrate, "canbus")
    return sim, store, bus


class Sink:
    def __init__(self):
        self.got = []

    def __call__(self, frame, now):
        self.got.append((frame.can_id, now))


def test_same_instant_release_serializes_by_priority():
    sim, _, bus = bus_fixture()
    p1, p2, rx = NodeCanPort("n1"), NodeCanPort("n2"), NodeCanPort("rx")
    sink = Sink()
    rx.on_rx = sink
    for p in (p1, p2, rx):
        bus.attach(p)
    for can_id in (100, 200):
        bus.subscribe(rx, can_id)
    p2.enqueue(CanFrame(200, 8, 0), sim.now)
    p1.enqueue(CanFrame(100, 8, 0), sim.now)
    sim.run_until(10_000 * US)
    dur = can_frame_duration(8, 500_000)
    assert sink.got == [(100, dur), (200, 2 * dur)]


def test_frame_arriving_mid_transmission_waits():
    sim, _, bus = bus_fixture()
    p1, p2, rx = NodeCanPort("n1"), NodeCanPort("n2"), NodeCanPort("rx")
    sink = Sink()
    rx.on_rx = sink
    for p in (p1, p2, rx):
        bus.attach(p)
    for can_id in (5, 900):
        bus.subscribe(rx, can_id)
    p1.enqueue(CanFrame(900, 8, 0), sim.now)
    sim.run_until(10 * US)
    # higher-priority frame shows up mid-transmission; no preemption
    p2.enqueue(CanFrame(5, 8, sim.now), sim.now)
    sim.run_until(10_000 * US)
    dur = can_frame_duration(8, 500_000)
    assert sink.got == [(900, dur), (5, 2 * dur)]


def test_equal_id_tie_broken_by_node_index():
    sim, _, bus = bus_fixture()
    p1, p2, rx = NodeCanPort("n1"), NodeCanPort("n2"), NodeCanPort("rx")
    sink = Sink()
    rx.on_rx = sink
    for p in (p1, p2, rx):
        bus.attach(p)
    bus.subscribe(rx, 50)
    p2.enqueue(CanFrame(50, 1, 0, message="from_n2"), sim.now)
    p1.enqueue(CanFrame(50, 1, 0, message="from_n1"), sim.now)
    sim.run_until(10_000 * US)
    assert len(sink.got) == 2  # nothing lost, deterministic order


def test_conservation_on_error_free_bus():
    sim, store, bus = bus_fixture()
    tx = NodeCanPort("n1")
    sinks = []
    ports = [tx]
    for i in range(3):
        p = NodeCanPort(f"rx{i}")
        s = Sink()
        p.on_rx = s
        sinks.append(s)
        ports.append(p)
    for p in ports:
        bus.attach(p)
    for p in ports[1:]:
        bus.subscribe(p, 10)
    n = 25
    for k in range(n):
        tx.enqueue(CanFrame(10, 4, 0), sim.now)
    sim.run_until(10**12)
    assert store.link_frames[bus.name] == n
    assert all(len(s.got) == n for s in sinks)
    assert bus.delivered == 3 * n


def test_gateway_port_batch_overwrite():
    sim, store, bus = bus_fixture()
    port = GatewayCanPort("gw1", "cb2", store)
    rx = NodeCanPort("rx")
    sink = Sink()
    rx.on_rx = sink
    bus.attach(port)
    bus.attach(rx)
    for can_id in (10, 20):
        bus.subscribe(rx, can_id)
    f = lambda i: CanFrame(i, 2, 0)
    slots = []

    def place(ev):
        port.place_batch(ev.payload, ev.time)
        slots.append({can_id: len(slot) for can_id, slot in port.slots.items()})

    # Two gateway egress events at one tick: placing the first wakes the bus,
    # whose arbitration is deferred behind the second.
    sim.register("driver", place)
    sim.schedule(5, "driver", EventKind.TIMER, [f(10), f(10), f(20)])
    sim.schedule(5, "driver", EventKind.TIMER, [f(10)])
    sim.run_until(5)
    # same-batch records of one id stay queued in order;
    # a later batch overwrites what is still pending for that id
    assert slots[0] == {10: 2, 20: 1} and slots[1][10] == 1
    assert store.scalar("gw1.canif[cb2]", "overwrites") == 2
    assert [v for _, v in store.vectors[("gw1.canif[cb2]", "QueueLength[txObjects]")]] == [3, 2]
    sim.run_until(10_000 * US)
    assert [can_id for can_id, _ in sink.got] == [10, 20]
    assert sink.got[0][1] == 5 + can_frame_duration(2, 500_000)
    assert port.occupancy == 0 and store.link_frames[bus.name] == 2


def test_subscription_added_after_attach_is_honoured():
    sim, _, bus = bus_fixture()
    tx, rx = NodeCanPort("n1"), NodeCanPort("rx")
    sink = Sink()
    rx.on_rx = sink
    bus.attach(tx)
    bus.attach(rx)
    bus.subscribe(rx, 42)
    tx.enqueue(CanFrame(42, 1, 0), sim.now)
    sim.run_until(10_000 * US)
    assert sink.got == [(42, can_frame_duration(1, 500_000))]


@pytest.mark.parametrize("before_completion", [True, False],
                         ids=["before_tx_done", "after_tx_done"])
def test_frame_queued_at_a_completion_tick_joins_the_re_arbitration(before_completion):
    sim, _, bus = bus_fixture()
    tx, late, rx = NodeCanPort("n1"), NodeCanPort("n2"), NodeCanPort("rx")
    sink = Sink()
    rx.on_rx = sink
    for p in (tx, late, rx):
        bus.attach(p)
    for can_id in (5, 100, 300):
        bus.subscribe(rx, can_id)
    dur = can_frame_duration(8, 500_000)

    def release(ev):
        late.enqueue(CanFrame(5, 8, ev.time), ev.time)

    sim.register("late", release)
    if before_completion:
        # Dispatched ahead of the CAN_TX_DONE at dur: the bus is still sending,
        # and the wake it makes must arbitrate only after the completion.
        sim.schedule(dur, "late", EventKind.TIMER)
    tx.enqueue(CanFrame(100, 8, 0), sim.now)
    tx.enqueue(CanFrame(300, 8, 0), sim.now)
    sim.run_until(0)  # id 100 is on the wire; its CAN_TX_DONE is queued
    if not before_completion:
        # Queued behind the CAN_TX_DONE at dur, so the completion must not
        # arbitrate inline: id 5 has to take part and win over id 300.
        sim.schedule(dur, "late", EventKind.TIMER)
    sim.run_until(10_000 * US)
    assert sink.got == [(100, dur), (5, 2 * dur), (300, 3 * dur)]


def test_subscribe_needs_an_attached_port_and_keeps_attachment_order():
    sim, _, bus = bus_fixture()
    tx, a, b = NodeCanPort("n1"), NodeCanPort("a"), NodeCanPort("b")
    with pytest.raises(ValueError):
        bus.subscribe(a, 7)
    order = []
    for p in (tx, a, b):
        bus.attach(p)
        p.on_rx = lambda frame, now, name=p.node: order.append(name)
    bus.subscribe(b, 7)
    bus.subscribe(a, 7)
    bus.subscribe(b, 7)  # a second subscription delivers once
    tx.enqueue(CanFrame(7, 0, 0), sim.now)
    sim.run_until(10_000 * US)
    assert order == ["a", "b"] and bus.delivered == 2


def test_overwritten_gateway_frame_is_never_transmitted():
    sim, store, bus = bus_fixture()
    node, gw, rx = NodeCanPort("n1"), GatewayCanPort("gw1", "cb1", store), NodeCanPort("rx")
    got = []
    rx.on_rx = lambda frame, now: got.append(frame.message)
    for p in (node, gw, rx):
        bus.attach(p)
    for can_id in (1, 10, 20):
        bus.subscribe(rx, can_id)
    node.enqueue(CanFrame(1, 8, 0, message="busy"), sim.now)
    gw.place_batch([CanFrame(10, 0, 0, message="stale"),
                    CanFrame(20, 0, 0, message="kept")], sim.now)
    sim.run_until(10 * US)  # the bus is sending "busy"
    gw.place_batch([CanFrame(10, 0, 0, message="fresh")], sim.now)
    sim.run_until(10_000 * US)
    assert got == ["busy", "fresh", "kept"]
    assert store.scalar("gw1.canif[cb1]", "overwrites") == 1
    assert store.link_frames[bus.name] == 3 and not bus.pending


# -- differential check of the bus heap against the arbitration rule ---------

SLOT = 50 * US   # action times are multiples of this; frames take 94-222 us
IDS = st.integers(0, 5)  # few ids, so equal ids meet on one bus
PAYLOAD = st.integers(0, 8)
ACTION = st.one_of(
    st.tuples(st.just("node"), st.integers(0, 2), st.tuples(IDS, PAYLOAD)),
    st.tuples(st.just("gw"), st.integers(0, 1), st.lists(st.tuples(IDS, PAYLOAD), min_size=1, max_size=4)),
)
PORTS = ["n0", "n1", "n2", "g0", "g1"]


def reference_transmissions(order, actions):
    """Brute force: at every idle instant apply `arbitrate` to each
    controller's best frame, as a bus that polls its controllers would."""
    nodes = {name: [] for name in order if name[0] == "n"}   # [(can_id, seq, frame)]
    slots = {name: {} for name in order if name[0] == "g"}   # can_id -> [frame]
    seq = 0
    out, t, i = [], 0, 0
    while True:
        while i < len(actions) and actions[i][0] <= t:
            _, port, frames = actions[i]
            i += 1
            if port in nodes:
                seq += 1
                nodes[port].append((frames[0].can_id, seq, frames[0]))
            else:
                by_id = {}
                for f in frames:
                    by_id.setdefault(f.can_id, []).append(f)
                for can_id, batch in by_id.items():
                    slots[port][can_id] = list(batch)
        candidates = []
        for index, name in enumerate(order):
            if nodes.get(name):
                can_id, _, frame = min(nodes[name], key=lambda e: e[:2])
                candidates.append((can_id, index, frame))
            elif name in slots:
                live = [(can_id, q[0]) for can_id, q in slots[name].items() if q]
                if live:
                    can_id, frame = min(live, key=lambda e: e[0])
                    candidates.append((can_id, index, frame))
        frame = arbitrate(candidates)
        if frame is None:
            if i == len(actions):
                return out
            t = actions[i][0]
            continue
        sender = order[next(idx for cid, idx, f in candidates if f is frame)]
        if sender in nodes:
            nodes[sender] = [e for e in nodes[sender] if e[2] is not frame]
        else:
            slots[sender][frame.can_id].pop(0)
        t += can_frame_duration(frame.payload_len, 500_000)
        out.append((t, frame.can_id, frame.message))


@settings(max_examples=150, deadline=None)
@given(order=st.permutations(PORTS), timed=st.lists(st.tuples(st.integers(0, 40), ACTION), max_size=30))
def test_bus_heap_matches_reference_arbitration(order, timed):
    sim, store, bus = bus_fixture(trace=True)
    ports = {name: NodeCanPort(name) if name[0] == "n" else GatewayCanPort(name, "cb1", store)
             for name in order}
    for name in order:
        bus.attach(ports[name])
    rx = NodeCanPort("rx")
    got = []
    rx.on_rx = lambda frame, now: got.append((now, frame.can_id, frame.message))
    bus.attach(rx)
    for can_id in range(6):
        bus.subscribe(rx, can_id)
    actions = []
    for k, (slot, (kind, which, spec)) in enumerate(sorted(timed, key=lambda a: a[0])):
        name = f"{kind[0]}{which}"
        specs = [spec] if kind == "node" else spec
        frames = [CanFrame(can_id, n, 0, message=f"{name}#{k}.{j}")
                  for j, (can_id, n) in enumerate(specs)]
        actions.append((slot * SLOT, name, frames))

    def act(ev):
        _, name, frames = ev.payload
        if name[0] == "n":
            ports[name].enqueue(frames[0], ev.time)
        else:
            ports[name].place_batch(frames, ev.time)

    sim.register("driver", act)
    for action in actions:
        sim.schedule(action[0], "driver", EventKind.TIMER, action)
    sim.run_to_completion()
    assert got == reference_transmissions(order, actions)
    created = sum(len(frames) for _, _, frames in actions)
    overwritten = sum(v for (_, name), (v, _) in store.scalars.items() if name == "overwrites")
    assert store.link_frames.get(bus.name, 0) == len(got) == created - overwritten
    # Every arbitration is a deferred call at the tick its wake comes.
    assert "CAN_ARBITRATE" not in {kind for *_, kind in sim.trace}
