from fractions import Fraction

import pytest

from autonetsim.ethernet import (
    AVB, BE, RC, TT, CreditState, EthFrame, EthPort, PayloadOutOfRange, Switch,
    TdmaWindow, check_reservation_cap, eth_frame_duration, eth_wire_bits, violations,
)
from autonetsim.kernel import MS, US, EventKind, Simulator
from autonetsim.metrics import SCALE, MetricStore

RATE = 100_000_000


def test_frame_duration_examples():
    assert eth_frame_duration(46, RATE) == 6_720_000        # 84 B wire, 6.72 us
    assert eth_frame_duration(500, RATE) == 43_040_000      # 538 B wire
    assert eth_frame_duration(1500, RATE) == 123_040_000    # 1538 B wire
    assert eth_wire_bits(46) == 672


def test_payload_bounds():
    with pytest.raises(PayloadOutOfRange):
        eth_frame_duration(45, RATE)
    with pytest.raises(PayloadOutOfRange):
        eth_frame_duration(1501, RATE)
    with pytest.raises(PayloadOutOfRange):
        EthFrame(("dst", "b"), 12, BE(0), 0)


# The port integrates its shapers' credit (EthPort._credit_settle); these runs
# read it from the recorded credit[A] series, in bits scaled by 10^12.
def credit_points(store):
    return store.vectors[("s1.port.en2", "credit[A]")]


def test_credit_drain_during_transmission():
    sim, store, port, peer = make_port(idle_a=25_000_000)
    port.enqueue(frame(AVB(1, "A")), 0)
    sim.run_until(1 * MS)
    assert [t for _, t in peer.got] == [6_720_000]
    # -75 Mb/s (send_slope) for 6.72 us; nothing is queued, and negative credit is kept.
    assert credit_points(store) == [(0, 0), (6_720_000, -504 * SCALE)]
    assert port.credit["A"].scaled == -504 * SCALE


def test_credit_recovery_time():
    sim, store, port, peer = make_port(idle_a=25_000_000)
    port.enqueue(frame(AVB(1, "A")), 0)
    port.enqueue(frame(AVB(1, "A")), 0)
    sim.run_until(6_720_000)
    assert port.credit["A"].zero_crossing(6_720_000) == 26_880_000  # 20.16 us at 25 Mb/s
    sim.run_until(1 * MS)
    # The second frame waits at idle_slope until its credit is back to 0, then starts.
    assert [t for _, t in peer.got] == [6_720_000, 33_600_000]
    assert credit_points(store) == [
        (0, 0), (6_720_000, -504 * SCALE), (26_880_000, 0), (33_600_000, -504 * SCALE),
    ]


def test_credit_reset_when_queue_empties_positive():
    sim, store, port, peer = make_port(idle_a=25_000_000)
    port.enqueue(frame(BE(0), payload=1500), 0)  # on the wire until 123.04 us
    sim.run_until(1 * US)
    port.enqueue(frame(AVB(1, "A")), 1 * US)
    sim.run_until(1 * MS)
    # Waiting from 1 us gains 3051 bits, sending 6.72 us spends 504; the rest is
    # zeroed when the frame leaves with nothing else queued.
    assert credit_points(store) == [
        (0, 0), (1 * US, 0), (123_040_000, 3051 * SCALE),
        (129_760_000, 2547 * SCALE), (129_760_000, 0),
    ]
    assert port.credit["A"].scaled == 0


def test_reservation_cap():
    assert check_reservation_cap(50_000_000, 25_000_000, RATE)
    assert not check_reservation_cap(50_000_000, 25_000_001, RATE)


def test_schedule_invariants():
    ok = violations(1 * MS, [
        TdmaWindow(1, "a->b", 0, 6_720_000),
        TdmaWindow(2, "a->b", 6_720_000, 6_720_000),
    ])
    assert ok == []
    bad = violations(1 * MS, [
        TdmaWindow(1, "a->b", 0, 10 * US),
        TdmaWindow(2, "a->b", 5 * US, 10 * US),
    ])
    assert bad
    outside = violations(1 * MS, [TdmaWindow(1, "a->b", 999 * US, 2 * US)])
    assert outside


class PeerStub:
    def __init__(self):
        self.got = []

    def receive(self, frame, now):
        self.got.append((frame, now))


def make_port(windows=(), cycle=None, idle_a=0, idle_b=0, capacity=512):
    sim = Simulator()
    store = MetricStore()
    port = EthPort(sim, store, "s1", "en2", RATE, capacity=capacity,
                   windows=windows, cycle=cycle, idle_slope_a=idle_a, idle_slope_b=idle_b)
    peer = PeerStub()
    port.peer = peer
    return sim, store, port, peer


def frame(tag, payload=46, message=None):
    return EthFrame(("dst", "en2"), payload, tag, 0, message=message)


def test_selection_tt_wins_inside_window():
    sim, store, port, peer = make_port([TdmaWindow(5, "s1->en2", 0, 6_720_000)], 1 * MS, idle_a=25_000_000)
    port.enqueue(frame(BE(7)), 0)           # queued but guard-banded at t=0
    port.enqueue(frame(AVB(1, "A")), 0)     # credit 0, would be eligible
    port.enqueue(frame(TT(5)), 0)
    sim.run_until(50 * MS)
    kinds = [type(f.tag).__name__ for f, _ in peer.got]
    assert kinds[0] == "TT"
    assert len(peer.got) == 3


def test_selection_avb_gate_closed_serves_best_effort():
    sim, store, port, peer = make_port(idle_a=25_000_000)
    port.credit["A"].scaled = -1  # one scaled unit below zero closes the gate
    port.enqueue(frame(AVB(1, "A")), 0)
    port.enqueue(frame(BE(3)), 0)
    sim.run_until(1 * MS)
    first = peer.got[0][0]
    assert isinstance(first.tag, BE)
    assert len(peer.got) == 2  # AVB follows once credit recovers


def test_selection_empty_returns_nothing():
    sim, store, port, peer = make_port()
    port.try_send(0)
    sim.run_until(1 * MS)
    assert peer.got == []


def test_no_avb_transmission_with_negative_credit():
    sim, store, port, peer = make_port(idle_a=25_000_000)
    for _ in range(5):
        port.enqueue(frame(AVB(1, "A"), payload=500), sim.now)
    sim.run_until(10 * MS)
    starts = store.vectors[("s1.port.en2", "txStart[AVB_A]")]
    credit = store.vectors[("s1.port.en2", "credit[A]")]
    for t, _ in starts:
        at_start = [v for ct, v in credit if ct <= t][-1]
        assert at_start >= 0
    assert len(peer.got) == 5


def test_credit_vector_piecewise_linear():
    sim, store, port, peer = make_port(idle_a=25_000_000)
    for k in range(4):
        port.enqueue(frame(AVB(1, "A"), payload=200), sim.now)
        sim.run_until((k + 1) * 60 * US)
    sim.run_until(20 * MS)
    points = store.vectors[("s1.port.en2", "credit[A]")]
    idle, send = Fraction(25_000_000), Fraction(25_000_000 - RATE)
    for (t0, c0), (t1, c1) in zip(points, points[1:]):
        if t1 == t0:
            continue  # reset discontinuity
        slope = Fraction(c1 - c0, t1 - t0)  # scaled bits per tick = bits per second
        assert slope in (idle, send, Fraction(0))


@pytest.mark.xfail(strict=True, reason="credit below zero is held while the queue is empty; "
                   "802.1Q-2018 8.6.8.2 raises it at idleSlope whenever nothing is sent")
def test_negative_credit_recovers_while_the_queue_is_empty():
    sim, store, port, peer = make_port(idle_a=25_000_000)
    port.enqueue(frame(AVB(1, "A"), payload=500), 0)   # leaves credit at -3228 bits
    sim.run_until(10 * MS)
    port.enqueue(frame(AVB(1, "A"), payload=500), sim.now)
    sim.run_until(20 * MS)
    # 10 ms at 25 Mb/s is far more than the 129.12 us the deficit needs: no wait.
    assert [t for _, t in peer.got] == [43_040_000, 10 * MS + 43_040_000]


def test_bag_spacing_enforced():
    sim, store, port, peer = make_port()
    bag = 500 * US
    for _ in range(6):
        port.enqueue(frame(RC(3, bag), payload=100), 0)
    sim.run_until(10 * MS)
    starts = [t for t, _ in store.vectors[("s1.port.en2", "txStart[vl3]")]]
    assert len(starts) == 6
    assert all(b - a >= bag for a, b in zip(starts, starts[1:]))


def test_rc_ties_broken_by_lowest_vl():
    sim, store, port, peer = make_port()
    port.enqueue(frame(RC(9, 1 * MS), payload=100), 0)
    port.enqueue(frame(RC(2, 1 * MS), payload=100), 0)
    sim.run_until(5 * MS)
    # same enqueue instant: FIFO instant ties resolved toward the lowest vl id
    assert peer.got[0][0].tag.vl_id == 2


def test_be_priority_order_and_work_conservation():
    sim, store, port, peer = make_port()
    port.enqueue(frame(BE(1)), 0)
    port.enqueue(frame(BE(6)), 0)
    port.enqueue(frame(BE(4)), 0)
    sim.run_until(5 * MS)
    prios = [f.tag.priority for f, _ in peer.got]
    assert prios == [6, 4, 1]
    # the port never idles while transmittable frames wait: back to back
    dur = eth_frame_duration(46, RATE)
    assert [t for _, t in peer.got] == [dur, 2 * dur, 3 * dur]


def test_guard_band_lookahead():
    # window starts at 50 us; a 46 B frame (6.72 us) enqueued at 45 us must wait
    sim, store, port, peer = make_port([TdmaWindow(5, "s1->en2", 50 * US, 6_720_000)], 1 * MS)
    sim.run_until(45 * US)
    port.enqueue(frame(BE(0)), sim.now)
    sim.run_until(2 * MS)
    (got, t), = peer.got
    assert t >= 50 * US + 6_720_000  # only after the window has passed


def test_queue_capacity_drops():
    sim, store, port, peer = make_port(capacity=2)
    for _ in range(3):
        port.enqueue(frame(BE(0)), 0)
    assert store.scalar("s1.port.en2", "drops[BE[0]]") == 1
    points = store.vectors[("s1.port.en2", "QueueLength[BE[0]]")]
    assert points[-1] == (0, 2)  # occupancy stays at capacity on the drop
    sim.run_until(1 * MS)
    assert len(peer.got) == 2


def test_switch_forwarding():
    sim = Simulator()
    store = MetricStore()
    sw = Switch(sim, store, "s2")
    pa = EthPort(sim, store, "s2", "log", RATE)
    pb = EthPort(sim, store, "s2", "fusi", RATE)
    peer_a, peer_b = PeerStub(), PeerStub()
    pa.peer, pb.peer = peer_a, peer_b
    sw.add_route(("rc", 4), [pa, pb])
    sw.add_route(("dst", "log"), [pa])
    multicast = EthFrame(("rc", 4), 1024, RC(4, 1 * MS), 0)
    sw.receive(multicast, 0)
    unicast = EthFrame(("dst", "log"), 46, BE(0), 0)
    sw.receive(unicast, 0)
    unknown = EthFrame(("dst", "nowhere"), 46, BE(0), 0)
    sw.receive(unknown, 0)
    sim.run_until(5 * MS)
    assert len(peer_a.got) == 2 and len(peer_b.got) == 1
    assert store.scalar("s2", "drops[forwarding]") == 1
    # hardware delay: forwarding happened 8 us after ingress
    assert all(t >= 8 * US for _, t in peer_a.got)


def log_selections(sim):
    """The event trace, with each deferred call logged as it is made and as
    it runs: (tick, "defer" or "run", function name)."""
    log = sim.trace = []
    defer = sim.defer

    def logged(fn):
        log.append((sim.now, "defer", fn.__name__))

        def run():
            log.append((sim.now, "run", fn.__name__))
            fn()

        defer(run)

    sim.defer = logged
    return log


def test_enqueue_while_transmission_runs_on_schedules_no_kick():
    sim, store, port, peer = make_port()
    log = log_selections(sim)
    dur = eth_frame_duration(46, RATE)
    port.enqueue(frame(BE(0)), 0)
    sim.run_until(1 * US)  # the first frame is on the wire until dur
    port.enqueue(frame(BE(0)), sim.now)
    sim.run_until(1 * MS)
    # The enqueue at 1 us kicks nothing; each completion kicks one selection.
    deferred = [(t, what) for t, what, *_ in log if what in ("defer", "run")]
    assert deferred == [(0, "defer"), (0, "run"), (dur, "defer"), (dur, "run"),
                        (2 * dur, "defer"), (2 * dur, "run")]
    events = [entry[-1] for entry in log if entry[1] not in ("defer", "run")]
    assert events == ["PORT_TX_DONE", "PORT_TX_DONE"]  # and no wakeup
    assert [t for _, t in peer.got] == [dur, 2 * dur]


def test_enqueue_at_transmission_end_keeps_its_kick():
    sim, store, port, peer = make_port()
    dur = eth_frame_duration(46, RATE)
    # Scheduled before the port's PORT_TX_DONE, so it runs first at that tick.
    sim.register("probe", lambda ev: port.enqueue(frame(BE(0)), ev.time))
    sim.schedule(dur, "probe", EventKind.TIMER)
    log = log_selections(sim)
    port.enqueue(frame(BE(0)), 0)
    sim.run_until(1 * MS)
    # The enqueue's kick is kept; the completion finds it pending and adds
    # none, and the one selection runs after the completion.
    assert [entry[-2:] for entry in log if entry[0] == dur] == [
        ("probe", "TIMER"),
        ("defer", "_kicked"),
        ("s1.port.en2", "PORT_TX_DONE"),
        ("run", "_kicked"),
    ]
    assert [t for _, t in peer.got] == [dur, 2 * dur]


def test_reserved_port_settles_credit_once_per_completion_tick():
    sim, store, port, peer = make_port(idle_a=25_000_000)
    settles = []
    settle = port._credit_settle

    def counted(now, idle):
        settles.append(now)
        settle(now, idle)

    port._credit_settle = counted
    for _ in range(3):
        port.enqueue(frame(BE(0)), 0)
    sim.run_until(1 * MS)
    dur = eth_frame_duration(46, RATE)
    assert [t for _, t in peer.got] == [dur, 2 * dur, 3 * dur]
    # The completion settles, and the selection right behind it at that tick does not again.
    assert [t for t in settles if t] == [dur, 2 * dur, 3 * dur]


def test_unreserved_port_never_touches_credit_state(monkeypatch):
    def untouchable(*args, **kwargs):
        raise AssertionError("credit state used on a port without a reservation")

    monkeypatch.setattr(EthPort, "_credit_settle", untouchable)
    monkeypatch.setattr(CreditState, "zero_crossing", untouchable)
    sim, store, port, peer = make_port()
    assert port.credit == {}
    for _ in range(3):
        port.enqueue(frame(BE(2)), 0)
        port.enqueue(frame(RC(4, 100 * US), payload=100), 0)
    sim.run_until(5 * MS)
    assert len(peer.got) == 6
