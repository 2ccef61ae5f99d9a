"""Runtime assembly: turn a NetworkConfig into live simulation components.

The engine wires buses, switch ports, gateways, talkers and sinks to the
event kernel, runs to the horizon, and (by default) drains in-flight
frames afterwards.  A ``Talker`` is one periodic sender: a CAN ECU, an
AVB, RC or best-effort talker, or a TT talker released by the TDMA
schedule.  Building a runtime schedules nothing; ``Runtime.run`` starts
each talker with the horizon, and a talker makes frames only for releases
due by it in ideal time.  So delivery counts line up with creation counts,
while bandwidth windows, checkpointed during the run, never reach past
the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from .can import CanBus, CanFrame, NodeCanPort
from .config import NetworkConfig, device_value
from .ethernet import AVB, BE, RC, TT, EthFrame, EthPort, Switch, in_tt_window, pad_payload, windows_by_link
from .gateway import Gateway, RouteDest
from .kernel import FIRE_SOURCE, TT_RELEASE, Event, EventKind, OnDemand, Oscillator, SimulationError, Simulator
from .metrics import Latencies, MetricStore, RecordingFlags


def _tag_from_dict(b: dict):
    kind = b["kind"]
    if kind == "tt":
        return TT(b["ct"])
    if kind == "rc":
        return RC(b["vl"], b["bag"])
    if kind == "avb":
        return AVB(b["stream"], b["class"])
    return BE(b["priority"])  # the last kind of a config.EthBinding


class Host:
    """An end node: consumes frames, checks TT windows, records latency."""

    def __init__(self, sim: Simulator, store: MetricStore, name: str, tolerance: int):
        self.sim = sim
        self.store = store
        self.name = name
        self.tolerance = tolerance
        self.subs: set[str] = set()
        self.latencies = OnDemand(self._latency_series)  # per message received, its deliveries here
        self.port: EthPort | NodeCanPort | None = None  # the node's one interface

    def _latency_series(self, message: str) -> Latencies:
        return self.store.latency_series(message, self.name)

    def receive(self, frame: EthFrame, now: int, port: EthPort) -> None:
        if isinstance(frame.tag, TT) and port.windows and not in_tt_window(
            port.windows, port.cycle, frame.tag.ct_id, now, self.tolerance
        ):
            self.store.scalar_add(self.name, f"ttViolations[{frame.tag.ct_id}]", 1, "frames")
            return
        if frame.records:
            for record in frame.records:
                if record.message in self.subs:
                    self.latencies[record.message].add(record.creation, now)
        elif frame.message in self.subs:
            self.latencies[frame.message].add(frame.creation_time, now)

    def on_can_rx(self, frame: CanFrame, now: int) -> None:
        if frame.message in self.subs:
            self.latencies[frame.message].add(frame.creation_time, now)


class Talker:
    """One periodic sender: a CAN ECU, an AVB, RC or best-effort talker, or a
    TT talker.

    Releases fall at each local ``offset`` plus whole ``period``s.  A TT
    talker's are its schedule's releases and cycle in its node's clock,
    mapped to ideal time through ``osc``; any other talker's are in ideal
    time (``osc`` is None).  ``send(port, now)`` builds a release's frames
    and hands them to the sender's port.  ``start`` schedules the releases
    due by the horizon, and each release schedules the next one due by it
    before it sends.
    """

    def __init__(self, sim: Simulator, path: str, port: EthPort | NodeCanPort, offsets: list[int],
                 period: int, kind: EventKind, send, osc: Oscillator | None = None):
        self.sim = sim
        self.path = path
        self.port = port
        self.offsets = offsets
        self.period = period
        self.kind = kind
        self.send = send
        self.osc = osc
        self.horizon = 0
        sim.register(path, self._fire)

    def start(self, horizon: int) -> None:
        self.horizon = horizon
        for offset in self.offsets:
            due = offset if self.osc is None else self.osc.local_to_ideal(offset)
            if due <= horizon:
                self.sim.schedule(due, self.path, self.kind, offset)

    def _fire(self, ev: Event) -> None:
        nominal = ev.payload + self.period
        due = nominal if self.osc is None else self.osc.local_to_ideal(nominal)
        if due <= self.horizon:
            self.sim.schedule(due, self.path, self.kind, nominal)
        self.send(self.port, ev.time)


def _can_send(can_id: int, payload: int, message: str):
    """A CAN talker's ``send``: one frame per release."""
    def send(port: NodeCanPort, now: int) -> None:
        port.enqueue(CanFrame(can_id, payload, now, message), now)
    return send


def _eth_send(emissions: list[tuple[tuple, object]], payload: int, message: str):
    """An Ethernet talker's ``send``: one frame per (forwarding key, tag) of ``emissions``."""
    padded = pad_payload(payload)

    def send(port: EthPort, now: int) -> None:
        for key, tag in emissions:
            port.enqueue(EthFrame(key=key, payload_len=padded, tag=tag, creation_time=now,
                                  message=message, logical_len=payload), now)
    return send


@dataclass
class RunResult:
    events: int
    final_time: int
    deliveries: dict[str, int]
    link_frames: dict[str, int]
    drops: int


class Runtime:
    """Everything needed to execute one compiled scenario once."""

    def __init__(self, cfg: NetworkConfig, seed: int | None = None):
        self.cfg = cfg
        flags = {k: v for k, v in cfg.metric_flags.items() if k != "completions"}
        self.store = MetricStore(RecordingFlags(**flags))
        self.sim = Simulator(seed if seed is not None else cfg.seed)
        self.stop_time: int | None = None
        self.talkers: list[Talker] = []  # in build order; run() starts them
        self.hosts: dict[str, Host] = {}
        self.buses: dict[str, CanBus] = {}
        self.switches: dict[str, Switch] = {}
        self.gateways: dict[str, Gateway] = {}
        self.ports: dict[str, EthPort] = {}
        self.oscillators: dict[str, Oscillator] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        cfg = self.cfg
        # Each port holds its link's windows; the cycle is None only when there is no schedule.
        windows = windows_by_link(cfg.schedule.windows) if cfg.schedule else {}
        cycle = cfg.schedule.cycle if cfg.schedule else None
        for dev in cfg.devices:
            self.oscillators[dev.name] = Oscillator(device_value(dev.params, "driftPpm"))
            if dev.kind == "switch":
                self.switches[dev.name] = Switch(
                    self.sim, self.store, dev.name, device_value(dev.params, "hardwareDelay"),
                )
            elif dev.kind == "gateway":
                self.gateways[dev.name] = Gateway(
                    self.sim, self.store, dev.name, device_value(dev.params, "processingDelay"),
                )
            elif dev.kind == "node":
                self.hosts[dev.name] = Host(self.sim, self.store, dev.name, cfg.tt_tolerance)
        for bus_cfg in cfg.buses:
            self.buses[bus_cfg.name] = CanBus(
                self.sim, self.store, bus_cfg.name, bus_cfg.bitrate,
                bus_cfg.segment, cfg.can_stuffing,
            )

        def endpoint(name: str):
            return self.hosts.get(name) or self.switches.get(name) or self.gateways.get(name)

        for link in cfg.links:
            for owner, peer in ((link.a, link.b), (link.b, link.a)):
                directed = f"{owner}->{peer}"
                slopes = cfg.slopes.get(directed, {})
                port = EthPort(
                    self.sim, self.store, owner, peer, link.rate,
                    capacity=cfg.queue_capacity, windows=windows.get(directed, ()), cycle=cycle,
                    idle_slope_a=slopes.get("A", 0), idle_slope_b=slopes.get("B", 0),
                )
                port.peer = endpoint(peer)
                self.ports[port.link] = port
                owner_obj = endpoint(owner)
                if isinstance(owner_obj, Gateway):
                    owner_obj.eth_port = port
                    owner_obj.eth_segment = link.segment
                elif isinstance(owner_obj, Host):
                    owner_obj.port = port

        for bus_cfg in cfg.buses:
            bus = self.buses[bus_cfg.name]
            for name in bus_cfg.attached:
                if name in self.gateways:
                    self.gateways[name].attach_bus(bus)
                else:
                    port = NodeCanPort(name)
                    port.on_rx = self.hosts[name].on_can_rx
                    bus.attach(port)
                    self.hosts[name].port = port

        for pool_cfg in cfg.pools:
            self.gateways[pool_cfg.gateway].add_pool(pool_cfg.name, pool_cfg.holdup_by_id)

        for rule in cfg.rules:
            dests = [self._dest_from_dict(d) for d in rule.dests]
            gw = self.gateways[rule.gateway]
            if rule.can_id is not None:
                gw.add_can_rule(rule.segment, rule.can_id, dests)
            else:
                gw.add_key_rule(rule.segment, rule.key, dests)

        for fwd in cfg.forwarding:
            sw = self.switches[fwd.switch]
            ports = [self.ports[f"{fwd.switch}->{peer}"] for peer in fwd.ports]
            sw.add_route(fwd.key, ports)

        self._build_stimuli()

    def _dest_from_dict(self, d: dict) -> RouteDest:
        if d["kind"] == "can":
            return RouteDest(kind="can", bus=d["bus"], can_id=d["can_id"])
        return RouteDest(
            kind=d["kind"], pool=d.get("pool"), tag=_tag_from_dict(d["tag"]),
            keys=tuple(d["keys"]),
        )

    def _build_stimuli(self) -> None:
        """The talkers and CAN subscriptions the compiler derived, talkers in
        the order ``run`` starts them."""
        schedule = self.cfg.schedule
        for msg in self.cfg.messages:
            port = self.hosts[msg.sender].port
            emissions = []
            for frame in msg.eth_talker:
                tag = _tag_from_dict(frame["binding"])
                if "release" not in frame:
                    emissions.append((frame["key"], tag))
                    continue
                self.talkers.append(Talker(
                    self.sim, f"{msg.sender}.src[{frame['release']}]", port,
                    schedule.releases[frame["release"]], schedule.cycle, TT_RELEASE,
                    _eth_send([(frame["key"], tag)], msg.payload, msg.name), self.oscillators[msg.sender],
                ))
            if msg.can_talker is not None:
                send = _can_send(msg.can_talker["id"], msg.payload, msg.name)
            elif emissions:
                send = _eth_send(emissions, msg.payload, msg.name)
            else:
                send = None  # the schedule releases every frame
            if send is not None:
                self.talkers.append(Talker(self.sim, f"{msg.sender}.src[{msg.name}]", port, [msg.offset],
                                           msg.period, FIRE_SOURCE, send))
            for receiver in msg.receivers:
                sub = msg.can_receivers.get(receiver)
                if sub is not None:
                    self.buses[sub["bus"]].subscribe(self.hosts[receiver].port, sub["id"])
                self.hosts[receiver].subs.add(msg.name)

    # -- execution ------------------------------------------------------------

    def run(self, horizon: int, drain: bool = True, window: tuple[int, int] | None = None) -> RunResult:
        """Run to the horizon, checkpointing the store at ``window``'s ends; then drain if asked."""
        if self.stop_time is not None:
            raise SimulationError("a Runtime runs once; build another one to run again")
        self.stop_time = horizon
        for talker in self.talkers:
            talker.start(horizon)
        events = 0  # run_until(t) dispatches every event at t, so a split reorders none
        for t in window or ():
            if 0 < t < horizon:
                events += self.sim.run_until(t).events_dispatched
                self.store.checkpoint(t)
        summary = self.sim.run_until(horizon)
        events += summary.events_dispatched
        final = summary.final_time
        self.store.close_run_window(horizon)
        if drain:
            extra = self.sim.run_to_completion()
            events += extra.events_dispatched
            final = max(final, extra.final_time)
        deliveries = {
            f"{message}@{sink}": len(samples)
            for (message, sink), samples in sorted(self.store.latencies.items())
        }
        drops = sum(
            value for (module, name), (value, _) in self.store.scalars.items()
            if name.startswith("drops[")
        )
        return RunResult(events, final, deliveries, dict(self.store.link_frames), drops)
