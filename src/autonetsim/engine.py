"""Runtime assembly: turn a NetworkConfig into live simulation components.

The engine wires buses, switch ports, gateways, stimuli and sinks to the
event kernel, runs to the horizon, and (by default) drains in-flight
frames afterwards: periodic sources stop at the horizon, so delivery
counts line up with creation counts while bandwidth windows, checkpointed
during the run, never reach past the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from .can import CanBus, CanFrame, NodeCanPort
from .config import NetworkConfig, device_value
from .ethernet import AVB, BE, RC, TT, EthFrame, EthPort, Switch, in_tt_window, pad_payload, windows_by_link
from .gateway import Gateway, RouteDest
from .kernel import Event, EventKind, OnDemand, Oscillator, Simulator
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


class CanSource:
    """Periodic CAN stimulus feeding a node's controller."""

    def __init__(self, rt: "Runtime", node: str, port: NodeCanPort, bus: CanBus,
                 message: str, can_id: int, payload: int, period: int, offset: int):
        self.rt = rt
        self.port = port
        self.bus = bus
        self.message = message
        self.can_id = can_id
        self.payload = payload
        self.period = period
        self.path = f"{node}.src[{message}]"
        rt.sim.register(self.path, self._fire)
        rt.first_releases.append(rt.sim.schedule(offset, self.path, EventKind.FIRE_SOURCE))

    def _fire(self, ev: Event) -> None:
        now = ev.time
        frame = CanFrame(self.can_id, self.payload, now, self.message)
        self.port.submit(frame)
        nxt = now + self.period
        if self.rt.stop_time is None or nxt <= self.rt.stop_time:
            self.rt.sim.schedule(nxt, self.path, EventKind.FIRE_SOURCE)
        self.bus.notify(now)


class EthSource:
    """Periodic Ethernet stimulus (RC, AVB, or best effort)."""

    def __init__(self, rt: "Runtime", node: str, port: EthPort, message: str,
                 emissions: list[tuple[tuple, object]], payload: int, period: int, offset: int):
        self.rt = rt
        self.port = port
        self.message = message
        self.emissions = emissions  # (forwarding key, tag) per frame each period
        self.payload = payload
        self.period = period
        self.path = f"{node}.src[{message}]"
        rt.sim.register(self.path, self._fire)
        rt.first_releases.append(rt.sim.schedule(offset, self.path, EventKind.FIRE_SOURCE))

    def _fire(self, ev: Event) -> None:
        now = ev.time
        for key, tag in self.emissions:
            frame = EthFrame(
                key=key, payload_len=pad_payload(self.payload),
                tag=tag, creation_time=now, message=self.message,
                logical_len=self.payload,
            )
            self.port.enqueue(frame, now)
        nxt = now + self.period
        if self.rt.stop_time is None or nxt <= self.rt.stop_time:
            self.rt.sim.schedule(nxt, self.path, EventKind.FIRE_SOURCE)


class TtSource:
    """Time-triggered talker releasing at its scheduled window offsets."""

    def __init__(self, rt: "Runtime", node: str, port: EthPort, message: str,
                 release: str, key: tuple, ct_id: int, payload: int,
                 cycle: int, releases: list[int], osc: Oscillator):
        self.rt = rt
        self.port = port
        self.message = message
        self.key = key
        self.ct_id = ct_id
        self.payload = payload
        self.cycle = cycle
        self.osc = osc
        self.path = f"{node}.src[{release}]"
        rt.sim.register(self.path, self._fire)
        # The oscillator is monotone, so each release is due no earlier than the last.
        for offset in releases:
            rt.first_releases.append(
                rt.sim.schedule(osc.local_to_ideal(offset), self.path, EventKind.TT_RELEASE, offset))

    def _fire(self, ev: Event) -> None:
        now = ev.time
        frame = EthFrame(
            key=self.key, payload_len=pad_payload(self.payload),
            tag=TT(self.ct_id), creation_time=now, message=self.message,
            logical_len=self.payload,
        )
        self.port.enqueue(frame, now)
        nominal = ev.payload + self.cycle
        due = self.osc.local_to_ideal(nominal)  # the horizon is in ideal time
        if self.rt.stop_time is None or due <= self.rt.stop_time:
            self.rt.sim.schedule(due, self.path, EventKind.TT_RELEASE, nominal)


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
        self.first_releases: list[Event] = []  # each source's first events; run() cancels those past the horizon
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
        """Instantiate the talkers and CAN subscriptions the compiler derived.

        A source registers its own handler, which keeps it alive."""
        for msg in self.cfg.messages:
            if msg.can_talker is not None:
                bus = self.buses[msg.can_talker["bus"]]
                CanSource(
                    self, msg.sender, self.hosts[msg.sender].port, bus, msg.name,
                    msg.can_talker["id"], msg.payload, msg.period, msg.offset,
                )
            else:
                port = self.hosts[msg.sender].port
                emissions = []
                for frame in msg.eth_talker:
                    if "release" not in frame:
                        emissions.append((frame["key"], _tag_from_dict(frame["binding"])))
                        continue
                    TtSource(
                        self, msg.sender, port, msg.name, frame["release"], frame["key"],
                        frame["binding"]["ct"], msg.payload, self.cfg.schedule.cycle,
                        self.cfg.schedule.releases[frame["release"]], self.oscillators[msg.sender],
                    )
                if emissions:
                    EthSource(
                        self, msg.sender, port, msg.name, emissions,
                        msg.payload, msg.period, msg.offset,
                    )
            for receiver in msg.receivers:
                sub = msg.can_receivers.get(receiver)
                if sub is not None:
                    self.buses[sub["bus"]].subscribe(self.hosts[receiver].port, sub["id"])
                self.hosts[receiver].subs.add(msg.name)

    # -- execution ------------------------------------------------------------

    def run(self, horizon: int, drain: bool = True, window: tuple[int, int] | None = None) -> RunResult:
        """Run to the horizon, checkpointing the store at ``window``'s ends; then drain if asked."""
        self.stop_time = horizon
        for ev in self.first_releases:
            if ev.time > horizon:
                self.sim.cancel(ev)
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
