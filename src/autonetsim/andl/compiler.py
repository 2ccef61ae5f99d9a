"""Validation and compilation of ANDL sources into a NetworkConfig.

The compiler resolves type inheritance, checks device parameters, builds
the topology graph and applies the inline-ini and command-line overrides;
only then does it compute shortest-hop message paths, derive gateway
routing rules, pools, switch forwarding tables, AVB reservations and TT
flows in one walk per message, and generate the TDMA schedule, so each is
computed once, from final values.
"""

from __future__ import annotations

from collections import deque
from itertools import zip_longest

from ..config import (
    DEVICE_RULES, PAYLOAD, BusCfg, ConfigError, DeviceCfg, DeviceParams, ForwardCfg, LinkCfg, MessageCfg,
    NetworkConfig, OverrideError, PoolCfg, RuleCfg, ScheduleCfg, apply_override, device_value,
)
from ..ethernet import (ETH_MAX_PAYLOAD, check_reservation_cap,
                        eth_frame_duration, eth_wire_bits, pad_payload)
from ..gateway import aggregate_len
from ..kernel import SEC
from .nodes import AndlFile, Diagnostic, MessageDecl, NetworkDecl, PoolBind, has_errors
from .tdma import CycleTooLong, ScheduleInfeasible, TtFlow, generate_tdma_schedule

NODE_KINDS = ("node", "gateway", "switch")
STREAM_ID_FIELD = {"tt": "ct", "avb": "stream", "rc": "vl"}  # the binding field a stream id is in


class CompileError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics if d.severity == "error"))
        self.diagnostics = diagnostics

    def __reduce__(self):
        # Rebuilt from the diagnostics, so it survives the trip back from `run --jobs` workers.
        return (CompileError, (self.diagnostics,))


class _Builder:
    def __init__(self, ast: AndlFile, network: str | None):
        self.ast = ast
        self.network_name = network
        self.diags: list[Diagnostic] = []
        self.cfg = NetworkConfig(name="")
        self.devices: dict[str, DeviceCfg] = {}  # the config's own entries, overridden in place
        self.device_pools: dict[str, list[str]] = {}
        self.device_line: dict[str, int] = {}
        self.resolved: dict[int, tuple[dict, list]] = {}  # id(decl) -> inherited params, pools
        self.resolving: set[int] = set()
        self.buses: dict[str, BusCfg] = {}
        self.adj: dict[str, dict[str, tuple]] = {}  # node -> neighbour -> first edge's info
        self.link_rate: dict[str, int] = {}  # directed link -> bits/s, read after overriding
        self._anon = 0
        self.pool_members: dict[tuple[str, str], list[dict]] = {}
        self.rules: dict[tuple, list[dict]] = {}
        self.rule_owner: dict[tuple, str] = {}  # rule -> the one message it routes
        self.forwarding: dict[tuple[str, tuple], list[str]] = {}
        self.slopes: dict[str, dict[str, int]] = {}
        self.tt_flows: dict[str, TtFlow] = {}

    def error(self, line: int, message: str) -> None:
        self.diags.append(Diagnostic("error", line, 1, message))

    def warn(self, line: int, message: str) -> None:
        self.diags.append(Diagnostic("warning", line, 1, message))

    # -- types and devices -------------------------------------------------

    def _type_index(self) -> dict[str, object]:
        index = {}
        for block in self.ast.types:
            for decl in block.decls:
                index[f"{block.name}.{decl.name}"] = decl
                index.setdefault(decl.name, decl)
        return index

    def _resolve(self, decl, types: dict) -> tuple[DeviceParams, list[str]]:
        """The params and pools ``decl`` declares or inherits, leaving it as parsed.

        Each declaration is resolved once, so a faulty chain, or a parameter
        that is unknown or out of range, is reported once, at its own line.
        """
        key = id(decl)
        if key in self.resolved:
            return self.resolved[key]
        params: DeviceParams = {}
        pools: list[str] = []
        if decl.extends is not None:
            base = types.get(decl.extends)
            if base is None:
                self.error(decl.line, f"unknown type {decl.extends!r} in extends")
            elif base.kind != decl.kind:
                self.error(decl.line, f"{decl.name} ({decl.kind}) cannot extend {decl.extends} ({base.kind})")
            elif id(base) in self.resolving:
                self.error(decl.line, f"inheritance cycle through {decl.extends}")
            else:
                self.resolving.add(key)
                base_params, base_pools = self._resolve(base, types)
                self.resolving.discard(key)
                params.update(base_params)
                pools.extend(base_pools)
        params.update(self._checked(decl.name, decl.params, decl.line))
        for p in decl.pools:
            if p not in pools:
                pools.append(p)
        self.resolved[key] = params, pools
        return params, pools

    def _checked(self, label: str, params: dict[str, str], line: int) -> DeviceParams:
        """``params`` less each one DeviceParams does not declare, a warning at ``line``,
        and each value its rule refuses, an error there."""
        checked = {}
        for key, text in params.items():
            try:
                checked[key] = DEVICE_RULES[key].check(text)
            except KeyError:
                self.warn(line, f"{label}: unknown parameter {key!r} (ignored)")
            except ValueError as exc:  # a Range's args: the bound left and the value
                why = f" must be {exc.args[0]}, not {exc.args[1]}" if len(exc.args) == 2 else f": {exc}"
                self.error(line, f"{label}.{key}{why}")
        return checked

    def _pick_network(self) -> NetworkDecl | None:
        if not self.ast.networks:
            self.error(1, "no network declared")
            return None
        if self.network_name is None:
            return self.ast.networks[0]
        for net in self.ast.networks:
            if net.name == self.network_name:
                return net
        self.error(1, f"network {self.network_name!r} not found")
        return None

    # -- topology ------------------------------------------------------------

    def _build_topology(self, net: NetworkDecl) -> None:
        types = self._type_index()
        for dev in net.devices:
            params, pools = self._resolve(dev, types)
            if dev.name in self.devices:
                self.error(dev.line, f"duplicate device name {dev.name!r}")
                continue
            self.devices[dev.name] = DeviceCfg(dev.name, dev.kind, dict(params))
            self.device_pools[dev.name] = pools
            self.device_line[dev.name] = dev.line
            self.cfg.devices.append(self.devices[dev.name])

        def add_edge(a: str, b: str, info: tuple) -> None:
            self.adj.setdefault(a, {}).setdefault(b, info)
            self.adj.setdefault(b, {}).setdefault(a, info)

        for seg in net.segments:
            kinds = set()
            for conn in seg.conns:
                missing = [n for n in (conn.a, conn.b) if n not in self.devices]
                if missing:
                    self.error(conn.line, f"unknown device {missing[0]!r} in connection")
                    continue
                a, b = self.devices[conn.a], self.devices[conn.b]
                if a.kind == "canLink" or b.kind == "canLink":
                    if a.kind == "canLink" and b.kind == "canLink":
                        self.error(conn.line, "cannot connect two CAN links")
                        continue
                    bus_decl, other = (a, conn.b) if a.kind == "canLink" else (b, conn.a)
                    if self.devices[other].kind not in ("node", "gateway"):
                        self.error(conn.line, f"{other!r} cannot attach to a CAN bus")
                        continue
                    if conn.link or conn.new_type:
                        self.error(conn.line, "CAN attachments take no link reference")
                        continue
                    bus = self.buses.get(bus_decl.name)
                    if bus is None:
                        bus = BusCfg(bus_decl.name, device_value(bus_decl.params, "bitrate"), seg.name)
                        self.buses[bus_decl.name] = bus
                    elif bus.segment != seg.name:
                        self.error(conn.line, f"bus {bus.name!r} appears in two segments")
                    if other in bus.attached:
                        self.warn(conn.line, f"{other!r} attached to {bus.name!r} twice")
                    else:
                        bus.attached.append(other)
                        add_edge(other, bus.name, ("can", bus.name, seg.name))
                    kinds.add("can")
                    continue
                if a.kind not in NODE_KINDS or b.kind not in NODE_KINDS:
                    self.error(conn.line, "Ethernet links connect nodes, switches, or gateways")
                    continue
                if conn.link:
                    link_dev = self.devices.get(conn.link)
                    if link_dev is None or link_dev.kind != "ethernetLink":
                        self.error(conn.line, f"{conn.link!r} is not an ethernetLink")
                        continue
                    name, rate = conn.link, device_value(link_dev.params, "bandwidth")
                else:
                    params = {}
                    if conn.new_type:
                        link_type = types.get(conn.new_type)
                        if link_type is None or link_type.kind != "ethernetLink":
                            self.error(conn.line, f"{conn.new_type!r} is not an ethernetLink type")
                            continue
                        params = self._resolve(link_type, types)[0]
                    rate = device_value(params, "bandwidth")
                    self._anon += 1
                    name = f"link{self._anon}"
                if any(l.name == name for l in self.cfg.links):
                    self.error(conn.line, f"link {name!r} used in more than one connection")
                    continue
                self.cfg.links.append(LinkCfg(name, conn.a, conn.b, rate, seg.name))
                add_edge(conn.a, conn.b, ("eth", name, seg.name))
                kinds.add("ethernet")
            if kinds:
                if len(kinds) > 1:
                    self.error(seg.line, f"segment {seg.name!r} mixes CAN and Ethernet")
                self.cfg.segments[seg.name] = sorted(kinds)[0]

        self.cfg.buses = list(self.buses.values())
        # A node is an end station with one interface; only switches, gateways
        # and buses carry traffic onward, so no path passes through a node.
        eth_links: dict[str, int] = {}
        for link in self.cfg.links:
            for end in (link.a, link.b):
                eth_links[end] = eth_links.get(end, 0) + 1
        for dev in self.cfg.devices:
            count = eth_links.get(dev.name, 0)
            if dev.kind == "gateway" and count > 1:
                self.error(self.device_line[dev.name],
                           f"gateway {dev.name} has {count} Ethernet links; one uplink is supported")
            elif dev.kind == "node":
                count += sum(dev.name in bus.attached for bus in self.cfg.buses)
                if count > 1:
                    self.error(self.device_line[dev.name], f"node {dev.name} has {count} links; "
                               "a node has one Ethernet link or one CAN bus")

    def _edge(self, u: str, v: str) -> tuple | None:
        return self.adj.get(u, {}).get(v)

    def _shortest_path(self, src: str, dst: str) -> list[str] | None:
        if src == dst or src not in self.adj:
            return None
        seen = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v not in seen:
                    seen[v] = u
                    if v == dst:
                        path = [dst]
                        while seen[path[-1]] is not None:
                            path.append(seen[path[-1]])
                        return path[::-1]
                    queue.append(v)
        return None

    # -- messages -------------------------------------------------------------

    def _merge_eth_dest(self, dests: list[dict], kind: str, tag: dict, pool: str | None,
                        key: tuple) -> None:
        """Add the forwarding key of one more frame, unless a frame has it already."""
        for d in dests:
            if d["kind"] == kind and d.get("pool") == pool and d["tag"] == tag:
                if key not in d["keys"]:
                    d["keys"].append(key)
                return
        entry = {"kind": kind, "tag": tag, "keys": [key]}
        if pool:
            entry["pool"] = pool
        dests.append(entry)

    def _merge_can_dest(self, dests: list[dict], bus: str, can_id: int) -> None:
        for d in dests:
            if d["kind"] == "can" and d["bus"] == bus and d["can_id"] == can_id:
                return
        dests.append({"kind": "can", "bus": bus, "can_id": can_id})

    def _build_messages(self, net: NetworkDecl) -> None:
        claimed_can: dict[tuple[str, int], str] = {}
        claimed_stream: dict[tuple[str, int], str] = {}
        for msg in net.messages:
            m = self._build_message(net, msg, claimed_can, claimed_stream)
            if m is not None:
                self.cfg.messages.append(m)

    def _build_message(self, net, msg: MessageDecl, claimed_can, claimed_stream) -> MessageCfg | None:
        line = msg.line
        for name in [msg.sender, *msg.receivers]:
            dev = self.devices.get(name)
            if dev is None:
                self.error(line, f"message {msg.name}: unknown device {name!r}")
                return None
            if dev.kind != "node":
                self.error(line, f"message {msg.name}: {name!r} is not a node")
                return None
        if msg.period <= 0:
            self.error(line, f"message {msg.name}: period must be positive")
            return None
        if not msg.receivers:
            self.error(line, f"message {msg.name}: needs at least one receiver")
            return None

        bindings: dict[str, dict] = {}
        pool_binds: dict[str, PoolBind] = {}
        bare: list[str] = []
        for entry in msg.entries:
            target = entry.target
            if isinstance(entry.binding, PoolBind) or entry.binding is None:
                dev = self.devices.get(target)
                if dev is None or dev.kind != "gateway":
                    self.error(entry.line, f"message {msg.name}: {target!r} is not a gateway")
                    continue
                if isinstance(entry.binding, PoolBind):
                    if entry.binding.pool not in self.device_pools[target]:
                        self.error(entry.line, f"gateway {target} declares no pool {entry.binding.pool!r}")
                        continue
                    pool_binds[target] = entry.binding
                else:
                    bare.append(target)
            else:
                if target not in self.cfg.segments:
                    self.error(entry.line, f"message {msg.name}: unknown segment {target!r}")
                    continue
                seg_kind, b_kind = self.cfg.segments[target], entry.binding["kind"]
                if seg_kind == "can" and b_kind != "can":
                    self.error(entry.line, f"segment {target} is CAN; use a can binding")
                    continue
                if seg_kind == "ethernet" and b_kind == "can":
                    self.error(entry.line, f"segment {target} is Ethernet; can binding not allowed")
                    continue
                bindings[target] = dict(entry.binding)  # the config's own, not the AST's

        paths: dict[str, list[str]] = {}
        hops: dict[str, list[tuple]] = {}  # receiver -> (kind, link or bus, segment) per hop
        gateways: list[str] = []
        needed_segments: list[str] = []
        for receiver in msg.receivers:
            path = self._shortest_path(msg.sender, receiver)
            if path is None:
                self.error(line, f"message {msg.name}: receiver {receiver!r} is unreachable")
                return None
            paths[receiver] = path
            hops[receiver] = [self._edge(u, v) for u, v in zip(path, path[1:])]
            for _, _, seg in hops[receiver]:
                if seg not in needed_segments:
                    needed_segments.append(seg)
            for vertex in path[1:-1]:
                if self.devices[vertex].kind == "gateway" and vertex not in gateways:
                    gateways.append(vertex)

        for seg in needed_segments:
            if seg not in bindings:
                self.error(line, f"message {msg.name}: path crosses segment {seg!r} without a mapping")
                return None
        for gw in gateways:
            if gw not in pool_binds and gw not in bare:
                self.error(line, f"message {msg.name}: gateway {gw} on path but not listed in mapping")
                return None
        for gw in [*pool_binds, *bare]:
            if gw not in gateways:
                self.error(line, f"message {msg.name}: gateway {gw} listed but not on the message path")
                return None

        # payload limits per binding
        if msg.payload < PAYLOAD.low:  # 0B, or no payload line
            self.error(line, f"message {msg.name}: payload must be at least {PAYLOAD.low} byte")
            return None
        for seg, b in bindings.items():
            if b["kind"] == "can" and msg.payload > 8:
                self.error(line, f"message {msg.name}: CAN payload exceeds 8 bytes")
                return None
            if b["kind"] != "can" and msg.payload > ETH_MAX_PAYLOAD:
                self.error(line, f"message {msg.name}: payload exceeds 1500 bytes")
                return None

        # id claims
        for receiver_hops in hops.values():
            for kind, bus, seg in receiver_hops:
                if kind == "can":
                    claim = (bus, bindings[seg]["id"])
                    owner = claimed_can.setdefault(claim, msg.name)
                    if owner != msg.name:
                        self.error(line, f"duplicate CAN id {claim[1]} on bus {claim[0]} ({owner} vs {msg.name})")
                        return None
        for seg, b in bindings.items():
            if b["kind"] in STREAM_ID_FIELD:
                sid = b[STREAM_ID_FIELD[b["kind"]]]
                claim = (b["kind"], sid)
                owner = claimed_stream.setdefault(claim, msg.name)
                if owner != msg.name:
                    self.error(line, f"duplicate {b['kind']} id {sid} ({owner} vs {msg.name})")
                    return None

        if msg.multicast:
            for b in bindings.values():
                if b["kind"] == "tt":
                    self.error(line, f"message {msg.name}: multicast TT streams are not supported; use per-receiver duplication")
                    return None

        cfg_msg = MessageCfg(
            name=msg.name, sender=msg.sender, receivers=list(msg.receivers),
            payload=msg.payload, period=msg.period, offset=msg.offset,
            bindings=bindings, gateways=gateways,
            pools={gw: {"pool": pb.pool, "holdUp": pb.holdup} for gw, pb in pool_binds.items()},
            paths=paths,
        )
        self._derive_tables(cfg_msg, hops, msg.multicast, line)
        if msg.offset and any("release" in frame for frame in cfg_msg.eth_talker):
            self.warn(line, f"message {msg.name}: offset is ignored; a TT message is released by the TDMA schedule")
        return cfg_msg

    # -- derived tables ----------------------------------------------------------

    def _derive_tables(self, msg: MessageCfg, hops: dict[str, list[tuple]], multicast: bool,
                       line: int) -> None:
        """Every table entry of ``msg``, in one walk over its receivers' paths.

        A frame is known by its forwarding key and the vertex that sends it.
        Whatever receivers share is derived once per message: the sender's
        frame and a TT flow per frame, an AVB reservation per frame and
        directed link, and a pool member and its diagnostics per gateway.
        """
        derived: set[tuple] = set()
        kind, bus, seg = hops[msg.receivers[0]][0]
        if kind == "can":  # the sender's one interface: every path leaves on it
            msg.can_talker = {"bus": bus, "id": msg.bindings[seg]["id"]}
        for receiver in msg.receivers:
            path, receiver_hops = msg.paths[receiver], hops[receiver]
            kind, bus, seg = receiver_hops[-1]
            if kind == "can":
                msg.can_receivers[receiver] = {"bus": bus, "id": msg.bindings[seg]["id"]}
            key = None  # the forwarding key of the last Ethernet run
            for i, (kind, bus, seg) in enumerate(receiver_hops):
                start, role = path[i], self.devices[path[i]].kind
                if role == "gateway":
                    in_kind, _, seg_in = receiver_hops[i - 1]
                    if in_kind == "can":
                        rule = (start, seg_in, msg.bindings[seg_in]["id"], None)
                    else:
                        # Ethernet ingress: the egress is CAN, since a gateway has
                        # one Ethernet link and a shortest path never reuses it.
                        origin = next((h[2] for h in receiver_hops[:i] if h[0] == "can"), None)
                        if origin is not None:  # records tunneled from an upstream CAN segment
                            rule = (start, seg_in, msg.bindings[origin]["id"], None)
                        else:  # frames of the run that ends here
                            rule = (start, seg_in, None, key)
                    dests = self.rules.setdefault(rule, [])
                    owner = self.rule_owner.setdefault(rule, msg.name)
                    if owner != msg.name and ("rule", rule) not in derived:
                        # A gateway tells frames apart by the rule alone: it would route
                        # each frame for both messages.
                        derived.add(("rule", rule))
                        what = f"CAN id {rule[2]}" if rule[3] is None else f"the key {rule[3]}"
                        self.error(line, f"gateway {start}: {what} from segment {seg_in} "
                                   f"is routed for {owner} and {msg.name}")
                    pool = msg.pools.get(start, {}).get("pool")
                    if kind == "can":
                        if pool is not None and ("no egress", start) not in derived:
                            derived.add(("no egress", start))
                            self.error(line, f"message {msg.name}: pool at {start} needs an Ethernet egress")
                        self._merge_can_dest(dests, bus, msg.bindings[seg]["id"])
                        continue
                elif i > 0 or kind == "can":  # an Ethernet run starts at the sender or at a gateway
                    continue

                # The Ethernet run, hops i..j-1, crosses switches only and ends at
                # a gateway or at the receiver, the frame's destination.
                j = i + 1
                while self.devices[path[j]].kind == "switch":
                    j += 1
                dst, tag = path[j], msg.bindings[seg]
                if ("mixed", start, dst) not in derived and any(
                        msg.bindings[h[2]] != tag for h in receiver_hops[i + 1 : j]):
                    derived.add(("mixed", start, dst))  # the run's frames carry one binding
                    self.error(line, f"message {msg.name}: the switched run from {start} to {dst} "
                               "crosses segments with different bindings")
                key = self._forward_key(tag, msg, multicast, frame_dst=dst)
                payload, period = pad_payload(msg.payload), msg.period
                if role == "gateway":
                    self._merge_eth_dest(dests, "eth" if pool is None else "pool", tag, pool, key)
                    if pool is None:  # a one-record aggregate
                        payload = aggregate_len(1, msg.payload)
                    else:
                        if ("member", start) not in derived:
                            derived.add(("member", start))
                            self.pool_members.setdefault((start, pool), []).append({
                                "message": msg.name, "can_id": msg.bindings[seg_in]["id"],
                                "payload": msg.payload, "period": msg.period,
                                "holdup": msg.pools[start]["holdUp"], "tag": tag,
                            })
                        if tag["kind"] in ("avb", "tt"):  # sized where reserved or scheduled
                            members = self.pool_members[(start, pool)]
                            payload, period = _pool_worst_payload(members), min(m["period"] for m in members)
                for k in range(i + 1, j):
                    ports = self.forwarding.setdefault((path[k], key), [])
                    if path[k + 1] not in ports:
                        ports.append(path[k + 1])
                links = [f"{u}->{v}" for u, v in zip(path[i:j], path[i + 1 : j + 1])]
                if tag["kind"] == "avb":
                    bits_per_s = (eth_wire_bits(payload) * SEC + period - 1) // period
                    for link in links:
                        if ("link", key, link) not in derived:
                            derived.add(("link", key, link))
                            self.slopes.setdefault(link, {"A": 0, "B": 0})[tag["class"]] += bits_per_s
                if ("frame", key, start) in derived:
                    continue
                derived.add(("frame", key, start))
                if i == 0:
                    flow_id = f"{msg.name}:{receiver}"
                    frame = {"key": key, "binding": tag}
                    if tag["kind"] == "tt":
                        frame["release"] = flow_id
                    msg.eth_talker.append(frame)
                else:  # a pool sends one aggregate per destination for all its members
                    flow_id = (f"gw:{start}:{msg.name}:{dst}" if pool is None
                               else f"pool:{start}:{pool}:{dst}")
                if tag["kind"] == "tt":
                    self.tt_flows.setdefault(flow_id, TtFlow(
                        flow_id, tag["ct"], period,
                        tuple((link, eth_frame_duration(payload, self.link_rate[link])) for link in links),
                        tuple(device_value(self.devices[v].params, "hardwareDelay") for v in path[i + 1 : j]),
                        i == 0,
                    ))

    def _forward_key(self, tag: dict, msg: MessageCfg, multicast: bool, frame_dst: str) -> tuple:
        kind = tag["kind"]
        if kind == "rc":
            return ("rc", tag["vl"])
        if kind == "tt" and (multicast or len(msg.receivers) == 1):
            return ("tt", tag["ct"])
        if kind == "avb" and (multicast or len(msg.receivers) == 1):
            return ("avb", tag["stream"])
        return ("dst", frame_dst)

    # -- pools --------------------------------------------------------------------

    def _build_pools(self) -> None:
        for (gw, pool), members in sorted(self.pool_members.items()):
            line = self.device_line[gw]
            holdups: dict[int, int] = {}
            tags = []
            for m in members:
                if m["can_id"] in holdups and holdups[m["can_id"]] != m["holdup"]:
                    self.error(line, f"pool {gw}.{pool}: conflicting hold-ups for id {m['can_id']}")
                holdups[m["can_id"]] = m["holdup"]
                if m["tag"] not in tags:
                    tags.append(m["tag"])
                if m["holdup"] > m["period"]:
                    self.warn(line, f"pool {gw}.{pool}: hold-up of id {m['can_id']} exceeds its period; "
                                 "aggregates may carry several instances of one id")
            if len(tags) > 1:
                self.error(line, f"pool {gw}.{pool}: members map to different backbone classes")
            self.cfg.pools.append(PoolCfg(gw, pool, holdups))

    # -- assembly -------------------------------------------------------------------

    def _apply_overrides(self, net: NetworkDecl, overrides) -> None:
        """The inline-ini pairs, then the command-line pairs: a later pair wins."""
        for block, line in zip_longest(net.inline_ini, net.inline_ini_lines, fillvalue=0):
            for raw in block.splitlines():
                stripped = raw.strip()
                if not stripped or stripped.startswith(("#", "//")):
                    continue
                key, eq, value = stripped.partition("=")
                if not eq:
                    self.warn(line, f"inline ini line without '=': {stripped!r}")
                    continue
                try:
                    known = apply_override(self.cfg, key, value)
                except OverrideError as exc:
                    self.error(line, f"inline ini: {exc}")
                    continue
                if not known:
                    self.cfg.extras[key.strip()] = value.strip()
                    self.warn(line, f"unknown inline-ini key {key.strip()!r} (kept as extra)")
        for key, value in overrides:
            if not apply_override(self.cfg, key, value):
                raise ConfigError(f"unknown override key {key!r}")

    def build(self, overrides=()) -> tuple[NetworkConfig, list[Diagnostic]]:
        net = self._pick_network()
        if net is None:
            return self.cfg, self.diags
        self.cfg.name = net.name
        self._build_topology(net)
        if has_errors(self.diags):
            return self.cfg, self.diags
        self._apply_overrides(net, overrides)
        for link in self.cfg.links:
            self.link_rate[f"{link.a}->{link.b}"] = self.link_rate[f"{link.b}->{link.a}"] = link.rate
        self._build_messages(net)
        self._build_pools()

        for (gw, seg, can_id, key), dests in self.rules.items():
            self.cfg.rules.append(RuleCfg(gw, seg, can_id=can_id, key=key, dests=dests))
        for (sw, key), ports in self.forwarding.items():
            self.cfg.forwarding.append(ForwardCfg(sw, key, ports))
        for link, slot in self.slopes.items():  # an overridden (link, class) keeps its value
            for cls, v in slot.items():
                if v:
                    self.cfg.slopes.setdefault(link, {}).setdefault(cls, v)

        flows = list(self.tt_flows.values())
        if flows:
            try:
                cycle, windows, releases = generate_tdma_schedule(flows)
                self.cfg.schedule = ScheduleCfg(
                    cycle,
                    windows,
                    {fid: offs for fid, offs in releases.items() if self.tt_flows[fid].scheduled_release},
                )
            except (ScheduleInfeasible, CycleTooLong) as exc:
                self.error(0, f"TDMA schedule: {exc}")  # a fact of all TT flows: no position

        # reservation cap, over the derived and the overridden slopes: no single source line
        for link, slot in self.cfg.slopes.items():
            rate = self.link_rate.get(link)
            if rate is None:
                continue
            a, b = slot.get("A", 0), slot.get("B", 0)
            if not check_reservation_cap(a, b, rate):
                self.error(0, f"AVB reservation on {link} is {a + b} b/s, above 75% of {rate} b/s")

        self.cfg.warnings.extend(str(d) for d in self.diags if d.severity == "warning")
        return self.cfg, self.diags


def _pool_worst_payload(members: list[dict]) -> int:
    records = payload_bytes = 0
    for m in members:
        per_flush = m["holdup"] // m["period"] + 1
        records += per_flush
        payload_bytes += m["payload"] * per_flush
    return min(ETH_MAX_PAYLOAD, aggregate_len(records, payload_bytes))


def validate(ast: AndlFile, network: str | None = None) -> list[Diagnostic]:
    """Semantic checks; diagnostics are the result, nothing is raised."""
    _, diags = _Builder(ast, network).build()
    return diags


def compile_network(ast: AndlFile, network: str | None = None, overrides=()) -> NetworkConfig:
    """Compile a parsed description; raises CompileError on any error.  ``overrides``
    are command-line pairs: a bad value raises OverrideError, an unknown key ConfigError."""
    return compile_with_warnings(ast, network, overrides)[0]


def compile_with_warnings(
    ast: AndlFile, network: str | None = None, overrides=()
) -> tuple[NetworkConfig, list[Diagnostic]]:
    """``compile_network``, also returning the warnings it found."""
    cfg, diags = _Builder(ast, network).build(overrides)
    if has_errors(diags):
        raise CompileError(diags)
    return cfg, diags
