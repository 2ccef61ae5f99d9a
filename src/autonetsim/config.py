"""Compiled scenario description.

A NetworkConfig is the self-contained output of the network-description
compiler: devices, links, buses, message flows, gateway routing rules,
pools, switch forwarding tables, the TDMA schedule, and the run knobs.
It serializes to a stable-key-order JSON document (see README for the
schema) so identical sources compile to identical bytes.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field, is_dataclass
from functools import cache, partial
from fractions import Fraction
from itertools import product
from types import NoneType, UnionType
from typing import Annotated, Literal, TypedDict, Union, get_args, get_origin, get_type_hints, is_typeddict

from .can import CAN_MAX_ID
from .ethernet import DEFAULT_HW_DELAY, ETH_MAX_PAYLOAD, PRIORITY, TdmaWindow, violations
from .gateway import DEFAULT_PROCESSING_DELAY
from .kernel import POSITIVE, TICKS, Oscillator, Positive, Range, Ticks, parse_duration, parse_rate


def _plain(value):
    """``value`` with each record a new dict of its fields and each list of records a new list;
    anything else, records aside, is already JSON's and is returned as it is, not copied."""
    if is_dataclass(value):
        return {name: _plain(v) for name, v in vars(value).items()}
    if value.__class__ is list and value and is_dataclass(value[0]):
        return [_plain(v) for v in value]
    return value


class ConfigError(Exception):
    """A config document the engine cannot run, e.g. one from an older compiler."""


class OverrideError(ValueError):
    """An override value that does not parse; the message names the key."""


# -- the values of a document -------------------------------------------------
#
# Every value has a declared type.  An integer may carry its Range, and a name
# the kinds of thing it may name: device kinds, "bus", "segment", "port" (a
# directed link "owner->peer") or "TT release" (a key of the schedule's
# releases with at least one offset).  The ANDL parser and compiler check a
# listing's values against the same ranges.

CAN_ID = Range(0, CAN_MAX_ID)
PAYLOAD = Range(1, ETH_MAX_PAYLOAD)  # bytes
CanId = Annotated[int, CAN_ID]
Payload = Annotated[int, PAYLOAD]
NodeName = Annotated[str, ("node",)]
GatewayName = Annotated[str, ("gateway",)]
SegmentName = Annotated[str, ("segment",)]
BusName = Annotated[str, ("bus",)]


class CanBinding(TypedDict):
    kind: Literal["can"]
    id: CanId


class TtBinding(TypedDict):
    kind: Literal["tt"]
    ct: int


AvbBinding = TypedDict("AvbBinding", {"kind": Literal["avb"], "stream": int, "class": Literal["A", "B"]})


class RcBinding(TypedDict):
    kind: Literal["rc"]
    vl: int
    bag: Positive


class BeBinding(TypedDict):
    kind: Literal["be"]
    priority: Annotated[int, PRIORITY]


EthBinding = Union[TtBinding, AvbBinding, RcBinding, BeBinding]
# The one address a frame carries (see README): ["rc", vl], ["tt", ct], ["avb", stream] or ["dst", x].
ForwardKey = Union[tuple[Literal["rc", "tt", "avb"], int], tuple[Literal["dst"], str]]


class CanAddress(TypedDict):
    bus: BusName
    id: CanId


class PoolRef(TypedDict):
    pool: str  # a pool of the gateway that holds this reference
    holdUp: Ticks


# ``release`` is optional (TT frames only): a base with total=False, as Python 3.10 has no NotRequired.
class _Release(TypedDict, total=False):
    release: Annotated[str, ("TT release",)]


class TalkerFrame(_Release):
    key: ForwardKey
    binding: EthBinding


class CanDest(TypedDict):
    kind: Literal["can"]
    bus: BusName
    can_id: CanId


class EthDest(TypedDict):
    kind: Literal["eth"]
    tag: EthBinding
    keys: list[ForwardKey]  # one frame each


class PoolDest(TypedDict):
    kind: Literal["pool"]
    tag: EthBinding
    keys: list[ForwardKey]
    pool: str  # a pool of the rule's gateway


Slopes = TypedDict("Slopes", {"A": Positive, "B": Positive}, total=False)  # b/s per AVB class
# The series that "metrics.<flag> = false" stops recording; "completions" stops none (windows come from checkpoints).
MetricFlags = TypedDict("MetricFlags", {"queues": bool, "credit": bool, "stations": bool, "completions": bool},
                        total=False)


@dataclass(frozen=True)
class Parsed:
    """The rule of a value a document keeps as text, such as ``"4us"``: ``parse`` reads it, and
    ``bound``, the range of the field the value lands in, checks it (None: ``parse`` does)."""
    parse: Callable[[str], int | Fraction]
    bound: Range | None = None

    def value(self, text: str) -> int | Fraction:
        return self.parse(text) if self.bound is None else self.bound.check(self.parse(text))

    def check(self, text: str) -> str:
        self.value(text)
        return text


def _parse_drift(text: str) -> Fraction:
    try:
        drift = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a drift in ppm: {text!r}") from None
    return Oscillator(drift).drift_ppm  # Oscillator checks the range


class DeviceParams(TypedDict, total=False):  # as a listing gives them; an unset one takes its default
    processingDelay: Annotated[str, Parsed(parse_duration, TICKS)]
    hardwareDelay: Annotated[str, Parsed(parse_duration, TICKS)]
    driftPpm: Annotated[str, Parsed(_parse_drift)]
    bandwidth: Annotated[str, Parsed(parse_rate, POSITIVE)]  # as LinkCfg.rate
    bitrate: Annotated[str, Parsed(parse_rate, POSITIVE)]  # as BusCfg.bitrate


@dataclass
class DeviceCfg:
    name: str
    kind: Literal["node", "switch", "gateway", "canLink", "ethernetLink"]
    params: DeviceParams = field(default_factory=dict)


@dataclass
class LinkCfg:
    name: str
    a: Annotated[str, ("node", "switch", "gateway")]
    b: Annotated[str, ("node", "switch", "gateway")]
    rate: Positive  # bits/s
    segment: SegmentName


@dataclass
class BusCfg:
    name: str
    bitrate: Positive
    segment: SegmentName
    attached: list[Annotated[str, ("node", "gateway")]] = field(default_factory=list)  # order = arbitration tie index


@dataclass
class MessageCfg:
    name: str
    sender: NodeName
    receivers: list[NodeName]
    payload: Payload
    period: Positive  # ticks
    offset: Ticks = 0
    bindings: dict[SegmentName, CanBinding | EthBinding] = field(default_factory=dict)
    gateways: list[GatewayName] = field(default_factory=list)
    pools: dict[GatewayName, PoolRef] = field(default_factory=dict)
    paths: dict[NodeName, list[Annotated[str, ("node", "switch", "gateway", "bus")]]] = field(default_factory=dict)
    # What the sender emits and where receivers listen, derived by the compiler:
    can_talker: CanAddress | None = None                        # of a CAN sender
    eth_talker: list[TalkerFrame] = field(default_factory=list)  # one frame per forwarding key
    can_receivers: dict[NodeName, CanAddress] = field(default_factory=dict)


@dataclass
class PoolCfg:
    gateway: GatewayName
    name: str
    holdup_by_id: dict[CanId, Ticks] = field(default_factory=dict)


@dataclass
class RuleCfg:
    gateway: GatewayName
    segment: SegmentName
    can_id: CanId | None = None
    key: ForwardKey | None = None
    dests: list[CanDest | EthDest | PoolDest] = field(default_factory=list)


@dataclass
class ForwardCfg:
    switch: Annotated[str, ("switch",)]
    key: ForwardKey
    ports: list[str] = field(default_factory=list)  # egress peers


@dataclass
class ScheduleCfg:
    cycle: Positive
    windows: list[TdmaWindow] = field(default_factory=list)
    releases: dict[str, list[Ticks]] = field(default_factory=dict)  # "msg:receiver" -> offsets


@dataclass
class NetworkConfig:
    name: str
    devices: list[DeviceCfg] = field(default_factory=list)
    links: list[LinkCfg] = field(default_factory=list)
    buses: list[BusCfg] = field(default_factory=list)
    segments: dict[str, Literal["can", "ethernet"]] = field(default_factory=dict)
    messages: list[MessageCfg] = field(default_factory=list)
    pools: list[PoolCfg] = field(default_factory=list)
    rules: list[RuleCfg] = field(default_factory=list)
    forwarding: list[ForwardCfg] = field(default_factory=list)
    schedule: ScheduleCfg | None = None
    slopes: dict[Annotated[str, ("port",)], Slopes] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    queue_capacity: Positive = 512
    can_stuffing: bool = False
    metric_flags: MetricFlags = field(default_factory=dict)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        doc = _plain(self)
        for pool in doc["pools"]:  # so that the ids sort as text, as they always have
            pool["holdup_by_id"] = {str(k): v for k, v in pool["holdup_by_id"].items()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkConfig":
        """The config of a document; ConfigError names the first fault found in it."""
        cfg = _checker(cls)(doc, (), names := [])
        _check_names(cfg, names)
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        return cls.from_dict(json.loads(text))

    # -- lookup helpers ---------------------------------------------------

    def device(self, name: str) -> DeviceCfg | None:
        for d in self.devices:
            if d.name == name:
                return d
        return None


# -- checking a document ------------------------------------------------------

_NOUNS = {int: "an integer", str: "a string", bool: "true or false", NoneType: "null"}
_hints = cache(partial(get_type_hints, include_extras=True))  # the type of each field of a record


def _describe(tp) -> str:
    """``tp`` in words, e.g. "an object of lists of strings"."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (list, dict):
        words = _describe(args[-1]).split(" ")  # "a list of strings" -> "lists of strings"
        noun = " ".join([words[1] + "s", *words[2:]] if words[0] in ("a", "an") else words)
        return f"{'a list' if origin is list else 'an object'} of {noun}"
    if origin in (tuple, Annotated):
        return f"[{', '.join(map(_describe, args))}]" if origin is tuple else _describe(args[0])
    return " or ".join(map(json.dumps if origin is Literal else _describe, args)) if args else _NOUNS[tp]


def _where(path: tuple) -> str:
    """The place ``path`` leads to, in words; its steps are field names, list indices and 1-tuples of keys."""
    return "".join(f"[{s}]" if type(s) is int else f".{s}" if type(s) is str else f'["{s[0]}"]'
                   for s in path)[1:] or "the document"


def _int_key(text: str, path: tuple) -> int:
    """The integer an object key at ``path`` gives as its canonical decimal text."""
    if not (text.isdecimal() and str(int(text)) == text):
        raise ConfigError(f"{_where(path)}: a key must be an integer in canonical decimal text")
    return int(text)


@cache
def _checker(tp) -> Callable[[object, tuple, list], object]:
    """``check(value, path, names)``, built once per type: ``value`` checked against ``tp``, with records
    built, ``dict[int, …]`` keys made integers and ``tuple[…]`` values tuples; each name in it goes to
    ``names`` with its path and the kinds of thing it may name."""
    origin, args = get_origin(tp), get_args(tp)
    if tp in _NOUNS or origin is Literal:
        want = str if args else tp

        def check(value, path, names):
            if type(value) is not want or args and value not in args:  # ``true`` is no integer
                raise ValueError()
            return value
    elif origin is Annotated:  # a scalar and its Range, its Parsed or the kinds of thing it may name
        want, rule = args

        def check(value, path, names):
            if type(value) is not want:
                raise ValueError()
            if not isinstance(rule, tuple):
                return rule.check(value)
            names.append((path, value, rule))
            return value
    elif origin in (Union, UnionType):  # null, or the option its "kind" or its first item picks
        options, tagged = {a: _checker(a) for a in args if a is not NoneType}, all(map(is_typeddict, args))
        first = next(iter(options.values()))
        table = {head: option for a, option in options.items()  # the values of a Literal "kind" or first item
                 for head in get_args(_hints(a)["kind"] if tagged else get_origin(a) is tuple and get_args(a)[0])}

        def check(value, path, names):
            if value is None and NoneType in args:
                return None
            if tagged and isinstance(value, dict):
                if type(head := value.get("kind")) is not str or head not in table:
                    raise ConfigError(f"{_where(path)}: field 'kind' must be {' or '.join(map(json.dumps, table))}, "
                                      f"not {json.dumps(head)}")
            else:  # a tuple by its first item; a value that no head picks is checked as the first option
                head = value[0] if type(value) is list and value and type(value[0]) is str else None
            try:
                return table.get(head, first)(value, path, names)
            except ValueError as misfit:  # the record that holds the union names the union's type,
                if len(options) == 1 and len(misfit.args) == 2:  # or the range its one option's value left
                    raise
                raise ValueError() from None
    elif origin in (list, tuple, dict):
        want, items = dict if origin is dict else list, [_checker(a) for a in args]
        int_keys = origin is dict and int in get_args(args[0])

        def check(value, path, names):
            if type(value) is not want:
                raise ConfigError(f"{_where(path)}: expected a JSON {'object' if want is dict else 'list'}")
            if origin is dict:
                out = {}
                for k, v in value.items():
                    at = path + ((k,),)
                    out[items[0](_int_key(k, at) if int_keys else k, at, names)] = items[1](v, at, names)
                return out
            if origin is tuple and len(value) != len(items):
                raise ValueError()
            out = [(items[i] if origin is tuple else items[0])(v, path + (i,), names) for i, v in enumerate(value)]
            return tuple(out) if origin is tuple else out
    else:  # a record
        hints, record = _hints(tp), ("an " if tp.__name__[0] in "AEIOU" else "a ") + tp.__name__
        fields, build = {key: _checker(hint) for key, hint in hints.items()}, is_dataclass(tp)
        required = tp.__required_keys__ if is_typeddict(tp) else hints.keys()  # a document is what to_json writes

        def check(value, path, names):
            if not isinstance(value, dict):
                raise ConfigError(f"{_where(path)}: expected a JSON object")
            if not value.keys() <= fields.keys():
                raise ConfigError(f"{_where(path)}: unknown field {min(value.keys() - fields)!r}; {record} has no such field")
            if not value.keys() >= required:
                raise ConfigError(f"{_where(path)}: lacks field {min(required - value.keys())!r}; recompile it")
            out = {}
            for key, v in value.items():
                try:
                    out[key] = fields[key](v, path + (key,), names)
                except ValueError as misfit:  # its args: a parser's message, or the range a value left and that value
                    if len(misfit.args) == 1:
                        raise ConfigError(f"{_where(path)}: {misfit}") from None
                    expected, shown = misfit.args or (_describe(hints[key]), v)
                    raise ConfigError(f"{_where(path)}: field {key!r} of {record} must be {expected}, "
                                      f"not {json.dumps(shown)}") from None
            return tp(**out) if build else out
    return check


def _check_names(cfg: NetworkConfig, names: list) -> None:
    """Refuse a name given twice, a name of nothing declared or of nothing where the engine looks it up,
    overlapping TDMA windows or one leaving the cycle, a CAN payload over 8 bytes, a rule the gateway
    cannot route, a node's second interface, a gateway's second Ethernet link and an AVB frame leaving
    an unreserved port."""
    ports = [(("links", i), f"{a}->{b}") for i, ln in enumerate(cfg.links) for a, b in ((ln.a, ln.b), (ln.b, ln.a))]
    for what, named in (("device", [(("devices", i), d.name) for i, d in enumerate(cfg.devices)]),
                        ("message", [(("messages", i), m.name) for i, m in enumerate(cfg.messages)]),
                        ("pool", [(("pools", i), f"{p.gateway}.{p.name}") for i, p in enumerate(cfg.pools)]),
                        ("port", ports)):  # a link from a device to itself gives its port twice
        seen = set()
        for where, name in named:
            if name in seen:
                raise ConfigError(f"{_where(where)}: {what} {json.dumps(name)} given twice")
            seen.add(name)
    peer = {a: b for ln in reversed(cfg.links) for a, b in ((ln.a, ln.b), (ln.b, ln.a))}  # of a device's first link
    declared = {*((d.kind, d.name) for d in cfg.devices), *(("segment", s) for s in cfg.segments),
                *(("bus", b.name) for b in cfg.buses), *(("bus member", f"{b.name}.{n}") for b in cfg.buses for n in b.attached),
                *(("TT release", r) for r, offsets in (cfg.schedule.releases if cfg.schedule else {}).items() if offsets),
                *(("pool", f"{p.gateway}.{p.name}") for p in cfg.pools),
                *(("pool id", f"{p.gateway}.{p.name}[{i}]") for p in cfg.pools for i in p.holdup_by_id),
                *(("device with a link", a) for a in peer),
                *(("port", port) for _, port in ports)}
    for fault in violations(cfg.schedule.cycle, cfg.schedule.windows) if cfg.schedule else ():
        raise ConfigError(f"schedule: {fault}")
    names += [(("buses", i), b.name, ("canLink",)) for i, b in enumerate(cfg.buses)]
    for i, m in enumerate(cfg.messages):
        if m.payload > 8 and any(b["kind"] == "can" for b in m.bindings.values()):
            raise ConfigError(f"messages[{i}]: field 'payload' of a MessageCfg with a CAN binding "
                              f"must be at most 8, not {m.payload}")
        listens = list(m.can_receivers.items()) + ([(m.sender, m.can_talker)] if m.can_talker else [])
        names += [(("messages", i), f"{g}.{p['pool']}", ("pool",)) for g, p in m.pools.items()]
        names += [(("messages", i), f"{a['bus']}.{n}", ("bus member",)) for n, a in listens]
        if not m.can_talker:
            names.append((("messages", i, "sender"), m.sender, ("device with a link",)))
    for i, r in enumerate(cfg.rules):
        if (r.can_id is None) == (r.key is None) or r.key and any(d["kind"] != "can" for d in r.dests):
            raise ConfigError(f"rules[{i}]: a rule matches a CAN id, or a forwarding key and then sends to CAN only")
        names += [(("rules", i), f"{d['bus']}.{r.gateway}", ("bus member",)) for d in r.dests if d["kind"] == "can"]
        names += [(("rules", i), f"{r.gateway}.{d['pool']}[{r.can_id}]", ("pool id",)) for d in r.dests if "pool" in d]
        if any(d["kind"] != "can" for d in r.dests):
            names.append((("rules", i), r.gateway, ("device with a link",)))
    names += [(("forwarding", i), f"{f.switch}->{p}", ("port",)) for i, f in enumerate(cfg.forwarding) for p in f.ports]
    for where, name, what in names:
        if declared.isdisjoint(product(what, (name,))):
            raise ConfigError(f"{_where(where)}: {json.dumps(name)} names no {' or '.join(what)}")
    # A node has one interface, a link or a bus; a gateway has one Ethernet link beside its buses.
    kinds, seen = {d.name: d.kind for d in cfg.devices}, set()
    ends = [(("links", i), n) for i, ln in enumerate(cfg.links) for n in (ln.a, ln.b) if kinds[n] != "switch"]
    ends += [(("buses", i, "attached", k), n) for i, b in enumerate(cfg.buses)
             for k, n in enumerate(b.attached) if kinds[n] == "node"]
    for where, name in ends:
        if name in seen:
            raise ConfigError(f"{_where(where)}: node {name} has a second link; a node has one interface"
                              if kinds[name] == "node" else
                              f"{_where(where)}: gateway {name} has a second Ethernet link; one uplink is supported")
        seen.add(name)
    # An AVB frame leaves its talker or gateway by its one port, then each port a switch forwards its key to.
    forward = {(f.switch, f.key, cls): f.ports for f in cfg.forwarding for cls in "AB"}
    sent = [(m.sender, f["key"], f["binding"]) for m in cfg.messages if not m.can_talker for f in m.eth_talker]
    sent += [(r.gateway, key, d["tag"]) for r in cfg.rules for d in r.dests if d["kind"] != "can" for key in d["keys"]]
    hops = [(owner, peer[owner], key, b["class"]) for owner, key, b in sent if b["kind"] == "avb"]
    for owner, to, key, cls in hops:  # grows as it goes; a switch forwards each key and class once
        if cls not in cfg.slopes.get(f"{owner}->{to}", {}):
            raise ConfigError(f"slopes: port {owner}->{to} sends AVB class {cls} frames but reserves nothing for them")
        hops += [(to, p, key, cls) for p in forward.pop((to, key, cls), ())]


def _bool(text: str) -> bool:
    return {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}[text.lower()]


# The value of each device parameter that a device leaves unset.
_DEVICE_DEFAULTS = {"processingDelay": DEFAULT_PROCESSING_DELAY, "hardwareDelay": DEFAULT_HW_DELAY, "driftPpm": 0,
                    "bandwidth": 100_000_000, "bitrate": 500_000}
DEVICE_RULES: dict[str, Parsed] = {name: get_args(tp)[1] for name, tp in _hints(DeviceParams).items()}


def device_value(params: DeviceParams, key: str):
    """The value of a device parameter, or its default when unset."""
    raw = params.get(key)
    return _DEVICE_DEFAULTS[key] if raw is None else DEVICE_RULES[key].value(raw)


def apply_override(cfg: NetworkConfig, key: str, value: str) -> bool:
    """Apply one dotted override key; returns False when the key is unknown.

    The compiler applies the inline-ini pairs and then the command-line
    pairs before it derives anything, so the later pair wins.  A value that
    does not parse into its field's range raises OverrideError naming the key.
    """
    key, value = key.strip(), value.strip()
    if (target := _override_target(cfg, key)) is None:
        return False
    assign, read, _ = target
    try:
        assign(read(value))
    except (KeyError, ValueError) as exc:  # a Range's args: the bound left and the value
        why = f" must be {exc.args[0]}, not {exc.args[1]}" if len(exc.args) == 2 else f": cannot parse {value!r}"
        raise OverrideError(f"override {key!r}{why}") from None
    return True


def derives_tables(cfg: NetworkConfig, key: str) -> bool:
    """Whether the compiler derived TDMA windows or the reservation check from override
    ``key``: a link's bandwidth, a device's hardwareDelay or a port's idle slope."""
    return (_override_target(cfg, key.strip()) or (None, None, False))[2]


# The run knobs: the override key, the field it sets and how its text parses.
_KNOBS = {"sim.queueCapacity": ("queue_capacity", int), "sim.canStuffing": ("can_stuffing", _bool)}


@cache
def _declared(record, name: str, parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse``, then the Range that field ``name`` of ``record`` declares, if it declares one."""
    return Parsed(parse, *get_args(_hints(record)[name])[1:]).value


def _override_target(cfg: NetworkConfig, key: str) -> tuple[Callable, Callable[[str], object], bool] | None:
    """What override ``key`` sets, how its value is read (parsed, then checked against the declared type
    of the field it lands in) and whether the compiler derived tables from it; None for an unknown key."""
    parts = key.split(".")
    if key in _KNOBS:
        name, parse = _KNOBS[key]
        return partial(setattr, cfg, name), _declared(NetworkConfig, name, parse), False
    if len(parts) == 2 and parts[0] == "metrics" and parts[1] in _hints(MetricFlags):
        return partial(cfg.metric_flags.__setitem__, parts[1]), _bool, False
    if len(parts) == 4 and parts[0] == "port" and parts[3] in ("idleSlopeA", "idleSlopeB"):
        a, b, cls = parts[1], parts[2], parts[3][-1]
        if not any({ln.a, ln.b} == {a, b} for ln in cfg.links):  # no port between them
            return None
        return (lambda rate: cfg.slopes.setdefault(f"{a}->{b}", {}).__setitem__(cls, rate),
                _declared(Slopes, cls, parse_rate), True)
    if len(parts) != 2 or parts[1] not in DEVICE_RULES:
        return None
    name, param = parts
    device, rule = cfg.device(name), DEVICE_RULES[param]
    links = [ln for ln in cfg.links if ln.name == name and param == "bandwidth"]  # an unnamed link is no device
    if device is None and not links:
        return None

    def assign(text: str) -> None:
        if device is not None:
            device.params[param] = text
        for ln in links:
            ln.rate = rule.value(text)
        for bus in [b for b in cfg.buses if b.name == name and param == "bitrate"]:
            bus.bitrate = rule.value(text)

    return assign, rule.check, param == "hardwareDelay" or bool(links)
