"""Compiled scenario description.

A NetworkConfig is the self-contained output of the network-description
compiler: devices, links, buses, message flows, gateway routing rules,
pools, switch forwarding tables, the TDMA schedule, and the run knobs.
It serializes to a stable-key-order JSON document (see README for the
schema) so identical sources compile to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cache
from fractions import Fraction

from .ethernet import DEFAULT_HW_DELAY, TdmaWindow
from .gateway import DEFAULT_PROCESSING_DELAY
from .kernel import Oscillator, parse_duration, parse_rate


class ConfigError(Exception):
    """A config document the engine cannot run, e.g. one from an older compiler."""


class OverrideError(ValueError):
    """An override value that does not parse; the message names the key."""


@dataclass
class DeviceCfg:
    name: str
    kind: str  # node | switch | gateway | canLink | ethernetLink
    params: dict[str, str] = field(default_factory=dict)


@dataclass
class LinkCfg:
    name: str
    a: str
    b: str
    rate: int  # bits/s
    segment: str


@dataclass
class BusCfg:
    name: str
    bitrate: int
    segment: str
    attached: list[str] = field(default_factory=list)  # order = arbitration tie index


@dataclass
class MessageCfg:
    name: str
    sender: str
    receivers: list[str]
    payload: int  # bytes
    period: int   # ticks
    offset: int = 0
    bindings: dict[str, dict] = field(default_factory=dict)   # segment -> binding
    gateways: list[str] = field(default_factory=list)
    pools: dict[str, dict] = field(default_factory=dict)      # gateway -> {pool, holdUp}
    paths: dict[str, list[str]] = field(default_factory=dict)  # receiver -> vertices
    # What the sender emits and where receivers listen, derived by the compiler:
    can_talker: dict | None = None                             # {"bus", "id"} of a CAN sender
    eth_talker: list[dict] = field(default_factory=list)       # one frame per forwarding key: {"key", "binding"[, "release"]}
    can_receivers: dict[str, dict] = field(default_factory=dict)  # receiver -> {"bus", "id"}

@dataclass
class PoolCfg:
    gateway: str
    name: str
    holdup_by_id: dict[int, int] = field(default_factory=dict)


@dataclass
class RuleCfg:
    gateway: str
    segment: str
    can_id: int | None = None
    key: list | None = None          # e.g. ["tt", 102]
    dests: list[dict] = field(default_factory=list)


@dataclass
class ForwardCfg:
    switch: str
    key: list = field(default_factory=list)
    ports: list[str] = field(default_factory=list)  # egress peers


@dataclass
class ScheduleCfg:
    cycle: int
    windows: list[TdmaWindow] = field(default_factory=list)
    releases: dict[str, list[int]] = field(default_factory=dict)  # "msg:receiver" -> offsets


@dataclass
class NetworkConfig:
    name: str
    devices: list[DeviceCfg] = field(default_factory=list)
    links: list[LinkCfg] = field(default_factory=list)
    buses: list[BusCfg] = field(default_factory=list)
    segments: dict[str, str] = field(default_factory=dict)  # segment -> can|ethernet
    messages: list[MessageCfg] = field(default_factory=list)
    pools: list[PoolCfg] = field(default_factory=list)
    rules: list[RuleCfg] = field(default_factory=list)
    forwarding: list[ForwardCfg] = field(default_factory=list)
    schedule: ScheduleCfg | None = None
    slopes: dict[str, dict] = field(default_factory=dict)  # link -> {"A": b/s, "B": b/s}
    extras: dict[str, str] = field(default_factory=dict)   # unknown override keys
    warnings: list[str] = field(default_factory=list)
    seed: int = 0
    queue_capacity: int = 512
    tt_tolerance: int = 0
    can_stuffing: bool = False
    metric_flags: dict[str, bool] = field(default_factory=dict)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        doc = asdict(self)
        for pool in doc["pools"]:
            pool["holdup_by_id"] = {str(k): v for k, v in pool["holdup_by_id"].items()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkConfig":
        _check_fields(cls, doc, "the document")
        for section, record in (("devices", DeviceCfg), ("links", LinkCfg), ("buses", BusCfg),
                                ("messages", MessageCfg), ("pools", PoolCfg), ("rules", RuleCfg),
                                ("forwarding", ForwardCfg)):
            _check_list(record, doc.get(section, []), section)
        sched = doc.get("schedule")
        if sched:
            _check_fields(ScheduleCfg, sched, "schedule")
            _check_list(TdmaWindow, sched["windows"], "schedule.windows")
        cfg = cls(name=doc["name"])
        cfg.devices = [DeviceCfg(**d) for d in doc.get("devices", [])]
        cfg.links = [LinkCfg(**d) for d in doc.get("links", [])]
        cfg.buses = [BusCfg(**d) for d in doc.get("buses", [])]
        cfg.segments = dict(doc.get("segments", {}))
        for d in doc.get("messages", []):
            # A document from before these fields existed would run with no traffic.
            missing = [k for k in ("can_talker", "eth_talker", "can_receivers") if k not in d]
            if missing:
                raise ConfigError(f"message {d.get('name')!r} lacks field {missing[0]!r}; recompile it")
            if any("key" not in frame for frame in d["eth_talker"]):
                raise ConfigError(f"message {d.get('name')!r}: an eth_talker entry lacks field 'key'; recompile it")
            cfg.messages.append(MessageCfg(**d))
        cfg.pools = [
            PoolCfg(p["gateway"], p["name"], {int(k): v for k, v in p["holdup_by_id"].items()})
            for p in doc.get("pools", [])
        ]
        cfg.rules = [RuleCfg(**d) for d in doc.get("rules", [])]
        if any(d["kind"] != "can" and "keys" not in d for rule in cfg.rules for d in rule.dests):
            raise ConfigError("an Ethernet destination of a gateway rule lacks field 'keys'; recompile it")
        cfg.forwarding = [ForwardCfg(**d) for d in doc.get("forwarding", [])]
        if sched:
            cfg.schedule = ScheduleCfg(
                sched["cycle"],
                [TdmaWindow(**w) for w in sched["windows"]],
                dict(sched.get("releases", {})),
            )
        cfg.slopes = {k: dict(v) for k, v in doc.get("slopes", {}).items()}
        cfg.extras = dict(doc.get("extras", {}))
        cfg.warnings = list(doc.get("warnings", []))
        cfg.seed = doc.get("seed", 0)
        cfg.queue_capacity = doc.get("queue_capacity", 512)
        cfg.tt_tolerance = doc.get("tt_tolerance", 0)
        cfg.can_stuffing = doc.get("can_stuffing", False)
        cfg.metric_flags = dict(doc.get("metric_flags", {}))
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


# The JSON value of a scalar field, by the field's annotation: ``true`` is no integer.
_SCALARS = {"int": (int, "an integer"), "str": (str, "a string"), "bool": (bool, "true or false")}


def _names(value) -> bool:
    """Whether a JSON value is a list of strings."""
    return type(value) is list and all(type(v) is str for v in value)


def _names_by_key(value) -> bool:
    """Whether a JSON value is an object of lists of strings."""
    return type(value) is dict and all(map(_names, value.values()))


# How to check a field of names, by the field's annotation.
_NAME_LISTS = {"list[str]": (_names, "a list of strings"),
               "dict[str, list[str]]": (_names_by_key, "an object of lists of strings")}
# The least value of an integer field: rates, periods, durations and the cycle are
# positive and offsets are not negative (a zero period or a negative window offset
# never lets a run end, and a zero rate divides by zero).
_MINIMUM = {
    LinkCfg: {"rate": 1}, BusCfg: {"bitrate": 1}, MessageCfg: {"period": 1, "offset": 0},
    ScheduleCfg: {"cycle": 1}, TdmaWindow: {"offset": 0, "duration": 1},
}


@cache
def _fields_of(record: type) -> tuple[frozenset[str], frozenset[str], tuple, tuple, tuple]:
    """The fields ``record`` declares, those of them that have no default, its
    scalar fields as (name, type, description, whether null is allowed), its
    fields of names as (name, check, description) and its least values as (name, minimum)."""
    scalars = tuple(
        (f.name, *_SCALARS[f.type.removesuffix(" | None")], f.type.endswith(" | None"))
        for f in fields(record) if f.type.removesuffix(" | None") in _SCALARS
    )
    return (frozenset(f.name for f in fields(record)),
            frozenset(f.name for f in fields(record)
                      if f.default is MISSING and f.default_factory is MISSING),
            scalars,
            tuple((f.name, *_NAME_LISTS[f.type]) for f in fields(record) if f.type in _NAME_LISTS),
            tuple(_MINIMUM.get(record, {}).items()))


def _check_fields(record: type, d, where: str, index: int | None = None) -> None:
    """Refuse a JSON entry that is not an object, names a field ``record`` does not
    declare, lacks one that has no default, gives a scalar field a value of another
    JSON type or out of its range, or a field of names a member that is no string;
    ``where[index]`` names the entry."""
    declared, required, scalars, name_lists, minimum = _fields_of(record)
    if isinstance(d, dict) and declared.issuperset(d) and d.keys() >= required:
        wrong = [(name, expected) for name, kind, expected, nullable in scalars
                 if name in d and type(d[name]) is not kind and not (nullable and d[name] is None)]
        wrong += [(name, expected) for name, check, expected in name_lists if name in d and not check(d[name])]
        if not wrong:
            wrong = [(name, "positive" if low > 0 else "at least 0")
                     for name, low in minimum if name in d and d[name] < low]
            if not wrong:
                return
    if index is not None:
        where = f"{where}[{index}]"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = d.keys() - declared
    if unknown:
        raise ConfigError(f"{where}: unknown field {min(unknown)!r}; a {record.__name__} has no such field")
    if not d.keys() >= required:
        raise ConfigError(f"{where}: lacks field {min(required - d.keys())!r}")
    name, expected = wrong[0]
    raise ConfigError(f"{where}: field {name!r} of a {record.__name__} must be {expected}, "
                      f"not {json.dumps(d[name])}")


def _check_list(record: type, entries, section: str) -> None:
    if not isinstance(entries, list):
        raise ConfigError(f"{section}: expected a JSON list")
    for i, d in enumerate(entries):
        _check_fields(record, d, section, i)


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_drift(text: str) -> Fraction:
    try:
        drift = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a drift in ppm: {text!r}") from None
    return Oscillator(drift).drift_ppm  # Oscillator checks the range


# The one table of device parameters, each with its parser and the default of
# a device that leaves it unset: for the compiler, the overrides and the engine.
_DEVICE_VALUES = {
    "processingDelay": (parse_duration, DEFAULT_PROCESSING_DELAY),
    "hardwareDelay": (parse_duration, DEFAULT_HW_DELAY),
    "driftPpm": (_parse_drift, 0),
    "bandwidth": (parse_rate, 100_000_000),
    "bitrate": (parse_rate, 500_000),
}


def device_value(params: dict[str, str], key: str):
    """The parsed value of a known device parameter, or its default when unset."""
    parse, default = _DEVICE_VALUES[key]
    raw = params.get(key)
    return default if raw is None else parse(raw)


def apply_override(cfg: NetworkConfig, key: str, value: str) -> bool:
    """Apply one dotted override key; returns False when the key is unknown.

    The compiler applies the inline-ini pairs and then the command-line
    pairs before it derives anything, so the later pair wins.  A value that
    does not parse raises OverrideError naming the key.
    """
    try:
        return _apply_override(cfg, key.strip().split("."), value.strip())
    except (KeyError, ValueError):
        raise OverrideError(f"override {key.strip()!r}: cannot parse {value.strip()!r}") from None


def derives_tables(cfg: NetworkConfig, key: str) -> bool:
    """Whether the compiler derived TDMA windows or the reservation check from
    ``key``: a known key (as ``_apply_override`` tells them) for a link's
    bandwidth, a device's hardwareDelay or a port's idle slope."""
    parts = key.strip().split(".")
    if len(parts) == 4 and parts[0] == "port" and parts[3] in ("idleSlopeA", "idleSlopeB"):
        return _links_join(cfg, parts[1], parts[2])
    if len(parts) == 2:
        target, param = parts
        if param == "hardwareDelay":
            return cfg.device(target) is not None
        if param == "bandwidth":
            return any(link.name == target for link in cfg.links)
    return False


def _links_join(cfg: NetworkConfig, a: str, b: str) -> bool:
    """Whether an Ethernet link joins devices ``a`` and ``b``: a port between them."""
    return any({ln.a, ln.b} == {a, b} for ln in cfg.links)


def _apply_override(cfg: NetworkConfig, parts: list[str], value: str) -> bool:
    if parts[0] == "sim" and len(parts) == 2:
        if parts[1] == "seed":
            cfg.seed = int(value)
            return True
        if parts[1] == "queueCapacity":
            cfg.queue_capacity = int(value)
            return True
        if parts[1] == "ttTolerance":
            cfg.tt_tolerance = parse_duration(value)
            return True
        if parts[1] == "canStuffing":
            cfg.can_stuffing = _BOOL[value.lower()]
            return True
        return False
    if parts[0] == "metrics" and len(parts) == 2:
        # "completions" is still accepted but switches nothing (windows come from checkpoints).
        if parts[1] in ("queues", "credit", "completions", "stations"):
            cfg.metric_flags[parts[1]] = _BOOL[value.lower()]
            return True
        return False
    if parts[0] == "port" and len(parts) == 4 and parts[3] in ("idleSlopeA", "idleSlopeB"):
        if not _links_join(cfg, parts[1], parts[2]):
            return False
        link = f"{parts[1]}->{parts[2]}"
        cls = parts[3][-1]
        cfg.slopes.setdefault(link, {})[cls] = parse_rate(value)
        return True
    if len(parts) == 2:
        target, param = parts
        dev = cfg.device(target)
        links = [link for link in cfg.links if link.name == target and param == "bandwidth"]
        if dev is None and not links:  # an unnamed link is no device
            return False
        parsed = _DEVICE_VALUES[param][0](value) if param in _DEVICE_VALUES else value
        if dev is not None:
            dev.params[param] = value
        for link in links:
            link.rate = parsed
        for bus in cfg.buses:
            if bus.name == target and param == "bitrate":
                bus.bitrate = parsed
        return True
    return False
