"""In-memory span recorder and the wrappers that feed it.

A span has a name, a start, an end and the index of the span that was
open when it began (its parent).  Spans live in flat arrays while the
pipeline runs and are written to one file at the end.  A layer's self
time is the total duration of its spans minus the part covered by their
child spans, so the self times of all spans under one span add up to that
span's duration exactly.

Wrapping happens only from the benchmark's side, at public entry points:
``Simulator.register`` / ``schedule`` / ``cancel``, instance methods of the
metric store, Ethernet ports, switches and gateways, and the TDMA
generator where the compiler looks it up.  Nothing in the simulator's
source changes.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

# Handler owner type -> layer.  Unknown owners fall back to their module.
OWNER_LAYER = {
    "CanBus": "can",
    "EthPort": "ethernet.port",
    "Switch": "ethernet.switch",
    "Gateway": "gateway",
    "Pool": "gateway",
    "CanSource": "engine.source",
    "EthSource": "engine.source",
    "TtSource": "engine.source",
}
MODULE_LAYER = {
    "autonetsim.can": "can",
    "autonetsim.ethernet": "ethernet.port",
    "autonetsim.gateway": "gateway",
    "autonetsim.engine": "engine.source",
    "autonetsim.kernel": "kernel",
}
RECORDING_METHODS = (
    "vec", "scalar_set", "scalar_add", "add_latency", "station_latency",
    "record_queue", "count_drop", "link_completed",
)
ROOT = -1


def handler_layer(handler) -> str:
    owner = getattr(handler, "__self__", None)
    if owner is not None:
        layer = OWNER_LAYER.get(type(owner).__name__)
        if layer is not None:
            return layer
        module = type(owner).__module__
    else:
        module = getattr(handler, "__module__", "")
    return MODULE_LAYER.get(module, "other")


def payload_tag(payload):
    """Keep the payloads that name an event's variant (kick, re-arm)."""
    return payload if isinstance(payload, (str, bool)) else None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self.calls: Counter = Counter()
        self.events: Counter = Counter()   # (EventKind, payload tag) -> dispatches
        self.scheduled = 0
        self.cancelled = 0
        self.live = 0
        self.fel_peak = 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn, counter: str | None = None):
        """Return fn timed as a span of `name`, counting calls under `counter`."""
        nid = self.name_id(name)
        calls = self.calls
        key = counter or name
        tracer = self

        def traced(*args, **kwargs):
            calls[key] += 1
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def wrap_handler(self, handler):
        nid = self.name_id(handler_layer(handler))
        events = self.events
        tracer = self

        def traced(ev):
            events[(ev.kind, payload_tag(ev.payload))] += 1
            tracer.live -= 1
            idx = tracer.open(nid)
            try:
                return handler(ev)
            finally:
                tracer.close(idx)

        return traced

    # -- kernel entry points ---------------------------------------------

    def patch_simulator(self, simulator_cls) -> None:
        """Wrap Simulator.register/schedule/cancel for this process."""
        register, schedule, cancel = (
            simulator_cls.register, simulator_cls.schedule, simulator_cls.cancel)
        tracer = self

        def traced_register(sim, path, handler):
            return register(sim, path, tracer.wrap_handler(handler))

        def traced_schedule(sim, *args, **kwargs):
            ev = schedule(sim, *args, **kwargs)
            tracer.scheduled += 1
            tracer.live += 1
            if tracer.live > tracer.fel_peak:
                tracer.fel_peak = tracer.live
            return ev

        def traced_cancel(sim, event):
            if not event.cancelled:
                tracer.cancelled += 1
                tracer.live -= 1
            return cancel(sim, event)

        simulator_cls.register = traced_register
        simulator_cls.schedule = traced_schedule
        simulator_cls.cancel = traced_cancel

    def wrap_methods(self, obj, layer: str, methods) -> None:
        """Shadow bound methods on one instance with traced versions; calls
        are counted as ``<Type>.<method>``."""
        for method in methods:
            counter = f"{type(obj).__name__}.{method}"
            setattr(obj, method, self.wrap(layer, getattr(obj, method), counter))

    @staticmethod
    def unwrap_methods(obj, methods) -> None:
        for method in methods:
            del obj.__dict__[method]

    # -- results ---------------------------------------------------------

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Self time per span name, over all spans or the subtree of `root`."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        inside = [root is None] * n
        if root is not None:
            inside[root] = True
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p != ROOT:
                child[p] += dur[i]
                if root is not None and inside[p]:
                    inside[i] = True
        out: dict[str, float] = {}
        for i in range(n):
            if inside[i]:
                name = self.names[self.name_of[i]]
                out[name] = out.get(name, 0.0) + dur[i] - child[i]
        return out

    def index_of(self, name: str) -> int:
        nid = self._name_ids[name]
        return self.name_of.index(nid)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def write(self, path) -> None:
        """One JSON header line (names, count), then the four arrays raw."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name:u16", "parent:i32", "start:f64", "end:f64"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False
