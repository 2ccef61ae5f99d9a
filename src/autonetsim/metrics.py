"""Recording and export of run metrics.

Four families of results are kept: utilized bandwidth per link (wire bits
including every framing overhead), end-to-end latency per message and sink,
jitter derived from consecutive latencies, and queue occupancy plus drop
counts.  Vectors are ordered (time, value) series; scalars carry a unit.

A series is held by the object that records it, as OMNeT++'s ``cOutVector``
is: an ``EthPort`` its classes' ``QueueLength``, each AVB class its
``txStart`` and shaper ``credit``, the RC class a ``txStart`` per VL; a
``Switch`` or ``Gateway`` its ``rx[message]`` latencies; a ``Pool``,
``GatewayCanPort`` or ``Gateway`` its ``holdUpTime``, ``QueueLength`` or
``aggregateCount``; a ``Host`` its deliveries per message (``Latencies``), as
two int columns, creation and arrival, that make a ``LatencySample`` only
when a delivery is read.  A series whose flag is off is None; a family of
series keyed by a class, VL or message is an ``OnDemand`` that makes each at
its first point.  A series enters the store at its first point, as through
``vec``, whose checks it keeps.

Export is deterministic: identical runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import sub
from pathlib import Path

from .kernel import SEC, OnDemand

# Points of a scaled series are integers in units of 10^-12 (credit: bits x 10^12).
SCALE = 10**12


class LatencySample:
    """One delivery; latency is arrival - creation (the store keys it by message and sink)."""

    __slots__ = ("creation", "arrival", "latency")

    def __init__(self, creation: int, arrival: int):
        self.creation = creation
        self.arrival = arrival
        self.latency = arrival - creation

    def __repr__(self) -> str:
        return f"LatencySample(creation={self.creation}, arrival={self.arrival})"


class Series(list):
    """The (time, value) points of one vector, held by its recorder."""

    __slots__ = ("home", "key")

    def __init__(self, home: dict, key: tuple[str, str]):
        self.home = home  # the store's dict this series enters at its first point
        self.key = key

    def add(self, t: int, value) -> None:
        if not self:
            self.home[self.key] = self
        elif t < self[-1][0]:
            raise ValueError(f"timestamps must be non-decreasing in {self.key[0]}.{self.key[1]}")
        self.append((t, value))


class Latencies:
    """The deliveries of one message at one sink, held by the sink: their
    creation and arrival ticks in two int columns.  Reading a delivery, by
    index, slice or iteration, makes its ``LatencySample``."""

    __slots__ = ("home", "key", "creation", "arrival")

    def __init__(self, home: dict, key: tuple[str, str]):
        self.home = home  # the store's dict this series enters at its first delivery
        self.key = key  # (message, sink)
        self.creation: list[int] = []
        self.arrival: list[int] = []

    def add(self, creation: int, arrival: int) -> None:
        arrivals = self.arrival
        if arrival < creation:
            message, sink = self.key
            raise ValueError(f"negative latency for {message} at {sink}")
        if not arrivals:
            self.home[self.key] = self
        elif arrival < arrivals[-1]:
            message, sink = self.key
            raise ValueError(f"timestamps must be non-decreasing in {sink}.app[{message}].rxLatency")
        self.creation.append(creation)
        arrivals.append(arrival)

    def __len__(self) -> int:
        return len(self.arrival)

    def __iter__(self):
        return map(LatencySample, self.creation, self.arrival)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(LatencySample, self.creation[index], self.arrival[index]))
        return LatencySample(self.creation[index], self.arrival[index])

    def latencies(self) -> list[int]:
        """arrival - creation of every delivery."""
        return list(map(sub, self.arrival, self.creation))


@dataclass(frozen=True)
class RecordingFlags:
    """Switches for high-volume series; scalars are always recorded."""

    queues: bool = True
    credit: bool = True
    stations: bool = True


def _fmt_scaled(scaled: int) -> str:
    """An integer count of 10^-12 units as a decimal with twelve places."""
    digits = f"{abs(scaled):013d}"
    return f"{'-' if scaled < 0 else ''}{digits[:-12]}.{digits[-12:]}"


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        # Exact when the denominator divides 10^12, as for credit bits.
        num, den = value.as_integer_ratio()
        if SCALE % den == 0:
            return _fmt_scaled(num * (SCALE // den))
        return repr(float(value))
    return repr(value)


# Row templates of a series point per export format: (int time and value, int time
# and scaled value text, any other time and value text).
_JSON_ROWS = ('   [\n    %d,\n    "%d"\n   ]', '   [\n    %d,\n    "%s"\n   ]', "   [\n    %s,\n    %s\n   ]")
_CSV_ROWS = ("%d,%d", "%d,%s", "%s,%s")
_INT = {int}
_INT_OR_BOOL = {int, bool}


def _sample_points(samples: Latencies) -> list[int]:
    """(arrival, latency) of every delivery, flat."""
    flat = [0] * (2 * len(samples))
    flat[::2] = samples.arrival
    flat[1::2] = samples.latencies()
    return flat


def _scaled_texts(values: tuple) -> list[str]:
    """``_fmt_scaled``'s text of each int in ``values``, without a division per value:
    each is rendered with at least 13 digits, right-aligned in fields of one width,
    so the decimal point goes in at the same column of every field."""
    n = len(values)
    width = max(len("%d" % max(map(abs, values))), 13) + 2  # a sign and a blank that ends the previous field
    fields = (f"%{width}.13d" * n % values).encode()
    point = width - 12
    text = bytearray(n * (width + 1))
    for col in range(width):
        text[col + (col >= point)::width + 1] = fields[col::width]
    text[point::width + 1] = b"." * n
    return text.decode().split()


def _rows(flat: tuple, scaled: bool, rows: tuple[str, str, str], sep: str, quote) -> str:
    """The points ``flat`` = (t0, v0, t1, v1, ...) of one series: one ``%`` over a row
    template repeated per point, joined by ``sep``.  With int times and int (or bool)
    values a series takes the int row, or the scaled row if it is scaled; any other
    series takes ``_fmt_value``'s (``_fmt_scaled``'s) text through ``quote``."""
    n = len(flat) // 2
    if not n:
        return ""
    types = set(map(type, flat))
    if types <= _INT or types <= _INT_OR_BOOL and bool not in set(map(type, flat[::2])):
        if not scaled:
            return sep.join([rows[0]] * n) % flat
        return sep.join([rows[1]] * n) % tuple(chain.from_iterable(zip(flat[::2], _scaled_texts(flat[1::2]))))
    texts = map(quote, map(_fmt_scaled if scaled else _fmt_value, flat[1::2]))
    return sep.join([rows[2]] * n) % tuple(chain.from_iterable(zip(flat[::2], texts)))


def _json_block(items: list[str], indent: str, brackets: str = "{}") -> str:
    """Items one per line as ``json.dumps(indent=1)`` lays them out, closed at ``indent``."""
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}" if items else brackets


class MetricStore:
    """Vectors and scalars keyed by (module path, series name)."""

    def __init__(self, flags: RecordingFlags | None = None):
        self.flags = flags or RecordingFlags()
        self.vectors: dict[tuple[str, str], list[tuple[int, object]]] = {}
        self.scaled: set[tuple[str, str]] = set()  # vector keys whose points are ints in 10^-12 units
        self.scalars: dict[tuple[str, str], tuple[object, str]] = {}
        self.latencies: dict[tuple[str, str], Latencies] = {}
        # Per-link wire-bit totals; bandwidth windows are answered from their checkpoints.
        self.link_bits: dict[str, int] = {}
        self.link_frames: dict[str, int] = {}
        self.checkpoints: dict[int, dict[str, int]] = {0: {}}
        self.run_window: tuple[int, int] | None = None

    # -- raw recording -------------------------------------------------

    def series(self, module: str, name: str) -> Series:
        """The series ``module.name``, for its one recorder to hold."""
        return Series(self.vectors, (module, name))

    def queue_series(self, module: str, queue: str) -> Series | None:
        return self.series(module, f"QueueLength[{queue}]") if self.flags.queues else None

    def station_series(self, station: str) -> OnDemand | None:
        """Per message, the latency series at ``station``."""
        if self.flags.stations:
            return OnDemand(lambda message: self.series(f"{station}.rx[{message}]", "rxLatency"))
        return None

    def latency_series(self, message: str, sink: str) -> Latencies:
        return Latencies(self.latencies, (message, sink))

    def vec(self, module: str, name: str, t: int, value) -> None:
        (self.vectors.get((module, name)) or self.series(module, name)).add(t, value)

    def scaled_vec(self, module: str, name: str) -> list[tuple[int, int]]:
        """The point list of a series whose values are integers in 10^-12 units;
        the owner appends to it directly and the exports render twelve decimals."""
        self.scaled.add((module, name))
        return self.vectors.setdefault((module, name), [])

    def scalar_set(self, module: str, name: str, value, unit: str = "") -> None:
        self.scalars[(module, name)] = (value, unit)

    def scalar_add(self, module: str, name: str, amount=1, unit: str = "") -> None:
        old = self.scalars.get((module, name), (0, unit))[0]
        self.scalars[(module, name)] = (old + amount, unit)

    def scalar(self, module: str, name: str, default=0):
        return self.scalars.get((module, name), (default, ""))[0]

    # -- latency -------------------------------------------------------

    def add_latency(self, message: str, sink: str, creation: int, arrival: int) -> None:
        (self.latencies.get((message, sink)) or self.latency_series(message, sink)).add(creation, arrival)

    def station_latency(self, station: str, message: str, creation: int, arrival: int) -> None:
        if self.flags.stations:
            self.vec(f"{station}.rx[{message}]", "rxLatency", arrival, arrival - creation)

    def latency_stats(self, message: str, sink: str) -> tuple[int, int, int, float]:
        """Return (count, min, max, mean) latency in ticks."""
        samples = self.latencies.get((message, sink), [])
        if not samples:
            return (0, 0, 0, 0.0)
        values = samples.latencies()
        return (len(values), min(values), max(values), sum(values) / len(values))

    def jitter(self, message: str, sink: str) -> int:
        """Max |difference| between consecutive latencies; 0 below 2 samples."""
        samples = self.latencies.get((message, sink), [])
        if len(samples) < 2:
            return 0
        values = samples.latencies()
        return max(map(abs, map(sub, values[1:], values)))

    # -- queues ----------------------------------------------------------

    def record_queue(self, module: str, queue: str, t: int, occupancy: int) -> None:
        if self.flags.queues:
            self.vec(module, f"QueueLength[{queue}]", t, occupancy)

    def count_drop(self, module: str, queue: str, reason: str = "overflow") -> None:
        self.scalar_add(module, f"drops[{queue}]", 1, "frames")
        self.scalar_add(module, f"drops.{reason}", 1, "frames")

    # -- bandwidth -------------------------------------------------------

    def link_completed(self, link: str, wire_bits: int) -> None:
        self.link_bits[link] = self.link_bits.get(link, 0) + wire_bits
        self.link_frames[link] = self.link_frames.get(link, 0) + 1

    def checkpoint(self, t: int) -> None:
        """Snapshot the per-link totals as of time t: every frame completed at or before t."""
        self.checkpoints[t] = dict(self.link_bits)

    def close_run_window(self, horizon: int) -> None:
        """Make (0, horizon] the run window and checkpoint it, so frames
        completing in the post-horizon drain never count."""
        self.run_window = (0, horizon)
        self.checkpoint(horizon)

    def utilized_bandwidth(self, link: str, t0: int | None = None, t1: int | None = None) -> float:
        """Wire bits per second of frames whose transmission completed in
        the half-open window (t0, t1], whose ends must be checkpoints (0 always is)."""
        if t0 is None or t1 is None:
            if self.run_window is None:
                raise ValueError("no window given and run_window unset")
            t0, t1 = self.run_window
        if t1 <= t0:
            raise ValueError("window must have t1 > t0")
        try:
            bits = self.checkpoints[t1].get(link, 0) - self.checkpoints[t0].get(link, 0)
        except KeyError as exc:
            raise ValueError(f"no checkpoint at {exc.args[0]} ps: pass the window to Runtime.run") from None
        return bits * SEC / (t1 - t0)

    # -- export ----------------------------------------------------------

    def _series(self):
        """(exported name ``module.name``, flat points (t0, v0, t1, v1, ...), scaled?) of
        every series in name order, the later key winning a shared name; end-to-end
        ``rxLatency`` points come straight from the delivery samples."""
        series = {(f"{sink}.app[{message}]", "rxLatency"): (_sample_points, samples)
                  for (message, sink), samples in self.latencies.items()}
        series.update({key: (chain.from_iterable, points) for key, points in self.vectors.items()})
        named = {f"{key[0]}.{key[1]}": key for key in sorted(series)}
        for name in sorted(named):
            key = named[name]
            flatten, points = series[key]
            yield name, tuple(flatten(points)), key in self.scaled

    def export_csv(self, outdir: str | Path) -> list[Path]:
        """One CSV per vector plus a scalars.csv; returns written paths."""
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, flat, scaled in self._series():
            path = out / f"{name}.csv"
            rows = _rows(flat, scaled, _CSV_ROWS, "\n", str)
            path.write_text(f"time_ps,value\n{rows}\n" if rows else "time_ps,value\n")
            written.append(path)
        path = out / "scalars.csv"
        lines = ["module,name,value,unit"]
        for (module, name), (value, unit) in sorted(self.scalars.items()):
            lines.append(f"{module},{name},{_fmt_value(value)},{unit}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
        return written

    def export_json(self, path: str | Path) -> Path:
        """Write what ``json.dumps(document, indent=1, sort_keys=True)`` would, series by series."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        links = [f'  {_quote(link)}: {{\n   "frames": {self.link_frames[link]},\n   "wire_bits": {bits}\n  }}'
                 for link, bits in sorted(self.link_bits.items())]
        named = {f"{module}.{name}": entry for (module, name), entry in sorted(self.scalars.items())}
        scalars = [f'  {_quote(name)}: {{\n   "unit": {_quote(unit)},\n   "value": {_quote(_fmt_value(value))}\n  }}'
                   for name, (value, unit) in sorted(named.items())]
        with path.open("w") as f:
            f.write(f'{{\n "links": {_json_block(links, " ")},\n')
            f.write(f' "scalars": {_json_block(scalars, " ")},\n "vectors": {{')
            sep = "\n"
            for name, flat, scaled in self._series():
                rows = _rows(flat, scaled, _JSON_ROWS, ",\n", _quote)
                f.write(f"{sep}  {_quote(name)}: " + (f"[\n{rows}\n  ]" if rows else "[]"))
                sep = ",\n"
            window = ',\n "window": [\n  %d,\n  %d\n ]' % self.run_window if self.run_window else ""
            f.write(("}" if sep == "\n" else "\n }") + window + "\n}\n")
        return path
