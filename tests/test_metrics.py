import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from autonetsim.kernel import MS, SEC, US
from autonetsim.metrics import LatencySample, MetricStore, RecordingFlags


def _replay(store, link, completions, checkpoints):
    """Feed (t, bits) completions in time order, checkpointing as Runtime.run
    does: the checkpoint at t sees every frame completed at or before t."""
    pending = sorted(checkpoints)
    for t, bits in completions:
        while pending and pending[0] < t:
            store.checkpoint(pending.pop(0))
        store.link_completed(link, bits)
    for t in pending:
        store.checkpoint(t)


def test_bandwidth_one_eth_frame_per_ms():
    store = MetricStore()
    _replay(store, "en1->s1", [((k + 1) * MS, 672) for k in range(1000)], [SEC])
    assert store.utilized_bandwidth("en1->s1", 0, SEC) == 672_000.0


def test_bandwidth_one_can_frame_per_10ms():
    store = MetricStore()
    _replay(store, "cb1", [((k + 1) * 10 * MS, 111) for k in range(100)], [SEC])
    assert store.utilized_bandwidth("cb1", 0, SEC) == 11_100.0


def test_bandwidth_empty_window_is_zero():
    store = MetricStore()
    _replay(store, "cb1", [(5 * SEC, 111)], [SEC])
    assert store.utilized_bandwidth("cb1", 0, SEC) == 0.0


def test_bandwidth_queued_frames_excluded():
    store = MetricStore()
    # the second frame completes after the window
    _replay(store, "cb1", [(10, 100), (2 * SEC, 100)], [SEC])
    assert store.utilized_bandwidth("cb1", 0, SEC) == 100.0


def test_bandwidth_additivity():
    store = MetricStore()
    t0, t1, t2 = 0, SEC // 2, SEC
    _replay(store, "l", [(3, 10), (SEC // 2, 20), (SEC - 1, 30), (SEC + 5, 40)], [t1, t2])
    whole = store.utilized_bandwidth("l", t0, t2)
    left = store.utilized_bandwidth("l", t0, t1)
    right = store.utilized_bandwidth("l", t1, t2)
    weighted = (left * (t1 - t0) + right * (t2 - t1)) / (t2 - t0)
    assert whole == pytest.approx(weighted)


def test_bandwidth_window_ends_must_be_checkpoints():
    store = MetricStore()
    _replay(store, "l", [(3, 10)], [SEC])
    with pytest.raises(ValueError, match="no checkpoint at 5 ps"):
        store.utilized_bandwidth("l", 5, SEC)


def test_jitter_constant_latency():
    store = MetricStore()
    for k, lat in enumerate([5 * MS, 5 * MS, 5 * MS]):
        store.add_latency("m", "sink", k * MS, k * MS + lat)
    assert store.jitter("m", "sink") == 0


def test_jitter_max_consecutive_difference():
    store = MetricStore()
    for k, lat in enumerate([1 * MS, 3 * MS, 2 * MS]):
        store.add_latency("m", "sink", 10 * k * MS, 10 * k * MS + lat)
    assert store.jitter("m", "sink") == 2 * MS


def test_jitter_single_sample_is_zero():
    store = MetricStore()
    store.add_latency("m", "sink", 0, 5)
    assert store.jitter("m", "sink") == 0
    assert store.jitter("m", "nobody") == 0


def test_negative_latency_rejected():
    store = MetricStore()
    with pytest.raises(ValueError):
        store.add_latency("m", "sink", 10, 5)


def test_latency_arrivals_must_not_go_back_in_time():
    store = MetricStore()
    store.add_latency("m", "sink", 0, 10)
    store.add_latency("other", "sink", 0, 5)  # another series keeps its own order
    with pytest.raises(ValueError, match=r"sink\.app\[m\]\.rxLatency"):
        store.add_latency("m", "sink", 0, 9)
    assert [s.arrival for s in store.latencies[("m", "sink")]] == [10]


def _fields(samples) -> list[tuple[int, int, int]]:
    return [(s.creation, s.arrival, s.latency) for s in samples]


_SLICES = [slice(None), slice(1, None), slice(None, -1), slice(1, 3), slice(None, None, 2),
           slice(-2, None), slice(None, None, -1), slice(3, 1), slice(50, None)]


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=12))
def test_latencies_read_as_the_samples_of_their_pairs(steps):
    # (arrival step, latency) pairs: arrivals never go back, latencies are never negative.
    pairs, arrival = [], 0
    for step, latency in steps:
        arrival += step
        pairs.append((arrival - latency, arrival))
    store = MetricStore()
    for creation, arrival in pairs:
        store.add_latency("m", "sink", creation, arrival)
    got = store.latencies[("m", "sink")]
    expected = [LatencySample(creation, arrival) for creation, arrival in pairs]
    assert len(got) == len(expected)
    assert _fields(got) == _fields(expected)
    assert _fields(got) == _fields(got)  # iteration starts over
    for index in range(-len(pairs), len(pairs)):
        assert _fields([got[index]]) == _fields([expected[index]])
    with pytest.raises(IndexError):
        got[len(pairs)]
    for part in _SLICES:
        assert _fields(got[part]) == _fields(expected[part])
    latencies = [s.latency for s in expected]
    assert store.latency_stats("m", "sink") == (
        len(latencies), min(latencies), max(latencies), sum(latencies) / len(latencies))
    assert store.jitter("m", "sink") == max(
        (abs(b.latency - a.latency) for a, b in zip(expected, expected[1:])), default=0)


def test_queue_recording_and_drops():
    store = MetricStore()
    store.record_queue("s1.port.en2", "BE[0]", 5, 1)
    store.record_queue("s1.port.en2", "BE[0]", 9, 2)
    store.count_drop("s1.port.en2", "BE[0]")
    points = store.vectors[("s1.port.en2", "QueueLength[BE[0]]")]
    assert points == [(5, 1), (9, 2)]
    assert store.scalar("s1.port.en2", "drops[BE[0]]") == 1


def test_csv_export_rows(tmp_path):
    store = MetricStore()
    store.vec("mod", "series", 1, 10)
    store.vec("mod", "series", 2, 20)
    written = store.export_csv(tmp_path)
    csv = (tmp_path / "mod.series.csv").read_text()
    assert csv == "time_ps,value\n1,10\n2,20\n"
    assert (tmp_path / "scalars.csv").read_text() == "module,name,value,unit\n"
    assert len(written) == 2


def test_empty_store_header_only(tmp_path):
    MetricStore().export_csv(tmp_path)
    assert (tmp_path / "scalars.csv").read_text().startswith("module,name,value,unit")


def test_json_and_csv_agree_and_are_deterministic(tmp_path):
    def build():
        store = MetricStore()
        store.add_latency("m", "sink", 0, 7)
        store.scalar_add("mod", "drops[RC]", 2, "frames")
        store.link_completed("l", 672)
        return store

    a, b = build(), build()
    pa, pb = tmp_path / "a", tmp_path / "b"
    a.export_csv(pa)
    b.export_csv(pb)
    for fa in sorted(pa.iterdir()):
        assert fa.read_bytes() == (pb / fa.name).read_bytes()
    a.export_json(tmp_path / "a.json")
    b.export_json(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_latency_stats():
    store = MetricStore()
    for k, lat in enumerate([10, 30, 20]):
        store.add_latency("m", "sink", k * 100, k * 100 + lat)
    n, lo, hi, mean = store.latency_stats("m", "sink")
    assert (n, lo, hi, mean) == (3, 10, 30, 20.0)


def test_station_recording_flag():
    store = MetricStore(RecordingFlags(stations=False))
    store.station_latency("s1", "m", 0, 5)
    assert not store.vectors


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=40))
def test_jitter_matches_bruteforce(latencies):
    store = MetricStore()
    t = 0
    for lat in latencies:
        store.add_latency("m", "x", t, t + lat)
        t += 10**9
    brute = max(abs(b - a) for a, b in zip(latencies, latencies[1:]))
    assert store.jitter("m", "x") == brute


# -- export oracle: the exporters as they were before export_json streamed ----

def _reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if (10**12) % value.denominator == 0:
            scaled = value.numerator * ((10**12) // value.denominator)
            sign = "-" if scaled < 0 else ""
            whole, frac = divmod(abs(scaled), 10**12)
            return f"{sign}{whole}.{frac:012d}"
        return repr(float(value))
    return repr(value)


def _reference_series(store):
    series = {(f"{sink}.app[{message}]", "rxLatency"): [(s.arrival, s.latency) for s in samples]
              for (message, sink), samples in store.latencies.items()}
    series.update(store.vectors)
    for key in store.scaled:  # integer points in 10^-12 units, rendered as the Fractions they stand for
        series[key] = [(t, Fraction(n, 10**12)) for t, n in series[key]]
    return [(f"{key[0]}.{key[1]}", series[key]) for key in sorted(series)]


def _reference_json(store) -> str:
    doc: dict = {"vectors": {}, "scalars": {}}
    for name, points in _reference_series(store):
        doc["vectors"][name] = [[t, _reference_fmt(v)] for t, v in points]
    for (module, name), (value, unit) in sorted(store.scalars.items()):
        doc["scalars"][f"{module}.{name}"] = {"value": _reference_fmt(value), "unit": unit}
    doc["links"] = {link: {"wire_bits": bits, "frames": store.link_frames[link]}
                    for link, bits in sorted(store.link_bits.items())}
    if store.run_window:
        doc["window"] = list(store.run_window)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _reference_csv(store) -> dict[str, str]:
    files = {}
    for name, points in _reference_series(store):
        files[f"{name}.csv"] = "time_ps,value\n" + "".join(f"{t},{_reference_fmt(v)}\n" for t, v in points)
    files["scalars.csv"] = "module,name,value,unit\n" + "".join(
        f"{module},{name},{_reference_fmt(value)},{unit}\n"
        for (module, name), (value, unit) in sorted(store.scalars.items()))
    return files


# Dots make tuple order and joined-name order differ ("a", "z") < ("a.b", "x")
# but "a.b.x" < "a.z", and can join two keys into one name; the quote,
# backslash and non-ASCII letter need JSON escaping.
_names = st.text(alphabet='ab.z"\\é', min_size=1, max_size=4)
_values = st.one_of(
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.floats(),
    st.integers(-10**15, 10**15).map(lambda n: Fraction(n, 10**12)),  # credit bits
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
    _names,  # rendered by repr, so the quotes and escapes reach the JSON
)
_timed = st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 10**6)), max_size=4).map(sorted)
_store_spec = st.fixed_dictionaries({
    "vectors": st.dictionaries(st.tuples(_names, _names),
                               st.lists(st.tuples(st.integers(0, 10**9), _values), max_size=4)),
    # Credit-like series: bits x 10^12 as plain ints.
    "scaled": st.dictionaries(st.tuples(_names, _names),
                              st.lists(st.tuples(st.integers(0, 10**9), st.integers(-10**18, 10**18)),
                                       max_size=4)),
    "latencies": st.dictionaries(st.tuples(_names, _names), _timed),
    "scalars": st.dictionaries(st.tuples(_names, _names), st.tuples(_values, _names)),
    "links": st.dictionaries(_names, _timed),
    "horizon": st.none() | st.integers(1, 10**12),
})
_EMPTY_SPEC = {"vectors": {}, "scaled": {}, "latencies": {}, "scalars": {}, "links": {}, "horizon": None}


def _build_store(spec) -> MetricStore:
    store = MetricStore()
    for (module, name), points in spec["vectors"].items():
        store.vectors.setdefault((module, name), [])  # a series may stay empty
        for t, value in sorted(points, key=lambda p: p[0]):
            store.vec(module, name, t, value)
    for (module, name), points in spec["scaled"].items():
        if (module, name) not in spec["vectors"]:  # a key holds one kind of series
            store.scaled_vec(module, name).extend(sorted(points, key=lambda p: p[0]))
    for (message, sink), deliveries in spec["latencies"].items():
        for arrival, latency in deliveries:
            store.add_latency(message, sink, arrival - latency, arrival)
    for (module, name), (value, unit) in spec["scalars"].items():
        store.scalar_set(module, name, value, unit)
    for link, completions in spec["links"].items():
        for _, bits in completions:
            store.link_completed(link, bits)
    if spec["horizon"] is not None:
        store.close_run_window(spec["horizon"])
    return store


@settings(max_examples=100, deadline=None)
@given(_store_spec)
@example(_EMPTY_SPEC)
@example({
    "vectors": {("a", "z"): [(1, True), (2, Fraction(-3, 4))], ("a.b", "x"): [],
                ('q"é', "v"): [(5, 0.25)]},
    # ("a", "b.x") shares the name a.b.x with the plain ("a.b", "x"), which sorts later and wins.
    "scaled": {("a.b", "z"): [(0, 0), (3, -3228 * 10**12), (3, 1), (4, -10**18)], ("a", "c"): [],
               ("a", "b.x"): [(9, 5)]},
    "latencies": {("m", "a.b"): [(7, 3)]},
    "scalars": {("a", "z"): (False, "bit/s"), ("a.b", "x"): (-1.5, '"'),
                ("a.b", "c"): (Fraction(-1, 10**12), "bits"), ("a", "b.c"): (3, "later wins")},
    "links": {"é->s": [(1, 672), (2, 111)]},
    "horizon": 10,
})
def test_exports_match_the_reference_exporters(spec):
    store = _build_store(spec)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        store.export_json(out / "json" / "results.json")
        assert (out / "json" / "results.json").read_text() == _reference_json(store)
        store.export_csv(out / "csv")
        assert {p.name: p.read_text() for p in (out / "csv").iterdir()} == _reference_csv(store)


# -- the row-template paths: long int series, scaled edges, a mixed series ----

_SCALE_EDGES = [0, 1, 10**12 - 1, 10**12, 10**12 + 1, 10**18, 10**30]
_SCALE_EDGES += [-v for v in _SCALE_EDGES[1:]]


def _series_of(values, max_size=80):
    """Timed points of ``values``, times non-decreasing and repeating."""
    return st.lists(st.tuples(st.integers(0, 10**12), values), min_size=1, max_size=max_size).map(sorted)


_int_values = st.one_of(st.booleans(), st.integers(-10**6, 10**6),
                        st.integers(2**64, 2**80), st.integers(-2**80, -2**64))


@settings(max_examples=60, deadline=None)
@given(
    ints=st.dictionaries(st.tuples(_names, _names), _series_of(_int_values), max_size=4),
    scaled=st.dictionaries(st.tuples(_names, _names),
                           _series_of(st.one_of(st.sampled_from(_SCALE_EDGES), st.integers(-10**31, 10**31))),
                           max_size=3),
    edges=st.permutations(_SCALE_EDGES),
    mixed=_series_of(st.integers(-10**6, 10**6), max_size=20),
    fraction_at=st.integers(0, 19),
)
def test_template_paths_match_the_reference_exporters(ints, scaled, edges, mixed, fraction_at):
    mixed[fraction_at % len(mixed)] = (mixed[fraction_at % len(mixed)][0], Fraction(-7, 3))
    spec = dict(_EMPTY_SPEC, vectors={**ints, ("mixed", "v"): mixed},
                scaled={**scaled, ("credit", "edges"): list(enumerate(edges))}, horizon=10**12)
    store = _build_store(spec)
    assert ("credit", "edges") in store.scaled and ("mixed", "v") not in store.scaled
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        store.export_json(out / "results.json")
        assert (out / "results.json").read_text() == _reference_json(store)
        store.export_csv(out / "csv")
        assert {p.name: p.read_text() for p in (out / "csv").iterdir()} == _reference_csv(store)
