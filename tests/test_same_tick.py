"""The same-tick queue changes no event order.

While the kernel dispatches, an event scheduled at the current tick and a
deferred call (``Simulator.defer``: the egress port's selection, the CAN
bus's arbitration at the current tick) wait in the same-tick queue instead
of the heap.  With ``schedule`` and ``defer`` patched to push every entry
onto the heap, each deferred call becomes an ordinary event, which is the
event structure of a kernel without the queue.  Both runs must export the
same bytes.
"""

from heapq import heappush
from pathlib import Path

import pytest

from autonetsim.andl import compile_network, parse
from autonetsim.engine import Runtime
from autonetsim.kernel import MS, Event, EventKind, Simulator

from test_acceptance import _avb_random_text, _can_matrix_text, _rc_random_text, _twobus_text

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

CASES = [
    *[pytest.param((SCENARIOS / name).read_text(), 200 * MS, id=name) for name in
      ("small_network.andl", "two_pools.andl")],
    *[pytest.param(_avb_random_text(seed), 100 * MS, id=f"avb-{seed}") for seed in (1, 7, 20260808)],
    *[pytest.param(_rc_random_text(seed), 100 * MS, id=f"rc-{seed}") for seed in (1, 7, 424242)],
    *[pytest.param(_can_matrix_text(n)[0], 500 * MS, id=f"can-matrix-{n}") for n in (12, 30)],
    *[pytest.param(_twobus_text(pooled), 200 * MS, id=f"two-bus-pooled-{pooled}")
      for pooled in (True, False)],
]


def _outcome(text, horizon, out):
    """Run summary, exported files and latency samples of one seeded run."""
    ast, diags = parse(text)
    assert not diags
    rt = Runtime(compile_network(ast), seed=3)
    window = (horizon // 5, horizon // 2)
    result = rt.run(horizon, window=window)
    store = rt.store
    for link in sorted(store.link_bits):
        store.scalar_set(link, "utilizedBandwidth", store.utilized_bandwidth(link), "bit/s")
        store.scalar_set(link, "utilizedBandwidth[window]", store.utilized_bandwidth(link, *window), "bit/s")
    store.export_csv(out)
    store.export_json(out / "results.json")
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    samples = {key: [(s.creation, s.arrival) for s in got] for key, got in store.latencies.items()}
    return result, files, samples


def _heap_schedule(sim, time, target, kind, payload=None):
    """``Simulator.schedule`` without the same-tick queue; its range checks
    are left out, since the queued run made the same calls and passed them."""
    sim._seq += 1
    ev = Event(time, sim._seq, target, kind, payload)
    heappush(sim._heap, (time, sim._seq, ev))
    return ev


def _heap_defer(sim, fn):
    """A deferred call as an ordinary event at the current tick."""
    if "deferred" not in sim._handlers:
        sim.register("deferred", lambda ev: ev.payload())
    _heap_schedule(sim, sim.now, "deferred", EventKind.TIMER, fn)


@pytest.mark.parametrize("text, horizon", CASES)
def test_inline_follow_ups_change_no_outcome(tmp_path, monkeypatch, text, horizon):
    queued, files, samples = _outcome(text, horizon, tmp_path / "queued")
    monkeypatch.setattr(Simulator, "schedule", _heap_schedule)
    monkeypatch.setattr(Simulator, "defer", _heap_defer)
    heap, heap_files, heap_samples = _outcome(text, horizon, tmp_path / "heap")
    assert files == heap_files
    assert samples == heap_samples
    assert (queued.final_time, queued.deliveries, queued.link_frames, queued.drops) == (
        heap.final_time, heap.deliveries, heap.link_frames, heap.drops)
    assert sum(queued.deliveries.values()) > 0
    # The two runs differ in event structure, or the comparison shows nothing.
    assert queued.events < heap.events
