"""Same-tick follow-ups run inline only where that changes no event order.

A handler that would schedule an event at the current tick as its last act
does that work inline when the kernel has nothing else queued at the tick
(``Simulator.idle_at``): the CAN re-arbitration after a completion, the
arbitration a source or gateway notifies, and the egress port's
post-completion selection.  With ``idle_at`` patched to answer False,
every such follow-up is a heap event again, which is the event structure
of a kernel without the rule.  Both runs must export the same bytes.
"""

from pathlib import Path

import pytest

from autonetsim.andl import compile_network, parse
from autonetsim.engine import Runtime
from autonetsim.kernel import MS, Simulator

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


@pytest.mark.parametrize("text, horizon", CASES)
def test_inline_follow_ups_change_no_outcome(tmp_path, monkeypatch, text, horizon):
    inline, files, samples = _outcome(text, horizon, tmp_path / "inline")
    monkeypatch.setattr(Simulator, "idle_at", lambda self, t: False)
    deferred, deferred_files, deferred_samples = _outcome(text, horizon, tmp_path / "deferred")
    assert files == deferred_files
    assert samples == deferred_samples
    assert (inline.final_time, inline.deliveries, inline.link_frames, inline.drops) == (
        deferred.final_time, deferred.deliveries, deferred.link_frames, deferred.drops)
    assert sum(inline.deliveries.values()) > 0
    # The two runs differ in event structure, or the comparison shows nothing.
    assert inline.events < deferred.events
