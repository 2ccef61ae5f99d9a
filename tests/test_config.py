import json
import signal
import sys
from pathlib import Path

import pytest

from autonetsim.andl import compile_network, parse
from autonetsim.cli import build_parser
from autonetsim.config import ConfigError, NetworkConfig, apply_override
from autonetsim.engine import Runtime
from autonetsim.kernel import MS

ROOT = Path(__file__).resolve().parents[1]
# A time-triggered flow whose talker's clock drifts: a schedule with releases.
DRIFTING_TT = """
network n {
  devices { node talker { driftPpm 400; } node listener; switch s; }
  connections { segment eth { talker <--> s; listener <--> s; } }
  communication { message beat { sender talker; receivers listener; payload 46B; period 1ms;
    mapping { eth: tt{ctID 7;}; } } }
}
"""


def compiled(listing_small, overrides=()):
    ast, _ = parse(listing_small)
    return compile_network(ast, overrides=overrides)


def test_override_device_param(listing_small):
    cfg = compiled(listing_small)
    assert apply_override(cfg, "gw1.processingDelay", "60us")
    assert cfg.device("gw1").params["processingDelay"] == "60us"


def test_override_port_slopes(listing_small):
    cfg = compiled(listing_small)
    assert apply_override(cfg, "port.en1.s1.idleSlopeA", "50Mb/s")
    assert cfg.slopes["en1->s1"]["A"] == 50_000_000


def test_override_sim_and_metrics(listing_small):
    cfg = compiled(listing_small)
    assert apply_override(cfg, "sim.queueCapacity", "64")
    assert apply_override(cfg, "metrics.queues", "false")
    assert not apply_override(cfg, "sim.ttTolerance", "2us")
    assert cfg.queue_capacity == 64
    assert cfg.metric_flags["queues"] is False


def test_override_link_bandwidth(listing_small):
    cfg = compiled(listing_small)
    assert apply_override(cfg, "eth1.bandwidth", "1Gb/s")
    link = next(l for l in cfg.links if l.name == "eth1")
    assert link.rate == 10**9


def test_unknown_override_key(listing_small):
    cfg = compiled(listing_small)
    assert not apply_override(cfg, "no.such.key", "1")


def test_precedence_cli_over_ini_over_generated(listing_small):
    # generated default: unset (40us); ini raises it; CLI wins over ini
    assert "processingDelay" not in compiled(listing_small).device("gw1").params
    listing = listing_small.replace("record-eventlog = false", "gw1.processingDelay = 55us")
    assert compiled(listing).device("gw1").params["processingDelay"] == "55us"
    cfg = compiled(listing, [("gw1.processingDelay", "70us")])
    assert cfg.device("gw1").params["processingDelay"] == "70us"


def test_unknown_cli_override_raises(listing_small):
    with pytest.raises(ConfigError, match="unknown override key 'bogus.key'"):
        compiled(listing_small, [("bogus.key", "1")])


def test_unknown_ini_key_warns_once(listing_small):
    # The listing carries record-eventlog; it is ignored and warned about once,
    # as an unknown device parameter is, and command-line pairs add no second warning.
    cfg = compiled(listing_small, [("gw1.processingDelay", "70us")])
    assert [w for w in cfg.warnings if "record-eventlog" in w] == [
        "9:1: warning: unknown inline-ini key 'record-eventlog' (ignored)"]


def _compiled(name: str) -> NetworkConfig:
    """The compiled config of a shipped scenario, of DRIFTING_TT or of a bench workload (seed 1)."""
    scenario = ROOT / "scenarios" / f"{name}.andl"
    if name == "drifting_tt":
        text = DRIFTING_TT
    elif scenario.exists():
        text = scenario.read_text()
    else:
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        text = WORKLOADS[name].generate(1)
    return compile_network(parse(text)[0])


def _paths(value, path=()):
    """Every JSON path in ``value``, with the first three members of each list."""
    members = value.items() if isinstance(value, dict) else enumerate(value[:3]) if isinstance(value, list) else ()
    for key, member in members:
        yield path + (key,)
        yield from _paths(member, path + (key,))


class _Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise _Overrun()


# The values each JSON path is set to in turn.
MUTATIONS = ["x", -1, 0, None, [], {}, [1], {"a": 1}, True, 2**70]


@pytest.mark.parametrize("name", ["small_network", "two_pools", "drifting_tt"])
def test_every_single_value_mutation_runs_or_is_refused(tmp_path, capsys, name):
    # Each mutation of a compiled document either runs for 1 ms, or from_dict
    # refuses it with a ConfigError and `run` exits 1 with one line on stderr.
    doc = json.loads(_compiled(name).to_json())
    path, faults, refused = tmp_path / "net.json", [], 0
    run = build_parser().parse_args(["run", str(path), "--horizon", "1ms", "--out", str(tmp_path / "out")])
    previous = signal.signal(signal.SIGALRM, _overrun)
    try:
        for where in _paths(doc):
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            original = parent[where[-1]]
            for value in MUTATIONS:
                parent[where[-1]] = value
                try:
                    cfg = NetworkConfig.from_dict(doc)
                except ConfigError:
                    refused += 1
                    path.write_text(json.dumps(doc))
                    code = run.func(run)
                    err = capsys.readouterr().err
                    if code != 1 or len(err.splitlines()) != 1:
                        faults.append((where, value, f"exit {code}: {err!r}"))
                    continue
                signal.setitimer(signal.ITIMER_REAL, 3)
                try:
                    Runtime(cfg).run(MS)
                except Exception as exc:  # an overrun included: anything but a clean run is a fault
                    faults.append((where, value, repr(exc)))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            parent[where[-1]] = original
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not faults, faults[:5]
    assert refused and not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["small_network", "two_pools", "avb_7hop", "vehicle_can", "mixed_recorded"])
def test_a_compiled_document_survives_a_json_round_trip(name):
    cfg = _compiled(name)
    text = cfg.to_json()
    loaded = NetworkConfig.from_json(text)
    assert loaded.to_json() == text
    assert loaded == cfg
    for side in (cfg, loaded):  # each forwarding key is one tuple from the compiler to the engine
        keys = [f.key for f in side.forwarding] + [r.key for r in side.rules if r.key is not None]
        keys += [f["key"] for m in side.messages for f in m.eth_talker]
        keys += [k for r in side.rules for d in r.dests if d["kind"] != "can" for k in d["keys"]]
        assert keys and all(type(k) is tuple for k in keys)
