import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from autonetsim.andl import compile_network, compile_with_warnings, parse
from autonetsim.config import ConfigError, LinkCfg, NetworkConfig
from autonetsim.engine import Runtime
from autonetsim.ethernet import TT, EthFrame
from autonetsim.kernel import MS, SEC, US, SimulationError, Simulator
from autonetsim.can import can_frame_duration
from conftest import assert_tt_arrivals_in_windows


def build(text):
    ast, diags = parse(text)
    assert not any(d.severity == "error" for d in diags), diags
    cfg = compile_network(ast)
    return Runtime(cfg)


def test_small_network_end_to_end(listing_small):
    rt = build(listing_small)
    result = rt.run(1 * SEC)
    # offset-0 periodic sources fire at 0..1s inclusive; draining delivers all
    assert result.deliveries["msg1@cn2"] == 1001
    assert result.deliveries["msg2@en2"] == 8001
    # every pool residence respects the 2 ms hold-up
    holdups = rt.store.vectors[("gw1.pool.gw1_1", "holdUpTime")]
    assert holdups and all(v <= 2 * MS for _, v in holdups)
    # aggregates really carry several records (period 1 ms < hold-up 2 ms)
    counts = [v for _, v in rt.store.vectors[("gw1", "aggregateCount")]]
    assert max(counts) >= 2
    # every TT frame inside its windows and nothing dropped anywhere
    assert result.drops == 0
    assert_tt_arrivals_in_windows(rt)


def test_a_runtime_runs_once(listing_small):
    # Its talkers started with the first horizon and the clock stands past it.
    rt = build(listing_small)
    rt.run(10 * MS)
    with pytest.raises(SimulationError, match="^a Runtime runs once; build another one to run again$"):
        rt.run(20 * MS)


def test_end_to_end_latency_series_is_exported_from_the_samples(listing_small, tmp_path):
    rt = build(listing_small)
    rt.run(20 * MS)
    samples = rt.store.latencies[("msg1", "cn2")]
    assert samples and not any(".app[" in module for module, _ in rt.store.vectors)
    rows = [[s.arrival, str(s.latency)] for s in samples]
    rt.store.export_csv(tmp_path)
    lines = (tmp_path / "cn2.app[msg1].rxLatency.csv").read_text().splitlines()
    assert lines == ["time_ps,value"] + [f"{t},{v}" for t, v in rows]
    rt.store.export_json(tmp_path / "results.json")
    doc = json.loads((tmp_path / "results.json").read_text())
    assert doc["vectors"]["cn2.app[msg1].rxLatency"] == rows


def test_small_network_latency_decomposition(listing_small):
    rt = build(listing_small)
    rt.run(100 * MS)
    e2e = rt.store.latencies[("msg1", "cn2")]
    # per-station records exist for the gateways on the path
    gw1_rx = rt.store.vectors[("gw1.rx[msg1]", "rxLatency")]
    gw2_rx = rt.store.vectors[("gw2.rx[msg1]", "rxLatency")]
    assert len(gw1_rx) == len(e2e)
    assert len(gw2_rx) == len(e2e)
    for (t1, lat1), (t2, lat2), sample in zip(gw1_rx, gw2_rx, e2e):
        # CAN leg, then pool + backbone, then destination CAN leg
        assert 0 <= lat1 <= lat2 <= sample.latency
        # gateway processing and the destination bus add at least 40us + frame time
        assert sample.latency - lat2 >= 40 * US + can_frame_duration(6, 500_000)
    # end-to-end latency stays within the structural bound:
    # source bus + pool hold-up + cycle wait + backbone + gateways + burst drain
    assert max(s.latency for s in e2e) < 4 * MS


def test_network_without_messages_is_runnable():
    rt = build("network empty { devices { node a; switch s; } "
               "connections { segment eth { a <--> s; } } communication { } }")
    result = rt.run(1 * SEC)
    assert result.deliveries == {} and result.drops == 0


def test_event_trace_is_identical_across_replays(listing_small):
    traces = []
    for _ in range(2):
        rt = build(listing_small)
        rt.sim.trace = []
        rt.run(30 * MS)
        traces.append(rt.sim.trace)
    assert traces[0] == traces[1]
    assert len(traces[0]) > 100


def test_determinism_same_seed_identical_exports(listing_small, tmp_path):
    out = []
    for name in ("a", "b"):
        rt = build(listing_small)
        rt.run(50 * MS)
        d = tmp_path / name
        rt.store.export_csv(d)
        out.append(sorted((p.name, p.read_bytes()) for p in d.iterdir()))
    assert out[0] == out[1]


CENTRAL_GATEWAY = """
network central {
  devices {
    canLink cb1;
    canLink cb2;
    node a; node b;
    gateway gwc {
      processingDelay 60us;
    }
  }
  connections {
    segment buses {
      a <--> cb1;
      gwc <--> cb1;
      b <--> cb2;
      gwc <--> cb2;
    }
  }
  communication {
    message m {
      sender a;
      receivers b;
      payload 8B;
      period 10ms;
      mapping {
        buses: can{id 17;};
        gwc;
      }
    }
  }
}
"""


def test_central_can_gateway_delay():
    rt = build(CENTRAL_GATEWAY)
    result = rt.run(1 * SEC)
    assert result.deliveries["m@b"] == 101
    dur = can_frame_duration(8, 500_000)
    for sample in rt.store.latencies[("m", "b")]:
        assert sample.latency == 2 * dur + 60 * US


FANOUT = """
network fanout {
  devices {
    canLink cb1; canLink cb2; canLink cb3;
    node a; node b; node c;
    gateway gwc;
  }
  connections {
    segment buses {
      a <--> cb1;  gwc <--> cb1;
      b <--> cb2;  gwc <--> cb2;
      c <--> cb3;  gwc <--> cb3;
    }
  }
  communication {
    message m {
      sender a;
      receivers b, c;
      payload 4B;
      period 10ms;
      mapping {
        buses: can{id 9;};
        gwc;
      }
    }
  }
}
"""


def test_rule_with_two_bus_destinations_emits_separate_frames():
    rt = build(FANOUT)
    result = rt.run(100 * MS)
    # one rule, two CAN destinations: a separate frame per destination bus
    assert result.deliveries["m@b"] == 11
    assert result.deliveries["m@c"] == 11
    assert result.link_frames["cb2"] == 11
    assert result.link_frames["cb3"] == 11
    rule = next(r for r in rt.cfg.rules if r.gateway == "gwc")
    assert sorted(d["bus"] for d in rule.dests) == ["cb2", "cb3"]


ETH_TO_CAN = """
network e2c {
  devices {
    canLink cb1;
    node ecu; node telem;
    gateway gw;
    switch s;
  }
  connections {
    segment backbone {
      telem <--> s;
      gw <--> s;
    }
    segment canside {
      ecu <--> cb1;
      gw <--> cb1;
    }
  }
  communication {
    message cmd {
      sender telem;
      receivers ecu;
      payload 4B;
      period 20ms;
      mapping {
        backbone: be{priority 2;};
        gw;
        canside: can{id 55;};
      }
    }
  }
}
"""


def test_ethernet_to_can_direction():
    rt = build(ETH_TO_CAN)
    result = rt.run(200 * MS)
    assert result.deliveries["cmd@ecu"] == 11
    # min-size frame + switch + gateway + CAN transmission
    eth = 6_720_000
    expected = eth + 8 * US + eth + 40 * US + can_frame_duration(4, 500_000)
    for sample in rt.store.latencies[("cmd", "ecu")]:
        assert sample.latency == expected


AVB_MULTICAST = """
network avbmc {
  devices { node src; node log; node fusi; switch s1; switch s2; }
  connections {
    segment backbone { src <--> s1; s1 <--> s2; log <--> s2; fusi <--> s2; }
  }
  communication {
    message cam {
      sender src;
      receivers log, fusi;
      payload 500B;
      period 1ms;
      multicast;
      mapping { backbone: avb{id 3;}; }
    }
  }
}
"""


def test_multicast_avb_sends_one_frame_per_period():
    rt = build(AVB_MULTICAST)
    result = rt.run(10 * MS)
    # one frame per period, replicated by the switch toward both listeners
    assert result.deliveries["cam@log"] == 11
    assert result.deliveries["cam@fusi"] == 11
    assert result.link_frames["src->s1"] == 11
    assert result.link_frames["s1->s2"] == 11


RC_FROM_GATEWAY = """
network rcgw {
  devices { canLink cb1; node ecu; node log; node fusi; gateway gw; switch s1; }
  connections {
    segment backbone { gw <--> s1; log <--> s1; fusi <--> s1; }
    segment canside { ecu <--> cb1; gw <--> cb1; }
  }
  communication {
    message speed {
      sender ecu;
      receivers log, fusi;
      payload 8B;
      period 10ms;
      mapping {
        canside: can{id 21;};
        gw;
        backbone: rc{vlID 4; bag 1ms;};
      }
    }
  }
}
"""


def test_rc_from_gateway_sends_one_frame_per_can_frame():
    rt = build(RC_FROM_GATEWAY)
    result = rt.run(100 * MS)
    # one virtual-link frame per CAN frame; the switch multicasts it
    assert result.deliveries["speed@log"] == 11
    assert result.deliveries["speed@fusi"] == 11
    assert result.link_frames["gw->s1"] == 11
    rule = next(r for r in rt.cfg.rules if r.gateway == "gw")
    assert [d["keys"] for d in rule.dests] == [[("rc", 4)]]


SHARED_POOL = """
network sharedpool {
  devices {
    canLink cbS; canLink cbA; canLink cbB;
    node ecu; node a; node b;
    gateway gwS { pool p; } gateway gwA; gateway gwB;
    switch s1;
  }
  connections {
    segment backbone { gwS <--> s1; gwA <--> s1; gwB <--> s1; }
    segment canS { ecu <--> cbS; gwS <--> cbS; }
    segment canA { a <--> cbA; gwA <--> cbA; }
    segment canB { b <--> cbB; gwB <--> cbB; }
  }
  communication {
    message toA {
      sender ecu; receivers a; payload 4B; period 10ms;
      mapping { canS: can{id 100;}; gwS: pool p{holdUp 2ms;}; gwA; backbone: be{priority 3;}; canA: can{id 100;}; }
    }
    message toB {
      sender ecu; receivers b; payload 4B; period 10ms;
      mapping { canS: can{id 101;}; gwS: pool p{holdUp 2ms;}; gwB; backbone: be{priority 3;}; canB: can{id 101;}; }
    }
  }
}
"""


def test_pool_aggregate_carries_only_its_destinations_records():
    rt = build(SHARED_POOL)
    result = rt.run(100 * MS)
    assert result.deliveries["toA@a"] == 11
    assert result.deliveries["toB@b"] == 11
    assert result.drops == 0
    assert rt.store.scalar("gwA", "drops.no_rule", 0) == 0
    assert rt.store.scalar("gwB", "drops.no_rule", 0) == 0
    # both records share every flush, yet each aggregate holds one of them
    counts = [v for _, v in rt.store.vectors[("gwS", "aggregateCount")]]
    assert len(counts) == 22 and set(counts) == {1}


def test_no_drain_leaves_tail_in_flight(listing_small):
    rt = build(listing_small)
    result = rt.run(1 * SEC, drain=False)
    assert result.deliveries["msg1@cn2"] < 1001
    assert result.final_time == 1 * SEC


DRIFTING_TT = """
network drifty {
  devices {
    node talker {
      driftPpm 400;
    }
    node listener;
    switch s;
  }
  connections {
    segment eth {
      talker <--> s;
      listener <--> s;
    }
  }
  communication {
    message beat {
      sender talker;
      receivers listener;
      payload 46B;
      period 1ms;
      mapping {
        eth: tt{ctID 7;};
      }
    }
  }
}
"""


NO_AGGREGATION = """
network noagg {
  devices {
    canLink cb1;
    node ecu; node logger;
    gateway gw { pool p0; }
    switch s;
  }
  connections {
    segment backbone { gw <--> s; logger <--> s; }
    segment canside { ecu <--> cb1; gw <--> cb1; }
  }
  communication {
    message tick {
      sender ecu;
      receivers logger;
      payload 6B;
      period 10ms;
      mapping {
        canside: can{id 42;};
        gw: pool p0{holdUp 0ms;};
        backbone: be{priority 4;};
      }
    }
  }
}
"""


def test_holdup_zero_degenerates_to_pure_processing_delay():
    rt = build(NO_AGGREGATION)
    rt.run(500 * MS)
    # one record per Ethernet frame
    counts = [v for _, v in rt.store.vectors[("gw", "aggregateCount")]]
    assert counts and set(counts) == {1}
    # pool residence is exactly zero
    assert all(v == 0 for _, v in rt.store.vectors[("gw.pool.p0", "holdUpTime")])
    # per-message gateway delay reduces to the processing delay alone
    eth = 6_720_000
    expected = can_frame_duration(6, 500_000) + 40 * US + eth + 8 * US + eth
    for sample in rt.store.latencies[("tick", "logger")]:
        assert sample.latency == expected


def test_drifting_talker_shifts_latency():
    rt = build(DRIFTING_TT)
    rt.run(1 * SEC)
    # a 400 ppm fast clock releases ever earlier relative to the window
    # grid, so latency varies; egress stays window-gated
    samples = rt.store.latencies[("beat", "listener")]
    assert len({s.latency for s in samples}) > 1
    assert rt.store.jitter("beat", "listener") > 0
    assert_tt_arrivals_in_windows(rt)


# sha256 of ``export_json`` after a 1 s run of DRIFTING_TT with the talker's
# driftPpm overridden: no workload drifts, so these pin a non-zero oscillator.
@pytest.mark.parametrize("drift, digest", [
    ("400", "18af2902e1c69c0c2df79a5e3fc551feaa4625b0382564192dfc0dabeaa89ee4"),
    ("-0.5", "75ba4bca7a931d343c61893d10f79355a996f3bf68eac052ecf8fd288e2e8a8c"),
], ids=["400ppm", "-0.5ppm"])
def test_drifting_tt_export_is_pinned(tmp_path, drift, digest):
    ast, _ = parse(DRIFTING_TT)
    rt = Runtime(compile_network(ast, overrides=[("talker.driftPpm", drift)]))
    rt.run(1 * SEC)
    path = rt.store.export_json(tmp_path / "results.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# The horizon is in ideal time: a release due after it makes no frame, the
# first release of a source included, and one due before it always does.
@pytest.mark.parametrize("drift, horizon, frames, last", [
    ("-0.5", 1 * SEC, 1000, 999_000_499_500),  # local 1 s is due at 1,000,000,500,000 ps
    ("400", 200_950 * US, 202, 200_919_632_147),  # local 201 ms is due before the horizon
], ids=["slow-clock", "fast-clock"])
def test_a_tt_talker_releases_until_the_horizon_in_ideal_time(drift, horizon, frames, last):
    rt = Runtime(compile_network(parse(DRIFTING_TT)[0], overrides=[("talker.driftPpm", drift)]))
    rt.run(horizon)
    created = [s.creation for s in rt.store.latencies[("beat", "listener")]]
    assert (len(created), max(created)) == (frames, last)


LATE_FIRST_RELEASES = """
network late {
  devices { canLink cb; node a; node b; node c; node d; switch s; }
  connections { segment can { a <--> cb; b <--> cb; } segment eth { c <--> s; d <--> s; } }
  communication {
    message oncan { sender a; receivers b; payload 4B; period 1ms; offset 5ms; mapping { can: can{id 5;}; } }
    message oneth { sender c; receivers d; payload 46B; period 1ms; offset 5ms; mapping { eth: be{priority 1;}; } }
  }
}
"""


def test_a_first_release_after_the_horizon_makes_no_frame():
    result = build(LATE_FIRST_RELEASES).run(1 * MS)
    assert (result.events, result.final_time, result.deliveries) == (0, 1 * MS, {})


@pytest.mark.parametrize("text, horizon", [(LATE_FIRST_RELEASES, 1 * MS), (DRIFTING_TT, 100 * MS)],
                         ids=["late-first-releases", "drifting-tt"])
def test_a_run_without_pools_cancels_no_event(monkeypatch, text, horizon):
    # A talker schedules only the releases due by the horizon; a pool's timer is
    # the one event that is ever cancelled.
    cancelled = []
    monkeypatch.setattr(Simulator, "cancel", lambda self, event: cancelled.append(event))
    build(text).run(horizon)
    assert cancelled == []


def test_a_drifting_nodes_best_effort_talker_stays_in_ideal_time():
    # Only the TDMA schedule's releases follow the node's clock.
    text = DRIFTING_TT.replace("  communication {\n", """  communication {
    message chatter {
      sender talker;
      receivers listener;
      payload 100B;
      period 300us;
      mapping {
        eth: be{priority 2;};
      }
    }
""")
    rt = build(text)
    rt.run(100 * MS)
    created = [s.creation for s in rt.store.latencies[("chatter", "listener")]]
    assert created == [k * 300 * US for k in range(100 * MS // (300 * US) + 1)]
    beats = [s.creation for s in rt.store.latencies[("beat", "listener")]]
    assert any(t % MS for t in beats)  # the TT talker's releases did drift


def test_the_offset_of_a_can_message_on_a_tt_backbone_delays_its_releases(listing_small):
    # msg1 leaves its CAN sender, so the TDMA schedule releases only the gateway's frames.
    ast, _ = parse(listing_small.replace("period 1ms;", "period 1ms; offset 300us;"))
    cfg, warnings = compile_with_warnings(ast)
    assert not any("offset is ignored" in str(w) for w in warnings)
    rt = Runtime(cfg)
    rt.run(10 * MS)
    created = [s.creation for s in rt.store.latencies[("msg1", "cn2")]]
    assert created[0] == 300 * US and len(created) == 10


def test_drift_zero_tt_is_exact():
    rt = build(DRIFTING_TT.replace("driftPpm 400;", "driftPpm 0;"))
    rt.run(1 * SEC)
    assert_tt_arrivals_in_windows(rt)
    samples = rt.store.latencies[("beat", "listener")]
    assert len({s.latency for s in samples}) == 1
    assert rt.store.jitter("beat", "listener") == 0


ETH_TO_TWO_CAN_RECEIVERS = """
network ethtwocan {
  devices { canLink cb1; node ecu; node ecu2; node telem; gateway gw; switch s; }
  connections {
    segment backbone { telem <--> s; gw <--> s; }
    segment canside { ecu <--> cb1; ecu2 <--> cb1; gw <--> cb1; }
  }
  communication {
    message cmd {
      sender telem;
      receivers ecu, ecu2;
      payload 4B;
      period 1ms;
      mapping {
        backbone: %s;
        gw;
        canside: can{id 55;};
      }
    }
  }
}
"""


@pytest.mark.parametrize("binding", ["tt{ctID 5;}", "avb{id 3;}"], ids=["tt", "avb"])
def test_gateway_routes_stream_keyed_by_destination(binding):
    # With several receivers the frame carries ("dst", gw), not the stream's
    # class key, and the gateway's rule has that key; nothing falls back.
    rt = build(ETH_TO_TWO_CAN_RECEIVERS % binding)
    result = rt.run(20 * MS)
    assert result.deliveries.get("cmd@ecu", 0) == 21
    assert result.deliveries.get("cmd@ecu2", 0) == 21
    assert rt.store.scalar("gw", "drops.no_rule", 0) == 0


@pytest.mark.parametrize("attach, needle", [
    ("link en1 en2", "links[4]: node en1 has a second link; a node has one interface"),
    ("bus cb1 en1", "buses[0].attached[2]: node en1 has a second link; a node has one interface"),
    ("bus cb2 cn1", "buses[1].attached[2]: node cn1 has a second link; a node has one interface"),
    ("link gw1 en2", "links[4]: gateway gw1 has a second Ethernet link; one uplink is supported"),
], ids=["two-ethernet-links", "ethernet-and-can", "two-can-buses", "gateway-second-uplink"])
def test_runtime_refuses_a_second_interface(listing_small, attach, needle):
    # The compiler gives every node one interface and every gateway one uplink;
    # a document edited by hand is checked again when it is loaded.
    cfg = compile_network(parse(listing_small)[0])
    kind, x, y = attach.split()
    if kind == "link":
        cfg.links.append(LinkCfg("extra", x, y, 100_000_000, "backbone"))
    else:
        next(bus for bus in cfg.buses if bus.name == x).attached.append(y)
    with pytest.raises(ConfigError, match=re.escape(needle)):
        NetworkConfig.from_dict(json.loads(cfg.to_json()))




ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = {path.stem: path for path in (ROOT / "scenarios").glob("*.andl")}
FAMILIES = {"queues": "QueueLength[", "credit": "credit[", "stations": ".rx["}  # flag -> what its series' names hold
RECORDED = {"small_network": {"queues", "credit", "stations"}, "two_pools": {"queues", "stations"}}  # no AVB, no credit


def recorded_run(scenario: str, **flags) -> Runtime:
    cfg = compile_network(parse(SCENARIOS[scenario].read_text())[0])
    cfg.metric_flags.update(dict.fromkeys(FAMILIES, True), **flags)
    rt = Runtime(cfg)
    rt.run(50 * MS)
    return rt


def families(store) -> set[str]:
    return {flag for flag, needle in FAMILIES.items() if any(needle in f"{m}.{n}" for m, n in store.vectors)}


@pytest.mark.parametrize("scenario", sorted(RECORDED))
def test_held_series_enter_the_store_at_their_first_point_in_time_order(scenario):
    store = recorded_run(scenario).store
    assert families(store) == RECORDED[scenario]
    for points in store.vectors.values():
        assert points and [t for t, _ in points] == sorted(t for t, _ in points)
    for samples in store.latencies.values():
        assert samples and [s.arrival for s in samples] == sorted(s.arrival for s in samples)


def test_a_held_series_refuses_an_earlier_point_as_vec_does():
    rt = recorded_run("small_network")
    port = next(port for port in rt.ports.values() if port.lengths)
    label, series = next(iter(port.lengths.items()))
    t = series[-1][0]
    message = f"timestamps must be non-decreasing in {port.path}.QueueLength[{label}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        series.add(t - 1, 0)
    with pytest.raises(ValueError, match=re.escape(message)):
        rt.store.vec(port.path, f"QueueLength[{label}]", t - 1, 0)
    host, message, samples = next((h, m, s) for h in rt.hosts.values() for m, s in h.latencies.items() if s)
    with pytest.raises(ValueError, match=re.escape(f"non-decreasing in {host.name}.app[{message}].rxLatency")):
        samples.add(0, samples[-1].arrival - 1)
    with pytest.raises(ValueError, match=re.escape(f"negative latency for {message} at {host.name}")):
        samples.add(samples[-1].arrival + 2, samples[-1].arrival + 1)


@pytest.mark.parametrize("flag", FAMILIES)
@pytest.mark.parametrize("scenario", sorted(RECORDED))
def test_a_series_whose_flag_is_off_never_appears(scenario, flag):
    assert families(recorded_run(scenario, **{flag: False}).store) == RECORDED[scenario] - {flag}


TWO_TT_PERIODS = """
network ttports {
  devices { node talker; node l1; node l2; switch s; }
  connections { segment eth { talker <--> s; l1 <--> s; l2 <--> s; } }
  communication {
    message fast { sender talker; receivers l1; payload 46B; period 1ms; mapping { eth: tt{ctID 1;}; } }
    message slow { sender talker; receivers l2; payload 46B; period 2ms; mapping { eth: tt{ctID 2;}; } }
  }
}
"""


@pytest.mark.parametrize("name", [*sorted(SCENARIOS), "two-tt-periods"])
def test_each_port_holds_its_links_windows_in_offset_order(name):
    cfg = compile_network(parse(SCENARIOS[name].read_text() if name in SCENARIOS else TWO_TT_PERIODS)[0])
    rt = Runtime(cfg)
    windows = cfg.schedule.windows if cfg.schedule else []
    for link, port in rt.ports.items():
        mine = [w for w in windows if w.link == link]
        assert list(port.windows) == sorted(mine, key=lambda w: w.offset)
        assert port.cycle == (cfg.schedule.cycle if cfg.schedule else None)
    if name == "two-tt-periods":  # the generator lists talker->s's windows flow by flow, not in offset order
        assert [w.offset for w in rt.ports["talker->s"].windows] == [0, 6_720_000, 1 * MS]
        assert [w.offset for w in windows if w.link == "talker->s"] == [0, 1 * MS, 6_720_000]
    # A TT frame on a link without windows is unschedulable in a scheduled network; with no schedule it waits.
    port = next(port for port in rt.ports.values() if not port.windows)
    port.enqueue(EthFrame(("dst", "x"), 46, TT(99), 0), 0)
    rt.run(1 * MS)
    assert (rt.store.scalar(port.path, "drops[TT[99]]", 0), len(port.tt_queues[99])) == ((1, 0) if cfg.schedule else (0, 1))


def _workload_text(name: str) -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return WORKLOADS[name].generate(1)


@pytest.mark.parametrize("name", [*sorted(SCENARIOS), "avb_7hop", "vehicle_can", "mixed_recorded"])
def test_building_a_runtime_schedules_nothing(name):
    # Runtime.run starts each talker with the horizon, so no release waits
    # before the run (Simulator.pending() counts deferred calls as well).
    rt = build(SCENARIOS[name].read_text() if name in SCENARIOS else _workload_text(name))
    assert rt.sim.pending() == 0
    assert rt.run(1 * MS).events > 0


# sha256 of the event trace, one "time seq target kind" line per dispatch: a
# change to the models may make an event cheaper, never move one or reorder a tie.
TRACE_DIGESTS = {
    ("small_network", 50 * MS): (2693, "2eb78d75a1aa144a929794df287e3115f18fa5b6c78667bb9aba3d78ef0fe644"),
    ("two_pools", 200 * MS): (167, "e7957adcddcbb9b4e9e19f2a0a82dc59d87f14f6a47ed936762549d4bd088319"),
}


@pytest.mark.parametrize("scenario, horizon", sorted(TRACE_DIGESTS))
def test_event_trace_matches_its_digest(scenario, horizon):
    rt = build(SCENARIOS[scenario].read_text())
    rt.sim.trace = []
    rt.run(horizon)
    lines = "".join(f"{t} {seq} {target} {kind}\n" for t, seq, target, kind in rt.sim.trace)
    assert (len(rt.sim.trace), hashlib.sha256(lines.encode()).hexdigest()) == TRACE_DIGESTS[scenario, horizon]
