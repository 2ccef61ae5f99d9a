"""Acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a single pass line when it holds (run with ``pytest -s`` to see
them).  Scenario text is generated through the same description-language
front end users write by hand.
"""

import random
import time
from bisect import bisect_right
from fractions import Fraction

import pytest

from autonetsim.andl import compile_network, parse
from autonetsim.can import can_frame_duration, can_wire_bits
from autonetsim.engine import Runtime
from autonetsim.ethernet import TT, EthFrame, eth_wire_bits
from autonetsim.gateway import CanRecord, Pool, compute_holdup
from autonetsim.kernel import MS, SEC, US, EventKind, Simulator, fmt_duration
from autonetsim.metrics import MetricStore
from conftest import assert_tt_arrivals_in_windows


def build(text):
    ast, diags = parse(text)
    errors = [d for d in diags if d.severity == "error"]
    assert not errors, errors
    return Runtime(compile_network(ast))


def passline(n, msg):
    print(f"[criterion {n:02d}] PASS - {msg}")


# -------------------------------------------------------------------------
# 1. analytical vs simulated CAN bandwidth
# -------------------------------------------------------------------------

def _can_matrix_text(n_messages=30):
    periods_ms = [10, 20, 50, 100, 200, 500, 1000]
    lines = [
        "network canmatrix {",
        "  devices {",
        "    canLink cb1;",
    ]
    nodes = [f"ecu{i}" for i in range(6)]
    for n in nodes:
        lines.append(f"    node {n};")
    lines += ["  }", "  connections {", "    segment canbus {"]
    for n in nodes:
        lines.append(f"      {n} <--> cb1;")
    lines += ["    }", "  }", "  communication {"]
    specs = []
    for i in range(n_messages):
        can_id = 20 + 20 * i
        period = periods_ms[i % len(periods_ms)]
        payload = 1 + (i % 8)
        sender = nodes[i % len(nodes)]
        receiver = nodes[(i + 1) % len(nodes)]
        specs.append((can_id, period, payload))
        lines += [
            f"    message m{i} {{",
            f"      sender {sender};",
            f"      receivers {receiver};",
            f"      payload {payload}B;",
            f"      period {period}ms;",
            f"      mapping {{ canbus: can{{id {can_id};}}; }}",
            "    }",
        ]
    lines += ["  }", "}"]
    return "\n".join(lines), specs


def test_criterion_01_bandwidth_analytical_vs_simulated():
    started = time.perf_counter()
    text, specs = _can_matrix_text()
    rt = build(text)
    rt.run(60 * SEC)
    elapsed = time.perf_counter() - started
    analytical = float(sum(
        Fraction(can_wire_bits(payload) * 1000, period_ms)
        for _, period_ms, payload in specs
    ))
    simulated = rt.store.utilized_bandwidth("cb1", 0, 60 * SEC)
    deviation = abs(simulated - analytical) / analytical
    assert deviation <= 0.025, (analytical, simulated)
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    # no lost samples: every created frame was delivered (error-free bus)
    created = sum(60 * SEC // (p * MS) + 1 for _, p, _ in specs)
    delivered = sum(len(s) for s in rt.store.latencies.values())
    assert delivered == created
    passline(1, f"analytical {analytical:.0f} b/s vs simulated {simulated:.0f} b/s "
                f"({100 * deviation:.3f}% off) in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. AVB class-A latency bound over seven hops
# -------------------------------------------------------------------------

def _seven_hop_text():
    hops = [f"sw{i}" for i in range(1, 8)]
    lines = ["network sevenhop {", "  inline ini {", "```"]
    chain = ["src", *hops, "dst"]
    for a, b in zip(chain, chain[1:]):
        lines.append(f"port.{a}.{b}.idleSlopeA = 75Mb/s")
    lines += [
        "metrics.queues = false",
        "metrics.stations = false",
        "metrics.credit = false",
        "metrics.completions = false",
        "```",
        "  }",
        "  devices {",
        "    node src; node dst; node sink2;",
    ]
    for sw in hops:
        lines.append(f"    switch {sw};")
    lines += ["  }", "  connections {", "    segment backbone {"]
    for a, b in zip(chain, chain[1:]):
        lines.append(f"      {a} <--> {b};")
    lines.append("      sink2 <--> sw7;")
    lines += ["    }", "  }", "  communication {",
        "    message streamA {",
        "      sender src;",
        "      receivers dst;",
        "      payload 1000B;",
        "      period 123us;",
        "      mapping { backbone: avb{id 1;}; }",
        "    }",
        "    message crossBE {",
        "      sender src;",
        "      receivers sink2;",
        "      payload 500B;",
        "      period 40us;",
        "      mapping { backbone: be{priority 7;}; }",
        "    }",
        "  }",
        "}",
    ]
    return "\n".join(lines)


def test_criterion_02_avb_class_a_two_ms_over_seven_hops():
    started = time.perf_counter()
    rt = build(_seven_hop_text())
    rt.run(10 * SEC)
    elapsed = time.perf_counter() - started
    samples = rt.store.latencies[("streamA", "dst")]
    worst = max(s.latency for s in samples)
    # cross traffic really saturated the path: its queue overflowed
    be_drops = sum(
        v for (m, name), (v, _) in rt.store.scalars.items()
        if name.startswith("drops[BE") and v
    )
    assert be_drops > 0
    assert len(samples) > 50_000
    assert worst < 2 * MS, f"worst {worst / US:.1f} us"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    passline(2, f"{len(samples)} class-A frames, worst latency "
                f"{worst / US:.1f} us < 2000 us, runtime {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 3. CBS invariants on a randomized AVB scenario
# -------------------------------------------------------------------------

def _avb_random_text(seed):
    rng = random.Random(seed)
    lines = [
        "network avbrand {",
        "  devices { node t1; node t2; node sink; switch s1; }",
        "  connections { segment backbone {",
        "    t1 <--> s1; t2 <--> s1; sink <--> s1;",
        "  } }",
        "  communication {",
    ]
    budget = 0
    for i in range(rng.randint(4, 6)):
        payload = rng.randint(100, 1000)
        cls = rng.choice(["A", "B"])
        period = rng.choice([500, 1000, 2000])
        rate = eth_wire_bits(payload) * (SEC // (period * US))
        if budget + rate > 65_000_000:
            period *= 4
            rate = eth_wire_bits(payload) * (SEC // (period * US))
        budget += rate
        talker = rng.choice(["t1", "t2"])
        lines += [
            f"    message av{i} {{",
            f"      sender {talker}; receivers sink;",
            f"      payload {payload}B; period {period}us;",
            f"      mapping {{ backbone: avb{{id {i + 1}; class {cls};}}; }}",
            "    }",
        ]
    lines += [
        "    message noise {",
        "      sender t1; receivers sink;",
        "      payload 800B; period 300us;",
        "      mapping { backbone: be{priority 1;}; }",
        "    }",
        "  }",
        "}",
    ]
    return "\n".join(lines)


def _credit_at(points, t):
    idx = bisect_right([p[0] for p in points], t) - 1
    assert idx >= 0
    return points[idx][1]


def test_criterion_03_cbs_invariants():
    rt = build(_avb_random_text(seed=20260808))
    rt.run(1 * SEC)
    checked_starts = 0
    checked_segments = 0
    for link, port in rt.ports.items():
        for cls, state in port.credit.items():
            points = rt.store.vectors.get((port.path, f"credit[{cls}]"))
            if not points:
                continue
            starts = rt.store.vectors.get((port.path, f"txStart[AVB_{cls}]"), [])
            for t, _bits in starts:
                assert _credit_at(points, t) >= 0, (link, cls, t)
                checked_starts += 1
            slopes = {Fraction(state.idle_slope), Fraction(state.send_slope), Fraction(0)}
            for (t0, c0), (t1, c1) in zip(points, points[1:]):
                if t1 == t0:
                    continue  # reset discontinuity
                slope = Fraction(c1 - c0, t1 - t0)  # scaled bits per tick = bits per second
                assert slope in slopes, (link, cls, t0, t1, slope)
                checked_segments += 1
    assert checked_starts > 1000 and checked_segments > 1000
    passline(3, f"{checked_starts} gate checks, {checked_segments} exact "
                "piecewise-linear credit segments")


# -------------------------------------------------------------------------
# 4. BAG spacing on a randomized RC scenario
# -------------------------------------------------------------------------

def _rc_random_text(seed):
    rng = random.Random(seed)
    lines = [
        "network rcrand {",
        "  devices { node t1; node t2; node r1; node r2; switch s1; }",
        "  connections { segment backbone {",
        "    t1 <--> s1; t2 <--> s1; r1 <--> s1; r2 <--> s1;",
        "  } }",
        "  communication {",
    ]
    for i in range(5):
        bag_us = rng.choice([500, 1000, 2000, 4000])
        period_us = rng.choice([bag_us // 2, bag_us, 2 * bag_us])  # some bursty
        payload = rng.randint(46, 900)
        talker = rng.choice(["t1", "t2"])
        receivers = rng.choice(["r1", "r2", "r1, r2"])
        lines += [
            f"    message rc{i} {{",
            f"      sender {talker}; receivers {receivers};",
            f"      payload {payload}B; period {period_us}us;",
            f"      mapping {{ backbone: rc{{vlID {i + 1}; bag {bag_us}us;}}; }}",
            "    }",
        ]
    lines += ["  }", "}"]
    return "\n".join(lines)


def test_criterion_04_bag_spacing():
    rt = build(_rc_random_text(seed=424242))
    rt.run(1 * SEC)
    bags = {}
    for msg in rt.cfg.messages:
        b = msg.bindings["backbone"]
        if b["kind"] == "rc":
            bags[b["vl"]] = b["bag"]
    violations = 0
    checked = 0
    seen_vls = set()
    for (module, name), points in rt.store.vectors.items():
        if not name.startswith("txStart[vl"):
            continue
        vl = int(name[len("txStart[vl"):-1])
        seen_vls.add(vl)
        times = [t for t, _ in points]
        for a, b in zip(times, times[1:]):
            checked += 1
            if b - a < bags[vl]:
                violations += 1
    assert seen_vls == set(bags)
    assert checked > 1000
    assert violations == 0
    passline(4, f"{checked} consecutive same-port departures across "
                f"{len(seen_vls)} virtual links, 0 BAG violations")


# -------------------------------------------------------------------------
# 5. TT determinism across three switches
# -------------------------------------------------------------------------

def _tt_twenty_text():
    talkers = [f"t{i}" for i in range(1, 5)]
    listeners = [f"l{i}" for i in range(1, 5)]
    lines = ["network tt20 {", "  devices {"]
    for n in talkers + listeners:
        lines.append(f"    node {n};")
    lines += [
        "    switch sA; switch sB; switch sC;",
        "  }",
        "  connections { segment backbone {",
    ]
    for t in talkers:
        lines.append(f"    {t} <--> sA;")
    lines += ["    sA <--> sB;", "    sB <--> sC;"]
    for l in listeners:
        lines.append(f"    {l} <--> sC;")
    lines += ["  } }", "  communication {"]
    periods = [1, 2, 5, 10]
    for i in range(20):
        talker = talkers[i % 4]
        listener = listeners[(i + 1) % 4]
        period = periods[i % 4]
        lines += [
            f"    message tt{i} {{",
            f"      sender {talker}; receivers {listener};",
            f"      payload 100B; period {period}ms;",
            f"      mapping {{ backbone: tt{{ctID {200 + i};}}; }}",
            "    }",
        ]
    lines += [
        "    message disturb {",
        "      sender t1; receivers l1;",
        "      payload 1500B; period 777us;",
        "      mapping { backbone: be{priority 0;}; }",
        "    }",
        "  }",
        "}",
    ]
    return "\n".join(lines)


def test_criterion_05_tt_determinism():
    rt = build(_tt_twenty_text())
    rt.run(1 * SEC)
    for msg in rt.cfg.messages:
        binding = msg.bindings["backbone"]
        if binding["kind"] != "tt":
            continue
        receiver = msg.receivers[0]
        samples = rt.store.latencies[(msg.name, receiver)]
        assert len(samples) >= SEC // msg.period, msg.name
        # constant per-cycle arrival phase and zero jitter, to the tick
        phases = {s.arrival % msg.period for s in samples}
        assert len(phases) == 1, msg.name
        assert rt.store.jitter(msg.name, receiver) == 0
    assert_tt_arrivals_in_windows(rt)
    passline(5, "20 TT streams over 3 switches: constant arrival phase, "
                "jitter 0 ticks, all frames inside their windows")


# -------------------------------------------------------------------------
# 6. pool semantics against a brute-force oracle
# -------------------------------------------------------------------------

def _pool_oracle(inserts, holdup):
    """Replay insertions by definition: deadline = min(arrival + holdup)."""
    flushes = []
    buffered = []
    deadline = None
    for t, can_id in inserts:
        while deadline is not None and deadline < t:
            flushes.append((deadline, [i for _, i in buffered]))
            buffered, deadline = [], None
        buffered.append((t, can_id))
        candidate = t + holdup(can_id)
        deadline = candidate if deadline is None else min(deadline, candidate)
    if buffered:
        flushes.append((deadline, [i for _, i in buffered]))
    return flushes


def test_criterion_06_pool_oracle():
    rng = random.Random(3051)
    mismatches = 0
    for round_no in range(1000):
        ids = list(range(1, rng.randint(2, 6)))
        holdups = {i: rng.choice([0, 1, 2, 3, 5]) * MS for i in ids}
        n = rng.randint(1, 15)
        times = sorted(rng.randrange(0, 20 * MS) for _ in range(n))
        inserts = [(t, rng.choice(ids)) for t in times]

        sim = Simulator()
        store = MetricStore()
        flushes = []
        pool = Pool(sim, store, "gw", "p", holdups,
                    on_flush=lambda entries, now: flushes.append(
                        (now, [e.record.can_id for e in entries])))
        driver = list(inserts)

        def do_insert(ev):
            t, can_id = ev.payload
            pool.insert(CanRecord(can_id, 0), t, ("x",), None)

        sim.register("driver", do_insert)
        for t, can_id in driver:
            sim.schedule(t, "driver", EventKind.TIMER, (t, can_id))
        sim.run_until(60 * MS)
        sim.run_to_completion()

        expected = _pool_oracle(inserts, lambda i: holdups[i])
        if flushes != expected:
            mismatches += 1
        # residence never exceeds the record's own hold-up
        remaining = list(inserts)
        for flush_t, members in expected:
            for can_id in members:
                t, i = remaining.pop(0)
                assert i == can_id
                assert flush_t - t <= holdups[can_id]
    assert mismatches == 0
    passline(6, "1000 randomized insertion sequences: flush times and "
                "membership match the brute-force replay; residence <= hold-up")


# -------------------------------------------------------------------------
# 7. aggregation trade-off (configuration-1 pooling vs none)
# -------------------------------------------------------------------------

# Periods deliberately non-harmonic so flush phases sweep and each id's
# hold-up band is actually exercised.
CRIT7_MESSAGES = [  # (can id, period ms)
    (110, 21), (130, 33), (150, 47), (250, 50), (310, 100), (350, 100),
]


def _twobus_text(pooled: bool):
    lines = [
        "network twobus {",
        "  devices {",
        "    canLink cb1; canLink cb2;",
        "    node snd0; node snd1; node rcv0; node rcv1;",
        "    gateway gwa { pool pa; }",
        "    gateway gwb;",
        "    switch s1;",
        "  }",
        "  connections {",
        "    segment backbone { gwa <--> s1; gwb <--> s1; }",
        "    segment busA { snd0 <--> cb1; snd1 <--> cb1; gwa <--> cb1; }",
        "    segment busB { rcv0 <--> cb2; rcv1 <--> cb2; gwb <--> cb2; }",
        "  }",
        "  communication {",
    ]
    for k, (can_id, period_ms) in enumerate(CRIT7_MESSAGES):
        holdup = compute_holdup(can_id, period_ms * MS, "config1")
        pool_entry = f"      gwa: pool pa{{holdUp {fmt_duration(holdup)};}};" if pooled \
            else "      gwa;"
        lines += [
            f"    message x{can_id} {{",
            f"      sender snd{k % 2}; receivers rcv{k % 2};",
            f"      payload 8B; period {period_ms}ms;",
            "      mapping {",
            f"        busA: can{{id {can_id};}};",
            pool_entry,
            "        gwb;",
            "        backbone: be{priority 3;};",
            f"        busB: can{{id {can_id};}};",
            "      }",
            "    }",
        ]
    lines += ["  }", "}"]
    return "\n".join(lines)


def test_criterion_07_aggregation_tradeoff():
    results = {}
    for pooled in (False, True):
        rt = build(_twobus_text(pooled))
        rt.run(30 * SEC)
        frames = rt.store.link_frames.get("gwa->s1", 0)
        maxima = {
            can_id: rt.store.latency_stats(f"x{can_id}", f"rcv{k % 2}")[2]
            for k, (can_id, _) in enumerate(CRIT7_MESSAGES)
        }
        results[pooled] = (frames, maxima)
    frames_plain, max_plain = results[False]
    frames_pooled, max_pooled = results[True]
    # (a) pooling removes more than 30% of the backbone frames
    reduction = 1 - frames_pooled / frames_plain
    assert reduction > 0.30, (frames_plain, frames_pooled)
    # (b) aggregation never helps latency
    for can_id, _ in CRIT7_MESSAGES:
        assert max_pooled[can_id] >= max_plain[can_id], can_id
    # (c) low-priority ids pay more than high-priority ones
    delta_low = max_pooled[350] - max_plain[350]
    delta_high = max_pooled[110] - max_plain[110]
    assert delta_low > delta_high
    passline(7, f"backbone frames {frames_plain} -> {frames_pooled} "
                f"(-{100 * reduction:.0f}%), max-latency delta id350 "
                f"{delta_low / MS:.1f}ms > id110 {delta_high / MS:.1f}ms")


# -------------------------------------------------------------------------
# 8. multicast saving on the shared first hop
# -------------------------------------------------------------------------

def _mc_text(multicast: bool):
    lines = [
        "network mc {",
        "  devices { node src; node log; node fusi; switch s1; switch s2; }",
        "  connections { segment backbone {",
        "    src <--> s1; s1 <--> s2; log <--> s2; fusi <--> s2;",
        "  } }",
        "  communication {",
    ]
    if multicast:
        lines += [
            "    message sens {",
            "      sender src; receivers log, fusi;",
            "      payload 500B; period 1ms;",
            "      mapping { backbone: rc{vlID 21; bag 500us;}; }",
            "    }",
        ]
    else:
        for vl, rcv in ((21, "log"), (22, "fusi")):
            lines += [
                f"    message sens_{rcv} {{",
                f"      sender src; receivers {rcv};",
                "      payload 500B; period 1ms;",
                f"      mapping {{ backbone: rc{{vlID {vl}; bag 500us;}}; }}",
                "    }",
            ]
    lines += ["  }", "}"]
    return "\n".join(lines)


def test_criterion_08_multicast_saving():
    stats = {}
    for multicast in (False, True):
        rt = build(_mc_text(multicast))
        rt.run(10 * SEC)
        bw = rt.store.utilized_bandwidth("src->s1", 0, 10 * SEC)
        worst = {}
        for (msg, sink), samples in rt.store.latencies.items():
            worst[sink] = max(worst.get(sink, 0), max(s.latency for s in samples))
        stats[multicast] = (bw, worst)
    bw_uni, worst_uni = stats[False]
    bw_mc, worst_mc = stats[True]
    ratio = bw_uni / bw_mc
    assert abs(ratio - 2.0) <= 0.02, ratio  # duplication factor within 1%
    for sink in ("log", "fusi"):
        assert worst_mc[sink] <= worst_uni[sink]
    passline(8, f"first-hop bandwidth {bw_uni:.0f} -> {bw_mc:.0f} b/s "
                f"(factor {ratio:.3f}), latency did not increase")


# -------------------------------------------------------------------------
# 9. DSL golden test (the two published examples)
# -------------------------------------------------------------------------

def test_criterion_09_dsl_golden(listing_small, listing_backbone):
    rt = build(listing_small)
    rt.run(1 * SEC)
    delivered = len(rt.store.latencies[("msg1", "cn2")])
    assert abs(delivered - 1000) <= 1, delivered
    holdups = rt.store.vectors[("gw1.pool.gw1_1", "holdUpTime")]
    assert holdups and all(v <= 2 * MS for _, v in holdups)

    ast, diags = parse(listing_backbone)
    assert not any(d.severity == "error" for d in diags)
    cfg = compile_network(ast)
    assert sum(1 for d in cfg.devices if d.kind == "switch") == 3
    # all declared nodes sit in one connected component
    adj = {}
    for link in cfg.links:
        adj.setdefault(link.a, set()).add(link.b)
        adj.setdefault(link.b, set()).add(link.a)
    for bus in cfg.buses:
        for n in bus.attached:
            adj.setdefault(n, set()).add(bus.name)
            adj.setdefault(bus.name, set()).add(n)
    nodes = {d.name for d in cfg.devices if d.kind != "ethernetLink"}
    seen, stack = set(), [next(iter(nodes))]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj.get(v, ()))
    assert nodes <= seen
    rt2 = Runtime(cfg)
    res = rt2.run(200 * MS)
    assert res.deliveries["lidar1Stream@log"] > 0
    assert res.deliveries["lidar1Stream@fusi"] > 0
    assert res.deliveries["wheelTicks@log"] > 0
    passline(9, f"listing scenario delivered msg1 {delivered} times "
                "(1000 +- 1), hold-up <= 2 ms; 3-switch fragment compiles "
                "with all nodes reachable")


# -------------------------------------------------------------------------
# 10. determinism of exports
# -------------------------------------------------------------------------

def test_criterion_10_determinism(listing_small, tmp_path):
    import hashlib

    digests = []
    for run_dir in ("one", "two"):
        rt = build(listing_small)
        rt.run(200 * MS)
        out = tmp_path / run_dir
        rt.store.export_csv(out)
        rt.store.export_json(out / "results.json")
        h = hashlib.sha256()
        for p in sorted(out.iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]
    passline(10, f"two runs export byte-identical metrics ({digests[0][:12]}...)")


# -------------------------------------------------------------------------
# 11. CAN priority monotonicity under saturation
# -------------------------------------------------------------------------

def test_criterion_11_priority_monotonicity():
    ids = [10 * k for k in range(1, 11)]
    lines = ["network sat {", "  devices {", "    canLink cb1;", "    node rx;"]
    for i in ids:
        lines.append(f"    node src{i};")
    lines += ["  }", "  connections {", "    segment canbus {", "      rx <--> cb1;"]
    for i in ids:
        lines.append(f"      src{i} <--> cb1;")
    lines += ["    }", "  }", "  communication {"]
    # ten equal frames of 222 us saturate the 2.22 ms period exactly
    for i in ids:
        lines += [
            f"    message p{i} {{",
            f"      sender src{i}; receivers rx;",
            "      payload 8B; period 2220us;",
            f"      mapping {{ canbus: can{{id {i};}}; }}",
            "    }",
        ]
    lines += ["  }", "}"]
    rt = build("\n".join(lines))
    rt.run(10 * SEC)
    maxima = [rt.store.latency_stats(f"p{i}", "rx")[2] for i in ids]
    assert all(b >= a for a, b in zip(maxima, maxima[1:])), maxima
    assert maxima[-1] > maxima[0]
    passline(11, "max latency by CAN id: " +
             ", ".join(f"{m / US:.0f}us" for m in maxima))
