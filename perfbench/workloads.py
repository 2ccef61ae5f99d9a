"""Benchmark workloads: seeded ANDL generators plus per-workload output checks.

Each workload is a fixed input size (one generated scenario and one
simulated horizon).  The seed picks offsets, identifiers, senders and
payload permutations; the number of frames per simulated second does not
depend on it, so host time stays comparable across seeds.  The simulator
only ever sees the generated ANDL text.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

MS_TICKS = 10**9
SEC_TICKS = 10**12


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int          # simulated ticks (1 tick = 1 ps)
    fmt: str              # "csv" or "structured" (JSON), as in `autonetsim run --format`
    generate: Callable[[int], str]
    check: Callable[[object], list[str]]


# -------------------------------------------------------------------------
# avb_7hop: the seven-switch AVB chain under saturating best-effort traffic
# -------------------------------------------------------------------------

def avb_7hop_text(seed: int) -> str:
    rng = random.Random(seed)
    hops = [f"sw{i}" for i in range(1, 8)]
    chain = ["src", *hops, "dst"]
    lines = ["network sevenhop {", "  inline ini {", "```"]
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
        *(f"    switch {sw};" for sw in hops),
        "  }",
        "  connections {",
        "    segment backbone {",
        *(f"      {a} <--> {b};" for a, b in zip(chain, chain[1:])),
        "      sink2 <--> sw7;",
        "    }",
        "  }",
        "  communication {",
        "    message streamA {",
        "      sender src; receivers dst;",
        f"      payload 1000B; period 123us; offset {rng.randrange(123)}us;",
        "      mapping { backbone: avb{id 1;}; }",
        "    }",
        "    message crossBE {",
        "      sender src; receivers sink2;",
        f"      payload 500B; period 40us; offset {rng.randrange(40)}us;",
        "      mapping { backbone: be{priority 7;}; }",
        "    }",
        "  }",
        "}",
    ]
    return "\n".join(lines) + "\n"


def avb_7hop_check(rt) -> list[str]:
    problems = []
    samples = rt.store.latencies.get(("streamA", "dst"), [])
    if not samples:
        problems.append("no class-A frame delivered")
    elif max(s.latency for s in samples) >= 2 * MS_TICKS:
        problems.append("class-A latency reached 2 ms")
    be_drops = sum(
        value for (_, name), (value, _) in rt.store.scalars.items()
        if name.startswith("drops[BE")
    )
    if be_drops <= 0:
        problems.append("best-effort cross traffic did not saturate the chain")
    return problems


# -------------------------------------------------------------------------
# vehicle_can: sixteen loaded CAN buses joined by pooling gateways
# -------------------------------------------------------------------------

N_BUSES = 16
N_ECUS = 8
LOCAL_PERIODS_MS = [2] * 3 + [5] * 4 + [10] * 5 + [20] * 4 + [50] * 4 + [100] * 4
POOLED_PERIODS_MS = [5, 10, 10, 20]


def vehicle_can_text(seed: int) -> str:
    rng = random.Random(seed)
    ids = [rng.sample(range(1, 2000), len(LOCAL_PERIODS_MS) + 2 * len(POOLED_PERIODS_MS))
           for _ in range(N_BUSES)]
    n_local, n_pooled = len(LOCAL_PERIODS_MS), len(POOLED_PERIODS_MS)
    lines = [
        "network vehicle {",
        "  inline ini {",
        "```",
        "metrics.queues = false",
        "metrics.stations = false",
        "metrics.credit = false",
        "metrics.completions = false",
        "```",
        "  }",
        "  devices {",
        "    switch sw0; switch sw1; switch sw2;",
    ]
    for b in range(N_BUSES):
        ecus = " ".join(f"node b{b}e{e};" for e in range(N_ECUS))
        lines.append(f"    canLink cb{b}; {ecus} gateway gw{b} {{ pool p; }}")
    lines += ["  }", "  connections {", "    segment backbone {"]
    lines += [f"      gw{b} <--> sw{b * 3 // N_BUSES};" for b in range(N_BUSES)]
    lines += ["      sw0 <--> sw1;", "      sw1 <--> sw2;", "    }"]
    for b in range(N_BUSES):
        lines.append(f"    segment bus{b} {{")
        lines += [f"      b{b}e{e} <--> cb{b};" for e in range(N_ECUS)]
        lines += [f"      gw{b} <--> cb{b};", "    }"]
    lines += ["  }", "  communication {"]
    for b in range(N_BUSES):
        for k, period in enumerate(LOCAL_PERIODS_MS):
            sender, receiver = rng.sample(range(N_ECUS), 2)
            lines += [
                f"    message b{b}m{k} {{",
                f"      sender b{b}e{sender}; receivers b{b}e{receiver};",
                f"      payload {rng.randint(1, 8)}B; period {period}ms;"
                f" offset {rng.randrange(period * 1000)}us;",
                f"      mapping {{ bus{b}: can{{id {ids[b][k]};}}; }}",
                "    }",
            ]
        nxt = (b + 1) % N_BUSES
        for k, period in enumerate(POOLED_PERIODS_MS):
            lines += [
                f"    message b{b}x{k} {{",
                f"      sender b{b}e{rng.randrange(N_ECUS)}; receivers b{nxt}e{rng.randrange(N_ECUS)};",
                f"      payload {rng.randint(1, 8)}B; period {period}ms;"
                f" offset {rng.randrange(period * 1000)}us;",
                "      mapping {",
                f"        bus{b}: can{{id {ids[b][n_local + k]};}};",
                f"        gw{b}: pool p{{holdUp {period * 1000 // 2}us;}};",
                f"        gw{nxt};",
                "        backbone: be{priority 3;};",
                f"        bus{nxt}: can{{id {ids[nxt][n_local + n_pooled + k]};}};",
                "      }",
                "    }",
            ]
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def frames_created(cfg, horizon: int) -> int:
    """Frames the periodic sources emit in [0, horizon] (they stop there)."""
    return sum((horizon - m.offset) // m.period + 1 for m in cfg.messages if m.offset <= horizon)


def vehicle_can_check(rt) -> list[str]:
    problems = []
    store = rt.store
    created = frames_created(rt.cfg, rt.stop_time)
    delivered = sum(len(samples) for samples in store.latencies.values())
    overwrites = sum(v for (_, name), (v, _) in store.scalars.items() if name == "overwrites")
    if created != delivered + overwrites:
        problems.append(f"frames not conserved: created {created}, delivered {delivered}, "
                        f"overwritten {overwrites}")
    drops = sorted(f"{m}.{n}" for (m, n), (v, _) in store.scalars.items()
                   if n.startswith("drops") and v)
    if drops:
        problems.append(f"drops recorded: {drops[:3]}")
    for bus in rt.buses.values():
        if store.utilized_bandwidth(bus.name) >= bus.bitrate:
            problems.append(f"bus {bus.name} at or above 100% load")
    return problems


# -------------------------------------------------------------------------
# mixed_recorded: TT backbone with AVB, RC and BE traffic, all series recorded
# -------------------------------------------------------------------------

TT_PERIODS_MS = [1, 2, 5, 10]
AVB_PERIODS_US = [500, 500, 1000, 1000]
AVB_PAYLOADS = [250, 500, 750, 1000]
RC_BAGS_MS = [1, 2, 2, 4]
RC_PAYLOADS = [200, 400, 600, 800]


def mixed_recorded_text(seed: int) -> str:
    rng = random.Random(seed)
    talkers = [f"t{i}" for i in range(1, 5)]
    listeners = [f"l{i}" for i in range(1, 5)]
    lines = [
        "network mixed {",
        "  inline ini {",
        "```",
        "metrics.queues = true",
        "metrics.stations = true",
        "metrics.credit = true",
        "metrics.completions = true",
        "```",
        "  }",
        "  devices {",
        "    " + " ".join(f"node {n};" for n in talkers + listeners),
        "    switch sA; switch sB; switch sC;",
        "  }",
        "  connections {",
        "    segment backbone {",
        *(f"      {t} <--> sA;" for t in talkers),
        "      sA <--> sB; sB <--> sC;",
        *(f"      {lst} <--> sC;" for lst in listeners),
        "    }",
        "  }",
        "  communication {",
    ]

    def message(name, sender, receiver, payload, period, mapping, offset=None):
        off = f" offset {offset};" if offset else ""
        return [
            f"    message {name} {{",
            f"      sender {sender}; receivers {receiver};",
            f"      payload {payload}B; period {period};{off}",
            f"      mapping {{ {mapping} }}",
            "    }",
        ]

    for i in range(20):
        lines += message(f"tt{i}", talkers[i % 4], listeners[(i + 1) % 4], 100,
                         f"{TT_PERIODS_MS[i % 4]}ms", f"backbone: tt{{ctID {200 + i};}};")
    for i, (period, payload) in enumerate(zip(AVB_PERIODS_US, rng.sample(AVB_PAYLOADS, 4))):
        cls = rng.choice("AB")
        lines += message(f"avb{i}", talkers[i], rng.choice(listeners), payload, f"{period}us",
                         f"backbone: avb{{id {i + 1}; class {cls};}};",
                         f"{rng.randrange(period)}us")
    for i, (bag, payload) in enumerate(zip(RC_BAGS_MS, rng.sample(RC_PAYLOADS, 4))):
        lines += message(f"rc{i}", rng.choice(talkers), rng.choice(listeners), payload,
                         f"{bag}ms", f"backbone: rc{{vlID {11 + i}; bag {bag}ms;}};",
                         f"{rng.randrange(bag * 1000)}us")
    lines += message("disturb", "t1", "l1", 1500, "777us", "backbone: be{priority 0;};")
    lines += message("noise2", "t2", "l3", 500, "200us", "backbone: be{priority 2;};",
                     f"{rng.randrange(200)}us")
    lines += message("noise3", "t3", "l2", 300, "300us", "backbone: be{priority 1;};",
                     f"{rng.randrange(300)}us")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def mixed_recorded_check(rt) -> list[str]:
    problems = []
    store = rt.store
    for msg in rt.cfg.messages:
        if msg.name.startswith("tt"):
            receiver = msg.receivers[0]
            if not store.latencies.get((msg.name, receiver)):
                problems.append(f"{msg.name} never delivered")
            elif store.jitter(msg.name, receiver) != 0:
                problems.append(f"{msg.name} has nonzero jitter")
    violations = [m for (m, n), (v, _) in store.scalars.items() if n.startswith("ttViolations") and v]
    if violations:
        problems.append(f"TT window violations at {sorted(violations)[:3]}")
    bags = {m.bindings["backbone"]["vl"]: m.bindings["backbone"]["bag"]
            for m in rt.cfg.messages if m.bindings.get("backbone", {}).get("kind") == "rc"}
    for port in rt.ports.values():
        for cls in port.credit:
            points = store.vectors.get((port.path, f"credit[{cls}]"), [])
            times = [t for t, _ in points]
            for t, _ in store.vectors.get((port.path, f"txStart[AVB_{cls}]"), []):
                # credit at the start: the last point recorded at or before it
                idx = bisect_right(times, t) - 1
                if idx < 0 or points[idx][1] < 0:
                    problems.append(f"negative credit at AVB_{cls} start on {port.link} at {t}")
                    break
        for vl, bag in bags.items():
            times = [t for t, _ in store.vectors.get((port.path, f"txStart[vl{vl}]"), [])]
            if any(b - a < bag for a, b in zip(times, times[1:])):
                problems.append(f"BAG spacing violated for vl {vl} on {port.link}")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("avb_7hop", SEC_TICKS // 10, "csv", avb_7hop_text, avb_7hop_check),
        Workload("vehicle_can", SEC_TICKS // 5, "structured", vehicle_can_text, vehicle_can_check),
        Workload("mixed_recorded", SEC_TICKS // 20, "structured", mixed_recorded_text,
                 mixed_recorded_check),
    )
}
