"""One repetition of the benchmark pipeline, run in a fresh process.

    python3 perfbench/pipeline.py --workload NAME --seed N --andl FILE --out DIR [--traced]

``--out`` is scratch space, removed on exit; a traced run leaves its spans
in ``spans.bin`` beside it.

The pipeline makes the same public calls as ``autonetsim run``:
``andl.parse`` -> ``compile_network`` -> ``Runtime(cfg, seed)`` ->
``Runtime.run(horizon)`` with drain -> ``utilized_bandwidth`` scalars ->
``export_csv`` / ``export_json``.  It prints one JSON object on its last
stdout line: phase times and peak RSS (plain mode) or per-layer self times
and counts (``--traced``), plus the workload's check results and an outcome
digest.  The simulator is imported from ``src/`` of the checkout holding
this file and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import autonetsim  # noqa: E402

if Path(autonetsim.__file__).resolve().parent != (ROOT / "src" / "autonetsim").resolve():
    sys.exit(f"autonetsim imported from {autonetsim.__file__}, not from this checkout's src/")

from autonetsim.andl import CompileError, compile_network, has_errors, parse  # noqa: E402
from autonetsim.can import can_wire_bits  # noqa: E402
from autonetsim.config import NetworkConfig  # noqa: E402
from autonetsim.engine import Runtime  # noqa: E402
from autonetsim.kernel import SEC, EventKind, Simulator  # noqa: E402

from tracer import RECORDING_METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is repeated on fresh objects and export to fresh directories until
# both limits are met; the fastest sample is reported (see run.py).
MIN_SAMPLES = 3
MIN_SAMPLE_SECONDS = 0.2
DRAIN = True


def setup(text: str, seed: int) -> Runtime:
    ast, diags = parse(text)
    if has_errors(diags):
        raise CompileError(diags)
    return Runtime(compile_network(ast), seed)


def export(rt: Runtime, fmt: str, outdir: Path) -> None:
    """Bandwidth scalars and the export, as `autonetsim run` writes them."""
    store = rt.store
    for link in sorted(store.link_bits):
        store.scalar_set(link, "utilizedBandwidth", store.utilized_bandwidth(link), "bit/s")
    outdir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        store.export_csv(outdir)
    else:
        store.export_json(outdir / "results.json")


def tree_digest(outdir: Path) -> tuple[str, int]:
    """sha256 over the exported files (names and bytes), and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


def outcome_digest(store) -> str:
    """sha256 of latency samples, per-link wire bits and frames, and the
    drop, overwrite and TT-violation scalars.  Event counts stay out, so a
    change to how the kernel batches work keeps the digest."""
    h = hashlib.sha256()
    for key in sorted(store.latencies):
        h.update(("L %s %s\n" % key).encode())
        h.update(",".join(f"{s.creation}:{s.arrival}" for s in store.latencies[key]).encode())
    for link in sorted(store.link_bits):
        h.update(f"W {link} {store.link_bits[link]} {store.link_frames[link]}\n".encode())
    for (module, name), (value, _) in sorted(store.scalars.items()):
        if name.startswith(("drops", "overwrites", "ttViolations")):
            h.update(f"S {module} {name} {value}\n".encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def calibrate(rounds: int = 5) -> float:
    """Fastest of a few runs of a fixed pure-Python loop (heap operations,
    dict updates, arithmetic) that does not touch the simulator: the host's
    speed at the moment, which run.py scales host times by."""
    best = float("inf")
    for _ in range(rounds):
        heap = [(i, i) for i in range(64)]
        counts: dict[int, int] = {}
        t0 = perf_counter()
        for _ in range(20_000):
            when, node = heapq.heappop(heap)
            counts[node] = counts.get(node, 0) + 1
            heapq.heappush(heap, (when + (node * 7) % 13 + 1, node))
        best = min(best, perf_counter() - t0)
    return best


def settle() -> None:
    """Flush dirty pages left by earlier exports, so their write-back does
    not land inside the next timed region (a single `autonetsim run` starts
    on a quiet file system)."""
    os.sync()


def run_plain(workload, text: str, seed: int, out: Path) -> dict:
    setup_samples = []
    settle()
    calibration = calibrate()
    while True:
        t0 = perf_counter()
        rt = setup(text, seed)
        t1 = perf_counter()
        setup_samples.append(t1 - t0)
        if len(setup_samples) >= MIN_SAMPLES and sum(setup_samples) >= MIN_SAMPLE_SECONDS:
            break
    rt.run(workload.horizon, drain=DRAIN)
    t2 = perf_counter()
    export(rt, workload.fmt, out / "export0")
    t3 = perf_counter()
    export_samples = [t3 - t2]
    files_sha = tree_digest(out / "export0")[0]
    problems = []
    while len(export_samples) < MIN_SAMPLES or sum(export_samples) < MIN_SAMPLE_SECONDS:
        again = out / f"export{len(export_samples)}"
        settle()
        t4 = perf_counter()
        export(rt, workload.fmt, again)
        export_samples.append(perf_counter() - t4)
        if tree_digest(again)[0] != files_sha:
            problems.append("repeated export of one store gave different bytes")
        shutil.rmtree(again)
    rss = peak_rss_mb()
    calibration = min(calibration, calibrate())
    problems += workload.check(rt)
    return {
        "problems": problems,
        "digest": outcome_digest(rt.store),
        "export_sha": files_sha,
        "calibration_s": calibration,
        "times": {
            "wall_s": t3 - t0,
            "setup_s": min(setup_samples),
            "run_s": t2 - t1,
            "export_s": min(export_samples),
            "peak_rss_mb": rss,
        },
    }


def analytical_can_bits(cfg) -> dict[str, float]:
    """Offered wire bits per second on each CAN bus, from the message table."""
    buses = {b.name for b in cfg.buses}
    offered = {name: 0.0 for name in buses}
    for msg in cfg.messages:
        on_path = {v for path in msg.paths.values() for v in path if v in buses}
        for bus in on_path:
            offered[bus] += can_wire_bits(msg.payload, cfg.can_stuffing) * SEC / msg.period
    return offered


def run_traced(workload, text: str, seed: int, out: Path) -> dict:
    import autonetsim.andl.compiler as compiler_mod
    import autonetsim.engine as engine_mod

    tracer = Tracer()
    tracer.patch_simulator(Simulator)
    compiler_mod.generate_tdma_schedule = tracer.wrap("tdma", compiler_mod.generate_tdma_schedule)
    # Sources build their frames through these names in the engine module.
    for frame_cls in ("CanFrame", "EthFrame"):
        setattr(engine_mod, frame_cls, tracer.wrap(
            "engine.source", getattr(engine_mod, frame_cls), "frames_created"))

    with tracer.span("parser"):
        ast, diags = parse(text)
    if has_errors(diags):
        raise CompileError(diags)
    with tracer.span("compiler"):
        cfg = compile_network(ast)
    with tracer.span("config.to_json"):
        cfg_json = cfg.to_json()
    with tracer.span("config.from_json"):
        reloaded = NetworkConfig.from_json(cfg_json)
    problems = []
    if reloaded.to_json() != cfg_json:
        problems.append("compiled config does not survive a JSON round trip")
    with tracer.span("engine.build"):
        rt = Runtime(cfg, seed)

    store = rt.store
    for port in rt.ports.values():
        tracer.wrap_methods(port, "ethernet.port", ["enqueue"])
    for switch in rt.switches.values():
        tracer.wrap_methods(switch, "ethernet.switch", ["receive"])
    for gateway in rt.gateways.values():
        tracer.wrap_methods(gateway, "gateway", ["receive", "on_can_rx"])
    tracer.wrap_methods(store, "metrics.record", RECORDING_METHODS)
    with tracer.span("run"):
        result = rt.run(workload.horizon, drain=DRAIN)
    tracer.unwrap_methods(store, RECORDING_METHODS)

    tracer.wrap_methods(store, "metrics.csv", ["export_csv"])
    tracer.wrap_methods(store, "metrics.json", ["export_json"])
    other = "structured" if workload.fmt == "csv" else "csv"
    export(rt, workload.fmt, out / "export0")
    export_bytes = tree_digest(out / "export0")[1]
    export(rt, other, out / "export1")

    problems += workload.check(rt)

    run_idx = tracer.index_of("run")
    run_s = tracer.duration(run_idx)
    in_run = tracer.self_times(run_idx)
    kernel_self = in_run.pop("run")
    accounted = kernel_self + sum(in_run.values())
    if abs(accounted - run_s) > 1e-6 * run_s:
        problems.append(f"self times add up to {accounted} s, traced run_s is {run_s} s")
    selfs = tracer.self_times()
    by_kind = {kind.name: 0 for kind in EventKind}
    for (kind, _), n in tracer.events.items():
        by_kind[kind.name] += n
    if sum(by_kind.values()) != result.events:
        problems.append("handler dispatches differ from the events the kernel reports")

    def ev(kind, tag):
        return tracer.events.get((kind, tag), 0)

    try_send = by_kind["PORT_TRY_SEND"]
    kicks = ev(EventKind.PORT_TRY_SEND, "kick")
    port_paths = {p.path for p in rt.ports.values()} | set(rt.switches)
    eth_drops = {r: 0 for r in ("overflow", "guardband", "unschedulable", "unknown_destination")}
    no_rule = overwrites = 0
    for (module, name), (value, _) in store.scalars.items():
        if name.startswith("drops.") and module in port_paths:
            reason = name[len("drops."):]
            eth_drops[reason] = eth_drops.get(reason, 0) + value
        elif name == "drops.no_rule":
            no_rule += value
        elif name == "overwrites":
            overwrites += value
    aggregates = [v for (m, n), pts in store.vectors.items() if n == "aggregateCount" for _, v in pts]
    offered = analytical_can_bits(cfg)
    util = {b.name: store.utilized_bandwidth(b.name) / b.bitrate for b in rt.buses.values()}
    bw_err = max((abs(store.utilized_bandwidth(bus) - bits) / bits
                  for bus, bits in offered.items() if bits), default=0.0)
    arbitrations = by_kind["CAN_ARBITRATE"]
    can_frames = by_kind["CAN_TX_DONE"]

    counts = {
        "parser.bytes": len(text.encode()),
        "compiler.messages": len(cfg.messages),
        "compiler.rules": len(cfg.rules),
        "compiler.fwd_entries": len(cfg.forwarding),
        "tdma.windows": len(cfg.schedule.windows) if cfg.schedule else 0,
        "config.json_bytes": len(cfg_json.encode()),
        "engine.frames_created": tracer.calls["frames_created"],
        "kernel.events": result.events,
        "kernel.scheduled": tracer.scheduled,
        "kernel.cancelled": tracer.cancelled,
        "kernel.fel_peak": tracer.fel_peak,
        **{f"kernel.events.{kind}": n for kind, n in by_kind.items()},
        "ethernet.enqueues": tracer.calls["EthPort.enqueue"],
        "ethernet.try_send": try_send,
        "ethernet.kicks": kicks,
        "ethernet.wakeups": try_send - kicks,
        "ethernet.tx_frames": by_kind["PORT_TX_DONE"],
        **{f"ethernet.drops.{reason}": n for reason, n in eth_drops.items()},
        "can.arbitrations": arbitrations,
        "can.frames": can_frames,
        "can.delivered": sum(bus.delivered for bus in rt.buses.values()),
        "gateway.can_rx": tracer.calls["Gateway.on_can_rx"],
        "gateway.pool_flushes": ev(EventKind.POOL_FLUSH, True),
        "gateway.pool_rearms": ev(EventKind.POOL_FLUSH, False),
        "gateway.overwrites": overwrites,
        "gateway.no_rule": no_rule,
        "metrics.record_calls": sum(tracer.calls[f"MetricStore.{m}"] for m in RECORDING_METHODS),
        "metrics.vector_points": sum(len(points) for points in store.vectors.values()),
        "metrics.latency_samples": sum(len(s) for s in store.latencies.values()),
        "metrics.export_bytes": export_bytes,
    }
    # Ratios of the counts above; exact for a given seed as well.
    ratios = {
        "ethernet.send_yield": counts["ethernet.tx_frames"] / try_send if try_send else 0.0,
        "can.arb_yield": can_frames / arbitrations if arbitrations else 0.0,
        "can.util_max": max(util.values(), default=0.0),
        "can.bw_err": bw_err,
        "gateway.records_per_frame": sum(aggregates) / len(aggregates) if aggregates else 0.0,
    }
    times = {
        "parser.s": selfs.get("parser", 0.0),
        "compiler.s": selfs.get("compiler", 0.0),
        "tdma.s": selfs.get("tdma", 0.0),
        "config.to_json_s": selfs.get("config.to_json", 0.0),
        "config.from_json_s": selfs.get("config.from_json", 0.0),
        "engine.build_s": selfs.get("engine.build", 0.0),
        "engine.source_s": in_run.get("engine.source", 0.0),
        "kernel.self_s": kernel_self + in_run.get("kernel", 0.0),
        "ethernet.port_s": in_run.get("ethernet.port", 0.0),
        "ethernet.switch_s": in_run.get("ethernet.switch", 0.0),
        "can.s": in_run.get("can", 0.0),
        "gateway.s": in_run.get("gateway", 0.0),
        "metrics.record_s": in_run.get("metrics.record", 0.0),
        "metrics.csv_s": selfs.get("metrics.csv", 0.0),
        "metrics.json_s": selfs.get("metrics.json", 0.0),
    }
    unclassified = in_run.get("other", 0.0)
    if unclassified:
        problems.append(f"{unclassified} s of run time in handlers of no known layer")
    tracer.write(out.parent / "spans.bin")
    return {
        "problems": problems,
        "digest": outcome_digest(store),
        "counts": counts,
        "ratios": ratios,
        "times": times,
        "run_s": run_s,
        "spans": len(tracer.start),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--andl", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    text = args.andl.read_text()
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.traced:
            report = run_traced(workload, text, args.seed, args.out)
        else:
            report = run_plain(workload, text, args.seed, args.out)
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
