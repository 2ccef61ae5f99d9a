"""Command-line pipeline: validate / compile / run / analyze.

Exit codes: 0 success, 1 semantic failure (validation, missing series),
2 I/O or usage failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .andl import CompileError, Diagnostic, compile_with_warnings, has_errors, parse, validate
from .config import ConfigError, NetworkConfig, OverrideError, apply_override, derives_tables
from .engine import Runtime
from .kernel import MAX_TICKS, US, SimTimeOverflow, parse_duration

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_IO = 2


def _read(path: str) -> str:
    """The text of ``path``; a file that is not UTF-8 is an unreadable file (OSError)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _diag_lines(diags: list[Diagnostic], path: str) -> list[str]:
    """``file:line:col: severity: message``, or ``file: severity: message`` without a position."""
    return [f"{path}:{d}" if d.line else f"{path}: {d}" for d in diags]


def _print_diags(diags: list[Diagnostic], path: str) -> None:
    for line in _diag_lines(diags, path):
        print(line, file=sys.stderr)


def _load_config(
    path: str, overrides: list[tuple[str, str]], network: str | None
) -> tuple[NetworkConfig, list[Diagnostic]]:
    """The config of an ANDL file, with its warnings, or of a config document.
    An ANDL file with errors raises CompileError."""
    text = _read(path)
    if not text.lstrip().startswith("{"):
        ast, diags = parse(text)
        if has_errors(diags):
            raise CompileError(diags)
        cfg, warnings = compile_with_warnings(ast, network, overrides)
        return cfg, diags + warnings
    cfg = NetworkConfig.from_json(text)
    for key, value in overrides:
        if derives_tables(cfg, key):
            raise OverrideError(f"override {key!r}: the document's tables were derived from it; "
                                "set it in the source and recompile")
        if not apply_override(cfg, key, value):
            raise ConfigError(f"unknown override key {key!r}")
    return cfg, []


def _parse_set(values: list[str]) -> list[tuple[str, str]]:
    out = []
    for item in values or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        out.append((key.strip(), value.strip()))
    return out


def cmd_validate(args) -> int:
    try:
        text = _read(args.file)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    ast, diags = parse(text)
    if not has_errors(diags):  # a partial AST would give follow-on errors
        diags = diags + validate(ast, args.network)
    _print_diags(diags, args.file)
    if has_errors(diags):
        return EXIT_SEMANTIC
    print(f"{args.file}: ok ({len(diags)} warning(s))")
    return EXIT_OK


def cmd_compile(args) -> int:
    try:
        text = _read(args.file)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    ast, diags = parse(text)
    if has_errors(diags):
        _print_diags(diags, args.file)
        return EXIT_SEMANTIC
    try:
        cfg, warnings = compile_with_warnings(ast, args.network)
    except CompileError as exc:
        _print_diags(exc.diagnostics, args.file)
        return EXIT_SEMANTIC
    _print_diags(diags + warnings, args.file)
    try:
        Path(args.out).write_text(cfg.to_json())
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_times(args) -> tuple[int, tuple[int, int] | None]:
    """The horizon and the optional bandwidth window, checked before any run."""
    horizon = parse_duration(args.horizon)
    if not 0 < horizon <= MAX_TICKS:
        raise ValueError(f"--horizon {args.horizon}: must be positive and at most 2^63-1 ps")
    if not args.window:
        return horizon, None
    t0, _, t1 = args.window.partition(":")
    window = parse_duration(t0), parse_duration(t1)
    if not window[0] < window[1] <= horizon:
        raise ValueError(f"--window {args.window}: the end must come after the start and not after the horizon")
    return horizon, window


def _run_one(
    path: str, args, overrides, outdir: Path, horizon: int, window
) -> tuple[list[str], str | None]:
    """Simulate and export one file.  Return its diagnostics as printed lines and
    its summary, which is None when the file does not compile or its times overflow."""
    try:
        cfg, warnings = _load_config(path, overrides, args.network)
    except CompileError as exc:
        return _diag_lines(exc.diagnostics, path), None
    try:
        rt = Runtime(cfg)
        result = rt.run(horizon, drain=not args.no_drain, window=window)
    except SimTimeOverflow as exc:  # e.g. an offset or hold-up that lands past 2^63-1 ps
        return [f"{path}: error: {exc}"], None
    store = rt.store
    for link in sorted(store.link_bits):
        store.scalar_set(link, "utilizedBandwidth", store.utilized_bandwidth(link), "bit/s")
        if window:
            bw = store.utilized_bandwidth(link, *window)
            store.scalar_set(link, f"utilizedBandwidth[{args.window}]", bw, "bit/s")
    outdir.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        store.export_csv(outdir)
    else:
        store.export_json(outdir / "results.json")
    lines = [f"[{path}] {result.events} events, final time {result.final_time} ps"]
    lines += [f"[{path}]   delivered {key}: {result.deliveries[key]}" for key in sorted(result.deliveries)]
    lines += [f"[{path}]   frames {link}: {result.link_frames[link]}" for link in sorted(result.link_frames)]
    lines.append(f"[{path}]   drops: {result.drops}")
    return _diag_lines(warnings, path), "\n".join(lines)


def _report(diag_lines: list[str], summary: str | None) -> bool:
    """Print one file's diagnostics and summary; False when it did not compile."""
    for line in diag_lines:
        print(line, file=sys.stderr)
    if summary is not None:
        print(summary)
    return summary is not None


def cmd_run(args) -> int:
    try:
        overrides = _parse_set(args.set)
        horizon, window = _parse_times(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    if args.jobs < 1:
        print(f"--jobs {args.jobs}: must be at least 1", file=sys.stderr)
        return EXIT_IO
    out_base = Path(args.out)
    jobs = []
    for path in args.files:
        sub = out_base if len(args.files) == 1 else out_base / Path(path).stem
        jobs.append((path, args, overrides, sub, horizon, window))
    # Runs share no state, so files go to separate processes; diagnostics and
    # summaries are printed in file order, as a serial run prints them, up to
    # the first file that does not compile.
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    try:
        if workers > 1:
            # Imported here: the process pool adds 10-20 ms to the start-up of every run (CPython 3.11).
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
                futures = [pool.submit(_run_one, *job) for job in jobs]
                try:
                    compiled = all(_report(*future.result()) for future in futures)
                finally:
                    for future in futures:
                        future.cancel()
        else:
            compiled = all(_report(*_run_one(*job)) for job in jobs)
        return EXIT_OK if compiled else EXIT_SEMANTIC
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_SEMANTIC
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO


def _rows(csv_path: Path, width: int) -> list[list[str]]:
    """The rows below the header of an exported CSV file, each split into ``width`` values."""
    rows = [line.split(",", width - 1) for line in csv_path.read_text().splitlines()[1:]]
    if any(len(row) != width for row in rows):
        raise ValueError(f"{csv_path.name}: a row has fewer than {width} comma-separated values")
    return rows


def _is_number(value) -> bool:
    """Whether ``value`` is a point value: a finite number, or the decimal text exports write."""
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float's range
        return False


def _is_export(doc) -> bool:
    """Whether ``doc`` has the shape ``analyze`` reads: vectors of [time, value] points
    with numeric values, scalars of {value, unit} and links of {frames, wire_bits}."""
    if not isinstance(doc, dict) or not isinstance(doc.get("vectors"), dict):
        return False
    scalars, links = doc.get("scalars", {}), doc.get("links", {})
    if not isinstance(scalars, dict) or not isinstance(links, dict):
        return False
    return (all(isinstance(points, list)
                and all(isinstance(p, list) and len(p) == 2 and _is_number(p[1]) for p in points)
                for points in doc["vectors"].values())
            and all(isinstance(e, dict) and e.keys() >= {"value", "unit"} for e in scalars.values())
            and all(isinstance(e, dict) and e.keys() >= {"frames", "wire_bits"} for e in links.values()))


def _load_results(results_dir: Path) -> dict:
    """The exported results in ``results_dir``; ValueError for a file that does not parse
    or a ``results.json`` that is not an export."""
    doc_path = results_dir / "results.json"
    if doc_path.exists():
        doc = json.loads(doc_path.read_text())
        if not _is_export(doc):
            raise ValueError("results.json is not an export (an object of vectors, scalars and links)")
        return doc
    doc = {"vectors": {}, "scalars": {}, "links": {}}
    for csv_path in sorted(results_dir.glob("*.csv")):
        if csv_path.name.startswith("analysis_"):
            continue
        if csv_path.name == "scalars.csv":
            for module, name, value, unit in _rows(csv_path, 4):
                doc["scalars"][f"{module}.{name}"] = {"value": value, "unit": unit}
            continue
        points = [[int(t), value] for t, value in _rows(csv_path, 2)]
        if not all(_is_number(value) for _, value in points):
            raise ValueError(f"{csv_path.name}: a point's value is not a number")
        doc["vectors"][csv_path.stem] = points
    return doc


def _stats(values: list[float]) -> tuple[float, float, float]:
    return (min(values), max(values), sum(values) / len(values))


def cmd_analyze(args) -> int:
    results_dir = Path(args.results)
    if not results_dir.exists():
        print(f"no such results directory: {results_dir}", file=sys.stderr)
        return EXIT_IO
    try:
        doc = _load_results(results_dir)
    except (OSError, ValueError) as exc:  # e.g. a truncated export
        print(f"{results_dir}: unreadable results: {exc}", file=sys.stderr)
        return EXIT_IO
    pattern = args.filter or ""
    rows: list[tuple[str, str]] = []
    plot: list[tuple[str, int, str]] = []

    if args.metric in ("latency", "jitter"):
        for series, points in sorted(doc["vectors"].items()):
            if not series.endswith(".rxLatency") or ".app[" not in series:
                continue
            if pattern not in series:
                continue
            values = [float(v) for _, v in points]
            if not values:
                continue
            if args.metric == "latency":
                lo, hi, mean = _stats(values)
                rows.append((series, f"n={len(values)} min={lo/US:.3f}us max={hi/US:.3f}us mean={mean/US:.3f}us"))
            else:
                diffs = [abs(b - a) for a, b in zip(values, values[1:])]
                jit = max(diffs) if diffs else 0.0
                rows.append((series, f"jitter={jit/US:.3f}us over {len(values)} samples"))
            plot.extend((series, t, v) for t, v in points)
    elif args.metric == "bandwidth":
        # Totals include drained frames; rates are the exported scalars.
        for link, info in sorted(doc.get("links", {}).items()):
            if pattern in link:
                rows.append((link, f"{info['wire_bits']} wire bits in {info['frames']} frames"))
        for name, entry in sorted(doc.get("scalars", {}).items()):
            if "utilizedBandwidth" in name and pattern in name:
                rows.append((name, f"{entry['value']} {entry['unit']}"))
    elif args.metric == "queues":
        for series, points in sorted(doc["vectors"].items()):
            if "QueueLength[" not in series or pattern not in series:
                continue
            occ = [int(float(v)) for _, v in points]
            if not occ:
                continue
            rows.append((series, f"max occupancy {max(occ)}"))
            plot.extend((series, t, v) for t, v in points)
        for name, entry in sorted(doc.get("scalars", {}).items()):
            if ".drops[" in name and pattern in name:
                rows.append((name, f"{entry['value']} dropped"))
    else:  # credit trajectories and anything else by explicit name
        for series, points in sorted(doc["vectors"].items()):
            if pattern and pattern not in series:
                continue
            rows.append((series, f"{len(points)} points"))
            plot.extend((series, t, v) for t, v in points)

    if not rows:
        print(f"no series matching {pattern!r} for metric {args.metric}", file=sys.stderr)
        return EXIT_SEMANTIC
    width = max(len(r[0]) for r in rows)
    for name, desc in rows:
        print(f"{name:<{width}}  {desc}")
    if plot:
        plot_path = results_dir / f"analysis_{args.metric}.csv"
        lines = ["series,time_ps,value"]
        lines += [f"{s},{t},{v}" for s, t, v in plot]
        plot_path.write_text("\n".join(lines) + "\n")
        print(f"plot data: {plot_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autonetsim",
        description="Simulate mixed-critical automotive networks from ANDL descriptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and semantically check a description")
    p.add_argument("file")
    p.add_argument("--network", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compile", help="compile a description to a config document")
    p.add_argument("file")
    p.add_argument("-o", "--out", default="network.json")
    p.add_argument("--network", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="simulate one or more scenarios")
    p.add_argument("files", nargs="+")
    p.add_argument("--horizon", required=True, help="e.g. 1s, 500ms")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", default="results")
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.add_argument("--window", default=None, metavar="T0:T1")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--network", default=None)
    p.add_argument("--no-drain", action="store_true",
                   help="stop exactly at the horizon without draining in-flight frames")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="summarize exported metrics")
    p.add_argument("results")
    p.add_argument("metric", choices=("latency", "jitter", "bandwidth", "queues", "series"))
    p.add_argument("--filter", default=None)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
