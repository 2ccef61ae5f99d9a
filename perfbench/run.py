"""autonetsim benchmark: host time of the ANDL-to-exported-files pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs in a fresh child process (perfbench/pipeline.py), one
at a time.  With ``--trace 0`` the repetitions are untraced and the
end-to-end metrics are the medians over them.  With ``--trace 1`` untraced
and traced repetitions alternate; the per-layer metrics come from the
traced ones, and every count must repeat exactly between them.  New
repetitions start until ``--seconds`` have passed (at least three
untraced, or two traced).

End-to-end host times are the fastest observation over the run (best of
N, as ``timeit`` does), scaled to a reference host speed: each child also
times a fixed pure-Python loop (pipeline.calibrate), and a time is reported
as ``fastest time * REFERENCE_CALIBRATION_S / fastest loop``, i.e. in
seconds on a host where that loop takes 10 ms.  The host this was sized on
changes speed by 10-30% in phases shorter than a second (the minimum over
many short repetitions absorbs those) and by up to 50% for minutes at a
time (the loop slows with it).  The raw fastest time, the median and the
quartiles are printed beside each value.  Memory and the per-layer figures
are reported as measured (medians).

Every repetition checks its outputs: the workload's own checks, byte-identical
repeated exports, and an outcome digest that must equal the one recorded in
perfbench/seeds.json for that seed (or, for other seeds, the first
repetition's).  A repetition that fails a check reports no timings and counts
toward ``failed``.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every metric
with its quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0   # the whole run ends within 180 s
MIN_PLAIN = 3
MIN_TRACED = 2
REFERENCE_CALIBRATION_S = 0.010

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def run_child(workload: str, seed: int, andl: Path, rep: int, traced: bool,
              deadline: float) -> dict:
    out = OUT / workload / f"rep{rep}"
    cmd = [sys.executable, str(BENCH_DIR / "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--andl", str(andl), "--out", str(out)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"problems": ["repetition did not finish in time"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return {"problems": [f"pipeline exited {proc.returncode}: {err[-1] if err else ''}"]}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "autonetsim" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = json.loads((BENCH_DIR / "seeds.json").read_text())[args.workload]
    seed = seeds["default_seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    expected_digest = seeds["digests"].get(str(seed))

    workload = WORKLOADS[args.workload]
    (OUT / workload.name).mkdir(parents=True, exist_ok=True)
    andl = OUT / workload.name / f"input-{seed}.andl"
    andl.write_text(workload.generate(seed))

    start = time.monotonic()
    measure_until = start + seconds
    deadline = start + TIME_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    reference: dict = {}
    longest = 0.0

    def wanted() -> bool | None:
        """Kind of the next repetition (True = traced), or None to stop."""
        now = time.monotonic()
        if now + 1.5 * longest > deadline or (failed >= MIN_PLAIN and not plain + traced):
            return None
        if args.trace == 0:
            return False if (len(plain) < MIN_PLAIN or now < measure_until) else None
        if len(plain) < 1 or len(traced) < MIN_TRACED or now < measure_until:
            return len(plain) > len(traced)
        return None

    while (kind := wanted()) is not None:
        began = time.monotonic()
        report = run_child(workload.name, seed, andl, attempted, kind, deadline)
        longest = max(longest, time.monotonic() - began)
        attempted += 1
        problems = list(report["problems"])
        if not problems:
            reference.setdefault("digest", expected_digest or report["digest"])
            if report["digest"] != reference["digest"]:
                problems.append(f"outcome digest {report['digest'][:12]} differs from "
                                f"{reference['digest'][:12]}")
            if kind:
                exact = {**report["counts"], **report["ratios"]}
                if reference.setdefault("counts", exact) != exact:
                    problems.append("counts differ between traced runs of one seed")
            elif reference.setdefault("export_sha", report["export_sha"]) != report["export_sha"]:
                problems.append("exported files differ between runs of one seed")
        if problems:
            failed += 1
            for problem in problems:
                print(f"rep {attempted}: {problem}", file=sys.stderr)
        else:
            (traced if kind else plain).append(report)

    if not plain or (args.trace and not traced):
        print("no repetition passed its checks; no timings to report", file=sys.stderr)
        return 1

    best_of = set()
    scale = 1.0
    samples: dict[str, list[float]] = {}
    if args.trace == 0:
        best_of = {"wall_s", "setup_s", "run_s", "export_s"}
        scale = REFERENCE_CALIBRATION_S / min(r["calibration_s"] for r in plain)
        for report in plain:
            for name, value in report["times"].items():
                samples.setdefault(name, []).append(value)
        metric_specs = spec["end_to_end"]
    else:
        for report in traced:
            for name, value in report["times"].items():
                samples.setdefault(name, []).append(value)
        first = traced[0]
        for name, value in {**first["counts"], **first["ratios"]}.items():
            samples[name] = [value]
        plain_run = statistics.median(r["times"]["run_s"] for r in plain)
        best_run = min(r["times"]["run_s"] for r in plain)
        samples["kernel.events_per_s"] = [first["counts"]["kernel.events"] / best_run]
        samples["trace.overhead_s"] = [r["run_s"] - plain_run for r in traced]
        metric_specs = spec["per_layer"]

    print(f"workload {workload.name}  seed {seed}  trace {args.trace}  "
          f"repetitions {attempted} ({len(plain)} untraced, {len(traced)} traced)  "
          f"failed_frac {failed / attempted:.3f}  host speed scale {scale:.4f}")
    metrics = {}
    for m in metric_specs:
        values = samples[m["name"]]
        q1, median, q3 = quartiles(values)
        value = min(values) * scale if m["name"] in best_of else median
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>16.6g} {m['unit']:<10} "
              f"median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  min {min(values):.6g}  n {len(values)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
