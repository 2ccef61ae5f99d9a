"""Tests of the benchmark itself (not part of the simulator's suite).

    python3 -m pytest perfbench/test_bench.py -q

Each pipeline runs in its own process, as the benchmark runs it, so hash
randomisation differs between the two runs being compared.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import MS_TICKS, WORKLOADS  # noqa: E402

SEEDS = json.loads((BENCH_DIR / "seeds.json").read_text())


def pipeline(tmp_path: Path, workload: str, seed: int, traced: bool) -> dict:
    andl = tmp_path / f"{workload}-{seed}.andl"
    andl.write_text(WORKLOADS[workload].generate(seed))
    cmd = [sys.executable, str(BENCH_DIR / "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--andl", str(andl), "--out", str(tmp_path / "out")]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generation_depends_only_on_seed(workload):
    generate = WORKLOADS[workload].generate
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    seed = SEEDS[workload]["default_seed"]
    first = pipeline(tmp_path, workload, seed, traced=True)
    second = pipeline(tmp_path, workload, seed, traced=True)
    # Self-time accounting, dispatch counts and the workload checks all
    # report through `problems`.
    assert first["problems"] == [] and second["problems"] == []
    assert first["counts"] == second["counts"]
    assert first["ratios"] == second["ratios"]
    assert first["digest"] == second["digest"] == SEEDS[workload]["digests"][str(seed)]
    header = (tmp_path / "spans.bin").open("rb").readline()
    assert json.loads(header)["spans"] == second["spans"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_recorded_digests(workload, tmp_path):
    for seed in (SEEDS[workload]["default_seed"], SEEDS[workload]["held_out_seed"]):
        report = pipeline(tmp_path, workload, seed, traced=False)
        assert report["problems"] == []
        assert report["digest"] == SEEDS[workload]["digests"][str(seed)]


# A CAN leg (two buses, a pooling gateway at each end of the backbone)
# added to mixed_recorded seed 5.  Its 46-byte BE aggregates fit between
# two TT windows on sA->sB; at the tick tt0's window opens there, one of
# them can start before tt0 (arriving at that same tick) is enqueued, and
# tt0 waits a whole 1 ms cycle.  Found while sizing the benchmark.
CAN_LEG_DEVICES = ("    canLink cbA; canLink cbB; node eA1; node eA2; node eB1;\n"
                   "    gateway gwA { pool tq; pool bq; } gateway gwB;\n")
CAN_LEG_LINKS = ("      gwA <--> sA; gwB <--> sC;\n    }\n"
                 "    segment canA { eA1 <--> cbA; eA2 <--> cbA; gwA <--> cbA; }\n"
                 "    segment canB { eB1 <--> cbB; gwB <--> cbB; }\n")
CAN_LEG_MESSAGES = """\
    message canTT {
      sender eA1; receivers eB1; payload 8B; period 5ms; offset 1715us;
      mapping { canA: can{id 100;}; gwA: pool tq{holdUp 2ms;}; gwB; backbone: tt{ctID 300;}; canB: can{id 100;}; }
    }
    message canBE0 {
      sender eA1; receivers eB1; payload 4B; period 10ms; offset 2717us;
      mapping { canA: can{id 200;}; gwA: pool bq{holdUp 5ms;}; gwB; backbone: be{priority 4;}; canB: can{id 200;}; }
    }
    message canBE1 {
      sender eA2; receivers eB1; payload 3B; period 20ms; offset 9479us;
      mapping { canA: can{id 300;}; gwA: pool bq{holdUp 10ms;}; gwB; backbone: be{priority 4;}; canB: can{id 300;}; }
    }
    message localA {
      sender eA2; receivers eA1; payload 4B; period 2ms; offset 642us;
      mapping { canA: can{id 50;}; }
    }
"""


def tt_race_text() -> str:
    text = WORKLOADS["mixed_recorded"].generate(5)
    text = text.replace("    switch sA; switch sB; switch sC;\n",
                        "    switch sA; switch sB; switch sC;\n" + CAN_LEG_DEVICES, 1)
    text = text.replace("      l4 <--> sC;\n    }\n", "      l4 <--> sC;\n" + CAN_LEG_LINKS, 1)
    head, tail = text.rsplit("  }\n}", 1)
    return head + CAN_LEG_MESSAGES + "  }\n}" + tail


@pytest.mark.xfail(strict=True, reason="short non-TT frames can take a TT window at the tick it opens")
def test_tt_window_kept_free_for_its_frame():
    sys.path.insert(0, str(ROOT / "src"))
    from autonetsim.andl import compile_network, parse
    from autonetsim.engine import Runtime

    rt = Runtime(compile_network(parse(tt_race_text())[0]), 5)
    rt.run(200 * MS_TICKS)  # the first late tt0 frame comes after the workload's own horizon
    assert WORKLOADS["mixed_recorded"].check(rt) == []


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "avb_7hop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
