"""Run one srmusic benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload phase-transition --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in PROCESSES worker
processes in turn, each importing the package from ``src/``, setting up,
and measuring for an equal share of ``--seconds``. BLAS is pinned to one
thread through the workers' environment; campaign workloads run with
``--jobs`` equal to the CPUs this process may use, at most 2. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
describe the machine. Problems found by the output checks go to standard
error. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import merge, per_layer_metrics  # noqa: E402
from worker import stolen_s  # noqa: E402

WORKLOADS = ("phase-transition", "music-large-m", "concentration")
PROCESSES = 3  # set-ups per run; setup_s is their median
MAX_JOBS = 2
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT = ROOT / ".bench-out"
WORKER_GRACE_S = 45.0  # set-up and checks on top of a worker's share of --seconds


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def machine(jobs: int) -> dict:
    """The machine description every report carries."""
    probe = ("import json, numpy, scipy; cfg = numpy.show_config(mode='dicts');"
             "blas = cfg.get('Build Dependencies', {}).get('blas', {});"
             "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
             "'blas': blas.get('name', '?') + ' ' + str(blas.get('version', '?'))}))")
    versions = json.loads(subprocess.run([sys.executable, "-c", probe], env=worker_env(),
                                         capture_output=True, text=True, check=True,
                                         timeout=60).stdout)
    return {"nproc": len(os.sched_getaffinity(0)), "jobs": jobs,
            "python": platform.python_version(), **versions,
            **{k: v for k, v in worker_env().items() if k in PINNED}}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args, process: int, jobs: int) -> dict:
    out = OUT / f"{args.workload}-seed{args.seed}-p{process}-{os.getpid()}"
    share = args.seconds / PROCESSES
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--process", str(process), "--seconds", repr(share),
           "--trace", str(args.trace), "--jobs", str(jobs), "--out", str(out)]
    try:
        started = ["--started", repr(time.perf_counter()), "--stolen", repr(stolen_s())]
        done = subprocess.run(cmd + started, env=worker_env(),
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=share + WORKER_GRACE_S)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker {process} exited with code {done.returncode}")
    return json.loads(lines[-1])


def unstolen(wall: float, cpu: float, stolen: float) -> float:
    """Wall time less the part the hypervisor gave to other guests.

    Stolen time accrues only while a CPU has work to run, so the share of
    the process's runnable time that was stolen is stolen/(cpu + stolen),
    and the wall time shrinks by that share. On a machine that accounts no
    steal this is the wall time itself.
    """
    return wall * cpu / (cpu + stolen) if cpu + stolen > 0 else wall


def _rounds(reports: list, traced: bool) -> list:
    """(operations, unstolen wall s, cpu s) of each plain or traced CLI call."""
    return [(ops, unstolen(wall, cpu, stolen), cpu)
            for rep in reports for is_traced, ops, wall, cpu, stolen in rep["rounds"]
            if is_traced == traced]


def end_to_end(reports: list) -> dict:
    """Medians over the CLI calls of all workers, so one disturbed call moves little."""
    rounds = _rounds(reports, traced=False)
    return {
        "setup_s": {"value": statistics.median(unstolen(*r["setup"]) for r in reports),
                    "unit": "s"},
        "ops_per_s": {"value": statistics.median(ops / wall for ops, wall, _ in rounds),
                      "unit": "1/s"},
        "cpu_ms_per_op": {"value": statistics.median(1000.0 * cpu / ops
                                                     for ops, _, cpu in rounds),
                          "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports), "unit": "MB"},
    }


def per_layer(reports: list) -> dict:
    traced = [r["trace"] for r in reports]
    plain_rate, traced_rate = (
        statistics.median(ops / wall for ops, wall, _ in _rounds(reports, side))
        for side in (False, True))
    traced_rounds = _rounds(reports, traced=True)
    rounds = [r for rep in reports for r in rep["rounds"]]
    return per_layer_metrics(
        merge([t for r in traced for t in r["totals"]]),
        ops=sum(ops for ops, _, _ in traced_rounds),
        counts=merge([r["first"] for r in traced]),
        wall_s=sum(wall for is_traced, _, wall, _, _ in rounds if is_traced),
        stolen_pct=100.0 * sum(r[4] for r in rounds) / sum(r[3] + r[4] for r in rounds),
        output_bytes=sum(r["output_bytes"] for r in traced),
        overhead_pct=100.0 * (1.0 - traced_rate / plain_rate),
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "srmusic" / "__init__.py").is_file():
        print(f"no srmusic sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    jobs = min(MAX_JOBS, len(os.sched_getaffinity(0)))
    OUT.mkdir(exist_ok=True)
    print("machine: " + json.dumps(machine(jobs)))
    reports = [run_worker(args, k, jobs) for k in range(PROCESSES)]
    for r in reports:
        for problem in r["problems"] + r["aggregate_problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not any(r["aggregate_problems"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": per_layer(reports) if args.trace else end_to_end(reports),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
