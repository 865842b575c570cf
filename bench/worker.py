"""One worker process of a benchmark run: set up, run timed rounds, check them.

Started by run.py with BLAS pinned to one thread in its environment. Prints
one JSON object as the last line of its standard output: its set-up time,
the wall and CPU time of its CLI calls, the operations attempted and failed,
its peak resident set and, when traced, the layer totals of its traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stolen_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs.

    The steal column of /proc/stat; 0 where the kernel does not account it.
    """
    try:
        with open("/proc/stat") as fh:
            ticks = sum(int(line.split()[8]) for line in fh
                        if line.startswith("cpu") and line[3].isdigit())
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--process", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--started", type=float, required=True,
                   help="time.perf_counter() of the parent just before it started this process")
    p.add_argument("--stolen", type=float, required=True,
                   help="stolen_s() of the parent just before it started this process")
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import srmusic
    from workloads import WORKLOADS, call_cli
    from tracing import Tracer

    if Path(srmusic.__file__).resolve().parent != ROOT / "src" / "srmusic":
        print(f"srmusic imported from {srmusic.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.process, out, args.jobs)
    workload.warm_up()
    setup = (time.perf_counter() - args.started, time.process_time(),
             stolen_s() - args.stolen)

    # In a traced run, even rounds are plain and odd rounds traced, and both
    # rounds of a pair get the same inputs, so the overhead compares like work.
    rounds = []  # (traced, operations, wall_s, cpu_s, stolen_s) of each CLI call
    attempted = failed = output_bytes = 0
    problems, tracers = [], []
    end = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        inputs = index // 2 if args.trace else index
        round_out = out / f"round-{index}"
        argv = workload.prepare(inputs, round_out)
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        stolen0, cpu0, t0 = stolen_s(), time.process_time(), time.perf_counter()
        code = tracer.call("cli.main", call_cli, (argv,), {}) if tracer else call_cli(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        stolen = stolen_s() - stolen0
        if tracer:
            tracer.uninstall()
        checked = workload.check(inputs, code, round_out)
        shutil.rmtree(round_out, ignore_errors=True)
        rounds.append((traced, checked.attempted, wall, cpu, stolen))
        attempted += checked.attempted
        failed += checked.failed
        problems += checked.problems
        if traced:
            tracers.append((tracer, checked.attempted))
            output_bytes += checked.output_bytes
        index += 1
        if time.perf_counter() >= end and (not args.trace or index % 2 == 0):
            break
    aggregate = workload.finish()

    report = {
        "setup": setup,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "aggregate_problems": aggregate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracers:
        main_thread = threading.get_ident()
        first, first_ops = tracers[0][0].totals(main_thread), tracers[0][1]
        report["trace"] = {
            "totals": [t.totals(main_thread) for t, _ in tracers],
            "first": {"ops": first_ops,
                      "calls": first["noise_correlation"]["calls"],
                      "points": first["noise_correlation"]["points"]},
            "output_bytes": output_bytes,
        }
        spans = out.parent / f"spans-{args.workload}-seed{args.seed}-p{args.process}.jsonl"
        with open(spans, "w") as fh:
            for k, (tracer, _) in enumerate(tracers):
                tracer.write(fh, 2 * k + 1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
