"""Spans around srmusic's public functions, and the per-layer metrics they give.

A Tracer replaces each public function at every module that imported it by
name (``cli`` holds its own ``music_estimate``, ``harness`` and ``music``
their own ``hankel`` and ``svd_split``), so a call is seen whichever module
makes it. Nothing under ``src/`` changes: the replacement is undone when the
traced round ends. A span records its name, thread, parent span (on the same
thread), start, end and self time, and stays in memory until the run writes
it out. This module uses the standard library only, so run.py can merge
and report what the worker processes measured.
"""

from __future__ import annotations

import importlib
import json
import math
import threading
import time

# Importing module -> the public names it calls through its own namespace.
# `bounds` and the sweep kinds are not traced: no workload spends time there.
PATCH_POINTS = {
    "srmusic.cli": (
        "music_estimate", "match_supports", "load_measurements", "generate_clumps",
        "vandermonde", "run_experiment", "save_records",
    ),
    "srmusic.harness": (
        "music_estimate", "match_supports", "generate_clumps", "vandermonde",
        "hankel", "svd_split", "spectral_norm", "sample_noise",
    ),
    "srmusic.music": ("noise_correlation", "hankel", "svd_split"),
}
PATCHED_METHODS = (("srmusic.music", "ImagingGrid", "save_csv"),)

NOISE_CORRELATION = "music.noise_correlation"
RUN_EXPERIMENT = "harness.run_experiment"
CLI_MAIN = "cli.main"


def span_name(fn) -> str:
    """Layer-qualified name: the defining module's last part, then the qualname."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Records one span per call of every patched function while installed."""

    def __init__(self):
        self.spans = []  # (name, thread, parent, start, end, self_s, extra)
        self._local = threading.local()
        self._saved = []

    def call(self, name, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [name, 0.0]  # name, time covered by child spans
        stack.append(frame)
        cpu0 = time.process_time() if name == RUN_EXPERIMENT else 0.0
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            parent = stack[-1][0] if stack else None
            if stack:
                stack[-1][1] += duration
            extra = None
            if name == NOISE_CORRELATION:
                rows, cols = args[0].shape
                extra = (rows, cols, _size(args[1]))
            elif name == RUN_EXPERIMENT and result is not None:
                extra = (time.process_time() - cpu0, [r.wall_time for r in result],
                         args[1] if len(args) > 1 else kwargs.get("jobs", 1))
            self.spans.append((name, threading.get_ident(), parent, start, end,
                               duration - frame[1], extra))

    def wrap(self, fn):
        name = span_name(fn)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        for module_name, names in PATCH_POINTS.items():
            module = importlib.import_module(module_name)
            for name in names:
                self._replace(module, name)
        for module_name, cls_name, name in PATCHED_METHODS:
            self._replace(getattr(importlib.import_module(module_name), cls_name), name)

    def _replace(self, owner, name) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self.wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def totals(self, main_thread: int) -> dict:
        """Sums over this tracer's spans, in a form that merge() can add up."""
        per_name = {}
        nc = {"batch_s": 0.0, "scalar_s": 0.0, "flop": 0.0, "max_points": 0,
              "max_rows": 0, "calls": 0, "points": 0}
        runs = {"cpu_s": 0.0, "jobs_wall_s": 0.0, "trial_wall_s": []}
        worker_top_s = 0.0
        for name, thread, parent, start, end, self_s, extra in self.spans:
            t = per_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += self_s
            if parent is None and thread != main_thread:
                worker_top_s += end - start
            if name == NOISE_CORRELATION:
                rows, cols, points = extra
                nc["batch_s" if points > 1 else "scalar_s"] += end - start
                nc["flop"] += 8.0 * rows * cols * points
                nc["max_points"] = max(nc["max_points"], points)
                nc["max_rows"] = max(nc["max_rows"], rows)
                nc["calls"] += 1
                nc["points"] += points
            elif name == RUN_EXPERIMENT and extra is not None:
                cpu_s, walls, jobs = extra
                runs["cpu_s"] += cpu_s
                runs["jobs_wall_s"] += (end - start) * max(1, jobs)
                runs["trial_wall_s"].extend(walls)
        return {"per_name": per_name, "noise_correlation": nc, "runs": runs,
                "worker_top_s": worker_top_s}

    def write(self, fh, round_index: int) -> None:
        for name, thread, parent, start, end, self_s, _ in self.spans:
            fh.write(json.dumps([round_index, name, thread, parent, start, end, self_s]))
            fh.write("\n")


def _size(omega) -> int:
    shape = getattr(omega, "shape", None)
    return 1 if shape is None else int(math.prod(shape))


def merge(parts: list) -> dict:
    """Add up nested totals: numbers are summed, lists joined, max_* maximized."""
    out = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                out[key] = merge([out.get(key, {}), value])
            elif isinstance(value, list):
                out[key] = out.get(key, []) + value
            elif key.startswith("max_"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _quantile(values, q) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


# name -> unit, in the order the metrics are reported.
PER_LAYER = {
    "music.noise_correlation.calls": "count/op",
    "music.noise_correlation.points": "count/op",
    "music.noise_correlation.batch_s": "s/op",
    "music.noise_correlation.scalar_s": "s/op",
    "music.noise_correlation.gflop_per_s": "GFLOP/s",
    "music.noise_correlation.steering_mb": "MB",
    "music.music_estimate.calls": "count/op",
    "music.music_estimate.s": "s/op",
    "music.music_estimate.self_s": "s/op",
    "music.match_supports.s": "s/op",
    "torus.generate_clumps.s": "s/op",
    "fourier.vandermonde.s": "s/op",
    "music.load_measurements.s": "s/op",
    "music.ImagingGrid.save_csv.s": "s/op",
    "music.output_bytes": "B/op",
    "fourier.svd_split.calls": "count/op",
    "fourier.svd_split.s": "s/op",
    "fourier.hankel.s": "s/op",
    "fourier.spectral_norm.calls": "count/op",
    "fourier.spectral_norm.s": "s/op",
    "noise.sample_noise.s": "s/op",
    "harness.run_experiment.s": "s/op",
    "harness.save_records.s": "s/op",
    "harness.cell_self_s": "s/op",
    "harness.cpu_util": "ratio",
    "harness.trial_p50_ms": "ms",
    "harness.trial_p95_ms": "ms",
    "cli.main.s": "s/op",
    "cli.self_s": "s/op",
    "trace.unaccounted_pct": "%",
    "trace.overhead_pct": "%",
    "trace.stolen_pct": "%",
}


def per_layer_metrics(totals: dict, ops: int, counts: dict, wall_s: float,
                      stolen_pct: float, output_bytes: int, overhead_pct: float) -> dict:
    """Per-operation layer metrics from merged totals of the traced rounds.

    counts holds the noise_correlation totals and operation count of the
    first traced round of each process, whose inputs depend on the seed
    alone, so its per-operation call and point counts repeat exactly.
    wall_s is the summed wall time of the traced rounds' CLI calls, and
    stolen_pct the share of all calls' runnable CPU time that the hypervisor
    gave to other guests.
    """
    per_name = totals.get("per_name", {})
    nc = totals.get("noise_correlation", {})
    runs = totals.get("runs", {})

    def per_op(name, key="s"):
        return per_name.get(name, {}).get(key, 0.0) / ops

    nc_s = nc.get("batch_s", 0.0) + nc.get("scalar_s", 0.0)
    trials = runs.get("trial_wall_s", [])
    first_ops = max(1, counts.get("ops", 0))
    values = {
        "music.noise_correlation.calls": counts.get("calls", 0) / first_ops,
        "music.noise_correlation.points": counts.get("points", 0) / first_ops,
        "music.noise_correlation.batch_s": nc.get("batch_s", 0.0) / ops,
        "music.noise_correlation.scalar_s": nc.get("scalar_s", 0.0) / ops,
        "music.noise_correlation.gflop_per_s": nc.get("flop", 0.0) / nc_s / 1e9 if nc_s else 0.0,
        "music.noise_correlation.steering_mb":
            16.0 * nc.get("max_rows", 0) * nc.get("max_points", 0) / 1e6,
        "music.music_estimate.calls": per_op("music.music_estimate", "calls"),
        "music.music_estimate.s": per_op("music.music_estimate"),
        "music.music_estimate.self_s": per_op("music.music_estimate", "self_s"),
        "music.match_supports.s": per_op("music.match_supports"),
        "torus.generate_clumps.s": per_op("torus.generate_clumps"),
        "fourier.vandermonde.s": per_op("fourier.vandermonde"),
        "music.load_measurements.s": per_op("music.load_measurements"),
        "music.ImagingGrid.save_csv.s": per_op("music.ImagingGrid.save_csv"),
        "music.output_bytes": output_bytes / ops,
        "fourier.svd_split.calls": per_op("fourier.svd_split", "calls"),
        "fourier.svd_split.s": per_op("fourier.svd_split"),
        "fourier.hankel.s": per_op("fourier.hankel"),
        "fourier.spectral_norm.calls": per_op("fourier.spectral_norm", "calls"),
        "fourier.spectral_norm.s": per_op("fourier.spectral_norm"),
        "noise.sample_noise.s": per_op("noise.sample_noise"),
        "harness.run_experiment.s": per_op(RUN_EXPERIMENT),
        "harness.save_records.s": per_op("harness.save_records"),
        "harness.cell_self_s": max(0.0, sum(trials) - totals.get("worker_top_s", 0.0)) / ops
        if trials else 0.0,
        "harness.cpu_util": runs["cpu_s"] / runs["jobs_wall_s"] if runs.get("jobs_wall_s") else 0.0,
        "harness.trial_p50_ms": 1000.0 * _quantile(trials, 0.50),
        "harness.trial_p95_ms": 1000.0 * _quantile(trials, 0.95),
        "cli.main.s": per_op(CLI_MAIN),
        "cli.self_s": per_op(CLI_MAIN, "self_s"),
        "trace.unaccounted_pct":
            100.0 * (wall_s - per_name.get(CLI_MAIN, {}).get("s", 0.0)) / wall_s,
        "trace.overhead_pct": overhead_pct,
        "trace.stolen_pct": stolen_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
