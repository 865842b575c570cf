"""Command-line front end; every capability is a subcommand with a manifest.

Each run writes a manifest.json (parsed and resolved options, seed,
artifact version, output names) beside its outputs, so any result can be
reproduced from the directory alone. stdout carries human-readable
summaries only; data goes to files. Exit codes: 0 success, 1 input or
validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

import srmusic
from srmusic.fourier import sigma_min, vandermonde
from srmusic.harness import (
    AmplitudeModel,
    ExperimentConfig,
    run_experiment,
    save_records,
    synthesize,
)
from srmusic.music import (
    UnderdeterminedPeaksError,
    load_measurements,
    match_supports,
    music_estimate,
    save_measurements,
)
from srmusic.torus import (
    ClumpSpec,
    SupportSet,
    from_fields,
    generate_clumps,
    min_separation,
    super_resolution_factor,
)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Campaign subcommands: (name, config kinds it runs, help).
CAMPAIGN_COMMANDS = (
    ("bounds-sweep", ("sigma-min-sweep", "upper-bound-sweep"),
     "sigma_min sweep over alphas (lower or upper bound kind)"),
    ("perturbation", ("perturbation-check",),
     "Monte Carlo check of the Wedin perturbation bound"),
    ("concentration", ("concentration",),
     "Monte Carlo check of the Hankel noise-norm concentration"),
    ("phase-transition", ("phase-transition",),
     "MUSIC success probability over an (SRF, sigma) grid"),
)


@dataclass(frozen=True)
class SynthesisSpec:
    """A `music --synthesize` spec: a support and M, or a clump_spec; then the noise."""

    schema: int | None = None
    support: SupportSet | None = None
    clump_spec: ClumpSpec | None = None
    M: int | None = None
    amplitude_model: str | dict = "random-phase-unit"
    sigma: float = 0.0
    noise_kind: str = "complex-circular"


class CliUsageError(Exception):
    pass


def _jobs(text: str) -> int:
    """The --jobs value: a whole number of worker threads, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return jobs


def _usable_cpus() -> int:
    """CPUs this process may run on, where the platform says; else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise CliUsageError(message)


def _write_manifest(out_dir: Path, subcommand: str, args, outputs: list,
                    config: dict | None = None, **resolved) -> Path:
    """Record every parsed option, with the values the command resolved in place."""
    options = {key: value for key, value in vars(args).items()
               if key not in ("subcommand", "func")}
    options.update(resolved)
    manifest = {
        "artifact": "srmusic",
        "version": srmusic.__version__,
        "subcommand": subcommand,
        "options": options,
        "seed": options.get("seed"),
        "outputs": outputs,
        # Results can depend on the BLAS thread count in the last bits.
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }
    if config is not None:
        manifest["config"] = config
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _cmd_gen_support(args) -> int:
    spec = from_fields(ClumpSpec, json.loads(Path(args.spec).read_text()))
    support, partition = generate_clumps(spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "support.json").write_text(json.dumps(asdict(support), indent=2) + "\n")
    (out / "partition.json").write_text(json.dumps(asdict(partition), indent=2) + "\n")
    _write_manifest(out, "gen-support", args, ["support.json", "partition.json"],
                    config=asdict(spec))
    delta = min_separation(support) if support.size >= 2 else None
    print(f"generated {support.size} points in {partition.num_clumps} clumps")
    if delta is not None:
        srf = super_resolution_factor(spec.M, delta)
        print(f"min separation {delta:.6g}, SRF {srf:.3g}")
    print(f"wrote {out / 'support.json'}")
    return 0


def _cmd_sigma_min(args) -> int:
    support = from_fields(SupportSet, json.loads(Path(args.support).read_text()))
    value = sigma_min(vandermonde(support, args.M))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sigma_min.json").write_text(
        json.dumps({"sigma_min": value, "M": args.M, "S": support.size}, indent=2) + "\n"
    )
    _write_manifest(out, "sigma-min", args, ["sigma_min.json"])
    print(f"sigma_min = {value!r} (M = {args.M}, S = {support.size})")
    return 0


def _synthesize(args) -> tuple[np.ndarray, SupportSet]:
    """Build measurements from a synthesis spec file; returns (y, truth)."""
    spec = from_fields(SynthesisSpec, json.loads(Path(args.synthesize).read_text()),
                       name="synthesis spec")
    rng = np.random.default_rng(args.seed)
    for key in ("support", "M"):
        if spec.clump_spec is not None and getattr(spec, key) is not None:
            raise ValueError(f"synthesis spec sets both 'clump_spec' and '{key}'")
    if spec.clump_spec is not None:
        support, _ = generate_clumps(spec.clump_spec, seed=rng)
        M = spec.clump_spec.M
    elif spec.support is not None and spec.M is not None:
        support, M = spec.support, spec.M
    else:
        raise ValueError("synthesis spec needs either 'clump_spec' or 'support' and 'M'")
    amp = AmplitudeModel.from_dict(spec.amplitude_model)
    sigma = args.sigma if args.sigma is not None else spec.sigma
    _, y0, eta = synthesize(support, M, sigma, rng, amp, spec.noise_kind)
    return y0 + eta, support


def _cmd_music(args) -> int:
    if (args.input is None) == (args.synthesize is None):
        raise ValueError("provide exactly one of --input or --synthesize")
    truth = None
    if args.input is not None:
        y = load_measurements(args.input)
        if args.S is None:
            raise ValueError("--S is required with --input")
        S = args.S
    else:
        y, truth = _synthesize(args)
        S = args.S if args.S is not None else truth.size
    M = len(y) - 1
    L = args.L if args.L is not None else M // 2
    estimate = music_estimate(y, S=S, L=L, N=args.grid, refine=args.refine)
    N = estimate.grid.resolution

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    estimate.grid.save_csv(out / "imaging_grid.csv")
    estimate.save_json(out / "recovered.json")
    outputs = ["imaging_grid.csv", "recovered.json"]
    if args.synthesize is not None:
        save_measurements(y, out / "measurements.csv")
        outputs.append("measurements.csv")
    _write_manifest(out, "music", args, outputs, S=S, L=L, grid=N)
    print(f"recovered {S} sources (L = {L}, grid = {N}, refine = {args.refine}):")
    for w, j in zip(estimate.recovered.points, estimate.peak_values):
        print(f"  omega = {w:.8f}  J = {j:.4g}")
    if truth is not None:
        err = match_supports(truth, estimate.recovered)
        print(f"matched error vs synthesized truth: {err:.3e}")
    print(f"wrote {out / 'recovered.json'}")
    return 0


def _run_campaign(args, expected_kinds: tuple[str, ...]) -> int:
    config = ExperimentConfig.load(args.config)
    if config.kind not in expected_kinds:
        raise ValueError(
            f"config kind {config.kind!r} not usable here (expected {expected_kinds})"
        )
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    jobs = args.jobs or _usable_cpus()
    records = run_experiment(config, jobs=jobs)
    paths = save_records(records, config, args.out)
    config.save(paths["dir"] / "config.json")
    _write_manifest(paths["dir"], config.kind, args,
                    [paths["csv"].name, paths["summary"].name, "config.json"],
                    config=config.to_dict(), seed=config.base_seed, jobs=jobs)
    failures = [r for r in records if r.error]
    print(f"{config.kind}: {len(records)} records -> {paths['csv']}")
    if failures:
        print(f"  {len(failures)} cells recorded errors (see CSV error column)")
    _print_headlines(json.loads(paths["summary"].read_text()))
    return 0


def _print_headlines(summary: dict) -> None:
    """Every scalar summary key, then each concentration report and SRF row."""
    for key, value in summary.items():
        if not isinstance(value, (list, dict)):
            print(f"  {key} = {value}")
    for rep in summary.get("reports", ()):
        lo, hi = rep["tail_wilson"]
        print(f"  {rep['kind']} sigma {rep['sigma']}: "
              f"mean ||H(eta)|| = {rep['empirical_mean_norm']:.3f} "
              f"(bound {rep['expectation_bound']:.3f}); "
              f"P(norm >= {rep['tail_t']:.2f}) = {rep['empirical_tail_prob']:.4f} "
              f"(bound {rep['tail_bound']:.4f}, Wilson {lo:.4f}..{hi:.4f})")
    if "table" in summary:
        tab = summary["table"]
        for srf, level, row in zip(tab["srf"], tab["level90"], tab["success_rate"]):
            print(f"  SRF {srf:4.2f}: level90 = {level}  rates = {np.round(row, 2)}")
        defined = [(srf, level) for srf, level in zip(tab["srf"], tab["level90"]) if level]
        if len(defined) >= 2:
            log_srf, log_level = np.log(defined).T
            slope = np.polyfit(log_srf, log_level, 1)[0]
            print(f"  log-log slope of level90 vs SRF: {slope:.3f}")


@functools.cache
def build_parser() -> _Parser:
    """The argument tree, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="srmusic", description=__doc__)
    parser.add_argument("--version", action="version", version=srmusic.__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-support", help="draw a clumped support set from a spec")
    p.add_argument("--spec", required=True, help="ClumpSpec JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/gen-support")
    p.set_defaults(func=_cmd_gen_support)

    p = sub.add_parser("sigma-min", help="exact smallest singular value of the Fourier matrix")
    p.add_argument("--support", required=True, help="support JSON file with a 'points' list")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--out", default="runs/sigma-min")
    p.set_defaults(func=_cmd_sigma_min)

    p = sub.add_parser("music", help="run MUSIC on measurements from a file or synthesized")
    p.add_argument("--input", help="measurements file (CSV or JSON rows of index,re,im)")
    p.add_argument("--synthesize", help="synthesis spec JSON (support or clump_spec)")
    p.add_argument("--S", type=int, help="number of sources (required with --input)")
    p.add_argument("--L", type=int, help="Hankel split (default floor(M/2))")
    p.add_argument("--grid", type=int, help="imaging grid resolution (default 16*M)")
    p.add_argument("--sigma", type=float, help="noise level override when synthesizing")
    p.add_argument("--refine", action="store_true", help="Newton peak polish")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/music")
    p.set_defaults(func=_cmd_music)

    for name, kinds, helptext in CAMPAIGN_COMMANDS:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="ExperimentConfig JSON (or a manifest)")
        p.add_argument("--seed", type=int, default=None, help="override the config base seed")
        p.add_argument("--jobs", type=_jobs,
                       help="worker threads for phase-transition and perturbation-check "
                            "(default: usable CPUs); other kinds run in one thread")
        p.add_argument("--out", default="runs")
        p.set_defaults(func=lambda a, kinds=kinds: _run_campaign(a, kinds))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, UnderdeterminedPeaksError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
