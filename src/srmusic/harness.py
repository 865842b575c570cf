"""Config-driven Monte Carlo campaigns over the conditioning and MUSIC pipelines.

Five campaign kinds: sigma-min sweeps over the spacing factor, upper-bound
witness sweeps, Wedin perturbation checks, Hankel noise concentration, and
full MUSIC phase transitions over an (SRF, sigma) grid. Every record's RNG
stream derives from (base_seed, cell index), so campaigns are reproducible
and parallel safe; CSV output contains no timing so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from srmusic.bounds import (
    ClumpBoundTerms,
    fit_clump_constants,
    lower_bound_value,
    upper_bound_witness,
    write_sweep_csv,
)
from srmusic.fourier import hankel, sigma_min, spectral_norm, svd_split, vandermonde
from srmusic.music import (
    correlation_sup_diff,
    match_supports,
    music_estimate,
    wedin_bound,
)
from srmusic.noise import (
    NOISE_KINDS,
    ConcentrationReport,
    NoiseSpec,
    concentration_report,
    draw_noise,
    sample_noise,
)
from srmusic.torus import ClumpSpec, generate_clumps

EXPERIMENT_KINDS = (
    "sigma-min-sweep",
    "upper-bound-sweep",
    "perturbation-check",
    "concentration",
    "phase-transition",
)

AMPLITUDE_KINDS = ("unit", "random-phase-unit", "random-modulus")

CONFIG_SCHEMA = 1


@dataclass(frozen=True)
class AmplitudeModel:
    """How source amplitudes are drawn for synthetic measurements."""

    kind: str = "random-phase-unit"
    modulus_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in AMPLITUDE_KINDS:
            raise ValueError(f"amplitude kind must be one of {AMPLITUDE_KINDS}")
        if self.kind == "random-modulus":
            if self.modulus_range is None:
                raise ValueError("random-modulus needs a (lo, hi) modulus range")
            lo, hi = self.modulus_range
            if not (0 < lo <= hi):
                raise ValueError(f"bad modulus range ({lo}, {hi})")
            object.__setattr__(self, "modulus_range", (float(lo), float(hi)))

    def sample(self, rng: np.random.Generator, S: int) -> np.ndarray:
        if self.kind == "unit":
            return np.ones(S, dtype=complex)
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, S))
        if self.kind == "random-phase-unit":
            return phases
        lo, hi = self.modulus_range
        return rng.uniform(lo, hi, S) * phases

    @property
    def nominal_x_min(self) -> float:
        """Smallest modulus the model can produce."""
        return 1.0 if self.modulus_range is None else self.modulus_range[0]

    def to_dict(self):
        if self.kind == "random-modulus":
            return {"kind": self.kind, "range": list(self.modulus_range)}
        return self.kind

    @classmethod
    def from_dict(cls, d) -> "AmplitudeModel":
        if isinstance(d, str):
            return cls(kind=d)
        return cls(kind=d["kind"], modulus_range=tuple(d["range"]))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one campaign; hashable to a stable config id."""

    kind: str
    base_seed: int = 0
    clump_spec: ClumpSpec | None = None
    alphas: tuple[float, ...] = ()
    sigmas: tuple[float, ...] = ()
    trials_per_cell: int = 1
    M: int | None = None
    L: int | None = None
    S: int | None = None
    N: int | None = None
    nu: float = 2.0
    epsilon: float = 1.0
    amplitude_model: AmplitudeModel = field(default_factory=AmplitudeModel)
    noise_kind: str = "complex-circular"

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        if not all(s >= 0 for s in self.sigmas):
            raise ValueError(f"sigmas must be nonnegative, got {list(self.sigmas)}")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}")
        missing = []
        if self.kind in ("sigma-min-sweep", "upper-bound-sweep", "phase-transition",
                         "perturbation-check"):
            if self.clump_spec is None:
                missing.append("clump_spec")
        if self.kind in ("sigma-min-sweep", "upper-bound-sweep", "phase-transition"):
            if not self.alphas:
                missing.append("alphas")
        if self.kind in ("perturbation-check", "concentration", "phase-transition"):
            if not self.sigmas:
                missing.append("sigmas")
        if self.kind == "concentration":
            if self.M is None:
                missing.append("M")
            if self.L is None:
                missing.append("L")
        if self.kind == "upper-bound-sweep" and self.S is None:
            missing.append("S")
        if missing:
            raise ValueError(f"{self.kind} config is missing: {', '.join(missing)}")

    @property
    def resolved_m(self) -> int:
        return self.M if self.M is not None else self.clump_spec.M

    @property
    def resolved_l(self) -> int:
        return self.L if self.L is not None else self.resolved_m // 2

    @property
    def resolved_n(self) -> int:
        return self.N if self.N is not None else 16 * self.resolved_m

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA,
            "kind": self.kind,
            "base_seed": self.base_seed,
            "clump_spec": None if self.clump_spec is None else self.clump_spec.to_dict(),
            "alphas": list(self.alphas),
            "sigmas": list(self.sigmas),
            "trials_per_cell": self.trials_per_cell,
            "M": self.M,
            "L": self.L,
            "S": self.S,
            "N": self.N,
            "nu": self.nu,
            "epsilon": self.epsilon,
            "amplitude_model": self.amplitude_model.to_dict(),
            "noise_kind": self.noise_kind,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        schema = d.get("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ValueError(f"unsupported config schema {schema}")
        return cls(
            kind=d["kind"],
            base_seed=d.get("base_seed", 0),
            clump_spec=None
            if d.get("clump_spec") is None
            else ClumpSpec.from_dict(d["clump_spec"]),
            alphas=tuple(d.get("alphas", ())),
            sigmas=tuple(d.get("sigmas", ())),
            trials_per_cell=d.get("trials_per_cell", 1),
            M=d.get("M"),
            L=d.get("L"),
            S=d.get("S"),
            N=d.get("N"),
            nu=d.get("nu", 2.0),
            epsilon=d.get("epsilon", 1.0),
            amplitude_model=AmplitudeModel.from_dict(
                d.get("amplitude_model", "random-phase-unit")
            ),
            noise_kind=d.get("noise_kind", "complex-circular"),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        d = json.loads(Path(path).read_text())
        if "config" in d and "kind" not in d:
            d = d["config"]  # a manifest embeds the config it ran
        return cls.from_dict(d)


@dataclass
class ExperimentRecord:
    """One trial's coordinates, seed, and outputs; fields unused by a kind stay None."""

    kind: str
    config_hash: str
    alpha: float | None
    sigma: float | None
    trial: int
    seed: str
    srf: float | None = None
    sigma_min_exact: float | None = None
    lower_bound: float | None = None
    upper_bound: float | None = None
    lambda_max: int | None = None
    num_clumps: int | None = None
    S: int | None = None
    M: int | None = None
    hankel_noise_norm: float | None = None
    sigma_min_L: float | None = None
    sigma_min_ML: float | None = None
    x_min: float | None = None
    sup_diff: float | None = None
    wedin_bound: float | None = None
    precondition_ok: bool | None = None
    hankel_norm: float | None = None
    matched_error: float | None = None
    success: bool | None = None
    error: str = ""
    wall_time: float = 0.0


def _cell_seed(base_seed: int, ia: int, isig: int, trial: int) -> tuple:
    return (base_seed, ia, isig, trial)


def _seed_str(seed: tuple) -> str:
    return "-".join(str(v) for v in seed)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """Execute a campaign; returns one record per trial, in grid order.

    Per-cell failures are recorded in the cell's record (error field,
    success False) rather than aborting the campaign.
    """
    runner = {
        "sigma-min-sweep": _run_sigma_min_sweep,
        "upper-bound-sweep": _run_upper_bound_sweep,
        "perturbation-check": _run_perturbation_check,
        "concentration": _run_concentration,
        "phase-transition": _run_phase_transition,
    }[config.kind]
    return runner(config, max(1, jobs))


def _map_cells(fn: Callable, cells: list, jobs: int) -> list:
    if jobs == 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, cells))


def _fit_terms_for_spec(config: ExperimentConfig) -> ClumpBoundTerms:
    """Calibrate one lower-bound constant per clump of the config's spec.

    Constants depend on (clump size, M) only, so they are fitted once per
    distinct size from single-clump probes over the config's alpha range.
    """
    spec = config.clump_spec
    by_size: dict[int, float] = {}
    for lam in set(spec.clump_sizes):
        probe = ClumpSpec(
            num_clumps=1,
            clump_sizes=(lam,),
            alpha=spec.alpha,
            beta=spec.beta,
            M=spec.M,
            anchors=(0.0,),
        )
        fitted = fit_clump_constants(probe, config.alphas, allow_small_m=True)
        by_size[lam] = fitted.constants[0]
    return ClumpBoundTerms(
        constants=tuple(by_size[lam] for lam in spec.clump_sizes),
        clump_sizes=spec.clump_sizes,
        alpha=spec.alpha,
        M=spec.M,
    )


def _run_sigma_min_sweep(config: ExperimentConfig, jobs: int) -> list[ExperimentRecord]:
    spec = config.clump_spec
    chash = config.config_hash()
    terms = _fit_terms_for_spec(config)

    def cell(coords):
        ia, trial = coords
        alpha = config.alphas[ia]
        seed = _cell_seed(config.base_seed, ia, 0, trial)
        t0 = time.perf_counter()
        support, partition = generate_clumps(replace(spec, alpha=alpha), seed=seed)
        sm = sigma_min(vandermonde(support, spec.M))
        lb = lower_bound_value(replace(terms, alpha=alpha))
        return ExperimentRecord(
            kind=config.kind,
            config_hash=chash,
            alpha=alpha,
            sigma=None,
            trial=trial,
            seed=_seed_str(seed),
            srf=1.0 / alpha,
            sigma_min_exact=sm,
            lower_bound=lb,
            lambda_max=partition.lambda_max,
            num_clumps=partition.num_clumps,
            S=support.size,
            M=spec.M,
            wall_time=time.perf_counter() - t0,
        )

    cells = [(ia, t) for ia in range(len(config.alphas))
             for t in range(config.trials_per_cell)]
    return _map_cells(cell, cells, jobs)


def _run_upper_bound_sweep(config: ExperimentConfig, jobs: int) -> list[ExperimentRecord]:
    spec = config.clump_spec
    if spec.num_clumps != 1:
        raise ValueError("upper-bound-sweep uses a single-clump spec for the cluster")
    lam = spec.clump_sizes[0]
    chash = config.config_hash()

    def cell(coords):
        ia, trial = coords
        alpha = config.alphas[ia]
        seed = _cell_seed(config.base_seed, ia, 0, trial)
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        omega0 = float(rng.uniform(0.0, 1.0))
        support, sm = upper_bound_witness(
            lam=lam, alpha=alpha, M=spec.M, S=config.S, omega0=omega0, filler_seed=rng
        )
        return ExperimentRecord(
            kind=config.kind,
            config_hash=chash,
            alpha=alpha,
            sigma=None,
            trial=trial,
            seed=_seed_str(seed),
            srf=1.0 / alpha,
            sigma_min_exact=sm,
            lambda_max=lam,
            num_clumps=None,
            S=config.S,
            M=spec.M,
            wall_time=time.perf_counter() - t0,
        )

    cells = [(ia, t) for ia in range(len(config.alphas))
             for t in range(config.trials_per_cell)]
    records = _map_cells(cell, cells, jobs)
    # One ceiling constant per sweep: smallest C with sigma_min <= C alpha^(lam-1).
    c_lam = max(r.sigma_min_exact / r.alpha ** (lam - 1) for r in records)
    for r in records:
        r.upper_bound = c_lam * r.alpha ** (lam - 1)
    return records


def _run_perturbation_check(config: ExperimentConfig, jobs: int) -> list[ExperimentRecord]:
    spec = config.clump_spec
    M = config.resolved_m
    L = config.resolved_l
    N = config.resolved_n
    S = spec.total_points
    chash = config.config_hash()

    def cell(coords):
        isig, trial = coords
        sigma = config.sigmas[isig]
        seed = _cell_seed(config.base_seed, 0, isig, trial)
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        record = ExperimentRecord(
            kind=config.kind,
            config_hash=chash,
            alpha=spec.alpha,
            sigma=sigma,
            trial=trial,
            seed=_seed_str(seed),
            S=S,
            M=M,
        )
        try:
            support, _ = generate_clumps(spec, seed=rng)
            x = config.amplitude_model.sample(rng, S)
            y0 = vandermonde(support, M).entries @ x
            eta = draw_noise(rng, sigma, config.noise_kind, M)
            u_clean = svd_split(hankel(y0, L), S).signal_space
            u_noisy = svd_split(hankel(y0 + eta, L), S).signal_space
            sup = correlation_sup_diff(u_clean, u_noisy, N)
            report = wedin_bound(
                hankel_noise_norm=spectral_norm(hankel(eta, L)),
                x_min=float(np.min(np.abs(x))),
                sigma_min_L=sigma_min(vandermonde(support, L)),
                sigma_min_ML=sigma_min(vandermonde(support, M - L)),
                sup_norm_diff=sup,
            )
            record.hankel_noise_norm = report.hankel_noise_norm
            record.sigma_min_L = report.sigma_min_L
            record.sigma_min_ML = report.sigma_min_ML
            record.x_min = report.x_min
            record.sup_diff = sup
            record.wedin_bound = report.wedin_bound
            record.precondition_ok = report.precondition_ok
            record.success = (not report.precondition_ok) or sup <= report.wedin_bound
        except Exception as exc:  # per-cell failures stay in the record
            record.error = f"{type(exc).__name__}: {exc}"
            record.success = False
        record.wall_time = time.perf_counter() - t0
        return record

    cells = [(isig, t) for isig in range(len(config.sigmas))
             for t in range(config.trials_per_cell)]
    return _map_cells(cell, cells, jobs)


def _run_concentration(config: ExperimentConfig, jobs: int) -> list[ExperimentRecord]:
    M, L = config.M, config.L
    chash = config.config_hash()

    def cell(coords):
        isig, trial = coords
        sigma = config.sigmas[isig]
        seed = _cell_seed(config.base_seed, 0, isig, trial)
        t0 = time.perf_counter()
        eta = sample_noise(NoiseSpec(sigma=sigma, kind=config.noise_kind, seed=seed), M)
        norm = spectral_norm(hankel(eta, L))
        return ExperimentRecord(
            kind=config.kind,
            config_hash=chash,
            alpha=None,
            sigma=sigma,
            trial=trial,
            seed=_seed_str(seed),
            hankel_norm=norm,
            M=M,
            wall_time=time.perf_counter() - t0,
        )

    cells = [(isig, t) for isig in range(len(config.sigmas))
             for t in range(config.trials_per_cell)]
    return _map_cells(cell, cells, jobs)


def _run_phase_transition(config: ExperimentConfig, jobs: int) -> list[ExperimentRecord]:
    spec = config.clump_spec
    M = config.resolved_m
    L = config.resolved_l
    N = config.resolved_n
    S = spec.total_points
    chash = config.config_hash()

    def cell(coords):
        ia, isig, trial = coords
        alpha = config.alphas[ia]
        sigma = config.sigmas[isig]
        seed = _cell_seed(config.base_seed, ia, isig, trial)
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        record = ExperimentRecord(
            kind=config.kind,
            config_hash=chash,
            alpha=alpha,
            sigma=sigma,
            trial=trial,
            seed=_seed_str(seed),
            srf=1.0 / alpha,
            S=S,
            M=M,
        )
        try:
            support, _ = generate_clumps(replace(spec, alpha=alpha), seed=rng)
            x = config.amplitude_model.sample(rng, S)
            y = vandermonde(support, M).entries @ x
            y = y + draw_noise(rng, sigma, config.noise_kind, M)
            estimate = music_estimate(y, S=S, L=L, N=N, refine=True)
            err = match_supports(support, estimate.recovered)
            record.matched_error = err
            record.success = bool(err < alpha / (2.0 * M))
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            record.success = False
        record.wall_time = time.perf_counter() - t0
        return record

    cells = [
        (ia, isig, t)
        for ia in range(len(config.alphas))
        for isig in range(len(config.sigmas))
        for t in range(config.trials_per_cell)
    ]
    return _map_cells(cell, cells, jobs)


@dataclass(frozen=True)
class PhaseTransitionSummary:
    """Success frequencies over the (SRF, sigma/x_min) grid.

    level90 holds, per SRF, the largest tested sigma/x_min whose success
    rate is at least 0.9 (None when even the smallest noise fails).
    """

    srf: tuple[float, ...]
    sigma_over_xmin: tuple[float, ...]
    success_rate: tuple[tuple[float, ...], ...]
    trials_per_cell: int
    level90: tuple[float | None, ...]
    success_rule: str = "match_supports < alpha/(2M)"

    def to_dict(self) -> dict:
        return {
            "srf": list(self.srf),
            "sigma_over_xmin": list(self.sigma_over_xmin),
            "success_rate": [list(row) for row in self.success_rate],
            "trials_per_cell": self.trials_per_cell,
            "level90": list(self.level90),
            "success_rule": self.success_rule,
        }


def phase_transition_summary(
    records: Sequence[ExperimentRecord], nominal_x_min: float = 1.0
) -> PhaseTransitionSummary:
    """Aggregate phase-transition records into the success-probability table."""
    recs = [r for r in records if r.kind == "phase-transition"]
    if not recs:
        raise ValueError("no phase-transition records to summarize")
    alphas = sorted({r.alpha for r in recs})
    sigmas = sorted({r.sigma for r in recs})
    srfs = [1.0 / a for a in alphas]
    counts = {(a, s): [0, 0] for a in alphas for s in sigmas}
    for r in recs:
        entry = counts[(r.alpha, r.sigma)]
        entry[0] += 1
        entry[1] += 1 if r.success else 0
    trials = {entry[0] for entry in counts.values()}
    rates = []
    for a in alphas:
        row = []
        for s in sigmas:
            total, good = counts[(a, s)]
            row.append(good / total)
        rates.append(tuple(row))
    levels: list[float | None] = []
    for row in rates:
        ok = [s for s, rate in zip(sigmas, row) if rate >= 0.9]
        levels.append(max(ok) / nominal_x_min if ok else None)
    # Sort columns by decreasing alpha = increasing SRF for readability.
    order = np.argsort(srfs)
    return PhaseTransitionSummary(
        srf=tuple(srfs[i] for i in order),
        sigma_over_xmin=tuple(s / nominal_x_min for s in sigmas),
        success_rate=tuple(rates[i] for i in order),
        trials_per_cell=max(trials),
        level90=tuple(levels[i] for i in order),
    )


def concentration_summary(
    records: Sequence[ExperimentRecord], config: ExperimentConfig
) -> list[ConcentrationReport]:
    """Per-sigma concentration reports from recorded Hankel noise norms."""
    return [
        concentration_report(
            np.array([r.hankel_norm for r in records if r.sigma == sigma]),
            sigma, config.M, config.L, config.noise_kind,
        )
        for sigma in config.sigmas
    ]


_PERTURBATION_COLUMNS = (
    "alpha", "sigma", "trial", "seed", "hankel_noise_norm", "sigma_min_L",
    "sigma_min_ML", "x_min", "sup_diff", "wedin_bound", "precondition_ok",
    "success", "error",
)
_CONCENTRATION_COLUMNS = ("sigma", "trial", "seed", "hankel_norm")
_PHASE_COLUMNS = (
    "alpha", "srf", "sigma", "trial", "seed", "matched_error", "success", "error",
)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def records_to_csv(records: Sequence[ExperimentRecord], kind: str, path) -> None:
    """Write trial records for one kind; wall time is deliberately excluded
    so identical reruns produce byte-identical files."""
    if kind in ("sigma-min-sweep", "upper-bound-sweep"):
        rows = [
            {
                "alpha": r.alpha,
                "M": r.M,
                "S": r.S,
                "lambda_max": r.lambda_max,
                "A": r.num_clumps,
                "sigma_min_exact": r.sigma_min_exact,
                "lower_bound": r.lower_bound,
                "upper_bound": r.upper_bound,
                "seed": r.seed,
            }
            for r in records
        ]
        write_sweep_csv(rows, path)
        return
    columns = {
        "perturbation-check": _PERTURBATION_COLUMNS,
        "concentration": _CONCENTRATION_COLUMNS,
        "phase-transition": _PHASE_COLUMNS,
    }[kind]
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in records:
            writer.writerow([_fmt(getattr(r, col)) for col in columns])


def save_records(
    records: Sequence[ExperimentRecord],
    config: ExperimentConfig,
    out_dir,
) -> dict:
    """Persist a campaign under <out_dir>/<config-hash>/: CSV plus JSON summary.

    Returns the written paths keyed by role.
    """
    chash = config.config_hash()
    dest = Path(out_dir) / chash
    dest.mkdir(parents=True, exist_ok=True)
    csv_path = dest / f"{config.kind}.csv"
    records_to_csv(records, config.kind, csv_path)
    summary = summarize(records, config)
    summary_path = dest / f"{config.kind}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return {"csv": csv_path, "summary": summary_path, "dir": dest}


def summarize(records: Sequence[ExperimentRecord], config: ExperimentConfig) -> dict:
    """Kind-specific roll-up of a record list, JSON ready."""
    base = {
        "kind": config.kind,
        "config_hash": config.config_hash(),
        "records": len(records),
    }
    if config.kind in ("sigma-min-sweep", "upper-bound-sweep"):
        per_alpha: dict[float, list[float]] = {}
        for r in records:
            per_alpha.setdefault(r.alpha, []).append(r.sigma_min_exact)
        pairs = sorted(
            ((a, float(np.exp(np.mean(np.log(v))))) for a, v in per_alpha.items()),
            key=lambda t: -t[0],
        )
        base["per_alpha_geomean_sigma_min"] = [[a, s] for a, s in pairs]
        if len(pairs) >= 4:
            from srmusic.bounds import fit_scaling_exponent

            fit = fit_scaling_exponent(pairs)
            base["slope"] = fit.slope
            base["r_squared"] = fit.r_squared
            base["reliable"] = fit.reliable
        lam = max(r.lambda_max for r in records)
        base["lambda_max"] = lam
        base["expected_slope"] = lam - 1
        if config.kind == "upper-bound-sweep":
            base["fitted_ceiling_constant"] = max(
                r.sigma_min_exact / r.alpha ** (lam - 1) for r in records
            )
    elif config.kind == "perturbation-check":
        ok = [r for r in records if r.precondition_ok]
        viol = [r for r in ok if r.sup_diff > r.wedin_bound]
        base["precondition_ok"] = len(ok)
        base["violations"] = len(viol)
        if ok:
            base["max_ratio_sup_to_bound"] = max(
                r.sup_diff / r.wedin_bound for r in ok
            )
    elif config.kind == "concentration":
        base["reports"] = [rep.to_dict() for rep in concentration_summary(records, config)]
    elif config.kind == "phase-transition":
        summary = phase_transition_summary(
            records, nominal_x_min=config.amplitude_model.nominal_x_min
        )
        base["table"] = summary.to_dict()
    return base
