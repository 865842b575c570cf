"""Config-driven Monte Carlo campaigns over the conditioning and MUSIC pipelines.

Five campaign kinds: sigma-min sweeps over the spacing factor, upper-bound
witness sweeps, Wedin perturbation checks, Hankel noise concentration, and
full MUSIC phase transitions over an (SRF, sigma) grid. CAMPAIGN_KINDS
describes each kind in one entry: the config fields it requires (alphas and
sigmas among them index its cells), its trial, its CSV columns and summary.
rate_table counts any per-trial success rule over the (SRF, sigma) cells.
Every record's RNG stream derives from (base_seed, cell index), so
campaigns are reproducible and parallel safe; CSV output contains no
timing so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from srmusic.bounds import (
    fit_clump_constants,
    fit_scaling_exponent,
    lower_bound_value,
    upper_bound_witness,
)
from srmusic.fourier import hankel, sigma_min, spectral_norm, svd_split, vandermonde
from srmusic.music import (
    DEFAULT_GRID_FACTOR,
    check_grid,
    correlation_sup_diff,
    match_supports,
    music_estimate,
    wedin_bound,
)
from srmusic.noise import (
    NOISE_KINDS,
    TAIL_FACTOR,
    ConcentrationReport,
    NoiseSpec,
    concentration_report,
    draw_noise,
    sample_noise,
)
from srmusic.torus import ClumpSpec, SupportSet, from_fields, generate_clumps

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
            if not (0 < lo <= hi < np.inf):
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
        if not (isinstance(d, dict) and set(d) == {"kind", "range"}):
            raise ValueError(f'amplitude_model must be a kind or {{"kind", "range"}}, got {d!r}')
        return from_fields(cls, {"kind": d["kind"], "modulus_range": d["range"]})


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
        if self.kind not in CAMPAIGN_KINDS:
            raise ValueError(f"kind must be one of {tuple(CAMPAIGN_KINDS)}, got {self.kind!r}")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        if not all(0 <= s < np.inf for s in self.sigmas):
            raise ValueError(f"sigmas must be nonnegative and finite, got {list(self.sigmas)}")
        for name in ("alphas", "sigmas"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} repeats the value {value}")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}")
        kind = CAMPAIGN_KINDS[self.kind]
        missing = [name for name in kind.requires if getattr(self, name) in (None, ())]
        if missing:
            raise ValueError(f"{self.kind} config is missing: {', '.join(missing)}")
        if (self.M is not None and self.clump_spec is not None
                and self.M != self.clump_spec.M):
            raise ValueError(f"M = {self.M} disagrees with clump_spec M = {self.clump_spec.M}")
        if self.N is not None and self.N < 1:
            raise ValueError(f"N must be at least 1, got {self.N}")
        if self.N is not None and not kind.subspace:
            raise ValueError(f"{self.kind} has no imaging grid, so N must be null, got {self.N}")
        if self.L is not None and not (kind.subspace or "L" in kind.requires):
            raise ValueError(f"{self.kind} has no Hankel matrix, so L must be null, got {self.L}")
        if self.L is not None and not 0 <= self.L <= self.resolved_m:
            raise ValueError(f"L = {self.L} outside [0, M] = [0, {self.resolved_m}]")
        if self.clump_spec is not None:
            for alpha in self.alphas:
                try:
                    replace(self.clump_spec, alpha=alpha)
                except ValueError as exc:
                    raise ValueError(f"alphas entry {alpha}: {exc}") from None
        if kind.subspace:
            S, L, M = self.clump_spec.total_points, self.resolved_l, self.resolved_m
            if not S <= L <= M + 1 - S:
                raise ValueError(f"{self.kind} needs S <= L <= M+1-S, got S={S}, L={L}, M={M}")
        if kind.check is not None:
            kind.check(self)

    @property
    def resolved_m(self) -> int:
        return self.M if self.M is not None else self.clump_spec.M

    @property
    def resolved_l(self) -> int:
        return self.L if self.L is not None else self.resolved_m // 2

    @property
    def resolved_n(self) -> int:
        return self.N if self.N is not None else DEFAULT_GRID_FACTOR * self.resolved_m

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {"schema": CONFIG_SCHEMA, **asdict(self),
                "amplitude_model": self.amplitude_model.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"ExperimentConfig must be a JSON object, got {d!r}")
        d = dict(d)
        schema = d.pop("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ValueError(f"unsupported config schema {schema}")
        if "amplitude_model" in d:
            d["amplitude_model"] = AmplitudeModel.from_dict(d["amplitude_model"])
        return from_fields(cls, d)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        d = json.loads(Path(path).read_text())
        if isinstance(d, dict) and "config" in d and "kind" not in d:
            d = d["config"]  # a manifest embeds the config it ran
        return cls.from_dict(d)


@dataclass
class ExperimentRecord:
    """One trial: its place in the campaign, its seed, and its kind's outputs.

    alpha is the swept spacing factor, or the clump spec's when alphas do
    not index the kind's cells. values maps the kind's CSV column names to
    this trial's outputs; a column neither here nor a record attribute is
    written blank.
    """

    alpha: float | None
    sigma: float | None
    trial: int
    seed: str
    values: dict = field(default_factory=dict)
    error: str = ""
    wall_time: float = 0.0

    @property
    def srf(self) -> float | None:
        return None if self.alpha is None else 1.0 / self.alpha


@dataclass(frozen=True)
class CampaignKind:
    """Everything one campaign kind adds to the generic runner, writer and summary.

    requires: config fields that must be set; those of "alphas" and
    "sigmas" among them index its cells. check: the kind's own config
    checks, raising ValueError. prepare: per-campaign setup, config ->
    trial(alpha, sigma, seed) -> values. finish: fills values that depend
    on every record. columns: its CSV columns; with "error" among them a
    failing trial is recorded with success False instead of aborting the
    campaign. summary: (records, config) -> the kind's summary keys.
    subspace: its trials split a Hankel matrix at rank S and read R on the
    N-point grid, so the config must have S <= L <= M+1-S, and its cells
    run on the run's job threads, as dense LAPACK splits release the GIL;
    the other kinds reject N, and L unless they require it, and run in one
    thread, as their many short numpy calls ran slower on two.
    """

    requires: tuple[str, ...]
    prepare: Callable[[ExperimentConfig], Callable[..., dict]]
    columns: tuple[str, ...]
    summary: Callable[[Sequence[ExperimentRecord], ExperimentConfig], dict]
    check: Callable[[ExperimentConfig], None] | None = None
    finish: Callable[[list[ExperimentRecord]], None] | None = None
    subspace: bool = False


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """Execute a campaign; returns one record per trial, in grid order.

    Cells run over (alpha index, sigma index, trial), outermost first; an
    index is 0 when the kind does not require that axis's field. Cell
    (ia, isig, t) draws from the seed (base_seed, ia, isig, t). jobs threads
    run the cells of phase-transition and perturbation-check (the subspace
    kinds); the other kinds run in the calling thread.
    """
    kind = CAMPAIGN_KINDS[config.kind]
    trial = kind.prepare(config)
    swept_alpha = "alphas" in kind.requires
    swept_sigma = "sigmas" in kind.requires
    spec_alpha = None if config.clump_spec is None else config.clump_spec.alpha

    def cell(coords):
        ia, isig, t = coords
        alpha = config.alphas[ia] if swept_alpha else spec_alpha
        sigma = config.sigmas[isig] if swept_sigma else None
        seed = (config.base_seed, ia, isig, t)
        record = ExperimentRecord(alpha, sigma, t, "-".join(str(v) for v in seed))
        t0 = time.perf_counter()
        try:
            record.values = trial(alpha, sigma, seed)
        except Exception as exc:
            if "error" not in kind.columns:
                raise
            record.error = f"{type(exc).__name__}: {exc}"
            record.values = {"success": False}
        record.wall_time = time.perf_counter() - t0
        return record

    cells = list(itertools.product(
        range(len(config.alphas)) if swept_alpha else (0,),
        range(len(config.sigmas)) if swept_sigma else (0,),
        range(config.trials_per_cell),
    ))
    records = _map_cells(cell, cells, max(1, jobs) if kind.subspace else 1)
    if kind.finish is not None:
        kind.finish(records)
    return records


def _map_cells(fn: Callable, cells: list, jobs: int) -> list:
    if jobs == 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, cells))


def _sigma_min_sweep(config: ExperimentConfig) -> Callable[..., dict]:
    spec = config.clump_spec
    terms = fit_clump_constants(spec, config.alphas)

    def trial(alpha, sigma, seed):
        support, partition = generate_clumps(replace(spec, alpha=alpha), seed=seed)
        return {
            "M": spec.M,
            "S": support.size,
            "lambda_max": partition.lambda_max,
            "A": partition.num_clumps,
            "sigma_min_exact": sigma_min(vandermonde(support, spec.M)),
            "lower_bound": lower_bound_value(replace(terms, alpha=alpha)),
        }

    return trial


def _check_single_clump(config: ExperimentConfig) -> None:
    if config.clump_spec.num_clumps != 1:
        raise ValueError("upper-bound-sweep uses a single-clump spec for the cluster")


def _upper_bound_sweep(config: ExperimentConfig) -> Callable[..., dict]:
    spec = config.clump_spec
    lam = spec.clump_sizes[0]

    def trial(alpha, sigma, seed):
        rng = np.random.default_rng(seed)
        omega0 = float(rng.uniform(0.0, 1.0))
        _, sm = upper_bound_witness(
            lam=lam, alpha=alpha, M=spec.M, S=config.S, omega0=omega0, filler_seed=rng
        )
        return {"M": spec.M, "S": config.S, "lambda_max": lam, "sigma_min_exact": sm}

    return trial


def _ceiling_constant(records: Sequence[ExperimentRecord]) -> float:
    """One ceiling constant per sweep: smallest C with sigma_min <= C alpha^(lam-1)."""
    lam = max(r.values["lambda_max"] for r in records)
    return max(r.values["sigma_min_exact"] / r.alpha ** (lam - 1) for r in records)


def _fill_upper_bounds(records: list[ExperimentRecord]) -> None:
    c_lam = _ceiling_constant(records)
    for r in records:
        r.values["upper_bound"] = c_lam * r.alpha ** (r.values["lambda_max"] - 1)


def synthesize(support: SupportSet, M: int, sigma: float, rng: np.random.Generator,
               amplitude_model: AmplitudeModel, noise_kind: str) -> tuple:
    """Amplitudes x for the support, y0 = V x and a noise vector, in RNG order."""
    x = amplitude_model.sample(rng, support.size)
    y0 = vandermonde(support, M) @ x
    return x, y0, draw_noise(rng, sigma, noise_kind, M)


def _perturbation_check(config: ExperimentConfig) -> Callable[..., dict]:
    spec = config.clump_spec
    M = config.resolved_m
    L = config.resolved_l
    N = config.resolved_n
    S = spec.total_points

    def trial(alpha, sigma, seed):
        rng = np.random.default_rng(seed)
        support, _ = generate_clumps(spec, seed=rng)
        x, y0, eta = synthesize(support, M, sigma, rng, config.amplitude_model,
                                config.noise_kind)
        u_clean = svd_split(hankel(y0, L), S).signal_space
        u_noisy = svd_split(hankel(y0 + eta, L), S).signal_space
        sup = correlation_sup_diff(u_clean, u_noisy, N)
        noise_norm = spectral_norm(hankel(eta, L))
        x_min = float(np.min(np.abs(x)))
        sigma_min_L = sigma_min(vandermonde(support, L))
        sigma_min_ML = sigma_min(vandermonde(support, M - L))
        bound, precondition_ok = wedin_bound(noise_norm, x_min, sigma_min_L, sigma_min_ML)
        return {
            "hankel_noise_norm": noise_norm,
            "sigma_min_L": sigma_min_L,
            "sigma_min_ML": sigma_min_ML,
            "x_min": x_min,
            "sup_diff": sup,
            "wedin_bound": bound,
            "precondition_ok": precondition_ok,
            "success": (not precondition_ok) or sup <= bound,
        }

    return trial


def _check_positive_sigmas(config: ExperimentConfig) -> None:
    if 0.0 in config.sigmas:
        raise ValueError(
            f"concentration needs positive sigmas: the tail bound is read at "
            f"t = {TAIL_FACTOR}*E-bound, which is 0 at sigma 0"
        )


def _concentration(config: ExperimentConfig) -> Callable[..., dict]:
    def trial(alpha, sigma, seed):
        spec = NoiseSpec(sigma=sigma, kind=config.noise_kind, seed=seed)
        return {"hankel_norm": spectral_norm(hankel(sample_noise(spec, config.M), config.L))}

    return trial


def _phase_transition(config: ExperimentConfig) -> Callable[..., dict]:
    spec = config.clump_spec
    M = config.resolved_m
    L = config.resolved_l
    N = config.resolved_n
    S = spec.total_points
    specs = {alpha: replace(spec, alpha=alpha) for alpha in config.alphas}

    def trial(alpha, sigma, seed):
        rng = np.random.default_rng(seed)
        support, _ = generate_clumps(specs[alpha], seed=rng)
        _, y0, eta = synthesize(support, M, sigma, rng, config.amplitude_model,
                                config.noise_kind)
        estimate = music_estimate(y0 + eta, S=S, L=L, N=N, refine=True)
        err = match_supports(support, estimate.recovered)
        return {"matched_error": err, "success": bool(err < alpha / (2.0 * M))}

    return trial


def _cells(records: Sequence[ExperimentRecord], key: Callable) -> dict[object, list]:
    """Records grouped by key(record); groups and their members in first-seen order."""
    cells: dict[object, list] = {}
    for r in records:
        cells.setdefault(key(r), []).append(r)
    return cells


@dataclass(frozen=True)
class RateTable:
    """How often one success rule holds over the (SRF, sigma/x_min) grid.

    level90 holds, per SRF, the largest tested sigma/x_min whose success
    rate is at least 0.9 (None when even the smallest noise fails).
    """

    srf: tuple[float, ...]
    sigma_over_xmin: tuple[float, ...]
    success_rate: tuple[tuple[float, ...], ...]
    trials_per_cell: int
    level90: tuple[float | None, ...]
    success_rule: str


def rate_table(
    records: Sequence[ExperimentRecord],
    passed: Callable[[ExperimentRecord], bool],
    rule: str,
    nominal_x_min: float,
) -> RateTable:
    """Share of records per (alpha, sigma) cell for which passed(record) holds."""
    if not records:
        raise ValueError("no records to summarize")
    cells = _cells(records, lambda r: (r.alpha, r.sigma))
    alphas = sorted({a for a, _ in cells}, reverse=True)  # increasing SRF
    sigmas = sorted({s for _, s in cells})
    success = {key: sum(bool(passed(r)) for r in cell) / len(cell)
               for key, cell in cells.items()}
    rates = [tuple(success[(a, s)] for s in sigmas) for a in alphas]
    levels = []
    for row in rates:
        ok = [s for s, rate in zip(sigmas, row) if rate >= 0.9]
        levels.append(max(ok) / nominal_x_min if ok else None)
    return RateTable(
        srf=tuple(1.0 / a for a in alphas),
        sigma_over_xmin=tuple(s / nominal_x_min for s in sigmas),
        success_rate=tuple(rates),
        trials_per_cell=max(len(cell) for cell in cells.values()),
        level90=tuple(levels),
        success_rule=rule,
    )


def concentration_summary(
    records: Sequence[ExperimentRecord], config: ExperimentConfig
) -> list[ConcentrationReport]:
    """Per-sigma concentration reports from recorded Hankel noise norms."""
    cells = _cells(records, lambda r: r.sigma)
    return [
        concentration_report(
            np.array([r.values["hankel_norm"] for r in cells[sigma]]),
            sigma, config.M, config.L, config.noise_kind,
        )
        for sigma in config.sigmas
    ]


def _sweep_summary(records: Sequence[ExperimentRecord], config: ExperimentConfig) -> dict:
    cells = _cells(records, lambda r: r.alpha)
    pairs = [
        [a, float(np.exp(np.mean(np.log([r.values["sigma_min_exact"] for r in cells[a]]))))]
        for a in sorted(cells, reverse=True)
    ]
    out = {"per_alpha_geomean_sigma_min": pairs}
    if len(pairs) >= 4:
        fit = fit_scaling_exponent(pairs)
        out.update(slope=fit.slope, r_squared=fit.r_squared, reliable=fit.reliable)
    lam = max(r.values["lambda_max"] for r in records)
    out.update(lambda_max=lam, expected_slope=lam - 1)
    return out


def _upper_sweep_summary(records: Sequence[ExperimentRecord],
                         config: ExperimentConfig) -> dict:
    return {**_sweep_summary(records, config),
            "fitted_ceiling_constant": _ceiling_constant(records)}


def _perturbation_summary(records: Sequence[ExperimentRecord],
                          config: ExperimentConfig) -> dict:
    ok = [r.values for r in records if r.values.get("precondition_ok")]
    out = {
        "precondition_ok": len(ok),
        "violations": sum(1 for v in ok if v["sup_diff"] > v["wedin_bound"]),
    }
    # A zero bound (sigma = 0) gives no ratio; a positive sup there is a violation.
    ratios = [v["sup_diff"] / v["wedin_bound"] for v in ok if v["wedin_bound"] > 0]
    if ratios:
        out["max_ratio_sup_to_bound"] = max(ratios)
    # epsilon-stability; a trial that recorded an error counts as a failure.
    out["table"] = asdict(rate_table(
        records, lambda r: not r.error and r.values["sup_diff"] <= config.epsilon,
        f"sup_diff <= epsilon = {config.epsilon}", config.amplitude_model.nominal_x_min,
    ))
    return out


_SWEEP_COLUMNS = (
    "alpha", "M", "S", "lambda_max", "A", "sigma_min_exact", "lower_bound",
    "upper_bound", "seed",
)

CAMPAIGN_KINDS: dict[str, CampaignKind] = {
    "sigma-min-sweep": CampaignKind(
        requires=("clump_spec", "alphas"),
        prepare=_sigma_min_sweep,
        columns=_SWEEP_COLUMNS,
        summary=_sweep_summary,
    ),
    "upper-bound-sweep": CampaignKind(
        requires=("clump_spec", "alphas", "S"),
        check=_check_single_clump,
        prepare=_upper_bound_sweep,
        finish=_fill_upper_bounds,
        columns=_SWEEP_COLUMNS,
        summary=_upper_sweep_summary,
    ),
    "perturbation-check": CampaignKind(
        requires=("clump_spec", "sigmas"),
        prepare=_perturbation_check,
        columns=(
            "alpha", "sigma", "trial", "seed", "hankel_noise_norm", "sigma_min_L",
            "sigma_min_ML", "x_min", "sup_diff", "wedin_bound", "precondition_ok",
            "success", "error",
        ),
        summary=_perturbation_summary,
        subspace=True,
    ),
    "concentration": CampaignKind(
        requires=("sigmas", "M", "L"),
        check=_check_positive_sigmas,
        prepare=_concentration,
        columns=("sigma", "trial", "seed", "hankel_norm"),
        summary=lambda records, config: {
            "reports": [asdict(rep) for rep in concentration_summary(records, config)]
        },
    ),
    "phase-transition": CampaignKind(
        requires=("clump_spec", "alphas", "sigmas"),
        check=lambda config: check_grid(config.resolved_n, config.resolved_m),
        prepare=_phase_transition,
        columns=("alpha", "srf", "sigma", "trial", "seed", "matched_error", "success",
                 "error"),
        summary=lambda records, config: {
            "table": asdict(rate_table(
                records, lambda r: r.values["success"], "match_supports < alpha/(2M)",
                config.amplitude_model.nominal_x_min,
            ))
        },
        subspace=True,
    ),
}


def save_records(
    records: Sequence[ExperimentRecord],
    config: ExperimentConfig,
    out_dir,
) -> dict:
    """Persist a campaign under <out_dir>/<config-hash>/: CSV plus JSON summary.

    The CSV holds the kind's columns; csv.writer writes a float as its repr
    and None as a blank field. Wall time is deliberately excluded so
    identical reruns produce byte-identical files. Returns the written
    paths keyed by role.
    """
    dest = Path(out_dir) / config.config_hash()
    dest.mkdir(parents=True, exist_ok=True)
    csv_path = dest / f"{config.kind}.csv"
    columns = CAMPAIGN_KINDS[config.kind].columns
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in records:
            row = (r.values[col] if col in r.values else getattr(r, col, None)
                   for col in columns)
            writer.writerow([("true" if v else "false") if isinstance(v, bool) else v
                             for v in row])
    summary = summarize(records, config)
    summary_path = dest / f"{config.kind}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return {"csv": csv_path, "summary": summary_path, "dir": dest}


def summarize(records: Sequence[ExperimentRecord], config: ExperimentConfig) -> dict:
    """Kind-specific roll-up of a record list, JSON ready."""
    return {
        "kind": config.kind,
        "config_hash": config.config_hash(),
        "records": len(records),
        **CAMPAIGN_KINDS[config.kind].summary(records, config),
    }
