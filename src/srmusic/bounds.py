"""Lower/upper bounds on sigma_min of clumped Fourier matrices, and power-law fits.

The bound constants have no closed form here; they are calibrated per
(clump size, M) against exact SVD, so the checks target the scaling
exponents, which is what the theory pins down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from srmusic.fourier import sigma_min, vandermonde
from srmusic.torus import ClumpSpec, SupportSet, torus_distance


# Random filler candidates upper_bound_witness draws before it gives up.
FILLER_TRIES = 10_000


class FitError(ValueError):
    """Not enough (or degenerate) samples for a calibration fit."""


class FillerPlacementError(ValueError):
    """Could not place well-separated filler points for a witness set."""


@dataclass(frozen=True)
class ClumpBoundTerms:
    """Per-clump constants and geometry entering the sigma_min lower bound."""

    constants: tuple[float, ...]
    clump_sizes: tuple[int, ...]
    alpha: float
    M: int

    def __post_init__(self):
        object.__setattr__(self, "constants", tuple(float(c) for c in self.constants))
        object.__setattr__(self, "clump_sizes", tuple(int(v) for v in self.clump_sizes))
        if len(self.constants) != len(self.clump_sizes):
            raise ValueError("one constant per clump required")
        if any(c <= 0 for c in self.constants):
            raise ValueError("constants must be positive")
        if any(lam < 1 for lam in self.clump_sizes):
            raise ValueError("clump sizes must be positive")


def lower_bound_value(terms: ClumpBoundTerms) -> float:
    """sqrt(M) * (sum_a (C_a * alpha^-(lam_a - 1))^2)^(-1/2).

    The per-clump terms aggregate in l2; a single clump of one point gives
    exactly sqrt(M).
    """
    if not (0.0 < terms.alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {terms.alpha}")
    acc = sum(
        (c * terms.alpha ** (-(lam - 1))) ** 2
        for c, lam in zip(terms.constants, terms.clump_sizes)
    )
    return math.sqrt(terms.M) / math.sqrt(acc)


def fit_clump_constants(spec: ClumpSpec, alphas: Sequence[float]) -> ClumpBoundTerms:
    """Calibrate one lower-bound constant per clump of a spec against exact SVD.

    A constant depends on (clump size, M) only, so it is fitted once per
    distinct size: for each alpha, sigma_min of the progression
    {0, alpha/M, ..., (lam-1) alpha/M} is computed exactly, and
    C = max_alpha sqrt(M)*alpha^(lam-1)/sigma_min is the smallest constant
    making the bound valid on every sample. sigma_min is rotation invariant,
    so the clump's anchor does not matter.
    """
    if len(alphas) < 4:
        raise FitError(f"need at least 4 alphas to calibrate, got {len(alphas)}")
    by_size = {}
    for lam in set(spec.clump_sizes):
        ratios = []
        for a in map(float, alphas):
            s = sigma_min(vandermonde(SupportSet(np.arange(lam) * (a / spec.M)), spec.M))
            if s <= 0:
                raise FitError(f"degenerate sigma_min at alpha = {a}")
            ratios.append(math.sqrt(spec.M) * a ** (lam - 1) / s)
        by_size[lam] = max(ratios)
    return ClumpBoundTerms(
        constants=tuple(by_size[lam] for lam in spec.clump_sizes),
        clump_sizes=spec.clump_sizes,
        alpha=spec.alpha,
        M=spec.M,
    )


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law through (alpha, sigma_min) samples.

    slope is d log(sigma_min) / d log(alpha); r_squared below 0.98 marks the
    fit unreliable (outside the clean power-law regime).
    """

    slope: float
    intercept: float
    r_squared: float

    RELIABLE_R2 = 0.98

    @property
    def reliable(self) -> bool:
        return self.r_squared >= self.RELIABLE_R2


def fit_scaling_exponent(samples: Sequence[tuple[float, float]]) -> ScalingFit:
    """Fit log(sigma_min) against log(alpha); the slope estimates lam - 1."""
    if len(samples) < 4:
        raise FitError(f"need at least 4 samples, got {len(samples)}")
    ordered = sorted(((float(a), float(s)) for a, s in samples), key=lambda t: -t[0])
    alphas = np.array([a for a, _ in ordered])
    sigmas = np.array([s for _, s in ordered])
    if np.any(sigmas <= 0):
        raise ValueError("sigma_min samples must be positive")
    if np.any(alphas <= 0) or np.any(alphas >= 1):
        raise ValueError("alphas must lie in (0, 1)")
    if len(np.unique(alphas)) != len(alphas):
        raise ValueError("alphas must be distinct")
    x = np.log(alphas)
    y = np.log(sigmas)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ScalingFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def upper_bound_witness(
    lam: int,
    alpha: float,
    M: int,
    S: int,
    omega0: float,
    filler_seed,
) -> tuple[SupportSet, float]:
    """Support set showing the alpha^(lam-1) ceiling: a tight cluster plus fillers.

    The set contains omega0 + {0, alpha/M, ..., (lam-1)*alpha/M} and S - lam
    random filler points, each at least 2/M from the cluster and from each
    other. Returns the set and its exact sigma_min. The regime of the
    ceiling is alpha <= (M+1)^(-1/2) (unit constant); larger alphas are
    allowed but flagged with a warning.
    """
    if not (1 <= lam <= S <= M - 1):
        raise ValueError(f"need 1 <= lam <= S <= M-1, got lam={lam}, S={S}, M={M}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha > (M + 1) ** -0.5:
        warnings.warn(
            f"alpha = {alpha:.4g} above (M+1)^(-1/2) = {(M + 1) ** -0.5:.4g}; "
            "outside the regime of the ceiling",
            stacklevel=2,
        )
    rng = np.random.default_rng(filler_seed)
    cluster = [(omega0 + k * alpha / M) % 1.0 for k in range(lam)]
    placed = list(cluster)
    fillers: list[float] = []
    tries = 0
    while len(fillers) < S - lam:
        if tries >= FILLER_TRIES:
            raise FillerPlacementError(
                f"placed {len(fillers)} of {S - lam} fillers in {FILLER_TRIES} tries; "
                f"2/M spacing at M = {M} leaves no room"
            )
        tries += 1
        cand = float(rng.uniform(0.0, 1.0))
        if all(torus_distance(cand, p) >= 2.0 / M for p in placed):
            fillers.append(cand)
            placed.append(cand)
    support = SupportSet(cluster + fillers)
    return support, sigma_min(vandermonde(support, M))

