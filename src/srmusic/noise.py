"""Gaussian measurement noise and spectral-norm concentration of its Hankel matrix.

Two noise kinds are supported: real i.i.d. Gaussian entries of variance
sigma^2, and circularly symmetric complex entries with per-entry second
moment sigma^2. The concentration inequalities are stated for the real
kind; both are validated empirically. Logs are natural throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from srmusic.bounds import ClumpBoundTerms
from srmusic.fourier import hankel, spectral_norm

NOISE_KINDS = ("complex-circular", "real")
# The tail probability is measured at t = TAIL_FACTOR * expectation_bound.
TAIL_FACTOR = 1.2
# Two-sided 95% normal quantile for wilson_interval.
WILSON_Z = 1.959964


class ThresholdPreconditionError(ValueError):
    """The admissible-noise threshold was evaluated outside its hypotheses."""


@dataclass(frozen=True)
class NoiseSpec:
    """Per-component noise level, distribution kind, and RNG seed."""

    sigma: float
    kind: str = "complex-circular"
    seed: int | tuple = 0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"kind must be one of {NOISE_KINDS}, got {self.kind!r}")


def draw_noise(rng: np.random.Generator, sigma: float, kind: str, M: int) -> np.ndarray:
    """Draw a noise vector of length M+1 from an existing RNG stream.

    real: entries N(0, sigma^2), returned as complex with zero imaginary
    part; a HankelOperator of such data applies it in real arithmetic.
    complex-circular: real and imaginary parts each N(0, sigma^2/2),
    so E|eta_m|^2 = sigma^2. sigma = 0 gives zeros without drawing, so the
    stream is left untouched.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    if kind not in NOISE_KINDS:
        raise ValueError(f"kind must be one of {NOISE_KINDS}, got {kind!r}")
    if sigma == 0:
        return np.zeros(M + 1, dtype=complex)
    if kind == "real":
        return rng.normal(0.0, sigma, M + 1).astype(complex)
    half = sigma / math.sqrt(2.0)
    return rng.normal(0.0, half, M + 1) + 1j * rng.normal(0.0, half, M + 1)


def sample_noise(spec: NoiseSpec, M: int) -> np.ndarray:
    """Draw a noise vector of length M+1; deterministic given the seed."""
    return draw_noise(np.random.default_rng(spec.seed), spec.sigma, spec.kind, M)


def concentration_constant(M: int, L: int) -> int:
    """C(M, L) = max(L+1, M-L+1), the larger Hankel dimension."""
    if not (0 <= L <= M):
        raise ValueError(f"L = {L} outside [0, {M}]")
    return max(L + 1, M - L + 1)


def expectation_bound(sigma: float, M: int, L: int) -> float:
    """sigma * sqrt(2 * C(M,L) * ln(M+2)) bounds E of the Hankel noise norm."""
    return sigma * math.sqrt(2.0 * concentration_constant(M, L) * math.log(M + 2))


def tail_bound(t: float, sigma: float, M: int, L: int) -> float:
    """(M+2) * exp(-t^2 / (2 sigma^2 C(M,L))), capped at 1."""
    if t <= 0:
        raise ValueError("t must be positive")
    c = concentration_constant(M, L)
    return min(1.0, (M + 2) * math.exp(-(t * t) / (2.0 * sigma * sigma * c)))


def noise_threshold(
    M: int, nu: float, epsilon: float, terms: ClumpBoundTerms
) -> float:
    """Admissible sigma/x_min for an epsilon-stable noise-space correlation.

    Returns C(M, nu) * (sum_a c_a^2 * alpha^(-2(lam_a-1)))^(-1) * epsilon
    with C(M, nu) = M / (32 * sqrt(nu * (M+2) * ln(M+2))), using calibrated
    per-clump constants. Hypotheses (M even, M >= 2 S^2, nu > 1,
    epsilon > 0) are all checked and reported together.
    """
    S = sum(terms.clump_sizes)
    failures = []
    if M % 2 != 0:
        failures.append(f"M = {M} must be even")
    if M < 2 * S * S:
        failures.append(f"M = {M} below 2*S^2 = {2 * S * S}")
    if nu <= 1:
        failures.append(f"nu = {nu} must exceed 1")
    if epsilon <= 0:
        failures.append(f"epsilon = {epsilon} must be positive")
    if failures:
        raise ThresholdPreconditionError("; ".join(failures))
    c_m_nu = M / (32.0 * math.sqrt(nu * (M + 2) * math.log(M + 2)))
    agg = sum(
        c * c * terms.alpha ** (-2 * (lam - 1))
        for c, lam in zip(terms.constants, terms.clump_sizes)
    )
    return c_m_nu / agg * epsilon


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class ConcentrationReport:
    """Monte Carlo summary of the Hankel noise norm against both bounds."""

    trials: int
    empirical_mean_norm: float
    expectation_bound: float
    tail_t: float
    empirical_tail_prob: float
    tail_bound: float
    kind: str
    sigma: float
    M: int
    L: int
    tail_wilson: tuple[float, float] = field(default=(0.0, 1.0))


def concentration_report(
    norms: np.ndarray, sigma: float, M: int, L: int, kind: str
) -> ConcentrationReport:
    """Compare sampled Hankel noise norms with the concentration bounds.

    The tail is evaluated at t = TAIL_FACTOR * expectation_bound.
    """
    exp_bound = expectation_bound(sigma, M, L)
    t = TAIL_FACTOR * exp_bound
    trials = len(norms)
    exceed = int(np.sum(norms >= t))
    return ConcentrationReport(
        trials=trials,
        empirical_mean_norm=float(norms.mean()),
        expectation_bound=exp_bound,
        tail_t=t,
        empirical_tail_prob=exceed / trials,
        tail_bound=tail_bound(t, sigma, M, L),
        kind=kind,
        sigma=sigma,
        M=M,
        L=L,
        tail_wilson=wilson_interval(exceed, trials),
    )


def estimate_concentration(
    sigma: float,
    M: int,
    L: int,
    kind: str = "real",
    trials: int = 1000,
    base_seed: int = 0,
) -> tuple[ConcentrationReport, np.ndarray]:
    """Sample Hankel noise norms and compare with the concentration bounds.

    Trial i uses the seed sequence (base_seed, i), so runs are reproducible
    and parallel safe. Returns the report and the per-trial norms.
    """
    norms = np.empty(trials)
    for i in range(trials):
        spec = NoiseSpec(sigma=sigma, kind=kind, seed=(base_seed, i))
        norms[i] = spectral_norm(hankel(sample_noise(spec, M), L))
    return concentration_report(norms, sigma, M, L, kind), norms
