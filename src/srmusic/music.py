"""Single-snapshot MUSIC: noise-space correlation, imaging function, peak extraction.

The estimator Hankelizes the measurements, splits the left singular
subspace at rank S, scans the imaging function J = 1/R on a uniform grid,
resamples the hills of its S largest circular local maxima more finely so
that peaks merged on the grid come apart, and returns the S largest of the
resulting maxima, optionally polished by golden-section search. A
perturbation report compares the observed sup-norm change of R against the
Wedin-type bound.

The estimator works from the signal space U_S alone. [U_S | W] is unitary,
so R(omega)^2 = 1 - ||U_S* phi_L(omega)||^2 / (L+1) (the MUSIC
pseudo-spectrum identity): one zero-padded FFT of the S signal columns
gives R at every grid node. That difference cancels where R is near zero,
so the hills, the refinement and the reported peak values use the residual
||phi_L - U_S U_S* phi_L|| / sqrt(L+1), which is as accurate as the W form.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from srmusic.fourier import hankel, svd_split
from srmusic.torus import SupportSet

# (sqrt(5)-1)/2; 40 golden-section steps shrink a bracket by ~4e-9.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_ITERS = 40

DEFAULT_GRID_FACTOR = 16
# A dip of R is about 1/M wide, so at N >= 8M it spans several grid cells.
# Two dips closer than about two cells can still share one grid maximum of
# J; resampling its hill HILL_OVERSAMPLING times more finely (as fine as a
# 128M grid at N = 8M) separates them.
MIN_GRID_FACTOR = 8
HILL_OVERSAMPLING = 16
# A candidate peak must rise above both edges of its hill by more than this
# relative amount; smaller bumps are rounding noise on a flat J.
PEAK_RTOL = 1e-12


class UnderdeterminedPeaksError(RuntimeError):
    """The imaging function has fewer local maxima than sources requested."""

    def __init__(self, found: int, wanted: int):
        super().__init__(
            f"found {found} local maxima of the imaging function, need {wanted}"
        )
        self.found = found
        self.wanted = wanted


@dataclass(frozen=True)
class ImagingGrid:
    """Noise-space correlation and imaging function sampled on {k/N}."""

    resolution: int
    values_R: np.ndarray
    values_J: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.resolution) / self.resolution

    def save_csv(self, path) -> None:
        with open(Path(path), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "R", "J"])
            for w, r, j in zip(self.nodes, self.values_R, self.values_J):
                writer.writerow([repr(float(w)), repr(float(r)), repr(float(j))])


@dataclass(frozen=True)
class MusicEstimate:
    """Recovered support: the S largest local maxima of the imaging function."""

    recovered: SupportSet
    peak_values: tuple[float, ...]
    grid: ImagingGrid
    refined: bool

    def save_json(self, path) -> None:
        Path(path).write_text(
            json.dumps(
                {
                    "points": list(self.recovered.points),
                    "peak_values": list(self.peak_values),
                    "refined": self.refined,
                },
                indent=2,
            )
            + "\n"
        )


@dataclass(frozen=True)
class PerturbationReport:
    """Ingredients and verdict of the Wedin-type stability bound.

    precondition_ok is exactly 2*hankel_noise_norm < x_min * sigma_min_L *
    sigma_min_ML; the bound value is reported either way. sup_norm_diff is
    a grid approximation of the true sup and is NaN when not measured.
    """

    sup_norm_diff: float
    wedin_bound: float
    precondition_ok: bool
    hankel_noise_norm: float
    sigma_min_L: float
    sigma_min_ML: float
    x_min: float


def noise_correlation(W: np.ndarray, omega) -> float | np.ndarray:
    """Normalized projection of the steering vector onto the noise space.

    ||W* phi_L(omega)|| / sqrt(L+1), in [0, 1]. Zero exactly on the true
    support in the noiseless case. Accepts a scalar or an array of
    positions.
    """
    scalar = np.isscalar(omega)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    rows = W.shape[0]
    phi = np.exp(-2j * np.pi * np.outer(np.arange(rows), om))
    vals = np.linalg.norm(W.conj().T @ phi, axis=0) / math.sqrt(rows)
    vals = np.minimum(vals, 1.0)
    return float(vals[0]) if scalar else vals


def imaging_function(W: np.ndarray, omega) -> float | np.ndarray:
    """Reciprocal of the noise-space correlation; +inf where it vanishes."""
    r = noise_correlation(W, omega)
    with np.errstate(divide="ignore"):
        return np.where(r == 0.0, np.inf, 1.0 / r) if isinstance(r, np.ndarray) else (
            math.inf if r == 0.0 else 1.0 / r
        )


def _signal_correlation(U: np.ndarray, U_h: np.ndarray, omega) -> float | np.ndarray:
    """R from the signal space: ||phi_L - U_S U_S* phi_L|| / sqrt(L+1).

    U_h is U.conj().T, taken once by the caller. Equals noise_correlation of
    the complementary noise space, to rounding, at O(L*S) per position.
    Accepts a scalar or an array of positions.
    """
    scalar = np.isscalar(omega)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    rows = U.shape[0]
    phi = _steering(rows, om)
    vals = np.linalg.norm(phi - U @ (U_h @ phi), axis=0) / math.sqrt(rows)
    vals = np.minimum(vals, 1.0)
    return float(vals[0]) if scalar else vals


def _steering(rows: int, om: np.ndarray) -> np.ndarray:
    """Columns phi_L(omega) = exp(-2 pi i l omega), l < rows, one per position.

    Row l = B*q + r is exp(-2 pi i B q omega) * exp(-2 pi i r omega), so a
    column takes about 2*sqrt(rows) complex exponentials instead of rows;
    the product adds one rounding to the phase error of the direct form.
    """
    B = math.isqrt(rows - 1) + 1
    Q = -(-rows // B)
    coarse = np.exp(-2j * np.pi * np.outer(B * np.arange(Q), om))
    fine = np.exp(-2j * np.pi * np.outer(np.arange(B), om))
    return (coarse[:, None, :] * fine[None, :, :]).reshape(Q * B, len(om))[:rows]


def _grid_correlation(U_conj: np.ndarray, N: int) -> np.ndarray:
    """R at the nodes k/N, from one length-N FFT of the conjugated signal space.

    Row k of fft(conj(U_S), n=N) is U_S* phi_L(k/N). The form
    sqrt(1 - ||U_S* phi_L||^2/(L+1)) loses precision where R is near zero
    (it floors near 1e-8), which still orders the grid maxima.
    """
    coeffs = np.fft.fft(U_conj, n=N, axis=0)
    energy = np.sum(coeffs.real**2 + coeffs.imag**2, axis=1) / U_conj.shape[0]
    return np.sqrt(np.clip(1.0 - energy, 0.0, 1.0))


def _circular_local_maxima(values: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges (start, length) of circular local maxima, plateau aware.

    A run of equal values counts as a single maximum when both neighboring
    runs are strictly lower. A constant array has no maxima.
    """
    n = len(values)
    starts = np.flatnonzero(values != np.roll(values, 1))
    if len(starts) == 0:
        return []
    nxt = np.roll(starts, -1)
    lengths = (nxt - starts) % n
    lengths[lengths == 0] = n
    v = values[starts]
    is_max = (v > values[starts - 1]) & (v > values[nxt])
    return [(int(a), int(k)) for a, k in zip(starts[is_max], lengths[is_max])]


def music_estimate(
    y: np.ndarray,
    S: int,
    L: int | None = None,
    N: int | None = None,
    refine: bool = False,
) -> MusicEstimate:
    """Run MUSIC on a single snapshot of M+1 Fourier measurements.

    L defaults to floor(M/2); the grid resolution N defaults to 16*M and
    must be at least 8*M. The hill of each of the S largest grid maxima of
    J, between the grid minima on either side, is resampled
    HILL_OVERSAMPLING times more finely, so two peaks that share one grid
    maximum are told apart. Every fine local maximum that rises above its
    hill's edges by more than rounding is a candidate, and the S largest
    candidates are returned: on their fine sample, or with refine polished
    by golden-section search between their fine neighbors. Raises
    UnderdeterminedPeaksError when fewer than S candidates are found.

    Only the signal space is used: the grid R comes from one FFT of its S
    columns, and the hills, refinement and peak values from the residual
    form, which matches noise_correlation to rounding.
    """
    y = np.asarray(y, dtype=complex)
    M = len(y) - 1
    if L is None:
        L = M // 2
    if N is None:
        N = DEFAULT_GRID_FACTOR * M
    if S < 1:
        raise ValueError("S must be at least 1")
    if not (S <= L <= M + 1 - S):
        raise ValueError(f"need S <= L <= M+1-S, got S={S}, L={L}, M={M}")
    if N < MIN_GRID_FACTOR * M:
        raise ValueError(f"grid resolution {N} below {MIN_GRID_FACTOR}*M = {MIN_GRID_FACTOR * M}")

    U = svd_split(hankel(y, L), S).signal_space
    U_conj = U.conj()
    correlation = partial(_signal_correlation, U, U_conj.T)
    values_r = _grid_correlation(U_conj, N)
    with np.errstate(divide="ignore"):
        values_j = 1.0 / values_r
    grid = ImagingGrid(resolution=N, values_R=values_r, values_J=values_j)

    peaks = []
    for start, length in _circular_local_maxima(values_j):
        mid = (start + (length - 1) // 2) % N
        peaks.append((-values_j[mid], mid, start, length))
    # Largest grid maxima first; ties broken toward smaller omega.
    peaks.sort()

    # (J, position, bracket lo, bracket hi), positions unwrapped.
    candidates = []
    for _, _, start, length in peaks[:S]:
        lo, hi = _hill(values_j, start, length)
        fine = (lo + np.arange(HILL_OVERSAMPLING * (hi - lo) + 1) / HILL_OVERSAMPLING) / N
        with np.errstate(divide="ignore"):
            fine_j = 1.0 / correlation(fine % 1.0)
        last = len(fine) - 1
        threshold = (1.0 + PEAK_RTOL) * max(fine_j[0], fine_j[last])
        for a, k in _circular_local_maxima(fine_j):
            m = a + (k - 1) // 2
            # Runs touching a hill edge belong to the neighboring hill.
            if a > 0 and a + k <= last and fine_j[m] > threshold:
                candidates.append((fine_j[m], fine[m], fine[a - 1], fine[a + k]))
    if len(candidates) < S:
        raise UnderdeterminedPeaksError(found=len(candidates), wanted=S)
    candidates.sort(key=lambda c: (-c[0], c[1] % 1.0))

    positions = []
    peak_values = []
    for val, w, lo, hi in candidates[:S]:
        if refine:
            w = _refine_peak(correlation, lo, hi)
            r = correlation(w % 1.0)
            val = math.inf if r == 0.0 else 1.0 / r
        positions.append(w % 1.0)
        peak_values.append(float(val))

    order = np.argsort(positions)
    return MusicEstimate(
        recovered=SupportSet([positions[i] for i in order]),
        peak_values=tuple(peak_values[i] for i in order),
        grid=grid,
        refined=refine,
    )


def _hill(values: np.ndarray, start: int, length: int) -> tuple[int, int]:
    """Unwrapped indices of the circular grid minima bounding a maximum run."""
    n = len(values)
    lo = start - 1
    while values[(lo - 1) % n] < values[lo % n]:
        lo -= 1
    hi = start + length
    while values[(hi + 1) % n] < values[hi % n]:
        hi += 1
    return lo, hi


def _refine_peak(correlation: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section maximization of J (= minimization of R) on [lo, hi].

    correlation maps a position in [0, 1) to R. Works in unwrapped
    coordinates, so a bracket may straddle the 0/1 cut.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = correlation(c % 1.0)
    fd = correlation(d % 1.0)
    for _ in range(REFINE_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = correlation(c % 1.0)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = correlation(d % 1.0)
    return (a + b) / 2.0


def correlation_sup_diff(
    W_clean: np.ndarray, W_noisy: np.ndarray, N: int
) -> float:
    """Grid approximation of sup |R_noisy - R_clean| over the torus.

    Evaluated on the N uniform nodes; the true sup can only be larger by
    the grid discretization error.
    """
    if W_clean.shape[0] != W_noisy.shape[0]:
        raise ValueError(
            f"noise spaces live in different dimensions: "
            f"{W_clean.shape[0]} vs {W_noisy.shape[0]}"
        )
    nodes = np.arange(N) / N
    r_clean = np.asarray(noise_correlation(W_clean, nodes))
    r_noisy = np.asarray(noise_correlation(W_noisy, nodes))
    return float(np.max(np.abs(r_noisy - r_clean)))


def wedin_bound(
    hankel_noise_norm: float,
    x_min: float,
    sigma_min_L: float,
    sigma_min_ML: float,
    sup_norm_diff: float = math.nan,
) -> PerturbationReport:
    """Wedin-type bound 2||H(eta)|| / (x_min sigma_min(Phi_L) sigma_min(Phi_{M-L})).

    The precondition is that the bound value is below 1 in the sense
    2||H(eta)|| < x_min * sigma_min_L * sigma_min_ML; when it fails the
    bound is still reported, flagged as outside its validity regime.
    """
    if x_min <= 0 or sigma_min_L <= 0 or sigma_min_ML <= 0:
        raise ValueError("x_min and the sigma_min factors must be positive")
    if hankel_noise_norm < 0:
        raise ValueError("hankel_noise_norm must be nonnegative")
    denom = x_min * sigma_min_L * sigma_min_ML
    return PerturbationReport(
        sup_norm_diff=sup_norm_diff,
        wedin_bound=2.0 * hankel_noise_norm / denom,
        precondition_ok=2.0 * hankel_noise_norm < denom,
        hankel_noise_norm=hankel_noise_norm,
        sigma_min_L=sigma_min_L,
        sigma_min_ML=sigma_min_ML,
        x_min=x_min,
    )


def match_supports(truth: SupportSet, estimate: SupportSet) -> float:
    """Minimax matching error between two equal-size supports.

    Minimizes the largest pairwise torus distance over bijections. For
    circularly sorted sets the optimal bijection is order preserving, so
    only the S cyclic alignments are searched.
    """
    if truth.size != estimate.size:
        raise ValueError(
            f"cardinality mismatch: {truth.size} vs {estimate.size}"
        )
    t = truth.as_array()
    e = estimate.as_array()
    S = len(t)
    best = math.inf
    for k in range(S):
        d = np.abs(t - np.roll(e, -k))
        cost = float(np.max(np.minimum(d, 1.0 - d)))
        if cost < best:
            best = cost
    return best


def save_measurements(y: np.ndarray, path) -> None:
    """Write measurements as rows of (index, re, im); format by extension."""
    y = np.asarray(y, dtype=complex)
    path = Path(path)
    rows = [[i, float(v.real), float(v.imag)] for i, v in enumerate(y)]
    if path.suffix == ".json":
        path.write_text(json.dumps(rows) + "\n")
    else:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, re, im in rows:
                writer.writerow([i, repr(re), repr(im)])


def load_measurements(path) -> np.ndarray:
    """Read measurements written by save_measurements (CSV or JSON)."""
    path = Path(path)
    if path.suffix == ".json":
        rows = json.loads(path.read_text())
    else:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[int(r[0]), float(r[1]), float(r[2])] for r in reader]
    rows = sorted(rows, key=lambda r: r[0])
    indices = [int(r[0]) for r in rows]
    if indices != list(range(len(rows))):
        raise ValueError("measurement indices must be 0..M without gaps")
    y = np.array([complex(r[1], r[2]) for r in rows])
    bad = np.flatnonzero(~np.isfinite(y))
    if len(bad):
        raise ValueError(f"measurement {int(bad[0])} is not finite: {y[bad[0]]}")
    return y
