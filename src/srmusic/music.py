"""Single-snapshot MUSIC: noise-space correlation, imaging function, peak extraction.

The estimator Hankelizes the measurements, splits the left singular
subspace at rank S, scans the imaging function J = 1/R on a uniform grid,
resamples the hills of its S largest circular local maxima more finely so
that peaks merged on the grid come apart, and returns the S largest of the
resulting maxima, optionally polished by Newton's method. A
perturbation report compares the observed sup-norm change of R against the
Wedin-type bound.

R is evaluated from the signal space U_S alone; no noise basis W is
formed. [U_S | W] is unitary, so R(omega)^2 = 1 - ||U_S* phi_L(omega)||^2
/ (L+1) (the MUSIC pseudo-spectrum identity). One zero-padded FFT of the S
signal columns gives R at every grid node, for the imaging scan and for
the sup-norm comparison; one Bluestein chirp-z transform of the same
columns gives R at the fine samples of every resampled hill. That
difference cancels where R is near zero, so hill samples and compared
grid nodes where this FFT form is below FFT_R_FLOOR, and the peak values,
use the residual ||phi_L - U_S U_S* phi_L|| / sqrt(L+1) (noise_correlation),
which is as accurate as ||W* phi_L|| / sqrt(L+1). The imaging grid keeps
the FFT form, which still orders its maxima; the refinement needs only the
derivatives of E = ||U_S* phi_L||^2, which do not cancel.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from srmusic.fourier import hankel, svd_split
from srmusic.torus import SupportSet

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
# The FFT form of R errs by about 1e-15/R, so below this value a grid or
# hill sample of R is recomputed with the residual form before it is
# compared with another.
FFT_R_FLOOR = 1e-3


class UnderdeterminedPeaksError(RuntimeError):
    """The imaging function has fewer local maxima than sources requested."""

    def __init__(self, found: int, wanted: int):
        super().__init__(
            f"found {found} local maxima of the imaging function, need {wanted}"
        )
        self.found = found
        self.wanted = wanted


class RankDeficientError(np.linalg.LinAlgError):
    """S exceeds the numerical rank of the measurement Hankel matrix."""


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
        """CSV omega,R,J of repr floats with CRLF line ends, as csv.writer writes it."""
        cols = np.stack([self.nodes, self.values_R, self.values_J])
        rows = "".join(map("{!r},{!r},{!r}\r\n".format, *cols.tolist()))
        Path(path).write_text("omega,R,J\r\n" + rows, newline="")


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


def noise_correlation(U: np.ndarray, omega) -> float | np.ndarray:
    """Noise-space correlation R from the signal space U_S.

    ||phi_L - U_S U_S* phi_L|| / sqrt(L+1), in [0, 1]: the norm of the part
    of the steering vector outside span(U_S), which equals ||W* phi_L||
    for any orthonormal basis W of the noise space. Zero exactly on the
    true support in the noiseless case. Costs O(L*S) per position and
    accepts a scalar or an array of positions.
    """
    scalar = np.isscalar(omega)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    rows = U.shape[0]
    phi = _steering(rows, om)
    vals = np.linalg.norm(phi - U @ (U.conj().T @ phi), axis=0) / math.sqrt(rows)
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


def _grid_correlation(U: np.ndarray, N: int) -> np.ndarray:
    """R at the nodes k/N, from one length-N FFT of the conjugated signal space.

    Row k of fft(conj(U_S), n=N) is U_S* phi_L(k/N). The form
    sqrt(1 - ||U_S* phi_L||^2/(L+1)) loses precision where R is near zero
    (it floors near 1e-8), which still orders the grid maxima.
    """
    coeffs = np.fft.fft(U.conj(), n=N, axis=0)
    energy = np.sum(coeffs.real**2 + coeffs.imag**2, axis=1) / U.shape[0]
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
    by Newton's method between their fine neighbors. Raises
    RankDeficientError when sigma_S of the Hankel matrix is at most
    max(L+1, M-L+1)*eps*sigma_1 (numpy's matrix_rank tolerance), and
    UnderdeterminedPeaksError when fewer than S candidates are found.

    Only the signal space is used (see the module docstring). The S peaks
    are refined together, and their values come from one noise_correlation
    call at the returned positions.
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

    split = svd_split(hankel(y, L), S)
    s = split.singular_values
    rank_tol = max(L + 1, M - L + 1) * np.finfo(float).eps * s[0]
    if s[S - 1] <= rank_tol:
        raise RankDeficientError(
            f"S = {S} is above the numerical rank of the {L + 1}x{M - L + 1} Hankel "
            f"matrix: sigma_S = {s[S - 1]:.3g} <= {rank_tol:.3g}"
        )
    U = split.signal_space
    values_r = _grid_correlation(U, N)
    with np.errstate(divide="ignore"):
        values_j = 1.0 / values_r
    grid = ImagingGrid(resolution=N, values_R=values_r, values_J=values_j)

    candidates = _hill_candidates(U, values_j, S)
    if len(candidates) < S:
        raise UnderdeterminedPeaksError(found=len(candidates), wanted=S)
    candidates.sort(key=lambda c: (-c[0], c[1] % 1.0))
    _, start, lo, hi = np.array(candidates[:S]).T
    positions = (_refine_peaks(U, start, lo, hi) if refine else start) % 1.0
    with np.errstate(divide="ignore"):
        peak_values = 1.0 / noise_correlation(U, positions)

    order = np.argsort(positions)
    return MusicEstimate(
        recovered=SupportSet(positions[order].tolist()),
        peak_values=tuple(peak_values[order].tolist()),
        grid=grid,
        refined=refine,
    )


def _hill_candidates(U: np.ndarray, values_j: np.ndarray, S: int) -> list[tuple]:
    """Fine local maxima of J on the hills of its S largest grid maxima.

    Each hill, between the grid minima on either side of a maximum run, is
    sampled at lo/N + k/(HILL_OVERSAMPLING*N) by _zoom_correlation. Returns
    (J, position, bracket lo, bracket hi) per candidate, positions unwrapped.
    """
    N = len(values_j)
    peaks = []
    for start, length in _circular_local_maxima(values_j):
        mid = (start + (length - 1) // 2) % N
        peaks.append((-values_j[mid], mid, start, length))
    # Largest grid maxima first; ties broken toward smaller omega.
    peaks.sort()
    hills = [_hill(values_j, start, length) for _, _, start, length in peaks[:S]]
    fines = [
        (lo + np.arange(HILL_OVERSAMPLING * (hi - lo) + 1) / HILL_OVERSAMPLING) / N
        for lo, hi in hills
    ]
    if not fines:
        return []
    r = _zoom_correlation(U, N, hills)
    r = _residual_below_floor(U, r, np.concatenate(fines) % 1.0)

    candidates = []
    for fine, fine_r in zip(fines, np.split(r, np.cumsum([len(f) for f in fines[:-1]]))):
        with np.errstate(divide="ignore"):
            fine_j = 1.0 / fine_r
        last = len(fine) - 1
        threshold = (1.0 + PEAK_RTOL) * max(fine_j[0], fine_j[last])
        for a, k in _circular_local_maxima(fine_j):
            m = a + (k - 1) // 2
            # Runs touching a hill edge belong to the neighboring hill.
            if a > 0 and a + k <= last and fine_j[m] > threshold:
                candidates.append((fine_j[m], fine[m], fine[a - 1], fine[a + k]))
    return candidates


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


def _zoom_correlation(U: np.ndarray, N: int, hills: list[tuple[int, int]]) -> np.ndarray:
    """FFT-form R at the fine samples of every hill, concatenated hill by hill.

    Hill (lo, hi) is sampled at m/P, m = lo*H + k, 0 <= k <= H*(hi - lo),
    with H = HILL_OVERSAMPLING and P = H*N. A Bluestein chirp-z transform
    gives U_S* phi_L(m/P) = sum_l conj(U_l) exp(-2 pi i l m/P) for all of
    them from three FFTs: with lk = (l^2 + k^2 - (k-l)^2)/2 it is the
    convolution of conj(U_l) c(l^2 + 2 l lo H) with c(-j^2), times the
    unit-modulus c(k^2), where c(q) = exp(-pi i q/P). The kernel depends
    only on P and on the longest hill, so one kernel serves all hills. Each
    q is an integer reduced mod 2P before it becomes a phase, so every
    chirp carries a single rounding however large l and m grow.
    """
    rows = U.shape[0]
    P = HILL_OVERSAMPLING * N
    counts = [HILL_OVERSAMPLING * (hi - lo) + 1 for lo, hi in hills]
    nfft = 1 << (rows + max(counts) - 2).bit_length()

    def chirp(q):
        return np.exp(-1j * np.pi * ((q % (2 * P)) / P))

    j = np.arange(-(rows - 1), max(counts))
    kernel = np.zeros(nfft, dtype=complex)
    kernel[j % nfft] = chirp(-j * j)
    l = np.arange(rows)
    m0 = np.array([lo * HILL_OVERSAMPLING for lo, _ in hills])
    # Shape (hill, S, l): each signal column chirped for each hill.
    a = U.conj().T[None, :, :] * chirp(l * (l + 2 * m0[:, None]))[:, None, :]
    conv = np.fft.ifft(np.fft.fft(a, n=nfft, axis=-1) * np.fft.fft(kernel), axis=-1)
    energy = np.concatenate([
        np.sum(c[:, :k].real**2 + c[:, :k].imag**2, axis=0) for c, k in zip(conv, counts)
    ]) / rows
    return np.sqrt(np.clip(1.0 - energy, 0.0, 1.0))


def _residual_below_floor(U: np.ndarray, r: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Recompute with noise_correlation the entries of an FFT-form R below FFT_R_FLOOR.

    omega holds the position of each entry of r, which is changed in place
    and returned. No call is made when no entry is below the floor.
    """
    low = np.flatnonzero(r < FFT_R_FLOOR)
    if len(low):
        r[low] = noise_correlation(U, omega[low])
    return r


def _refine_peaks(U: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Safeguarded Newton ascent of E = ||U_S* phi_L||^2 from w on each [lo, hi].

    E = (L+1)(1 - R^2) peaks where J does; all peaks step in lockstep, one
    _energy_slopes product per step. A bracket shrinks to the side where E
    rises. The Newton step (infinite where E'' >= 0) is taken if it lands in
    the closed bracket, else the bracket is bisected. Stops at rounding-size
    steps. Positions are unwrapped, as a bracket may cross the 0/1 cut.
    """
    for _ in range(REFINE_ITERS):
        d1, d2 = _energy_slopes(U, w)
        lo, hi = np.where(d1 > 0, w, lo), np.where(d1 > 0, hi, w)
        newton = w - np.divide(d1, d2, out=np.full_like(d1, np.inf), where=d2 < 0)
        w, last = np.where((lo <= newton) & (newton <= hi), newton, (lo + hi) / 2.0), w
        if np.all(np.abs(w - last) <= 4.0 * np.finfo(float).eps):
            break
    return w


def _energy_slopes(U: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E' = 4 pi sum Im(conj(g_0) g_1) and E'' = 8 pi^2 (||g_1||^2 - sum Re(conj(g_0) g_2)).

    At each w, with g_k = U_S* (l^k phi_L(w)), all from one product.
    """
    l = np.arange(U.shape[0])[:, None]
    phi = _steering(len(l), w % 1.0)
    g0, g1, g2 = np.split(U.conj().T @ np.hstack([phi, l * phi, l * l * phi]), 3, axis=1)
    d1 = 4.0 * np.pi * np.sum((g0.conj() * g1).imag, axis=0)
    return d1, 8.0 * np.pi**2 * np.sum(g1.real**2 + g1.imag**2 - (g0.conj() * g2).real, axis=0)


def correlation_sup_diff(
    U_clean: np.ndarray, U_noisy: np.ndarray, N: int
) -> float:
    """Grid approximation of sup |R_noisy - R_clean| over the torus.

    Takes the two signal spaces and evaluates both R curves on the N
    uniform nodes with the FFT of _grid_correlation; nodes where R is below
    FFT_R_FLOOR (next to a zero of R) are recomputed with noise_correlation.
    The true sup can only be larger by the grid discretization error.
    """
    if U_clean.shape[0] != U_noisy.shape[0]:
        raise ValueError(
            f"signal spaces live in different dimensions: "
            f"{U_clean.shape[0]} vs {U_noisy.shape[0]}"
        )
    nodes = np.arange(N) / N
    curves = [
        _residual_below_floor(U, _grid_correlation(U, N), nodes) for U in (U_clean, U_noisy)
    ]
    return float(np.max(np.abs(curves[1] - curves[0])))


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
