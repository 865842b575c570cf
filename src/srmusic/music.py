"""Single-snapshot MUSIC: noise-space correlation, imaging function, peak extraction.

The estimator Hankelizes the measurements, splits the left singular
subspace at rank S, scans the imaging function J = 1/R on a uniform grid,
resamples the hills of its S largest circular local maxima more finely so
that peaks merged on the grid come apart, and returns the S largest of the
resulting maxima, optionally polished by Newton's method.
correlation_sup_diff measures the sup-norm change of R under noise, and
wedin_bound returns the Wedin-type bound on it with its precondition, as
(bound, precondition_ok).

R is evaluated from the signal space U_S alone; no noise basis W is
formed. [U_S | W] is unitary, so R(omega)^2 = 1 - E(omega)/(L+1), with
E = ||U_S* phi_L||^2 (the MUSIC pseudo-spectrum identity). E is a real
trigonometric polynomial of degree L; its coefficients are the diagonal
sums of the projector U_S U_S* (the root-MUSIC observation), and one FFT
of the S signal columns gives them. One length-N FFT of those L+1
coefficients gives R at every grid node, for the imaging scan and for the
sup-norm comparison; one Bluestein chirp-z row of them per hill gives R at
the fine samples of every resampled hill. The difference 1 - E/(L+1)
cancels where R is near zero, so hill samples and compared grid nodes
where this FFT form is below FFT_R_FLOOR, and the peak values, use the
residual ||phi_L - U_S U_S* phi_L|| / sqrt(L+1) (noise_correlation),
which is as accurate as ||W* phi_L|| / sqrt(L+1). The imaging grid keeps
the FFT form, which still orders its maxima; the refinement needs only the
derivatives of E, which do not cancel.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from srmusic.csvtext import write_csv
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
        write_csv(path, "omega,R,J", [self.nodes, self.values_R, self.values_J])


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
    Q, exponents, _ = _row_tables(rows)
    both = np.exp(-2j * np.pi * (exponents * om))
    return (both[:Q, None, :] * both[None, Q:, :]).reshape(-1, len(om))[:rows]


@functools.lru_cache(maxsize=8)
def _row_tables(rows: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Q and the exponent column B*q (q < Q), then r (r < B), of _steering; l^k, k <= 2."""
    B = math.isqrt(rows - 1) + 1
    Q = -(-rows // B)
    powers = np.arange(rows)[:, None, None] ** np.arange(3)[:, None]  # shape (rows, 3, 1)
    return Q, np.concatenate((B * np.arange(Q), np.arange(B)))[:, None], powers


def _energy_coefficients(U: np.ndarray) -> np.ndarray:
    """Coefficients q_d, d <= L, of E(omega) = ||U_S* phi_L||^2 = Re sum q_d exp(-2 pi i d omega).

    q_0 = p_0 and q_d = 2 p_d, with p_d the sum of the d-th superdiagonal of
    U_S U_S*: p = ifft(sum_k |fft(conj(U_k))|^2) at a power of two
    n >= 2L+1, where no lag wraps.
    """
    rows = U.shape[0]
    coeffs = np.fft.fft(U.conj(), n=1 << (2 * rows - 2).bit_length(), axis=0)
    q = np.fft.ifft(np.sum(coeffs.real**2 + coeffs.imag**2, axis=1))[:rows]
    q[1:] *= 2.0
    return q


def _grid_correlation(q: np.ndarray, N: int) -> np.ndarray:
    """R at the nodes k/N, from one length-N FFT of the coefficients q of E.

    E(k/N) = Re sum_d q_d exp(-2 pi i d k/N) depends on d mod N alone: the
    zero-padded FFT of q for N >= L+1, of q folded into N bins below. The
    form sqrt(1 - E/(L+1)) loses precision where R is near zero (it floors
    near 1e-8), which still orders the grid maxima.
    """
    rows = len(q)
    if N < rows:
        q = np.pad(q, (0, -rows % N)).reshape(-1, N).sum(axis=0)
    energy = np.fft.fft(q, N).real / rows
    return np.sqrt(np.clip(1.0 - energy, 0.0, 1.0))


def _circular_local_maxima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the circular local maxima runs, plateau aware.

    A run of equal values counts as a single maximum when both neighboring
    runs are strictly lower. A constant array has no maxima.
    """
    ring = np.concatenate((values[-1:], values, values[:1]))
    rises = ring[1:] > ring[:-1]  # rises[i]: values[i] > values[i-1], circularly
    # A maximum run starts with a rise not followed by another; it ends at
    # the next change of value, and is a maximum if that change falls.
    starts = np.flatnonzero(rises[:-1] > rises[1:])
    changes = np.flatnonzero(ring[1:-1] != ring[:-2])
    nxt = changes[np.searchsorted(changes, starts, side="right") % max(len(changes), 1)]
    is_max = values[starts] > values[nxt]
    return starts[is_max], ((nxt - starts) % len(values))[is_max]


def check_grid(N: int, M: int) -> None:
    """Reject an imaging grid coarser than MIN_GRID_FACTOR*M nodes."""
    if N < MIN_GRID_FACTOR * M:
        raise ValueError(f"grid resolution {N} below {MIN_GRID_FACTOR}*M = {MIN_GRID_FACTOR * M}")


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
    check_grid(N, M)

    split = svd_split(hankel(y, L), S)
    s = split.singular_values
    rank_tol = max(L + 1, M - L + 1) * np.finfo(float).eps * s[0]
    if s[S - 1] <= rank_tol:
        raise RankDeficientError(
            f"S = {S} is above the numerical rank of the {L + 1}x{M - L + 1} Hankel "
            f"matrix: sigma_S = {s[S - 1]:.3g} <= {rank_tol:.3g}"
        )
    U = split.signal_space
    q = _energy_coefficients(U)
    values_r = _grid_correlation(q, N)
    with np.errstate(divide="ignore"):
        values_j = 1.0 / values_r
    grid = ImagingGrid(resolution=N, values_R=values_r, values_J=values_j)

    candidates = _hill_candidates(U, q, values_j, S)
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


def _hill_candidates(U: np.ndarray, q: np.ndarray, values_j: np.ndarray, S: int) -> list[tuple]:
    """Fine local maxima of J on the hills of its S largest grid maxima.

    Each hill, between the grid minima on either side of a maximum run, is
    sampled at lo/N + k/(HILL_OVERSAMPLING*N) by _zoom_correlation from the
    coefficients q of E. Returns (J, position, bracket lo, bracket hi) per
    candidate, hill by hill, positions unwrapped.
    """
    N = len(values_j)
    starts, lengths = _circular_local_maxima(values_j)
    mids = (starts + (lengths - 1) // 2) % N
    # Largest grid maxima first; ties broken toward smaller omega.
    top = np.lexsort((mids, -values_j[mids]))[:S]
    hills = [_hill(values_j, *run) for run in zip(starts[top].tolist(), lengths[top].tolist())]
    if not hills:
        return []
    # Sample i of the concatenation is m/P, m = lo*H + i - first[h]: (lo + k/H)/N, H = 16.
    lo, hi = np.array(hills).T
    counts = HILL_OVERSAMPLING * (hi - lo) + 1
    first = np.cumsum(counts) - counts
    m = np.arange(counts.sum()) + np.repeat(HILL_OVERSAMPLING * lo - first, counts)
    fine = m / (HILL_OVERSAMPLING * N)
    r = _residual_below_floor(U, _zoom_correlation(q, N, hills), fine)
    with np.errstate(divide="ignore"):
        fine_j = 1.0 / r
    a, k = _circular_local_maxima(fine_j)
    h = np.searchsorted(first, a, side="right") - 1
    # Runs touching a hill edge belong to the neighboring hill.
    inner = (a > first[h]) & (a + k < first[h] + counts[h])
    a, k, h = a[inner], k[inner], h[inner]
    mid = a + (k - 1) // 2
    edges = np.maximum(fine_j[first[h]], fine_j[first[h] + counts[h] - 1])
    keep = fine_j[mid] > (1.0 + PEAK_RTOL) * edges
    a, k, mid = a[keep], k[keep], mid[keep]
    return list(zip(fine_j[mid], fine[mid], fine[a - 1], fine[a + k]))


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


def _zoom_correlation(q: np.ndarray, N: int, hills: list[tuple[int, int]]) -> np.ndarray:
    """FFT-form R at the fine samples of every hill, concatenated hill by hill.

    Hill (lo, hi) is sampled at m/P, m = lo*H + k, 0 <= k <= H*(hi - lo),
    with H = HILL_OVERSAMPLING and P = H*N. A Bluestein chirp-z transform
    gives E(m/P) = Re sum_l q_l exp(-2 pi i l m/P) from the coefficients q
    for all of them with three FFTs: with lk = (l^2 + k^2 - (k-l)^2)/2 the
    sum is the convolution of q_l c(l^2 + 2 l lo H) with c(-j^2), times the
    unit-modulus c(k^2), where c(t) = exp(-pi i t/P). The kernel depends
    only on P, the rows and the longest hill, so one kernel serves all hills,
    and _bluestein_kernel keeps its FFT for later calls of the same size. Each
    t is an integer reduced mod 2P before it becomes a phase, so every
    chirp carries a single rounding however large l and m grow.
    """
    rows = len(q)
    P = HILL_OVERSAMPLING * N
    lo, hi = np.array(hills).T
    counts = HILL_OVERSAMPLING * (hi - lo) + 1
    width = int(counts.max())
    kernel, tail = _bluestein_kernel(rows, width, P)
    l = np.arange(rows)
    # Rows: each hill's coefficients chirped by c(l^2 + 2 l lo H), zero-padded.
    chirped = np.zeros((len(counts), len(kernel)), dtype=complex)
    chirped[:, :rows] = q * np.exp(-1j * np.pi * (((l * (l + 2 * HILL_OVERSAMPLING * lo[:, None]))
                                                   % (2 * P)) / P))
    sums = np.fft.ifft(np.fft.fft(chirped, axis=-1) * kernel, axis=-1)[:, :width] * tail
    energy = sums.real[np.arange(width) < counts[:, None]] / rows
    return np.sqrt(np.clip(1.0 - energy, 0.0, 1.0))


@functools.lru_cache(maxsize=4)
def _bluestein_kernel(rows: int, width: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """FFT of the kernel c(-j^2), -rows < j < width, and the chirps c(k^2), k < width.

    They depend on the sizes alone; four entries hold the common hill widths
    (72% of calls hit in a criterion-9 run), and more would raise peak RSS.
    """
    j = np.arange(-(rows - 1), width)
    chirps = np.exp(-1j * np.pi * ((np.concatenate((-j * j, j[rows - 1:] ** 2)) % (2 * P)) / P))
    kernel = np.zeros(1 << (rows + width - 2).bit_length(), dtype=complex)
    kernel[j % len(kernel)] = chirps[:len(j)]
    return np.fft.fft(kernel), chirps[len(j):]


def _residual_below_floor(U: np.ndarray, r: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Recompute with noise_correlation the entries of an FFT-form R below FFT_R_FLOOR.

    omega holds the (possibly unwrapped) position of each entry of r, which
    is changed in place and returned. No call is made when none is below.
    """
    low = np.flatnonzero(r < FFT_R_FLOOR)
    if len(low):
        r[low] = noise_correlation(U, omega[low] % 1.0)
    return r


def _refine_peaks(U: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Safeguarded Newton ascent of E = ||U_S* phi_L||^2 from w on each [lo, hi].

    E = (L+1)(1 - R^2) peaks where J does; all peaks step in lockstep, one
    _energy_slopes product per step. A bracket shrinks to the side where E
    rises. The Newton step (infinite where E'' >= 0) is taken if it lands in
    the closed bracket, else the bracket is bisected. Stops at rounding-size
    steps. Positions are unwrapped, as a bracket may cross the 0/1 cut.
    """
    tol = 4.0 * np.finfo(float).eps
    for _ in range(REFINE_ITERS):
        d1, d2 = _energy_slopes(U, w)
        lo, hi = np.where(d1 > 0, w, lo), np.where(d1 > 0, hi, w)
        newton = w - np.divide(d1, d2, out=np.full(len(w), np.inf), where=d2 < 0)
        w, last = np.where((lo <= newton) & (newton <= hi), newton, (lo + hi) / 2.0), w
        if (abs(w - last) <= tol).all():
            break
    return w


def _energy_slopes(U: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E' = 4 pi sum Im(conj(g_0) g_1) and E'' = 8 pi^2 (||g_1||^2 - sum Re(conj(g_0) g_2)).

    At each w, with g_k = U_S* (l^k phi_L(w)), all from one product.
    """
    rows = U.shape[0]
    x = (_steering(rows, w % 1.0)[:, None] * _row_tables(rows)[2]).reshape(rows, -1)  # k, then w
    g = (U.conj().T @ x).reshape(-1, 3, len(w))
    h = g[:, :1].conj() * g[:, 1:]  # conj(g_0) g_1 and conj(g_0) g_2
    d1 = 4.0 * np.pi * h[:, 0].imag.sum(axis=0)
    return d1, 8.0 * np.pi**2 * (g[:, 1].real**2 + g[:, 1].imag**2 - h[:, 1].real).sum(axis=0)


def correlation_sup_diff(
    U_clean: np.ndarray, U_noisy: np.ndarray, N: int
) -> float:
    """Grid approximation of sup |R_noisy - R_clean| over the torus.

    Takes the two signal spaces and evaluates both R curves on the N
    uniform nodes (any N >= 1) with the FFT of _grid_correlation; nodes where R is below
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
        _residual_below_floor(U, _grid_correlation(_energy_coefficients(U), N), nodes)
        for U in (U_clean, U_noisy)
    ]
    return float(np.max(np.abs(curves[1] - curves[0])))


def wedin_bound(
    hankel_noise_norm: float,
    x_min: float,
    sigma_min_L: float,
    sigma_min_ML: float,
) -> tuple[float, bool]:
    """Wedin-type bound 2||H(eta)|| / (x_min sigma_min(Phi_L) sigma_min(Phi_{M-L})).

    Returns (bound, precondition_ok). The precondition is that the bound is
    below 1, tested as 2||H(eta)|| < x_min * sigma_min_L * sigma_min_ML
    (not as bound < 1, which rounding can flip); when it fails the bound is
    still returned, flagged as outside its validity regime.
    """
    if x_min <= 0 or sigma_min_L <= 0 or sigma_min_ML <= 0:
        raise ValueError("x_min and the sigma_min factors must be positive")
    if hankel_noise_norm < 0:
        raise ValueError("hankel_noise_norm must be nonnegative")
    denom = x_min * sigma_min_L * sigma_min_ML
    return 2.0 * hankel_noise_norm / denom, 2.0 * hankel_noise_norm < denom


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
    S = truth.size
    shifts = np.add.outer(np.arange(S), np.arange(S)) % S  # row k: e_(i+k mod S)
    d = np.abs(truth.as_array() - estimate.as_array()[shifts])
    return float(np.minimum(d, 1.0 - d).max(axis=1).min())


def save_measurements(y: np.ndarray, path) -> None:
    """Write measurements as rows of (index, re, im); format by extension."""
    y = np.asarray(y, dtype=complex)
    path = Path(path)
    if path.suffix == ".json":
        rows = [[i, float(v.real), float(v.imag)] for i, v in enumerate(y)]
        path.write_text(json.dumps(rows) + "\n")
    else:
        write_csv(path, "index,re,im", [np.arange(len(y)), y.real, y.imag])


_MEASUREMENT_ROW = np.dtype([("index", np.int64), ("re", float), ("im", float)])


def _is_measurement_row(row) -> bool:
    """A decoded JSON row [index, re, im]: an int64 integer, then two numbers (no bools)."""
    return (isinstance(row, list) and len(row) == 3
            and type(row[0]) is int and abs(row[0]) < 2**63
            and all(type(v) in (int, float) for v in row[1:]))


def load_measurements(path) -> np.ndarray:
    """Read measurements written by save_measurements (CSV or JSON).

    A file without rows, a row that is not three numbers (an integer index,
    then re and im), gaps in the indices and non-finite values are each a
    ValueError.
    """
    path = Path(path)
    if path.suffix == ".json":
        rows = json.loads(path.read_text())
        if not (isinstance(rows, list) and all(map(_is_measurement_row, rows))):
            raise ValueError(f"{path}: JSON measurements must be a list of "
                             f"[index, re, im] rows of numbers")
        table = np.array([tuple(row) for row in rows], dtype=_MEASUREMENT_ROW)
    else:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=_MEASUREMENT_ROW, delimiter=",", skiprows=1,
                               ndmin=1, comments=None, quotechar='"')
    if len(table) == 0:
        raise ValueError(f"no measurements in {path}")
    table = table[np.argsort(table["index"], kind="stable")]
    if not np.array_equal(table["index"], np.arange(len(table))):
        raise ValueError("measurement indices must be 0..M without gaps")
    y = np.empty(len(table), dtype=complex)
    y.real, y.imag = table["re"], table["im"]
    bad = np.flatnonzero(~np.isfinite(y))
    if len(bad):
        raise ValueError(f"measurement {int(bad[0])} is not finite: {y[bad[0]]}")
    return y
