import csv
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srmusic.csvtext import CSV_CHUNK_ROWS
from srmusic.fourier import hankel, spectral_norm, svd_split, vandermonde
from srmusic import music as music_module
from srmusic.music import (
    FFT_R_FLOOR,
    HILL_OVERSAMPLING,
    PEAK_RTOL,
    REFINE_ITERS,
    ImagingGrid,
    RankDeficientError,
    UnderdeterminedPeaksError,
    _bluestein_kernel,
    _circular_local_maxima,
    _energy_coefficients,
    _energy_slopes,
    _grid_correlation,
    _hill,
    _hill_candidates,
    _refine_peaks,
    _zoom_correlation,
    correlation_sup_diff,
    load_measurements,
    match_supports,
    music_estimate,
    noise_correlation,
    save_measurements,
    wedin_bound,
)
from srmusic.torus import ClumpSpec, SupportSet, generate_clumps, torus_distance

TAU_RANK = 1e-8  # numerical-rank tolerance


def well_separated_support(rng, S, M, factor=3.0):
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, S))
        gaps = np.diff(np.append(pts, pts[0] + 1.0))
        if gaps.min() >= factor / M:
            return SupportSet(pts)


def signal_space(y, S, L):
    return svd_split(hankel(y, L), S).signal_space


def dense_noise_correlation(U, omega):
    """Reference R from a noise basis W: ||W* phi_L|| / sqrt(L+1).

    W holds the last columns of a complete QR factor of U, so [U | W] spans
    C^(L+1) with orthonormal columns. The steering vectors are formed 2048
    positions at a time, so a 16,000-node grid at L = 500 stays small.
    """
    W = np.linalg.qr(U, mode="complete")[0][:, U.shape[1]:]
    rows = U.shape[0]
    omega = np.atleast_1d(omega)
    norms = [
        np.linalg.norm(W.conj().T @ np.exp(-2j * np.pi * np.outer(np.arange(rows), block)), axis=0)
        for block in np.split(omega, range(2048, len(omega), 2048))
    ]
    return np.minimum(np.concatenate(norms) / math.sqrt(rows), 1.0)


def dense_sup_diff(U_clean, U_noisy, N):
    """Reference correlation_sup_diff: both curves from dense_noise_correlation."""
    nodes = np.arange(N) / N
    return float(np.max(np.abs(
        dense_noise_correlation(U_noisy, nodes) - dense_noise_correlation(U_clean, nodes)
    )))


def circular_local_maxima_loop(values):
    """Reference for _circular_local_maxima: one Python step per change point."""
    n = len(values)
    starts = np.nonzero(values != np.roll(values, 1))[0]
    if len(starts) == 0:
        return []
    maxima = []
    k = len(starts)
    for i in range(k):
        start = starts[i]
        nxt = starts[(i + 1) % k]
        length = (nxt - start) % n
        if length == 0:
            length = n
        v = values[start]
        if v > values[(start - 1) % n] and v > values[nxt]:
            maxima.append((int(start), int(length)))
    return maxima


def refine_peak_loop(correlation, lo, hi):
    """Reference for _refine_peaks: golden section on one bracket, one point per call."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = correlation(c % 1.0)
    fd = correlation(d % 1.0)
    for _ in range(REFINE_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = correlation(c % 1.0)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = correlation(d % 1.0)
    return (a + b) / 2.0


def largest_hills(j, S):
    """Brackets (lo, hi) of the hills of the S largest grid maxima of j, largest first."""
    N = len(j)
    peaks = sorted(
        (-j[(a + (k - 1) // 2) % N], (a + (k - 1) // 2) % N, a, k)
        for a, k in circular_local_maxima_loop(j)
    )
    return [_hill(j, start, length) for _, _, start, length in peaks[:S]]


def hill_scan_loop(correlation, j, S):
    """Reference for _hill_candidates: each hill's fine samples evaluated by correlation.

    Returns (J, position, bracket lo, bracket hi) per candidate, positions
    unwrapped, in the order music_estimate's hill scan finds them.
    """
    N = len(j)
    candidates = []
    for lo, hi in largest_hills(j, S):
        fine = (lo + np.arange(HILL_OVERSAMPLING * (hi - lo) + 1) / HILL_OVERSAMPLING) / N
        with np.errstate(divide="ignore"):
            fine_j = 1.0 / correlation(fine % 1.0)
        last = len(fine) - 1
        threshold = (1.0 + PEAK_RTOL) * max(fine_j[0], fine_j[last])
        for a, k in circular_local_maxima_loop(fine_j):
            m = a + (k - 1) // 2
            if a > 0 and a + k <= last and fine_j[m] > threshold:
                candidates.append((fine_j[m], fine[m], fine[a - 1], fine[a + k]))
    return candidates


def zoom_correlation_uncached(q, N, hills):
    """Reference for _zoom_correlation: every chirp and the kernel's FFT made afresh."""
    rows, P = len(q), HILL_OVERSAMPLING * N
    counts = [HILL_OVERSAMPLING * (hi - lo) + 1 for lo, hi in hills]
    nfft = 1 << (rows + max(counts) - 2).bit_length()

    def chirp(t):
        return np.exp(-1j * np.pi * ((t % (2 * P)) / P))

    j = np.arange(-(rows - 1), max(counts))
    kernel = np.zeros(nfft, dtype=complex)
    kernel[j % nfft] = chirp(-j * j)
    l = np.arange(rows)
    a = q * chirp(l * (l + 2 * HILL_OVERSAMPLING * np.array([lo for lo, _ in hills])[:, None]))
    conv = np.fft.ifft(np.fft.fft(a, n=nfft, axis=-1) * np.fft.fft(kernel), axis=-1)
    sums = conv[:, :max(counts)] * chirp(j[rows - 1:] ** 2)
    energy = np.concatenate([e[:k].real for e, k in zip(sums, counts)]) / rows
    return np.sqrt(np.clip(1.0 - energy, 0.0, 1.0))


def dense_reference_estimate(y, S, L, N):
    """Refined MUSIC positions with R from the noise space W at every step.

    The dense grid scan, the hill resampling and golden-section search of
    music_estimate, all evaluated with dense_noise_correlation.
    """
    U = signal_space(y, S, L)

    def correlation(omega):
        r = dense_noise_correlation(U, omega)
        return float(r[0]) if np.isscalar(omega) else r

    candidates = hill_scan_loop(correlation, 1.0 / correlation(np.arange(N) / N), S)
    candidates.sort(key=lambda c: (-c[0], c[1] % 1.0))
    return [refine_peak_loop(correlation, lo, hi) % 1.0 for _, _, lo, hi in candidates[:S]]


def noisy_measurements(points, M, sigma, seed):
    rng = np.random.default_rng(seed)
    x = np.exp(2j * np.pi * rng.uniform(size=len(points)))
    half = sigma / math.sqrt(2.0)
    y = vandermonde(SupportSet(points), M) @ x
    return y + rng.normal(0.0, half, M + 1) + 1j * rng.normal(0.0, half, M + 1)


# (points as multiples of 1/M, M, L, N): odd and even L, N not a power of
# two, a close pair straddling the 0/1 cut, and a music-large-m layout:
# 4 clumps of 2 at M = 1000.
FAST_PATH_CASES = [
    ((-0.3, 0.4, 40.0), 100, 50, 803),
    ((-0.3, 0.4, 40.0), 100, 49, 1000),
    ((10.0, 10.5, 61.0, 130.0), 160, 81, 1291),
    ((-0.25, 0.08, 95.0), 200, 100, 1600),
    ((10.0, 11.4, 260.0, 261.3, 500.0, 501.6, 760.0, 761.5), 1000, 500, 16000),
]


class TestNoiseCorrelation:
    def test_zero_on_support(self):
        rng = np.random.default_rng(0)
        M, L, S = 60, 30, 3
        support = well_separated_support(rng, S, M)
        x = np.exp(2j * np.pi * rng.uniform(size=S))
        U = signal_space(vandermonde(support, M) @ x, S, L)
        for w in support.points:
            assert noise_correlation(U, w) <= TAU_RANK

    def test_bounded_away_far_from_support(self):
        rng = np.random.default_rng(1)
        M, L, S = 60, 30, 3
        support = well_separated_support(rng, S, M)
        x = np.exp(2j * np.pi * rng.uniform(size=S))
        U = signal_space(vandermonde(support, M) @ x, S, L)
        grid = np.arange(0, 1, 1.0 / (16 * M))
        far = [
            w for w in grid
            if min(torus_distance(w, p) for p in support.points) >= 2.0 / M
        ]
        values = noise_correlation(U, np.array(far))
        assert values.min() > 0.1

    def test_full_noise_space_gives_one(self):
        # An empty signal space leaves all of C^(L+1) to the noise space.
        L = 12
        U = np.zeros((L + 1, 0), dtype=complex)
        grid = np.linspace(0.0, 0.999, 50)
        assert np.allclose(noise_correlation(U, grid), 1.0)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(2)
        U, _ = np.linalg.qr(rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4)))
        omegas = rng.uniform(size=7)
        vec = noise_correlation(U, omegas)
        for w, v in zip(omegas, vec):
            assert noise_correlation(U, float(w)) == pytest.approx(v)


class TestImagingFunction:
    def test_reciprocal(self):
        # One signal column with overlap sqrt(3)/2 against the steering
        # direction at omega = 0 leaves R = 0.5.
        phi_hat = np.ones(4, dtype=complex) / 2.0
        ortho = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex) / 2.0
        U = (math.sqrt(3.0) / 2.0 * phi_hat + 0.5 * ortho).reshape(-1, 1)
        assert noise_correlation(U, 0.0) == pytest.approx(0.5)
        # music_estimate reports J = 1/R on its grid and, in the residual
        # form, at its peaks, refined or not. At sigma = 0.01, R at the fine
        # peaks is about 2e-3, just above FFT_R_FLOOR, where the FFT form of
        # R errs by about 5e-11 relative.
        for sigma in (0.05, 0.01):
            y = noisy_measurements([0.2, 0.7], 20, sigma, seed=3)
            U = signal_space(y, 2, 10)
            for refine in (True, False):
                est = music_estimate(y, S=2, L=10, refine=refine)
                assert np.array_equal(est.grid.values_J, 1.0 / est.grid.values_R)
                for w, j in zip(est.recovered.points, est.peak_values):
                    assert j == pytest.approx(1.0 / noise_correlation(U, w), rel=1e-12)

    def test_infinite_on_support_noiseless(self):
        rng = np.random.default_rng(3)
        M, L, S = 40, 20, 2
        support = well_separated_support(rng, S, M)
        y0 = vandermonde(support, M) @ np.array([1.0, 1.0 + 0.5j])
        est = music_estimate(y0, S=S, L=L, refine=True)
        assert min(est.peak_values) > 1.0 / TAU_RANK / 10

    def test_one_when_fully_in_noise_space(self):
        U = np.zeros((8, 0), dtype=complex)
        assert 1.0 / noise_correlation(U, 0.33) == pytest.approx(1.0)


class TestCircularLocalMaxima:
    def test_simple_and_plateau(self):
        values = np.array([0.0, 1.0, 0.0, 2.0, 2.0, 0.0])
        runs = list(zip(*_circular_local_maxima(values)))
        assert (1, 1) in runs
        assert (3, 2) in runs
        assert len(runs) == 2

    def test_wraparound_plateau(self):
        values = np.array([3.0, 0.0, 1.0, 0.0, 3.0])
        runs = list(zip(*_circular_local_maxima(values)))
        assert (4, 2) in runs  # run covers indices 4 and 0
        assert (2, 1) in runs

    def test_constant_has_none(self):
        assert all(len(a) == 0 for a in _circular_local_maxima(np.ones(10)))

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan]),
                    min_size=1, max_size=40))
    @example([2.0, 2.0, 0.0, 1.0, 2.0])  # plateau wrapping around the end
    @example([math.nan])
    @example([math.inf] * 5)
    @example([1.0, math.nan, 1.0, 1.0])
    @settings(max_examples=500, deadline=None)
    def test_matches_loop_reference(self, values):
        values = np.array(values)
        assert list(zip(*_circular_local_maxima(values))) == circular_local_maxima_loop(values)

    @pytest.mark.parametrize("seed", range(40))
    def test_plateau_across_the_seam_matches_loop_reference(self, seed):
        # A run of equal values split between the end and the start of the
        # array, beside lower, higher or equal neighbors and other plateaus.
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4, size=int(rng.integers(3, 30))).astype(float)
        head, tail = int(rng.integers(1, len(values))), int(rng.integers(1, len(values)))
        values[:head] = values[-tail:] = rng.choice([values.max() + 1, values.min(), 2.0])
        assert list(zip(*_circular_local_maxima(values))) == circular_local_maxima_loop(values)


class TestSignalSpaceFastPaths:
    """The signal-space paths of music_estimate against the noise-space form."""

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    def test_fft_grid_matches_dense_scan(self, points, M, L, N):
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, 0.05, seed=M + L)
        est = music_estimate(y, S=len(points), L=L, N=N)
        dense = dense_noise_correlation(signal_space(y, len(points), L), np.arange(N) / N)
        assert np.max(np.abs(est.grid.values_R - dense)) <= 1e-10

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_residual_form_matches_noise_form(self, points, M, L, N, sigma):
        support = [(p / M) % 1.0 for p in points]
        y = noisy_measurements(support, M, sigma, seed=M + L)
        U = signal_space(y, len(points), L)
        omegas = np.concatenate([support, np.random.default_rng(M).uniform(size=200)])
        fast = noise_correlation(U, omegas)
        dense = dense_noise_correlation(U, omegas)
        assert np.max(np.abs(fast - dense)) <= 1e-12
        assert noise_correlation(U, support[0]) == pytest.approx(
            float(dense[0]), rel=0, abs=1e-12)

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    def test_refined_estimate_matches_dense_reference(self, points, M, L, N):
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, 0.05, seed=M + L)
        est = music_estimate(y, S=len(points), L=L, N=N, refine=True)
        ref = SupportSet(dense_reference_estimate(y, len(points), L, N))
        assert match_supports(ref, est.recovered) <= 1e-8

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    def test_energy_coefficients(self, points, M, L, N):
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, 0.05, seed=M + L)
        U = signal_space(y, len(points), L)
        q = _energy_coefficients(U)
        assert q.shape == (L + 1,)
        assert abs(q[0] - len(points)) <= 1e-13
        omega = np.random.default_rng(N).uniform(size=200)
        phi = np.exp(-2j * np.pi * np.outer(np.arange(L + 1), omega))
        energy = np.linalg.norm(U.conj().T @ phi, axis=0) ** 2
        assert np.max(np.abs((q @ phi).real - energy)) <= 1e-12 * (L + 1)

    # The zero-padded FFT of q from N = L+1 on; the folded FFT below that.
    @pytest.mark.parametrize("N", [7, 40, 50, 51, 52, 64, 803, 1600])
    def test_grid_fft_is_the_folded_fft(self, N):
        y = noisy_measurements([0.05, 0.062, 0.7], 100, 0.05, seed=N)
        q = _energy_coefficients(signal_space(y, 3, 50))
        folded = np.pad(q, (0, -len(q) % N)).reshape(-1, N).sum(axis=0)
        reference = np.sqrt(np.clip(1.0 - np.fft.fft(folded).real / len(q), 0.0, 1.0))
        assert np.array_equal(_grid_correlation(q, N), reference)

    # Grids coarser than the L+1 = 51 Hankel rows, where lags alias mod N.
    @pytest.mark.parametrize("N", [40, 51])
    def test_coarse_grid_matches_dense_scan(self, N):
        y = noisy_measurements([0.05, 0.062, 0.7], 100, 0.05, seed=N)
        U = signal_space(y, 3, 50)
        grid = _grid_correlation(_energy_coefficients(U), N)
        assert np.max(np.abs(grid - dense_noise_correlation(U, np.arange(N) / N))) <= 1e-10


    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_zoom_scan_matches_residual_scan(self, points, M, L, N, sigma):
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, sigma, seed=M + L)
        S = len(points)
        U = signal_space(y, S, L)
        j = music_estimate(y, S=S, L=L, N=N).grid.values_J
        hills = largest_hills(j, S)
        fine = np.concatenate([
            (lo + np.arange(HILL_OVERSAMPLING * (hi - lo) + 1) / HILL_OVERSAMPLING) / N
            for lo, hi in hills
        ])
        q = _energy_coefficients(U)
        zoom = _zoom_correlation(q, N, hills)
        residual = noise_correlation(U, fine % 1.0)
        above = residual >= FFT_R_FLOOR
        assert np.max(np.abs(zoom - residual)[above]) <= 1e-12
        # Same fine sample and bracket for every candidate, in the same order.
        fast = _hill_candidates(U, q, j, S)
        ref = hill_scan_loop(lambda omega: noise_correlation(U, omega), j, S)
        assert [c[1:] for c in fast] == [c[1:] for c in ref]
        r_fast = 1.0 / np.array([c[0] for c in fast])
        r_ref = 1.0 / np.array([c[0] for c in ref])
        assert np.max(np.abs(r_fast - r_ref)) <= 1e-12

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    def test_zoom_with_cold_and_warm_kernel_equals_uncached(self, points, M, L, N):
        # The same bytes whether _bluestein_kernel computes the kernel or
        # returns it from its cache.
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, 0.05, seed=M + L)
        S = len(points)
        q = _energy_coefficients(signal_space(y, S, L))
        hills = largest_hills(music_estimate(y, S=S, L=L, N=N).grid.values_J, S)
        reference = zoom_correlation_uncached(q, N, hills)
        _bluestein_kernel.cache_clear()
        assert np.array_equal(_zoom_correlation(q, N, hills), reference)
        assert np.array_equal(_zoom_correlation(q, N, hills), reference)
        assert _bluestein_kernel.cache_info()[:2] == (1, 1)  # hits, misses


class TestRefinePeaks:
    """Lockstep safeguarded Newton against golden section and its own safeguards."""

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_never_worse_than_golden_section(self, points, M, L, N, sigma):
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, sigma, seed=M + L)
        S = len(points)
        U = signal_space(y, S, L)
        j = music_estimate(y, S=S, L=L, N=N).grid.values_J
        candidates = _hill_candidates(U, _energy_coefficients(U), j, S)
        candidates.sort(key=lambda c: (-c[0], c[1] % 1.0))
        _, start, lo, hi = np.array(candidates[:S]).T
        w = _refine_peaks(U, start, lo, hi)
        golden = np.array([
            refine_peak_loop(lambda omega: noise_correlation(U, omega), a, b)
            for a, b in zip(lo, hi)
        ])
        assert np.all((lo <= w) & (w <= hi))
        assert np.all(noise_correlation(U, w % 1.0) <= noise_correlation(U, golden % 1.0) + 1e-14)

    def test_slopes_match_central_differences(self):
        rng = np.random.default_rng(6)
        U, _ = np.linalg.qr(rng.normal(size=(11, 2)) + 1j * rng.normal(size=(11, 2)))
        w, h = rng.uniform(size=16), 1e-5

        def energy(omega):
            return len(U) * (1.0 - noise_correlation(U, omega % 1.0) ** 2)

        d1, d2 = _energy_slopes(U, w)
        assert np.max(np.abs(d1 - (energy(w + h) - energy(w - h)) / (2 * h))) <= 1e-5
        fd2 = (energy(w + h) - 2 * energy(w) + energy(w - h)) / h**2
        assert np.max(np.abs(d2 - fd2)) <= 1e-2

    def test_safeguards_keep_bracket_and_progress(self):
        # A random signal space; the global maximum of E = ||U* phi||^2 lies
        # between two minima m1 < top < m2 of E (maxima of R).
        rng = np.random.default_rng(6)
        U, _ = np.linalg.qr(rng.normal(size=(11, 2)) + 1j * rng.normal(size=(11, 2)))
        grid = np.arange(4096) / 4096
        r = noise_correlation(U, grid)
        k = int(np.argmin(r))
        m1, m2 = k, k
        while r[(m1 - 1) % 4096] > r[m1 % 4096]:
            m1 -= 1
        while r[(m2 + 1) % 4096] > r[m2 % 4096]:
            m2 += 1
        top, m1, m2 = grid[k], m1 / 4096, m2 / 4096
        # Peak 0 starts at the edge of its bracket, just past the inflection
        # point of the rising flank of E, where the Newton step leaps past
        # m2. Peak 1 starts next to m2 where E is convex, so a bare Newton
        # step would head for the minimum of E at m2.
        flank = np.linspace(m1, top, 512)
        d1, d2 = _energy_slopes(U, flank % 1.0)
        edge = flank[(d2 < 0) & (flank - d1 / d2 > m2)][0]
        lo = np.array([edge, m1])
        hi = np.array([m2, m2])
        start = np.array([edge, m2 - 0.02 * (m2 - top)])
        d1, d2 = _energy_slopes(U, start % 1.0)
        assert d1[0] > 0 and d2[1] >= 0
        w = _refine_peaks(U, start, lo, hi)
        assert np.all((lo <= w) & (w <= hi))
        r_w = noise_correlation(U, w % 1.0)
        assert np.all(r_w <= noise_correlation(U, start % 1.0))
        # Each peak reaches the maximum of E on its bracket.
        for a, b, v in zip(lo, hi, r_w):
            assert v <= noise_correlation(U, np.linspace(a, b, 2001) % 1.0).min() + 1e-12


class TestNoiseCorrelationCalls:
    """noise_correlation is called per stage, not per peak or per sample."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []

        def counting(U, omega):
            calls.append(np.size(omega))
            return noise_correlation(U, omega)

        monkeypatch.setattr(music_module, "noise_correlation", counting)
        return calls

    # S = 2 at the criterion-9 layout and S = 8 at M = 1000. Noiseless, so
    # every hill has samples below FFT_R_FLOOR. The two calls are that
    # floor recompute and the peak values; refinement makes none, and its
    # Newton steps take all S peaks per product.
    @pytest.mark.parametrize("points, M", [((50.0, 51.5), 200), (FAST_PATH_CASES[-1][0], 1000)])
    def test_count_does_not_grow_with_s(self, monkeypatch, points, M):
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, 0.0, seed=M)
        calls = self.count_calls(monkeypatch)
        steps = []

        def counting_slopes(U, w):
            steps.append(len(w))
            return _energy_slopes(U, w)

        monkeypatch.setattr(music_module, "_energy_slopes", counting_slopes)
        S = len(points)
        est = music_estimate(y, S=S, N=8 * M, refine=True)
        assert est.recovered.size == S
        assert len(calls) <= 2
        assert 0 not in calls
        assert 1 <= len(steps) <= 5
        assert steps == [S] * len(steps)

    def test_no_call_when_nothing_below_floor(self, monkeypatch):
        rng = np.random.default_rng(5)
        U, _ = np.linalg.qr(rng.normal(size=(11, 5)) + 1j * rng.normal(size=(11, 5)))
        V, _ = np.linalg.qr(rng.normal(size=(11, 5)) + 1j * rng.normal(size=(11, 5)))
        calls = self.count_calls(monkeypatch)
        assert correlation_sup_diff(U, V, 128) > 0.0
        assert calls == []


class TestMusicEstimate:
    def test_noiseless_two_points(self):
        support = SupportSet([0.2, 0.7])
        y0 = vandermonde(support, 20) @ np.array([1.0, 1.0])
        est = music_estimate(y0, S=2, L=10)
        assert est.grid.resolution == 320
        assert match_supports(support, est.recovered) <= 1.0 / 320

    def test_noiseless_clump_srf_2p5_refined(self):
        M = 100
        base = 0.5
        support = SupportSet([base, base + 0.4 / M, base + 0.8 / M])
        x = np.array([1.0, -1.0 + 0.3j, 0.7j])
        y0 = vandermonde(support, M) @ x
        est = music_estimate(y0, S=3, L=50, refine=True)
        assert match_supports(support, est.recovered) < 1e-6

    def test_amplitude_scaling_invariance(self):
        rng = np.random.default_rng(4)
        M, L, S = 60, 30, 3
        support = well_separated_support(rng, S, M)
        x = rng.normal(size=S) + 1j * rng.normal(size=S)
        y1 = vandermonde(support, M) @ x
        e1 = music_estimate(y1, S=S, L=L)
        e2 = music_estimate(3.7j * y1, S=S, L=L)
        assert e1.recovered.points == e2.recovered.points
        assert np.allclose(e1.grid.values_R, e2.grid.values_R, atol=1e-9)

    def test_underdetermined_peaks(self):
        y = np.zeros(9, dtype=complex)
        y[0] = y[8] = 1.0  # rank-two Hankel, constant correlation on the grid
        with pytest.raises(UnderdeterminedPeaksError, match="need 2"):
            music_estimate(y, S=2, L=4)

    def test_s_above_numerical_rank(self):
        # numpy's matrix_rank tolerance: sigma_S <= max(L+1, M-L+1)*eps*sigma_1.
        y = np.zeros(9, dtype=complex)
        y[0] = 1.0  # rank-one Hankel
        with pytest.raises(RankDeficientError, match="S = 2 is above the numerical rank"):
            music_estimate(y, S=2, L=4)
        y0 = vandermonde(SupportSet([0.2, 0.7]), 60) @ np.array([1.0, 1.0j])
        with pytest.raises(np.linalg.LinAlgError, match="S = 3"):
            music_estimate(y0, S=3, L=30)
        with pytest.raises(RankDeficientError):
            music_estimate(np.zeros(101, dtype=complex), S=1)
        assert music_estimate(y0, S=2, L=30).recovered.size == 2

    def test_close_peaks_sharing_a_grid_maximum(self):
        # Criterion-9 trial (SRF 3, sigma index 6, trial 0): the two peaks of
        # J lie about 1.5 cells apart on the 8M grid and merge into a single
        # grid maximum; a far sidelobe is the next grid maximum.
        M, alpha = 200, 1.0 / 3.0
        rng = np.random.default_rng((0, 3, 6, 0))
        support, _ = generate_clumps(ClumpSpec(1, (2,), alpha=alpha, beta=1.0, M=M), seed=rng)
        x = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
        half = float(np.geomspace(0.007, 0.9, 16)[6]) / math.sqrt(2.0)
        y = vandermonde(support, M) @ x
        y = y + rng.normal(0.0, half, M + 1) + 1j * rng.normal(0.0, half, M + 1)
        est = music_estimate(y, S=2, L=100, N=8 * M, refine=True)
        ref = music_estimate(y, S=2, L=100, N=128 * M, refine=True)
        assert match_supports(support, est.recovered) < alpha / (2 * M)
        assert np.allclose(est.recovered.points, ref.recovered.points, rtol=0, atol=1e-7)

    def test_parameter_validation(self):
        y = np.zeros(11, dtype=complex)
        with pytest.raises(ValueError):
            music_estimate(y, S=0, L=5)
        with pytest.raises(ValueError):
            music_estimate(y, S=3, L=9)
        with pytest.raises(ValueError):
            music_estimate(y, S=1, L=5, N=10)

    def test_grid_csv_and_json(self, tmp_path):
        support = SupportSet([0.25, 0.75])
        y0 = vandermonde(support, 20) @ np.array([1.0, 1.0])
        est = music_estimate(y0, S=2, L=10, refine=True)
        est.grid.save_csv(tmp_path / "grid.csv")
        est.save_json(tmp_path / "rec.json")
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "omega,R,J"
        assert len(lines) == 1 + est.grid.resolution
        rec = json.loads((tmp_path / "rec.json").read_text())
        assert rec["refined"] is True
        assert len(rec["points"]) == 2

    def test_grid_csv_matches_csv_writer(self, tmp_path):
        # The loop it replaced: csv.writer rows of repr floats. R = 0 gives J = inf.
        support = SupportSet([0.25, 0.75])
        grid = music_estimate(vandermonde(support, 20) @ np.array([1.0, 1.0]), S=2, L=10).grid
        values_r = grid.values_R.copy()
        values_r[[0, 5]] = 0.0
        with np.errstate(divide="ignore"):
            grid = ImagingGrid(grid.resolution, values_r, 1.0 / values_r)
        grid.save_csv(tmp_path / "grid.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "R", "J"])
            for w, r, j in zip(grid.nodes, grid.values_R, grid.values_J):
                writer.writerow([repr(float(w)), repr(float(r)), repr(float(j))])
        written = (tmp_path / "grid.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert b",0.0,inf\r\n" in written

    def test_grid_csv_across_chunks(self, tmp_path):
        # Rows are written CSV_CHUNK_ROWS at a time; the seams must not show.
        N = 2 * CSV_CHUNK_ROWS + 3
        values_r = np.random.default_rng(5).uniform(size=N)
        values_r[[0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS]] = 0.0
        with np.errstate(divide="ignore"):
            grid = ImagingGrid(N, values_r, 1.0 / values_r)
        grid.save_csv(tmp_path / "grid.csv")
        reference = ["omega,R,J\r\n"] + [
            f"{w!r},{r!r},{j!r}\r\n"
            for w, r, j in zip(grid.nodes.tolist(), values_r.tolist(), grid.values_J.tolist())
        ]
        assert (tmp_path / "grid.csv").read_bytes() == "".join(reference).encode()


class TestCorrelationSupDiff:
    def test_identity_zero(self):
        rng = np.random.default_rng(5)
        U, _ = np.linalg.qr(rng.normal(size=(11, 5)) + 1j * rng.normal(size=(11, 5)))
        assert correlation_sup_diff(U, U, 128) == 0.0

    def test_unitary_mixing_invariance(self):
        rng = np.random.default_rng(6)
        U, _ = np.linalg.qr(rng.normal(size=(11, 5)) + 1j * rng.normal(size=(11, 5)))
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert correlation_sup_diff(U, U @ Q, 128) <= 1e-12

    # (points as multiples of 1/M, M, L, N, sigma). In the first case a
    # source lies 5e-8 from the grid node 40/N = 0.05, where R_clean is
    # near the floor of the FFT form; the last case has the least noise.
    @pytest.mark.parametrize("points, M, L, N, sigma", [
        ((5.0 + 5e-6, 6.2, 70.0), 100, 50, 800, 0.05),
        ((-0.3, 0.4, 40.0), 100, 49, 1000, 0.3),
        ((10.0, 10.5, 61.0, 130.0), 160, 81, 1291, 0.1),
        ((-0.25, 0.08, 95.0), 200, 100, 1600, 1e-4),
        ((5.0 + 5e-6, 6.2, 70.0), 100, 50, 40, 0.05),
    ])
    def test_matches_dense_noise_form(self, points, M, L, N, sigma):
        support = [(p / M) % 1.0 for p in points]
        y0 = noisy_measurements(support, M, 0.0, seed=M + L)
        y = noisy_measurements(support, M, sigma, seed=M + L)
        U_clean = signal_space(y0, len(points), L)
        U_noisy = signal_space(y, len(points), L)
        sup = correlation_sup_diff(U_clean, U_noisy, N)
        assert sup > 0.0
        assert abs(sup - dense_sup_diff(U_clean, U_noisy, N)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            correlation_sup_diff(np.eye(4), np.eye(5), 32)


class TestWedinBound:
    def test_zero_noise(self):
        bound, precondition_ok = wedin_bound(0.0, 1.0, 2.0, 3.0)
        assert bound == 0.0
        assert precondition_ok

    def test_direct_values(self):
        bound, precondition_ok = wedin_bound(1.0, 1.0, 2.0, 2.0)
        assert precondition_ok  # 2 < 4
        assert bound == pytest.approx(0.5)

    def test_guard_semantics(self):
        bound, precondition_ok = wedin_bound(2.0, 1.0, 1.0, 1.0)
        assert not precondition_ok  # 4 < 1 fails
        assert bound == pytest.approx(4.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wedin_bound(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            wedin_bound(-1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_bound_holds_when_precondition_does(self, seed):
        rng = np.random.default_rng(seed)
        M, L, S = 80, 40, 3
        support = well_separated_support(rng, S, M)
        x = np.exp(2j * np.pi * rng.uniform(size=S))
        y0 = vandermonde(support, M) @ x
        sigma = 0.3
        half = sigma / math.sqrt(2.0)
        eta = rng.normal(0, half, M + 1) + 1j * rng.normal(0, half, M + 1)
        sup = correlation_sup_diff(
            signal_space(y0, S, L), signal_space(y0 + eta, S, L), 8 * M
        )
        bound, precondition_ok = wedin_bound(
            hankel_noise_norm=spectral_norm(hankel(eta, L)),
            x_min=float(np.min(np.abs(x))),
            sigma_min_L=float(
                np.linalg.svd(vandermonde(support, L), compute_uv=False).min()
            ),
            sigma_min_ML=float(
                np.linalg.svd(vandermonde(support, M - L), compute_uv=False).min()
            ),
        )
        if precondition_ok:
            assert sup <= bound


class TestMatchSupports:
    def test_identical(self):
        s = SupportSet([0.1, 0.4, 0.8])
        assert match_supports(s, s) == 0.0

    def test_order_preserving(self):
        truth = SupportSet([0.1, 0.9])
        estimate = SupportSet([0.11, 0.89])
        assert match_supports(truth, estimate) == pytest.approx(0.01)

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            match_supports(SupportSet([0.1]), SupportSet([0.1, 0.2]))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_factorial_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 6))
        a = SupportSet(rng.uniform(size=S))
        b = SupportSet(rng.uniform(size=S))
        brute = min(
            max(torus_distance(p, q) for p, q in zip(a.points, perm))
            for perm in itertools.permutations(b.points)
        )
        assert match_supports(a, b) == pytest.approx(brute)

    @pytest.mark.parametrize("S", range(1, 7))
    def test_equals_search_over_all_bijections(self, S):
        # Points near both sides of the 0/1 cut, so some alignments wrap.
        rng = np.random.default_rng(S)
        for _ in range(50):
            a, b = (SupportSet(rng.uniform(-0.1, 0.1, S) % 1.0 if rng.uniform() < 0.5
                               else rng.uniform(size=S)) for _ in range(2))
            brute = min(max(torus_distance(p, q) for p, q in zip(a.points, perm))
                        for perm in itertools.permutations(b.points))
            assert match_supports(a, b) == brute

    @given(st.lists(st.floats(0.0, 0.999, allow_nan=False), min_size=2, max_size=5,
                    unique=True),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, pts, data):
        S = len(pts)
        others = data.draw(
            st.lists(st.lists(st.floats(0.0, 0.999, allow_nan=False), min_size=S,
                              max_size=S, unique=True), min_size=2, max_size=2)
        )
        a = SupportSet(pts)
        b = SupportSet(others[0])
        c = SupportSet(others[1])
        assert match_supports(a, b) == pytest.approx(match_supports(b, a))
        assert match_supports(a, a) == 0.0
        assert match_supports(a, c) <= (
            match_supports(a, b) + match_supports(b, c) + 1e-12
        )


class TestSubspaceInvariance:
    def test_any_orthonormal_basis_same_r(self):
        rng = np.random.default_rng(7)
        M, L, S = 50, 25, 2
        support = well_separated_support(rng, S, M)
        y0 = vandermonde(support, M) @ np.array([1.0, 2.0j])
        U = signal_space(y0, S, L)
        Q, _ = np.linalg.qr(
            rng.normal(size=(U.shape[1], U.shape[1]))
            + 1j * rng.normal(size=(U.shape[1], U.shape[1]))
        )
        grid = np.arange(0, 1, 1 / 128)
        r1 = noise_correlation(U, grid)
        r2 = noise_correlation(U @ Q, grid)
        assert np.max(np.abs(r1 - r2)) <= 1e-12


class TestMeasurementIO:
    @pytest.mark.parametrize("name", ["y.csv", "y.json"])
    def test_round_trip(self, tmp_path, name):
        rng = np.random.default_rng(8)
        y = rng.normal(size=12) + 1j * rng.normal(size=12)
        path = tmp_path / name
        save_measurements(y, path)
        assert np.allclose(load_measurements(path), y, atol=0, rtol=0)

    @pytest.mark.parametrize("name", ["y.csv", "y.json"])
    def test_rejects_non_finite(self, tmp_path, name):
        y = np.ones(12, dtype=complex)
        y[3] = complex(math.inf, 0.0)
        y[8] = complex(0.0, math.nan)
        path = tmp_path / name
        save_measurements(y, path)
        with pytest.raises(ValueError, match="measurement 3 is not finite"):
            load_measurements(path)

    def test_gap_detection(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("index,re,im\n0,1.0,0.0\n2,0.5,0.0\n")
        with pytest.raises(ValueError, match="gaps"):
            load_measurements(path)

    @pytest.mark.parametrize("text, message", [
        ("", "no measurements"),
        ("index,re,im\r\n", "no measurements"),
        ("index,re,im\r\n0,1.0,0.0\r\n1,0.5\r\n", "requires 3 columns but 2 were found"),
        ("index,re,im\r\n0,1.0,0.0,7\r\n", "requires 3 columns but 4 were found"),
    ], ids=["empty", "header-only", "short-row", "long-row"])
    def test_rejects_malformed_csv(self, tmp_path, text, message):
        path = tmp_path / "y.csv"
        path.write_text(text, newline="")
        with pytest.raises(ValueError, match=message):
            load_measurements(path)

    @pytest.mark.parametrize("text", [
        "5",
        "[[0, 1.0, null], [1, 0.5, 0.0]]",
        "[[0, 1.0, 0.0], [1, 0.5]]",
        "[[0.5, 1.0, 0.0]]",
        "[[100000000000000000000000, 1.0, 0.0]]",
    ], ids=["not-a-list", "null-part", "short-row", "float-index", "huge-index"])
    def test_rejects_malformed_json(self, tmp_path, text):
        path = tmp_path / "y.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"\[index, re, im\] rows of numbers"):
            load_measurements(path)
