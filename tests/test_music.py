import itertools
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srmusic.fourier import TAU_RANK, hankel, spectral_norm, svd_split, vandermonde
from srmusic.music import (
    HILL_OVERSAMPLING,
    PEAK_RTOL,
    UnderdeterminedPeaksError,
    _circular_local_maxima,
    _hill,
    _refine_peak,
    _signal_correlation,
    correlation_sup_diff,
    imaging_function,
    load_measurements,
    match_supports,
    music_estimate,
    noise_correlation,
    save_measurements,
    wedin_bound,
)
from srmusic.torus import ClumpSpec, SupportSet, generate_clumps, torus_distance


def well_separated_support(rng, S, M, factor=3.0):
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, S))
        gaps = np.diff(np.append(pts, pts[0] + 1.0))
        if gaps.min() >= factor / M:
            return SupportSet(pts)


def noise_space(y, S, L):
    return svd_split(hankel(y, L), S).noise_space


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


def dense_reference_estimate(y, S, L, N):
    """Refined MUSIC positions with R from the noise space W at every step.

    The dense grid scan, the hill resampling and golden-section search of
    music_estimate, all evaluated with noise_correlation.
    """
    correlation = partial(noise_correlation, noise_space(y, S, L))
    j = 1.0 / correlation(np.arange(N) / N)
    peaks = sorted(
        (-j[(a + (k - 1) // 2) % N], (a + (k - 1) // 2) % N, a, k)
        for a, k in circular_local_maxima_loop(j)
    )
    candidates = []
    for _, _, start, length in peaks[:S]:
        lo, hi = _hill(j, start, length)
        fine = (lo + np.arange(HILL_OVERSAMPLING * (hi - lo) + 1) / HILL_OVERSAMPLING) / N
        fine_j = 1.0 / correlation(fine % 1.0)
        last = len(fine) - 1
        threshold = (1.0 + PEAK_RTOL) * max(fine_j[0], fine_j[last])
        for a, k in circular_local_maxima_loop(fine_j):
            m = a + (k - 1) // 2
            if a > 0 and a + k <= last and fine_j[m] > threshold:
                candidates.append((-fine_j[m], fine[m] % 1.0, fine[a - 1], fine[a + k]))
    candidates.sort()
    return [_refine_peak(correlation, lo, hi) % 1.0 for _, _, lo, hi in candidates[:S]]


def noisy_measurements(points, M, sigma, seed):
    rng = np.random.default_rng(seed)
    x = np.exp(2j * np.pi * rng.uniform(size=len(points)))
    half = sigma / math.sqrt(2.0)
    y = vandermonde(SupportSet(points), M).entries @ x
    return y + rng.normal(0.0, half, M + 1) + 1j * rng.normal(0.0, half, M + 1)


# (points as multiples of 1/M, M, L, N): odd and even L, N not a power of
# two, and a close pair straddling the 0/1 cut.
FAST_PATH_CASES = [
    ((-0.3, 0.4, 40.0), 100, 50, 803),
    ((-0.3, 0.4, 40.0), 100, 49, 1000),
    ((10.0, 10.5, 61.0, 130.0), 160, 81, 1291),
    ((-0.25, 0.08, 95.0), 200, 100, 1600),
]


class TestNoiseCorrelation:
    def test_zero_on_support(self):
        rng = np.random.default_rng(0)
        M, L, S = 60, 30, 3
        support = well_separated_support(rng, S, M)
        x = np.exp(2j * np.pi * rng.uniform(size=S))
        W = noise_space(vandermonde(support, M).entries @ x, S, L)
        for w in support.points:
            assert noise_correlation(W, w) <= TAU_RANK

    def test_bounded_away_far_from_support(self):
        rng = np.random.default_rng(1)
        M, L, S = 60, 30, 3
        support = well_separated_support(rng, S, M)
        x = np.exp(2j * np.pi * rng.uniform(size=S))
        W = noise_space(vandermonde(support, M).entries @ x, S, L)
        grid = np.arange(0, 1, 1.0 / (16 * M))
        far = [
            w for w in grid
            if min(torus_distance(w, p) for p in support.points) >= 2.0 / M
        ]
        values = noise_correlation(W, np.array(far))
        assert values.min() > 0.1

    def test_full_noise_space_gives_one(self):
        L = 12
        W = np.eye(L + 1, dtype=complex)
        grid = np.linspace(0.0, 0.999, 50)
        assert np.allclose(noise_correlation(W, grid), 1.0)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(2)
        W, _ = np.linalg.qr(rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4)))
        omegas = rng.uniform(size=7)
        vec = noise_correlation(W, omegas)
        for w, v in zip(omegas, vec):
            assert noise_correlation(W, float(w)) == pytest.approx(v)


class TestImagingFunction:
    def test_reciprocal(self):
        # One noise-space column with overlap exactly 1/2 against the
        # steering direction at omega = 0 gives R = 0.5, J = 2.
        phi_hat = np.ones(4, dtype=complex) / 2.0
        ortho = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex) / 2.0
        W = (0.5 * phi_hat + math.sqrt(3.0) / 2.0 * ortho).reshape(-1, 1)
        assert noise_correlation(W, 0.0) == pytest.approx(0.5)
        assert imaging_function(W, 0.0) == pytest.approx(2.0)

    def test_infinite_on_support_noiseless(self):
        rng = np.random.default_rng(3)
        M, L, S = 40, 20, 2
        support = well_separated_support(rng, S, M)
        y0 = vandermonde(support, M).entries @ np.array([1.0, 1.0 + 0.5j])
        W = noise_space(y0, S, L)
        j = imaging_function(W, support.points[0])
        assert j > 1.0 / TAU_RANK / 10

    def test_one_when_fully_in_noise_space(self):
        W = np.eye(8, dtype=complex)
        assert imaging_function(W, 0.33) == pytest.approx(1.0)


class TestCircularLocalMaxima:
    def test_simple_and_plateau(self):
        values = np.array([0.0, 1.0, 0.0, 2.0, 2.0, 0.0])
        runs = _circular_local_maxima(values)
        assert (1, 1) in runs
        assert (3, 2) in runs
        assert len(runs) == 2

    def test_wraparound_plateau(self):
        values = np.array([3.0, 0.0, 1.0, 0.0, 3.0])
        runs = _circular_local_maxima(values)
        assert (4, 2) in runs  # run covers indices 4 and 0
        assert (2, 1) in runs

    def test_constant_has_none(self):
        assert _circular_local_maxima(np.ones(10)) == []

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan]),
                    min_size=1, max_size=40))
    @example([2.0, 2.0, 0.0, 1.0, 2.0])  # plateau wrapping around the end
    @example([math.nan])
    @example([math.inf] * 5)
    @example([1.0, math.nan, 1.0, 1.0])
    @settings(max_examples=500, deadline=None)
    def test_matches_loop_reference(self, values):
        values = np.array(values)
        assert _circular_local_maxima(values) == circular_local_maxima_loop(values)


class TestSignalSpaceFastPaths:
    """The signal-space paths of music_estimate against the noise-space form."""

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    def test_fft_grid_matches_dense_scan(self, points, M, L, N):
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, 0.05, seed=M + L)
        est = music_estimate(y, S=len(points), L=L, N=N)
        dense = noise_correlation(noise_space(y, len(points), L), np.arange(N) / N)
        assert np.max(np.abs(est.grid.values_R - dense)) <= 1e-10

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_residual_form_matches_noise_form(self, points, M, L, N, sigma):
        support = [(p / M) % 1.0 for p in points]
        y = noisy_measurements(support, M, sigma, seed=M + L)
        split = svd_split(hankel(y, L), len(points))
        U = split.signal_space
        omegas = np.concatenate([support, np.random.default_rng(M).uniform(size=200)])
        fast = _signal_correlation(U, U.conj().T, omegas)
        dense = noise_correlation(split.noise_space, omegas)
        assert np.max(np.abs(fast - dense)) <= 1e-12
        assert _signal_correlation(U, U.conj().T, support[0]) == pytest.approx(
            float(dense[0]), rel=0, abs=1e-12)

    @pytest.mark.parametrize("points, M, L, N", FAST_PATH_CASES)
    def test_refined_estimate_matches_dense_reference(self, points, M, L, N):
        y = noisy_measurements([(p / M) % 1.0 for p in points], M, 0.05, seed=M + L)
        est = music_estimate(y, S=len(points), L=L, N=N, refine=True)
        ref = SupportSet(dense_reference_estimate(y, len(points), L, N))
        assert match_supports(ref, est.recovered) <= 1e-8


class TestMusicEstimate:
    def test_noiseless_two_points(self):
        support = SupportSet([0.2, 0.7])
        y0 = vandermonde(support, 20).entries @ np.array([1.0, 1.0])
        est = music_estimate(y0, S=2, L=10)
        assert est.grid.resolution == 320
        assert match_supports(support, est.recovered) <= 1.0 / 320

    def test_noiseless_clump_srf_2p5_refined(self):
        M = 100
        base = 0.5
        support = SupportSet([base, base + 0.4 / M, base + 0.8 / M])
        x = np.array([1.0, -1.0 + 0.3j, 0.7j])
        y0 = vandermonde(support, M).entries @ x
        est = music_estimate(y0, S=3, L=50, refine=True)
        assert match_supports(support, est.recovered) < 1e-6

    def test_amplitude_scaling_invariance(self):
        rng = np.random.default_rng(4)
        M, L, S = 60, 30, 3
        support = well_separated_support(rng, S, M)
        x = rng.normal(size=S) + 1j * rng.normal(size=S)
        y1 = vandermonde(support, M).entries @ x
        e1 = music_estimate(y1, S=S, L=L)
        e2 = music_estimate(3.7j * y1, S=S, L=L)
        assert e1.recovered.points == e2.recovered.points
        assert np.allclose(e1.grid.values_R, e2.grid.values_R, atol=1e-9)

    def test_underdetermined_peaks(self):
        y = np.zeros(9, dtype=complex)
        y[0] = 1.0  # rank-one Hankel, constant correlation on the grid
        with pytest.raises(UnderdeterminedPeaksError, match="need 2"):
            music_estimate(y, S=2, L=4)

    def test_close_peaks_sharing_a_grid_maximum(self):
        # Criterion-9 trial (SRF 3, sigma index 6, trial 0): the two peaks of
        # J lie about 1.5 cells apart on the 8M grid and merge into a single
        # grid maximum; a far sidelobe is the next grid maximum.
        M, alpha = 200, 1.0 / 3.0
        rng = np.random.default_rng((0, 3, 6, 0))
        support, _ = generate_clumps(ClumpSpec(1, (2,), alpha=alpha, beta=1.0, M=M), seed=rng)
        x = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
        half = float(np.geomspace(0.007, 0.9, 16)[6]) / math.sqrt(2.0)
        y = vandermonde(support, M).entries @ x
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
        y0 = vandermonde(support, 20).entries @ np.array([1.0, 1.0])
        est = music_estimate(y0, S=2, L=10, refine=True)
        est.grid.save_csv(tmp_path / "grid.csv")
        est.save_json(tmp_path / "rec.json")
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "omega,R,J"
        assert len(lines) == 1 + est.grid.resolution
        rec = json.loads((tmp_path / "rec.json").read_text())
        assert rec["refined"] is True
        assert len(rec["points"]) == 2


class TestCorrelationSupDiff:
    def test_identity_zero(self):
        rng = np.random.default_rng(5)
        W, _ = np.linalg.qr(rng.normal(size=(11, 5)) + 1j * rng.normal(size=(11, 5)))
        assert correlation_sup_diff(W, W, 128) == 0.0

    def test_unitary_mixing_invariance(self):
        rng = np.random.default_rng(6)
        W, _ = np.linalg.qr(rng.normal(size=(11, 5)) + 1j * rng.normal(size=(11, 5)))
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert correlation_sup_diff(W, W @ Q, 128) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            correlation_sup_diff(np.eye(4), np.eye(5), 32)


class TestWedinBound:
    def test_zero_noise(self):
        report = wedin_bound(0.0, 1.0, 2.0, 3.0)
        assert report.wedin_bound == 0.0
        assert report.precondition_ok

    def test_direct_values(self):
        report = wedin_bound(1.0, 1.0, 2.0, 2.0)
        assert report.precondition_ok  # 2 < 4
        assert report.wedin_bound == pytest.approx(0.5)

    def test_guard_semantics(self):
        report = wedin_bound(2.0, 1.0, 1.0, 1.0)
        assert not report.precondition_ok  # 4 < 1 fails
        assert report.wedin_bound == pytest.approx(4.0)

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
        y0 = vandermonde(support, M).entries @ x
        sigma = 0.3
        half = sigma / math.sqrt(2.0)
        eta = rng.normal(0, half, M + 1) + 1j * rng.normal(0, half, M + 1)
        sup = correlation_sup_diff(
            noise_space(y0, S, L), noise_space(y0 + eta, S, L), 8 * M
        )
        report = wedin_bound(
            hankel_noise_norm=spectral_norm(hankel(eta, L)),
            x_min=float(np.min(np.abs(x))),
            sigma_min_L=float(
                np.linalg.svd(vandermonde(support, L).entries, compute_uv=False).min()
            ),
            sigma_min_ML=float(
                np.linalg.svd(vandermonde(support, M - L).entries, compute_uv=False).min()
            ),
            sup_norm_diff=sup,
        )
        if report.precondition_ok:
            assert sup <= report.wedin_bound


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
        y0 = vandermonde(support, M).entries @ np.array([1.0, 2.0j])
        W = noise_space(y0, S, L)
        Q, _ = np.linalg.qr(
            rng.normal(size=(W.shape[1], W.shape[1]))
            + 1j * rng.normal(size=(W.shape[1], W.shape[1]))
        )
        grid = np.arange(0, 1, 1 / 128)
        r1 = noise_correlation(W, grid)
        r2 = noise_correlation(W @ Q, grid)
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
