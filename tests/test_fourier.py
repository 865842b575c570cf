import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srmusic import fourier
from srmusic.fourier import (
    DENSE_MAX,
    HankelOperator,
    hankel,
    sigma_min,
    spectral_norm,
    svd_split,
    vandermonde,
)
from srmusic.music import RankDeficientError, music_estimate
from srmusic.noise import NOISE_KINDS, draw_noise
from srmusic.torus import SupportSet

# Orthonormality / factorization / numerical-rank tolerances.
TAU_ORTH = 1e-10
TAU_FAC = 1e-10
TAU_RANK = 1e-8


def random_support(rng, S, min_gap=0.0):
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, S))
        gaps = np.diff(np.append(pts, pts[0] + 1.0))
        if S == 1 or gaps.min() > min_gap:
            return SupportSet(pts)


class TestVandermonde:
    def test_zero_node(self):
        v = vandermonde(SupportSet([0.0]), 3)
        assert np.allclose(v, np.ones((4, 1)))

    def test_half_node_alternates(self):
        v = vandermonde(SupportSet([0.0, 0.5]), 2)
        assert np.allclose(v[:, 0], [1, 1, 1])
        assert np.allclose(v[:, 1], [1, -1, 1])

    def test_quarter_node(self):
        v = vandermonde(SupportSet([0.25]), 2)
        assert np.allclose(v[:, 0], [1, -1j, -1])

    def test_column_norms(self):
        rng = np.random.default_rng(0)
        v = vandermonde(random_support(rng, 5), 40)
        assert np.allclose(np.linalg.norm(v, axis=0), math.sqrt(41))

    def test_warns_when_wide(self):
        with pytest.warns(UserWarning, match="rank deficient"):
            vandermonde(SupportSet([0.1, 0.2, 0.3, 0.4]), 2)


class TestHankel:
    def test_index_arithmetic(self):
        h = hankel(np.arange(1.0, 6.0), 2)
        assert np.allclose(h.real, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_zero_input(self):
        h = hankel(np.zeros(7, dtype=complex), 3)
        assert np.all(h == 0)

    def test_bad_l(self):
        with pytest.raises(ValueError):
            hankel(np.zeros(5), 5)
        with pytest.raises(ValueError):
            hankel(np.zeros(5), -1)

    @pytest.mark.parametrize("seed", range(10))
    def test_vandermonde_factorization(self, seed):
        # Two independent routes to the same matrix: Hankel indexing of
        # Phi_M x versus Phi_L diag(x) Phi_{M-L}^T.
        rng = np.random.default_rng(seed)
        S = int(rng.integers(1, 6))
        M = int(rng.integers(2 * S + 2, 120))
        L = int(rng.integers(S, M + 2 - S))
        support = random_support(rng, S)
        x = rng.normal(size=S) + 1j * rng.normal(size=S)
        y0 = vandermonde(support, M) @ x
        lhs = hankel(y0, L)
        rhs = (
            vandermonde(support, L)
            @ np.diag(x)
            @ vandermonde(support, M - L).T
        )
        budget = TAU_FAC * np.abs(x).sum() * math.sqrt((L + 1) * (M - L + 1))
        assert np.linalg.norm(lhs - rhs) <= budget


class TestSvdSplit:
    def test_noiseless_rank(self):
        rng = np.random.default_rng(1)
        support = random_support(rng, 3)
        x = np.exp(2j * np.pi * rng.uniform(size=3))
        y0 = vandermonde(support, 60) @ x
        split = svd_split(hankel(y0, 30), 3)
        s = split.singular_values
        assert s[3] / s[0] <= TAU_RANK

    def test_rank_one_value(self):
        M, L = 40, 20
        y0 = vandermonde(SupportSet([0.0]), M) @ np.array([1.0])
        split = svd_split(hankel(y0, L), 1)
        expected = math.sqrt((L + 1) * (M - L + 1))
        assert split.singular_values[0] == pytest.approx(expected, abs=1e-10)

    def test_unitary_basis(self):
        # The signal columns are orthonormal: part of a unitary basis of C^(L+1).
        rng = np.random.default_rng(2)
        h = hankel(rng.normal(size=21) + 1j * rng.normal(size=21), 8)
        U = svd_split(h, 3).signal_space
        assert U.shape == (9, 3)
        assert np.allclose(U.conj().T @ U, np.eye(3), atol=TAU_ORTH)

    def test_preconditions(self):
        h = hankel(np.zeros(11, dtype=complex), 5)
        with pytest.raises(ValueError):
            svd_split(h, 7)
        with pytest.raises(ValueError):
            svd_split(h, 6)  # S = L + 1 leaves no noise space


class TestSpectralQuantities:
    def test_singleton_sigma_min(self):
        rng = np.random.default_rng(3)
        for M in (10, 100):
            omega = float(rng.uniform())
            v = vandermonde(SupportSet([omega]), M)
            assert sigma_min(v) == pytest.approx(math.sqrt(M + 1), abs=1e-10)

    def test_two_point_gram(self):
        # Gram [[3, 1], [1, 3]] has eigenvalues {4, 2}.
        v = vandermonde(SupportSet([0.0, 0.5]), 2)
        assert sigma_min(v) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert spectral_norm(v) == pytest.approx(2.0, abs=1e-12)

    def test_frobenius_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            S = int(rng.integers(1, 6))
            M = int(rng.integers(S, 50))
            v = vandermonde(random_support(rng, S), M)
            assert spectral_norm(v) <= math.sqrt((M + 1) * S) + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sigma_min(np.zeros((0, 0)))

    def test_rotation_reflection_invariance(self):
        rng = np.random.default_rng(5)
        support = random_support(rng, 4)
        M = 64
        base = sigma_min(vandermonde(support, M))
        rotated = sigma_min(
            vandermonde(SupportSet([(p + 0.37) % 1.0 for p in support.points]), M)
        )
        reflected = sigma_min(
            vandermonde(SupportSet([(-p) % 1.0 for p in support.points]), M)
        )
        assert rotated == pytest.approx(base, rel=1e-10)
        assert reflected == pytest.approx(base, rel=1e-10)

    def test_two_point_monotone_while_coalescing(self):
        # Monotone growth holds below the first Dirichlet-kernel zero at
        # d = M/(M+1); past it sigma_min oscillates between sidelobe dips
        # and sqrt(M+1) peaks, so only the ceiling is asserted there.
        M = 50
        ds = np.linspace(0.05, 0.95, 19)
        values = [
            sigma_min(vandermonde(SupportSet([0.0, d / M]), M)) for d in ds
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        for d in np.linspace(1.0, M / 2.0, 25):
            v = sigma_min(vandermonde(SupportSet([0.0, d / M]), M))
            assert v <= math.sqrt(M + 1) + 1e-9


def measurements(seed, M, S, sigma, real):
    """y = Phi_M x + sigma*noise whose Hankel matrix has signal rank S.

    Real y is Re(Phi_M x) over S/2 sources in (0.05, 0.45): each source and
    its mirror image give two of the S singular values.
    """
    rng = np.random.default_rng(seed)
    k = S // 2 if real else S
    span = 0.4 if real else 1.0
    points = 0.05 * real + span * (np.arange(k) + rng.uniform(0.2, 0.8, k)) / k
    x = np.exp(2j * np.pi * rng.uniform(size=k))
    y = vandermonde(SupportSet(points), M) @ x
    if real:
        return y.real + sigma * rng.normal(size=M + 1)
    return y + sigma * (rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1))


def count_calls(H, method):
    """Count calls of one HankelOperator method; returns a function reading the count."""
    calls = []
    apply = getattr(H, method)
    setattr(H, method, lambda *args: calls.append(1) or apply(*args))
    return lambda: len(calls)


# (M, L): square, more rows than columns, more columns than rows; all sides > DENSE_MAX.
OPERATOR_SHAPES = [(800, 400), (800, 410), (800, 390)]


def assert_split_matches_dense(H, S):
    """svd_split of an operator against the dense SVD of the formed matrix.

    Returns whether Golub-Kahan answered (the split never formed H); a
    dense fallback must give the dense split bit for bit.
    """
    formed = count_calls(H, "toarray")
    split = svd_split(H, S)
    iterated = formed() == 0
    u, s, _ = fourier._dense_svd(H.toarray(), compute_uv=True)
    assert len(split.singular_values) == S + 1
    if not iterated:
        assert np.array_equal(split.signal_space, u[:, :S])
        assert np.array_equal(split.singular_values, s[: S + 1])
        return False
    v = split.signal_space
    assert np.abs(v @ v.conj().T - u[:, :S] @ u[:, :S].conj().T).max() <= 1e-10
    np.testing.assert_allclose(split.singular_values[:S], s[:S], rtol=1e-12, atol=0)
    return True


class TestLanczosPath:
    """hankel above DENSE_MAX against the dense SVD of the same matrix."""

    @given(st.sampled_from(OPERATOR_SHAPES), st.booleans(), st.integers(1, 3),
           st.sampled_from([0.0, 1e-3, 1.0, 30.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=16, deadline=None)
    def test_matches_dense(self, shape, real, half_rank, sigma, seed):
        M, L = shape
        S = 2 * half_rank if real else half_rank
        H = hankel(measurements(seed, M, S, sigma, real), L)
        assert isinstance(H, HankelOperator)
        A = H.toarray()
        assert spectral_norm(H) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12, abs=0)
        assert_split_matches_dense(H, S)

    @pytest.mark.parametrize("M, L", OPERATOR_SHAPES)
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_noise_norm_matches_dense(self, M, L, kind):
        for seed in range(3):
            H = hankel(draw_noise(np.random.default_rng(seed), 1.0, kind, M), L)
            assert H.dtype == (float if kind == "real" else complex)
            dense = np.linalg.norm(H.toarray(), 2)
            assert spectral_norm(H) == pytest.approx(dense, rel=1e-14, abs=0)

    @pytest.mark.parametrize("M, L", OPERATOR_SHAPES)
    def test_rank_one_breaks_down(self, M, L):
        # y[i+j] = r^i r^j: the Krylov spaces are exhausted after a step or two.
        H = hankel(0.999 ** np.arange(M + 1.0), L)
        steps = count_calls(H, "rmatvec")
        norm = spectral_norm(H)
        assert steps() < fourier.LANCZOS_CHECK_EVERY
        assert norm == pytest.approx(np.linalg.norm(H.toarray(), 2), rel=1e-14, abs=0)
        assert_split_matches_dense(H, 1)

    @pytest.mark.parametrize("M, L", [(20, 10), (21, 10), (21, 11)])
    @pytest.mark.parametrize("real", [True, False])
    def test_exhausted_krylov_space_breaks_down(self, M, L, real):
        # Built directly below the cutoff: after the 11 steps of the shorter
        # side no direction is left, so beta breaks down before the step cap.
        rng = np.random.default_rng(3)
        y = rng.normal(size=M + 1) + (0.0 if real else 1j) * rng.normal(size=M + 1)
        H = HankelOperator(y, L)
        ritz = fourier._golub_kahan(H, 1, fourier.LANCZOS_TOL)
        assert ritz is not None
        # All 11 singular values, exact to rounding.
        dense = np.linalg.svd(H.toarray(), compute_uv=False)
        np.testing.assert_allclose(ritz[0], dense, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("M, L", [(20, 10), (21, 10), (21, 11)])
    @pytest.mark.parametrize("real", [True, False])
    def test_exhausted_krylov_space_norm(self, M, L, real):
        # The values-only twin of the test above. Without stored bases the
        # recurrence need not see the space run out; then the step cap of
        # the shorter side sends the norm to the dense SVD.
        rng = np.random.default_rng(3)
        y = rng.normal(size=M + 1) + (0.0 if real else 1j) * rng.normal(size=M + 1)
        H = HankelOperator(y, L)
        dense = np.linalg.norm(H.toarray(), 2)
        assert spectral_norm(H) == pytest.approx(dense, rel=1e-14, abs=0)

    @pytest.mark.parametrize("y", [np.zeros(2001), np.zeros(2001, dtype=complex)],
                             ids=["real", "complex"])
    def test_zero_data_has_norm_zero(self, y):
        H = hankel(y, 1000)
        assert isinstance(H, HankelOperator)
        assert spectral_norm(H) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_raises(self, bad, capfd):
        # One message, from hankel on either side of the cutoff, from the
        # operator itself and from sigma_min on the formed matrix, and no
        # LAPACK complaint on stderr.
        for M in (200, 2000):
            y = np.ones(M + 1)
            y[7] = bad
            side = M // 2 + 1
            formed = y[np.arange(side)[:, None] + np.arange(side)[None, :]]
            calls = (lambda: hankel(y, M // 2), lambda: HankelOperator(y, M // 2),
                     lambda: sigma_min(formed))
            for call in calls:
                with pytest.raises(np.linalg.LinAlgError,
                                   match=rf"SVD failed on a \({side}, {side}\) matrix: non-finite"):
                    call()
        assert capfd.readouterr().err == ""

    def test_step_cap_falls_back_to_dense(self, monkeypatch):
        H = hankel(draw_noise(np.random.default_rng(2), 1.0, "complex-circular", 1100), 550)
        monkeypatch.setattr(fourier, "LANCZOS_MAX_STEPS", 2 * fourier.LANCZOS_CHECK_EVERY)
        assert fourier._golub_kahan(H, 1, fourier.LANCZOS_TOL) is None
        assert spectral_norm(H) == spectral_norm(H.toarray())

    def test_step_count(self):
        # Measured: the residual test fails at 24 steps (1.7e-9 theta) and
        # passes at 28 (about 4e-12 theta).
        H = hankel(draw_noise(np.random.default_rng(0), 1.0, "real", 2000), 1000)
        steps = count_calls(H, "rmatvec")
        spectral_norm(H)
        assert steps() == 28

    @pytest.mark.parametrize("kind, seed, L", [
        *(("real", seed, 1000) for seed in range(10)),
        *(("complex-circular", seed, 1000) for seed in range(5)),
        ("real", 0, 1200), ("complex-circular", 0, 800),
        ("signal-real", 7, 1000), ("signal-complex", 7, 1000),
    ])
    def test_norm_without_stored_bases_matches_dense(self, monkeypatch, kind, seed, L):
        # The bare recurrence at M = 2000: square, tall (1201 x 801) and wide
        # (801 x 1201), noise alone and signal plus sigma = 1e-3 noise. None
        # may fall back to the dense SVD.
        M = 2000
        if kind.startswith("signal"):
            y = measurements(seed, M, 4, 1e-3, real=kind == "signal-real")
        else:
            y = draw_noise(np.random.default_rng(seed), 1.0, kind, M)
        H = hankel(y, L)
        A = H.toarray()  # complex-typed for real noise, which draw_noise stores so
        dense = np.linalg.norm(A.real if H.dtype == float else A, 2)

        def no_dense_svd(*args, **kwargs):
            raise AssertionError("spectral_norm fell back to the dense SVD")

        monkeypatch.setattr(fourier, "_dense_svd", no_dense_svd)
        assert spectral_norm(H) == pytest.approx(dense, rel=1e-14, abs=0)

    def test_norm_memory_is_a_few_vectors(self):
        # No stored bases: one norm at M = 8000 holds a few length-8192
        # vectors (0.31 MB traced), where stored bases took 7.3 MB.
        H = hankel(draw_noise(np.random.default_rng(0), 1.0, "real", 8000), 4000)
        spectral_norm(H)
        tracemalloc.start()
        try:
            spectral_norm(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("n", [401, 402, 403, 404, 500])
    @pytest.mark.parametrize("real", [True, False])
    def test_periodic_data_matches_dense(self, n, real):
        # y periodic with period L+1: the all-ones vector is a singular
        # vector of H, rarely the top one. A start there stops at once.
        rng = np.random.default_rng(n)
        z = rng.normal(size=n) + (0.0 if real else 1j) * rng.normal(size=n)
        H = hankel(z[np.arange(2 * n - 1) % n], n - 1)
        dense = np.linalg.norm(H.toarray(), 2)
        assert spectral_norm(H) == pytest.approx(dense, rel=1e-14, abs=0)

    def test_matvec_rmatvec(self):
        rng = np.random.default_rng(11)
        for (M, L), real_data in itertools.product(OPERATOR_SHAPES, (False, True)):
            y = rng.normal(size=M + 1) + (0.0 if real_data else 1j) * rng.normal(size=M + 1)
            H = hankel(y, L)
            assert H.dtype == (float if real_data else complex)
            A = H.toarray()
            x = rng.normal(size=M - L + 1) + 1j * rng.normal(size=M - L + 1)
            z = rng.normal(size=L + 1) + 1j * rng.normal(size=L + 1)
            for xs, zs in ((x, z), (x.real, z.real)):
                assert np.allclose(H.matvec(xs), A @ xs, rtol=0, atol=1e-10)
                assert np.allclose(H.rmatvec(zs), A.conj().T @ zs, rtol=0, atol=1e-10)
                # Real data and a real vector stay real.
                real = real_data and np.isrealobj(xs)
                assert np.isrealobj(H.matvec(xs)) == real and np.isrealobj(H.rmatvec(zs)) == real

    def test_toarray_matches_indexing(self):
        y = np.arange(801.0) + 1j * np.arange(801.0) ** 2
        H = hankel(y, 400)
        assert np.array_equal(H.toarray(), y[np.arange(401)[:, None] + np.arange(401)[None, :]])

    # (M, L) by their distance from the cutoff: at it the matrix is formed.
    @pytest.mark.parametrize("M, L, operator", [
        (2 * DENSE_MAX - 2, DENSE_MAX - 1, False),
        (2 * DENSE_MAX, DENSE_MAX, True),
        (2000, DENSE_MAX - 1, False),
        (2000, DENSE_MAX, True),
        (2000, 2000 - DENSE_MAX, True),
        (2000, 2001 - DENSE_MAX, False),
    ], ids=["square-at", "square-above", "rows-at", "rows-above", "cols-above", "cols-at"])
    def test_cutoff_edge(self, M, L, operator):
        H = hankel(np.arange(M + 1.0), L)
        assert isinstance(H, HankelOperator) == operator
        assert isinstance(H, np.ndarray) != operator
        assert H.shape == (L + 1, M - L + 1)

    def test_preconditions(self):
        M, L = 800, 400  # 401 x 401
        H = hankel(measurements(1, M, 2, 1e-3, real=False), L)
        with pytest.raises(ValueError):
            svd_split(H, L + 2)
        with pytest.raises(ValueError):
            svd_split(H, L + 1)  # S = L + 1 leaves no noise space
        empty = svd_split(H, 0)
        assert empty.signal_space.shape == (L + 1, 0)
        assert np.array_equal(svd_split(H, L).signal_space, svd_split(H.toarray(), L).signal_space)

    def test_scipy_never_imported(self):
        # Neither the CLI, MUSIC nor a Hankel norm above the cutoff loads scipy.
        code = (
            "import sys, numpy as np, srmusic.cli\n"
            "from srmusic.fourier import hankel, spectral_norm\n"
            "from srmusic.music import music_estimate\n"
            "M = 1000\n"
            "y = np.exp(-2j * np.pi * np.outer(np.arange(M + 1), [0.2, 0.2005, 0.7])).sum(axis=1)\n"
            "music_estimate(y + 0.01 * np.random.default_rng(0).normal(size=M + 1), S=3)\n"
            "eta = np.random.default_rng(1).normal(size=(2, 2001))\n"
            "for y in (eta[0], eta[0] + 1j * eta[1]):\n"
            "    spectral_norm(hankel(y, 1000))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"


class TestGolubKahanSplit:
    """svd_split of a HankelOperator: when Golub-Kahan answers and when it goes dense."""

    @pytest.mark.parametrize("M, L", OPERATOR_SHAPES)
    @pytest.mark.parametrize("real", [False, True])
    def test_iterates_on_signal_plus_noise(self, M, L, real):
        H = hankel(measurements(5, M, 4, 1e-3, real), L)
        assert assert_split_matches_dense(H, 4)

    def test_iteration_cap_falls_back(self, monkeypatch):
        H = hankel(measurements(6, 800, 2, 1e-3, real=False), 400)
        assert assert_split_matches_dense(H, 2)
        monkeypatch.setattr(fourier, "LANCZOS_MAX_STEPS", fourier.LANCZOS_CHECK_EVERY)
        assert not assert_split_matches_dense(H, 2)

    def test_near_degenerate_gap_falls_back(self):
        # Three far-apart unit sources: sigma_2 and sigma_3 nearly coincide,
        # and both stand far above the rest.
        y = vandermonde(SupportSet([0.1, 0.43, 0.77]), 800) @ np.ones(3)
        H = hankel(y, 400)
        s = svd_split(H.toarray(), 3).singular_values
        assert s[1] <= 2.0 * s[2] and s[2] > 1e6 * s[3]
        assert not assert_split_matches_dense(H, 2)
        assert assert_split_matches_dense(H, 3)

    def test_rank_deficient_falls_back(self):
        M = 800
        y = vandermonde(SupportSet([0.2, 0.7]), M) @ np.array([1.0, 1.0j])
        assert not assert_split_matches_dense(hankel(y, M // 2), 3)
        assert not assert_split_matches_dense(hankel(np.zeros(M + 1), M // 2), 1)
        # sigma_2 / sigma_3 is about 9e3, but sigma_2 = 1e-10 sigma_1 < sqrt(eps) sigma_1.
        faint = vandermonde(SupportSet([0.2, 0.7]), M) @ np.array([1.0, 1e-10])
        assert not assert_split_matches_dense(hankel(faint, M // 2), 2)
        with pytest.raises(RankDeficientError, match="above the numerical rank of the 401x401"):
            music_estimate(y, S=3)

    @pytest.mark.parametrize("S, iterated", [(23, False), (24, True)])
    def test_repeated_singular_values(self, S, iterated):
        # S evenly spaced unit sources: the S nonzero singular values of H
        # take two or three distinct values (414, 402.3 and 391 at S = 23).
        # A single-vector Krylov space can miss copies of them; at S = 23 it
        # accepts a Ritz value of 2e-11 in place of sigma_23 = 391, and the
        # gap and rank tests send the split to the dense SVD. At S = 24 it
        # holds every copy of 408 and 395.8, and the split iterates.
        M, L = 800, 400
        y = vandermonde(SupportSet(np.arange(S) / S + 0.3 / S), M) @ np.ones(S)
        assert assert_split_matches_dense(hankel(y, L), S) == iterated

    def test_large_share_goes_dense_at_once(self):
        # S = 100 of a 401x401 side, with no gap: no Golub-Kahan step, then
        # the dense split bit for bit.
        H = hankel(draw_noise(np.random.default_rng(4), 1.0, "complex-circular", 800), 400)
        steps = count_calls(H, "rmatvec")
        assert not assert_split_matches_dense(H, 100)
        assert steps() == 0

    def test_no_gap_step_count(self):
        # Four clumps of two sources 1/(1.25-1.75 M) apart (the layout of the
        # music-large-m benchmark workload) under sigma = 1 noise: sigma_8 is
        # under twice sigma_9. Measured: the top 8 Ritz pairs fail the check
        # at 20 steps and pass it at 24, and the split then goes dense.
        M, rng = 1000, np.random.default_rng(0)
        alpha = 1.0 / rng.uniform(1.25, 1.75, 4)
        anchors = (rng.uniform() + np.arange(4) + rng.uniform(-0.2, 0.2, 4)) / 4
        points = np.concatenate([anchors, anchors + alpha / M]) % 1.0
        y = np.exp(-2j * np.pi * np.outer(np.arange(M + 1), points)) @ np.exp(
            2j * np.pi * rng.uniform(size=8))
        y += (rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)) / math.sqrt(2.0)
        H = hankel(y, M // 2)
        steps = count_calls(H, "rmatvec")
        assert not assert_split_matches_dense(H, 8)
        assert steps() == 24
