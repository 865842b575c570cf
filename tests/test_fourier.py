import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srmusic.fourier import (
    DENSE_MAX,
    HankelOperator,
    hankel,
    sigma_min,
    spectral_norm,
    svd_split,
    vandermonde,
)
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


# (M, L): square, more rows than columns, more columns than rows; all sides > DENSE_MAX.
OPERATOR_SHAPES = [(1100, 550), (1100, 580), (1100, 520)]


class TestLanczosPath:
    """hankel above DENSE_MAX against the dense SVD of the same matrix."""

    @given(st.sampled_from(OPERATOR_SHAPES), st.booleans(), st.integers(1, 3),
           st.sampled_from([0.0, 1e-3, 1.0, 30.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_matches_dense(self, shape, real, half_rank, sigma, seed):
        M, L = shape
        S = 2 * half_rank if real else half_rank
        H = hankel(measurements(seed, M, S, sigma, real), L)
        assert isinstance(H, HankelOperator)
        A = H.toarray()
        dense = svd_split(A, S)
        assert spectral_norm(H) == pytest.approx(dense.singular_values[0], rel=1e-12, abs=0)
        split = svd_split(H, S)  # formed, then the same dense SVD
        assert np.array_equal(split.signal_space, dense.signal_space)
        assert np.array_equal(split.singular_values, dense.singular_values)

    def test_arpack_failure_falls_back_to_dense(self, monkeypatch):
        import scipy.sparse.linalg

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "svds", no_convergence)
        H = hankel(measurements(2, 1100, 2, 1.0, real=False), 550)
        assert spectral_norm(H) == spectral_norm(H.toarray())

    def test_matvec_rmatvec(self):
        rng = np.random.default_rng(11)
        for M, L in OPERATOR_SHAPES:
            H = hankel(rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1), L)
            A = H.toarray()
            x = rng.normal(size=M - L + 1) + 1j * rng.normal(size=M - L + 1)
            z = rng.normal(size=L + 1) + 1j * rng.normal(size=L + 1)
            assert np.allclose(H.matvec(x), A @ x, rtol=0, atol=1e-10)
            assert np.allclose(H.rmatvec(z), A.conj().T @ z, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("M, L, operator", [
        (2 * DENSE_MAX - 2, DENSE_MAX - 1, False),
        (2 * DENSE_MAX, DENSE_MAX, True),
        (2000, DENSE_MAX - 1, False),
        (2000, DENSE_MAX, True),
        (2000, 2000 - DENSE_MAX, True),
        (2000, 2001 - DENSE_MAX, False),
    ])
    def test_cutoff_edge(self, M, L, operator):
        H = hankel(np.arange(M + 1.0), L)
        assert isinstance(H, HankelOperator) == operator
        assert isinstance(H, np.ndarray) != operator
        assert H.shape == (L + 1, M - L + 1)

    def test_preconditions(self):
        M, L = 1100, 550  # 551 x 551
        H = hankel(measurements(1, M, 2, 1e-3, real=False), L)
        with pytest.raises(ValueError):
            svd_split(H, L + 2)
        with pytest.raises(ValueError):
            svd_split(H, L + 1)  # S = L + 1 leaves no noise space
        empty = svd_split(H, 0)
        assert empty.signal_space.shape == (L + 1, 0)
        assert np.array_equal(svd_split(H, L).signal_space, svd_split(H.toarray(), L).signal_space)

    def test_sparse_linalg_not_imported_on_load(self):
        code = "import sys, srmusic.cli; print('scipy.sparse.linalg' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "False"
