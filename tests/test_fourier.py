import math

import numpy as np
import pytest

from srmusic.fourier import (
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
