"""Fourier/Vandermonde matrices, Hankel matrices, SVD splits.

Singular values and vectors come from dense SVDs (thin where singular
vectors are needed), except for a Hankel matrix whose shorter side exceeds
DENSE_MAX. hankel does not form that one: it returns a HankelOperator that
applies it by FFT, in real arithmetic where the data and the vector are
real. One Golub-Kahan bidiagonalization (Golub & Kahan, SIAM J. Numer.
Anal. 1965) then serves both iterative callers: spectral_norm takes the top
Ritz value, with no stored bases, and svd_split the top-S Ritz values and
left Ritz vectors. Each falls back to the dense SVD of the formed matrix
when the iteration does not settle the answer. hankel and sigma_min refuse
non-finite data before LAPACK sees them. Everything here is numpy alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from srmusic.torus import SupportSet

# hankel forms the matrix while its shorter side has at most this many entries.
DENSE_MAX = 384

# Golub-Kahan bidiagonalization (_golub_kahan): every LANCZOS_CHECK_EVERY
# steps the top Ritz pairs are accepted when each residual is at most
# tol * theta_1; past LANCZOS_MAX_STEPS the matrix is formed. spectral_norm
# takes tol = LANCZOS_TOL for its one pair, with no stored bases, and svd_split
# tol = RESIDUAL_TOL * eps for its S pairs, near the rounding floor of a
# subspace residual, 1-7 eps * sigma_1 at M = 800-8000.
LANCZOS_TOL = 1e-10
RESIDUAL_TOL = 64.0
LANCZOS_CHECK_EVERY = 4
LANCZOS_MAX_STEPS = 256

# svd_split iterates only while S is at most this share of the shorter side.
# With no gap, Golub-Kahan runs until its residual test passes or it reaches
# the step cap, and the split then goes dense anyway. Measured on complex
# noise at 401x401 with one BLAS thread: 48 ms of steps before an 89 ms dense
# SVD at S = 24, 119 ms before 84 ms at S = 33, 334 ms before 86 ms at S = 100.
SPLIT_SHARE = 1 / 16


@dataclass(frozen=True)
class HankelSvd:
    """Signal subspace of a Hankel matrix at rank S.

    signal_space has the top-S left singular vectors as orthonormal
    columns; its orthogonal complement in C^(L+1) is the noise space.
    singular_values holds the top S+1 singular values (all of them when S is
    the shorter side), nonincreasing.
    """

    signal_space: np.ndarray
    singular_values: np.ndarray


class HankelOperator:
    """(L+1) x (M-L+1) Hankel matrix y[i+j], applied by FFT and never formed.

    H x is the correlation sum_j y[i+j] x[j], and H* z the same sum over
    conj(y). Each is one product with a precomputed FFT of y or conj(y) at
    a power-of-two length n > M, so no index wraps around. When y has no
    nonzero imaginary part, dtype is float and a real vector goes through
    rfft and irfft instead, in real arithmetic; a complex vector takes the
    complex FFTs either way.
    """

    def __init__(self, y: np.ndarray, L: int):
        self._y = np.array(y)
        M = len(self._y) - 1
        self.shape = (L + 1, M - L + 1)
        _require_finite(self._y, self.shape)
        self._n = 1 << M.bit_length()
        self._fft_y = np.fft.fft(self._y, self._n)
        self._fft_conj_y = np.fft.fft(self._y.conj(), self._n)
        real = not np.iscomplexobj(self._y) or not self._y.imag.any()
        self.dtype = np.dtype(float if real else complex)
        self._rfft_y = np.fft.rfft(self._y.real, self._n) if real else None

    def _correlate(self, x, length: int, adjoint: bool) -> np.ndarray:
        x = np.asarray(x)
        if self._rfft_y is not None and not np.iscomplexobj(x):
            # Real y and x: the FFT of sum_j y[i+j] x[j] is FFT(y) conj(FFT(x)).
            x_hat = np.fft.rfft(x, self._n)
            np.conjugate(x_hat, out=x_hat)
            x_hat *= self._rfft_y
            return np.fft.irfft(x_hat, self._n)[:length]
        # FFT of sum_j k[i+j] x[j] is FFT(k) times the unscaled inverse FFT of x.
        kernel = self._fft_conj_y if adjoint else self._fft_y
        x_hat = np.fft.ifft(x, self._n, norm="forward")
        return np.fft.ifft(kernel * x_hat)[:length]

    def matvec(self, x) -> np.ndarray:
        return self._correlate(x, self.shape[0], adjoint=False)

    def rmatvec(self, z) -> np.ndarray:
        return self._correlate(z, self.shape[1], adjoint=True)

    def toarray(self) -> np.ndarray:
        return _hankel_array(self._y, self.shape[0] - 1)


def _hankel_array(y: np.ndarray, L: int) -> np.ndarray:
    # The L+1 windows y[i : i + M-L+1]; the copy makes them a C-ordered array.
    return np.lib.stride_tricks.as_strided(y, (L + 1, len(y) - L), y.strides * 2).copy()


def vandermonde(omega: SupportSet, M: int) -> np.ndarray:
    """(M+1) x S Fourier matrix with entries exp(-2*pi*i*m*omega_j), m = 0..M."""
    if M < 1:
        raise ValueError("M must be a positive integer")
    if omega.size > M + 1:
        warnings.warn(
            f"more nodes ({omega.size}) than rows ({M + 1}); matrix is rank deficient",
            stacklevel=2,
        )
    return np.exp(-2j * np.pi * np.outer(np.arange(M + 1), omega.as_array()))


def hankel(y: np.ndarray, L: int) -> np.ndarray | HankelOperator:
    """(L+1) x (M-L+1) Hankel matrix y[i+j] of a measurement vector of length M+1.

    An ndarray while min(L+1, M-L+1) <= DENSE_MAX, a HankelOperator above.
    Non-finite measurements raise LinAlgError here, once for every caller.
    """
    y = np.asarray(y)
    M = len(y) - 1
    if not (0 <= L <= M):
        raise ValueError(f"L = {L} outside [0, {M}] for {M + 1} measurements")
    if min(L + 1, M - L + 1) > DENSE_MAX:
        return HankelOperator(y, L)
    _require_finite(y, (L + 1, M - L + 1))
    return _hankel_array(y, L)


def svd_split(H: np.ndarray | HankelOperator, S: int) -> HankelSvd:
    """Top-S left singular subspace of an (L+1)-row Hankel matrix.

    An ndarray is split by its dense thin SVD. A HankelOperator goes through
    _golub_kahan first, and is formed and split densely when S = 0, at once
    when S is above SPLIT_SHARE of the shorter side, past the step cap, on a
    breakdown with at most S Ritz values, when
    sigma_S <= 2 sigma_{S+1} (no gap to pin the subspace), or when
    sigma_S <= sqrt(eps) sigma_1 (S at or above the numerical rank, which
    callers then read from dense values). The two tests also catch a Krylov
    space that holds one copy of a repeated singular value: from a single
    start vector, the other copies stay out of it and a small Ritz value
    takes their place.
    """
    rows, cols = H.shape
    L = rows - 1
    if not (0 <= S <= min(rows, cols)):
        raise ValueError(f"S = {S} must lie in [0, min({rows}, {cols})]")
    if S > L:
        raise ValueError(f"S = {S} leaves no noise space for L = {L}")
    eps = np.finfo(float).eps
    if isinstance(H, HankelOperator) and 0 < S <= SPLIT_SHARE * min(rows, cols):
        ritz = _golub_kahan(H, S, RESIDUAL_TOL * eps)
        if ritz is not None and len(ritz[0]) > S:
            s, u = ritz
            if s[S - 1] > 2.0 * s[S] and s[S - 1] > np.sqrt(eps) * s[0]:
                return HankelSvd(signal_space=u, singular_values=s[: S + 1])
    u, s, _ = _dense_svd(H, compute_uv=True)
    return HankelSvd(signal_space=u[:, :S], singular_values=s[: S + 1])


def _golub_kahan(H: HankelOperator, S: int, tol: float) -> tuple | None:
    """Ritz values of H and its top-S left Ritz vectors; None past the step cap.

    Runs on the shorter side (on H* when H is wide), in H.dtype, with full
    reorthogonalization. After k steps U_k* H V_k is the upper bidiagonal
    B_k, and each singular triplet (theta_i, p_i, q_i) of B_k leaves the
    residual beta_k |p_i[k]| in H* (U_k p_i) - theta_i V_k q_i. Every
    LANCZOS_CHECK_EVERY steps, once B_k has more than S values, they are
    accepted when the top S residuals are at most tol * theta_1. The left
    Ritz vectors are U_k p_i, or V_k q_i when the iteration runs on H*.

    S = 0 asks for no vectors: the top pair is tested, None stands for the
    vectors, and no bases are stored. Each new u and v is orthogonalized in
    one pass against the previous one alone, which the recurrence removed
    but for rounding. The lost orthogonality brings copies of converged Ritz
    values but leaves theta_1 accurate to working precision (Paige, Linear
    Algebra Appl. 1980).

    A zero alpha or beta (to rounding) means the Krylov spaces are
    invariant: the bidiagonal so far is H on them, and its values are
    singular values of H. They hold the top one unless the start vector is
    orthogonal to it. So the start is a fixed pseudo-random vector: the
    all-ones vector is a singular vector of some structured H (e.g. y
    periodic with period L+1), and from it the iteration would stop at once
    with that vector's singular value.
    """
    rows, cols = H.shape
    tall = cols <= rows
    apply, adjoint = (H.matvec, H.rmatvec) if tall else (H.rmatvec, H.matvec)
    n = min(rows, cols)
    eps = np.finfo(float).eps
    vectors = S > 0
    # Room for 32 steps; the bases double as they fill, so they hold about
    # the steps taken.
    V = np.empty((32 if vectors else 1, n), H.dtype)
    U = np.empty((len(V), max(rows, cols)), H.dtype)
    passes = 2 if vectors else 1
    alphas, betas = [], []
    scale = 0.0
    # A fresh generator per call: the same start on every call and in every thread.
    v = np.random.default_rng(0).standard_normal(n).astype(H.dtype)
    v /= np.linalg.norm(v)

    def ritz_vectors(p, qh):
        if tall:
            return U[: len(alphas)].T @ p[:, :S]
        return V[: len(betas) + 1].T @ qh[:S].T

    for k in range(min(LANCZOS_MAX_STEPS, n)):
        if vectors and k == len(V):
            V, U = (np.concatenate([A, np.empty_like(A)]) for A in (V, U))
        i = k if vectors else 0
        V[i] = v
        u = apply(v)
        if k:
            u -= betas[-1] * U[i - 1]
        alpha = _orthogonalize(u, U[: min(k, len(U))], passes)
        scale = max(scale, alpha)
        if alpha <= eps * scale:
            break
        alphas.append(alpha)
        U[i] = u / alpha
        v = adjoint(U[i]) - alpha * v
        beta = _orthogonalize(v, V[: i + 1], passes)
        scale = max(scale, beta)
        if beta <= eps * scale:
            break
        if (k + 1) % LANCZOS_CHECK_EVERY == 0 and k + 1 > S:
            B = _bidiagonal(alphas, betas)
            if vectors:
                p, theta, qh = np.linalg.svd(B)
                if (beta * np.abs(p[-1, :S]) <= tol * theta[0]).all():
                    return theta, ritz_vectors(p, qh)
            else:  # the top pair from the eigenpairs of B B^T
                w, p = np.linalg.eigh(B @ B.T)
                if beta * abs(p[-1, -1]) <= tol * np.sqrt(w[-1]):
                    return np.linalg.svd(B, compute_uv=False), None
        betas.append(beta)
        v /= beta
    else:
        return None
    # Breakdown: H maps the Krylov spaces into each other, and the bidiagonal
    # so far is H on them. Its values are exact, so they come from the
    # values-only SVD (dqds), to high relative accuracy.
    if not alphas:
        return np.zeros(0), np.zeros((rows, 0), H.dtype)
    B = _bidiagonal(alphas, betas)
    p, _, qh = np.linalg.svd(B)
    return np.linalg.svd(B, compute_uv=False), ritz_vectors(p, qh) if vectors else None


def _orthogonalize(w: np.ndarray, Q: np.ndarray, passes: int) -> float:
    """Remove from w its components along the orthonormal rows of Q; return ||w||."""
    # Classical Gram-Schmidt; a second pass removes what rounding left of the
    # first.
    for _ in range(passes):
        w -= (Q @ w.conj()).conj() @ Q
    return float(np.linalg.norm(w))


def _bidiagonal(alphas: list, betas: list) -> np.ndarray:
    """len(alphas) x (len(betas) + 1) matrix: alphas on the diagonal, betas above it."""
    B = np.zeros((len(alphas), len(betas) + 1))
    np.fill_diagonal(B, alphas)
    np.fill_diagonal(B[:, 1:], betas)
    return B


def _require_finite(data: np.ndarray, shape: tuple) -> None:
    if not np.isfinite(data).all():
        raise np.linalg.LinAlgError(f"SVD failed on a {shape} matrix: non-finite entries")


def _dense_svd(matrix, compute_uv: bool = False):
    """Thin SVD of a matrix (a HankelOperator is formed); the singular values alone by default."""
    a = matrix.toarray() if isinstance(matrix, HankelOperator) else np.asarray(matrix)
    if a.size == 0:
        raise ValueError("matrix is empty")
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed on a {a.shape} matrix: {exc}") from exc


def sigma_min(matrix) -> float:
    """Smallest singular value."""
    a = matrix.toarray() if isinstance(matrix, HankelOperator) else np.asarray(matrix)
    _require_finite(a, a.shape)
    return float(_dense_svd(a).min())


def spectral_norm(matrix) -> float:
    """Operator 2-norm: the largest singular value (by Golub-Kahan for a HankelOperator)."""
    if isinstance(matrix, HankelOperator):
        ritz = _golub_kahan(matrix, 0, LANCZOS_TOL)
        if ritz is not None:
            return float(ritz[0].max(initial=0.0))
    return float(_dense_svd(matrix).max())
