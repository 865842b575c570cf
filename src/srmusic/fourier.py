"""Fourier/Vandermonde matrices, Hankel matrices, SVD splits.

Singular values and vectors come from dense SVDs (thin where singular
vectors are needed), except for a Hankel matrix whose shorter side exceeds
DENSE_MAX. hankel does not form that one: it returns a HankelOperator that
applies it by FFT. spectral_norm then takes its largest singular value from
ARPACK's Lanczos iteration (scipy svds), and svd_split its top-S left
singular subspace from block subspace iteration with a Rayleigh-Ritz step
(Halko, Martinsson & Tropp, SIAM Review 2011). Each falls back to the dense
SVD of the formed matrix when the iteration does not settle the answer.

Only spectral_norm on an operator imports scipy, so MUSIC runs at every
size without loading it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from srmusic.torus import SupportSet

# hankel forms the matrix while its shorter side has at most this many entries.
DENSE_MAX = 384

# Subspace iteration in svd_split: a block of S + OVERSAMPLING vectors, at
# most MAX_ITERATIONS power steps, and acceptance when every top-S residual
# ||H v_i - sigma_i u_i|| is at most RESIDUAL_TOL * eps * sigma_1. Its
# rounding floor measured 1-7 eps * sigma_1 at M = 800-8000.
OVERSAMPLING = 8
MAX_ITERATIONS = 40
RESIDUAL_TOL = 64.0


@dataclass(frozen=True)
class HankelSvd:
    """Signal subspace of a Hankel matrix at rank S.

    signal_space has the top-S left singular vectors as orthonormal
    columns; its orthogonal complement in C^(L+1) is the noise space.
    singular_values is nonincreasing: the full set from a dense SVD, the top
    S+1 from subspace iteration. There the first S are converged, and the
    last is a Ritz value, a lower bound on sigma_{S+1}.
    """

    signal_space: np.ndarray
    singular_values: np.ndarray


class HankelOperator:
    """(L+1) x (M-L+1) Hankel matrix y[i+j], applied by FFT and never formed.

    H x is the correlation sum_j y[i+j] x[j], and H* z the same sum over
    conj(y). Each is one product with a precomputed FFT of y or conj(y) at
    a power-of-two length n > M, so no index wraps around. Both take a
    vector or an (n, b) block, whose columns go through one batched FFT.
    svds accepts the operator through its shape, dtype, matvec and rmatvec.
    """

    def __init__(self, y: np.ndarray, L: int):
        self._y = np.array(y)
        M = len(self._y) - 1
        self.shape = (L + 1, M - L + 1)
        self.dtype = np.dtype(complex)
        self._n = 1 << M.bit_length()
        self._fft_y = np.fft.fft(self._y, self._n)
        self._fft_conj_y = np.fft.fft(self._y.conj(), self._n)

    def _correlate(self, fft_kernel: np.ndarray, x, length: int) -> np.ndarray:
        # FFT of sum_j k[i+j] x[j] is FFT(k) times the unscaled inverse FFT of x.
        x = np.asarray(x)
        x_hat = np.fft.ifft(x, self._n, axis=0, norm="forward")
        kernel = fft_kernel.reshape((-1,) + (1,) * (x.ndim - 1))
        return np.fft.ifft(kernel * x_hat, axis=0)[:length]

    def matvec(self, x) -> np.ndarray:
        return self._correlate(self._fft_y, x, self.shape[0])

    def rmatvec(self, z) -> np.ndarray:
        return self._correlate(self._fft_conj_y, z, self.shape[1])

    def toarray(self) -> np.ndarray:
        return _hankel_array(self._y, self.shape[0] - 1)


def _hankel_array(y: np.ndarray, L: int) -> np.ndarray:
    # The L+1 windows y[i : i + M-L+1]; the copy makes them a C-ordered array.
    return np.lib.stride_tricks.sliding_window_view(y, len(y) - L).copy()


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
    """
    y = np.asarray(y)
    M = len(y) - 1
    if not (0 <= L <= M):
        raise ValueError(f"L = {L} outside [0, {M}] for {M + 1} measurements")
    if min(L + 1, M - L + 1) > DENSE_MAX:
        return HankelOperator(y, L)
    return _hankel_array(y, L)


def svd_split(H: np.ndarray | HankelOperator, S: int) -> HankelSvd:
    """Top-S left singular subspace of an (L+1)-row Hankel matrix.

    An ndarray is split by its dense thin SVD. A HankelOperator goes through
    _subspace_iteration first, and is formed and split densely when that
    returns None: when S = 0, when the block of S + OVERSAMPLING vectors
    exceeds a quarter of the shorter side, when the residuals do not settle
    within MAX_ITERATIONS, when sigma_S <= 2 sigma_{S+1} (no gap to pin the
    subspace), or when sigma_S <= sqrt(eps) sigma_1 (S at or above the
    numerical rank, which callers then read from dense values).
    """
    rows, cols = H.shape
    L = rows - 1
    if not (0 <= S <= min(rows, cols)):
        raise ValueError(f"S = {S} must lie in [0, min({rows}, {cols})]")
    if S > L:
        raise ValueError(f"S = {S} leaves no noise space for L = {L}")
    if isinstance(H, HankelOperator):
        split = _subspace_iteration(H, S)
        if split is not None:
            return split
        H = H.toarray()
    try:
        u, s, _ = np.linalg.svd(H, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed on a {rows}x{cols} Hankel matrix: {exc}"
        ) from exc
    return HankelSvd(signal_space=u[:, :S], singular_values=s)


def _subspace_iteration(H: HankelOperator, S: int) -> HankelSvd | None:
    """Top-S split of H by block subspace iteration; None where svd_split goes dense."""
    rows, cols = H.shape
    block = S + OVERSAMPLING
    if S == 0 or 4 * block > min(rows, cols):
        return None
    # A fresh generator per call: the start block is the same on every call
    # and in every thread.
    rng = np.random.default_rng(0)
    start = rng.standard_normal((cols, block)) + 1j * rng.standard_normal((cols, block))
    q = np.linalg.qr(H.matvec(start))[0]
    eps = np.finfo(float).eps
    for _ in range(MAX_ITERATIONS):
        # Rayleigh-Ritz: H* q = v s w*, so u = q w has H* u = v s exactly.
        v, s, wh = np.linalg.svd(H.rmatvec(q), full_matrices=False)
        u = q @ wh.conj().T
        hv = H.matvec(v)
        residuals = np.linalg.norm(hv[:, :S] - u[:, :S] * s[:S], axis=0)
        if residuals.max() <= RESIDUAL_TOL * eps * s[0]:
            if s[S - 1] <= 2.0 * s[S] or s[S - 1] <= np.sqrt(eps) * s[0]:
                return None
            return HankelSvd(signal_space=u[:, :S], singular_values=s[: S + 1])
        q = np.linalg.qr(hv)[0]
    return None


def _lanczos_norm(H: HankelOperator) -> float | None:
    """Largest singular value of H by Lanczos; None when ARPACK does not converge."""
    # Imported here: scipy.sparse.linalg loads scipy.linalg too, about 30 MB
    # of memory that no other code path needs.
    from scipy.sparse.linalg import ArpackNoConvergence, svds

    try:
        s = svds(H, k=1, v0=np.ones(min(H.shape), dtype=complex), tol=0,
                 return_singular_vectors=False)
    except ArpackNoConvergence:
        return None
    return float(s[0])


def _singular_values(matrix) -> np.ndarray:
    a = np.asarray(matrix)
    if a.size == 0:
        raise ValueError("matrix is empty")
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed on a {a.shape} matrix: {exc}") from exc


def sigma_min(matrix) -> float:
    """Smallest singular value."""
    return float(_singular_values(matrix).min())


def spectral_norm(matrix) -> float:
    """Operator 2-norm: the largest singular value (by Lanczos for a HankelOperator)."""
    if isinstance(matrix, HankelOperator):
        norm = _lanczos_norm(matrix)
        if norm is not None:
            return norm
        matrix = matrix.toarray()
    return float(_singular_values(matrix).max())
