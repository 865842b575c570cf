"""Fourier/Vandermonde matrices, Hankel matrices, SVD splits.

Singular values and vectors come from dense SVDs (thin where singular
vectors are needed), with one exception: a Hankel matrix whose shorter side
exceeds DENSE_MAX is not formed. hankel returns a HankelOperator that
applies it by FFT, and spectral_norm takes its largest singular value from
ARPACK's Lanczos iteration (scipy svds), falling back to the dense SVD when
ARPACK does not converge. svd_split forms the matrix and splits it densely.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from srmusic.torus import SupportSet

# hankel forms the matrix while its shorter side has at most this many entries.
DENSE_MAX = 512


@dataclass(frozen=True)
class HankelSvd:
    """Signal subspace of a Hankel matrix at rank S.

    signal_space has the top-S left singular vectors as orthonormal
    columns; its orthogonal complement in C^(L+1) is the noise space.
    singular_values holds the full set, nonincreasing.
    """

    signal_space: np.ndarray
    singular_values: np.ndarray


class HankelOperator:
    """(L+1) x (M-L+1) Hankel matrix y[i+j], applied by FFT and never formed.

    H x is the correlation sum_j y[i+j] x[j], and H* z the same sum over
    conj(y). Each is one product with a precomputed FFT of y or conj(y) at
    a power-of-two length n > M, so no index wraps around. svds accepts it
    as a linear operator through its shape, dtype, matvec and rmatvec.
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
        x_hat = np.fft.ifft(np.ravel(x), self._n, norm="forward")
        return np.fft.ifft(fft_kernel * x_hat)[:length]

    def matvec(self, x) -> np.ndarray:
        return self._correlate(self._fft_y, x, self.shape[0])

    def rmatvec(self, z) -> np.ndarray:
        return self._correlate(self._fft_conj_y, z, self.shape[1])

    def toarray(self) -> np.ndarray:
        L = self.shape[0] - 1
        return scipy.linalg.hankel(self._y[: L + 1], self._y[L:])


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
    return scipy.linalg.hankel(y[: L + 1], y[L:])


def svd_split(H: np.ndarray | HankelOperator, S: int) -> HankelSvd:
    """Top-S left singular subspace of an (L+1)-row Hankel matrix.

    A HankelOperator is formed first: the split is always the dense thin SVD.
    """
    rows, cols = H.shape
    L = rows - 1
    if not (0 <= S <= min(rows, cols)):
        raise ValueError(f"S = {S} must lie in [0, min({rows}, {cols})]")
    if S > L:
        raise ValueError(f"S = {S} leaves no noise space for L = {L}")
    if isinstance(H, HankelOperator):
        H = H.toarray()
    try:
        u, s, _ = np.linalg.svd(H, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed on a {rows}x{cols} Hankel matrix: {exc}"
        ) from exc
    return HankelSvd(signal_space=u[:, :S], singular_values=s)


def _lanczos_norm(H: HankelOperator) -> float | None:
    """Largest singular value of H by Lanczos; None when ARPACK does not converge."""
    # Imported here, so that runs which never leave the dense path do not
    # carry scipy.sparse.linalg in memory.
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
