"""Fourier/Vandermonde matrices, Hankel matrices, SVD splits.

All spectral quantities come from dense SVDs (thin where singular vectors
are needed); at desk scale (M up to a few thousand) this is affordable and
removes approximation error from the bound checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from srmusic.torus import SupportSet


@dataclass(frozen=True)
class HankelSvd:
    """Signal subspace of a Hankel matrix at rank S.

    signal_space has the top-S left singular vectors as orthonormal
    columns; its orthogonal complement in C^(L+1) is the noise space.
    singular_values holds the full set, nonincreasing.
    """

    signal_space: np.ndarray
    singular_values: np.ndarray


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


def hankel(y: np.ndarray, L: int) -> np.ndarray:
    """(L+1) x (M-L+1) Hankel matrix y[i+j] of a measurement vector of length M+1."""
    y = np.asarray(y)
    M = len(y) - 1
    if not (0 <= L <= M):
        raise ValueError(f"L = {L} outside [0, {M}] for {M + 1} measurements")
    return scipy.linalg.hankel(y[: L + 1], y[L:])


def svd_split(H: np.ndarray, S: int) -> HankelSvd:
    """Thin SVD of an (L+1)-row Hankel matrix, left subspace split at rank S."""
    rows, cols = H.shape
    L = rows - 1
    if not (0 <= S <= min(rows, cols)):
        raise ValueError(f"S = {S} must lie in [0, min({rows}, {cols})]")
    if S > L:
        raise ValueError(f"S = {S} leaves no noise space for L = {L}")
    try:
        u, s, _ = np.linalg.svd(H, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed on a {rows}x{cols} Hankel matrix: {exc}"
        ) from exc
    return HankelSvd(signal_space=u[:, :S], singular_values=s)


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
    """Operator 2-norm: the largest singular value."""
    return float(_singular_values(matrix).max())
