"""Small dense Hermitian kernel: eigendecomposition, PSD tools, realification.

The module has no matrix type: every function takes plain NumPy arrays,
and a Hermitian matrix is a complex (n, n) array.  Eigenpairs come
straight from LAPACK's Hermitian solver, which reads only the lower
triangle: `eigen` and `psd_cutoff` take an (n, n) array or a stack
(M, n, n).  Separation passes only stacks: one `eigen` call, one
`np.linalg.eigh`, serves all M matrices and gives each the bits of a call
of its own, so the benchmark's `hermitian.eigen_calls` counts stacks, not
matrices.  The 2n x 2n real realification L(X) and its inverse map from W
are kept as references for the structural checks.  All tolerances scale
with max(1, trace) or the Frobenius norm so they remain meaningful on
per-unit data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def psd_cutoff(mats: np.ndarray, tol: float):
    """Eigenvalues below -tol * max(1, trace) count as negative, per matrix
    of `mats`: an (n, n) array or a stack (M, n, n).  The trace is summed as
    complex, as `ndarray.trace` sums it."""
    return -tol * np.maximum(1.0, mats.diagonal(0, -2, -1).sum(-1).real)


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray   # (..., n), nonincreasing per matrix
    eigenvectors: np.ndarray  # (..., n, n), unit columns [..., :, i]


def realify(x) -> np.ndarray:
    """L(X) = [[Re X, -Im X], [Im X, Re X]] for any complex square X.

    For Hermitian input the result is real symmetric; the same block formula
    extends to general complex matrices (used by the rank identity checks).
    """
    m = np.asarray(x, dtype=complex)
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def eigen(x) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian (n, n) array or stack (M, n, n) by
    LAPACK, eigenvalues nonincreasing."""
    vals, vecs = np.linalg.eigh(x)
    return EigenDecomposition(eigenvalues=vals[..., ::-1],
                              eigenvectors=vecs[..., ::-1])


def psd_project(x) -> np.ndarray:
    """Euclidean projection onto the PSD cone: keep the positive spectrum."""
    lam, q = np.linalg.eigh(x)
    return (q * np.maximum(lam, 0.0)) @ q.conj().T


def w_to_x(w: np.ndarray) -> np.ndarray:
    """Map a real symmetric 2n x 2n matrix to its associated Hermitian matrix.

    With k' = k + n:  X_kk = W_kk + W_k'k',  Re X_km = W_km + W_k'm',
    Im X_km = W_mk' - W_km'.  The imaginary-part sign is fixed so that the
    (c, s) values of a feasible real-relaxation point reappear as the real and
    imaginary parts of X.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 0:
        raise ValueError("even-dimensional square matrix required")
    n = w.shape[0] // 2
    a, d = w[:n, :n], w[n:, n:]
    b = w[:n, n:]  # rows k, cols m'
    re = a + d
    im = b.T - b   # Im X_km = W_mk' - W_km' = b[m,k] - b[k,m]
    return re + 1j * im


def rank_of(x, tol: float) -> int:
    """Numerical rank: the count of singular values above
    tol * max(1, Frobenius norm) of any array; for a Hermitian matrix they
    are the absolute eigenvalues."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    a = np.asarray(x)
    scale = max(1.0, float(np.linalg.norm(a)))
    return int(np.count_nonzero(np.linalg.svd(a, compute_uv=False)
                                > tol * scale))
