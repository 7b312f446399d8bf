"""Small dense Hermitian kernel: eigendecomposition, PSD tools, realification.

Eigenpairs come straight from LAPACK's Hermitian solver on the complex
matrix.  `eigen` takes a HermitianMatrix or a Hermitian stack (M, n, n), and
`psd_cutoff` takes an array or a stack.  Separation passes only stacks: one
`eigen` call, one `np.linalg.eigh`, serves all M matrices and gives each
the bits of a call of its own, so the benchmark's `hermitian.eigen_calls`
counts stacks, not matrices.  The 2n x 2n real realification L(X) and its
inverse map from W are kept as references for the structural checks.  All
tolerances scale with max(1, trace) or the Frobenius norm so they remain
meaningful on per-unit data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense Hermitian matrix; diagonal imaginary parts forced to zero."""

    mat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("square matrix required")
        # symmetrize: keeps Hermitian structure exact by storage
        h = 0.5 * (a + a.conj().T)
        np.fill_diagonal(h, h.diagonal().real)
        object.__setattr__(self, "mat", h)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def fro_norm(self) -> float:
        return float(np.linalg.norm(self.mat))


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
    m = x.mat if isinstance(x, HermitianMatrix) else np.asarray(x, dtype=complex)
    re, im = m.real, m.imag
    top = np.hstack([re, -im])
    bot = np.hstack([im, re])
    return np.vstack([top, bot])


def eigen(x) -> EigenDecomposition:
    """Eigendecomposition of a HermitianMatrix or of a Hermitian stack
    (M, n, n) by LAPACK, eigenvalues nonincreasing."""
    vals, vecs = np.linalg.eigh(x.mat if isinstance(x, HermitianMatrix)
                                else x)
    return EigenDecomposition(eigenvalues=vals[..., ::-1],
                              eigenvectors=vecs[..., ::-1])


def psd_project(x: HermitianMatrix) -> HermitianMatrix:
    """Euclidean projection onto the PSD cone: keep the positive spectrum."""
    dec = eigen(x)
    n = x.n
    out = np.zeros((n, n), dtype=complex)
    for lam, q in zip(dec.eigenvalues, dec.eigenvectors.T):
        if lam > 0:
            out += lam * np.outer(q, q.conj())
    return HermitianMatrix(out)


def w_to_x(w: np.ndarray) -> HermitianMatrix:
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
    return HermitianMatrix(re + 1j * im)


def rank_of(x, tol: float) -> int:
    """Numerical rank: the count of singular values above
    tol * max(1, Frobenius norm), of a HermitianMatrix or any array; for a
    Hermitian matrix they are the absolute eigenvalues."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = x.mat if isinstance(x, HermitianMatrix) else np.asarray(x)
    scale = max(1.0, float(np.linalg.norm(a)))
    return int(np.count_nonzero(np.linalg.svd(a, compute_uv=False)
                                > tol * scale))
