"""Violated valid linear cuts: eigen, projection, Jabr, limit, cost tangents.

Matrix cuts <A, X> >= 0 are mapped onto model variables as

    sum_k A_kk v2[k] + sum_{k<m} 2 (Re A_km c[k,m] + Im A_km s[k,m]) >= 0

with the s coefficient sign adjusted to the canonical pair orientation.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .hermitian import HermitianMatrix, eigen
from .network import canonical_pair

PSD_TOL = 1e-8           # relative to max(1, trace)
VIOLATION_THRESHOLD = 1e-5
DENSITY_CAP = 15         # cuts touching more variables are rejected
HASH_DIGITS = 12


@dataclass
class LinearCut:
    """Sparse >= inequality over symbolic model variables.

    Canonical from birth: `terms` is kept in `repr` order of its keys, the
    one term order the content hash, the LP row, admission and the cut file
    all read, and `inf_norm` is computed once.
    """

    terms: dict              # variable key -> coefficient
    rhs: float
    kind: str                # eigen | projection | jabr | limit | cost_tangent
    provenance: tuple        # clique / pair / branch / generator identifier
    violation_at_birth: float = 0.0
    age: int = 0
    inf_norm: float = field(init=False)

    def __post_init__(self):
        self.terms = {k: self.terms[k] for k in sorted(self.terms, key=repr)}
        self.inf_norm = max(map(abs, self.terms.values()))

    @cached_property
    def content_hash(self) -> int:
        """Hash of kind, terms and rhs scaled to unit infinity norm."""
        scale = self.inf_norm
        h = hashlib.blake2b(digest_size=8)
        h.update(self.kind.encode())
        for key, w in self.terms.items():
            h.update(repr(key).encode())
            h.update(struct.pack("<d", round(w / scale, HASH_DIGITS)))
        h.update(struct.pack("<d", round(self.rhs / scale, HASH_DIGITS)))
        return int.from_bytes(h.digest(), "little")

    def value_at(self, values: dict) -> float:
        return sum(w * values[k] for k, w in self.terms.items())

    def normalized_violation(self, values: dict) -> float:
        """(rhs - value) / ||coeffs||_inf; positive means violated."""
        return (self.rhs - self.value_at(values)) / self.inf_norm


def _matrix_cut_terms(a: np.ndarray, clique) -> dict:
    """Coefficient map for <A, X> >= 0 over a clique's variables."""
    n = len(clique)
    terms = {}
    for i in range(n):
        coeff = float(a[i, i].real)
        if coeff != 0.0:
            terms[("v2", clique[i])] = terms.get(("v2", clique[i]), 0.0) + coeff
    for i in range(n):
        for j in range(i + 1, n):
            pair = canonical_pair(clique[i], clique[j])
            sign = 1.0 if clique[i] < clique[j] else -1.0
            re, im = 2.0 * a[i, j].real, 2.0 * a[i, j].imag
            if re != 0.0:
                terms[("c",) + pair] = terms.get(("c",) + pair, 0.0) + re
            if im != 0.0:
                terms[("s",) + pair] = terms.get(("s",) + pair, 0.0) + sign * im
    return terms


def eigen_cut(x0: HermitianMatrix, clique, density_cap: int = DENSITY_CAP,
              decomposition=None):
    """Most-negative-eigenvector cut; None when x0 is PSD within tolerance."""
    dec = decomposition if decomposition is not None else eigen(x0)
    lam_min = dec.eigenvalues[-1]
    if lam_min >= x0.psd_cutoff(PSD_TOL):
        return None
    q = dec.eigenvectors[:, -1]
    a = np.outer(q, q.conj())
    terms = _matrix_cut_terms(a, clique)
    if len(terms) > density_cap:
        return None
    return LinearCut(terms=terms, rhs=0.0, kind="eigen",
                     provenance=tuple(clique),
                     violation_at_birth=float(-lam_min))


def projection_cut(x0: HermitianMatrix, clique,
                   density_cap: int = DENSITY_CAP, max_negative: int = 2,
                   decomposition=None):
    """Maximum-distance cut from the PSD projection of x0.

    Emitted when the negative eigenvalue count is between 1 and
    `max_negative`; with a single negative eigenvalue the cut is collinear
    with the eigen-cut.
    """
    dec = decomposition if decomposition is not None else eigen(x0)
    neg = dec.negative_pairs(x0.psd_cutoff(PSD_TOL))
    if not neg or len(neg) > max_negative:
        return None
    a = np.zeros((x0.n, x0.n), dtype=complex)
    for lam, q in neg:
        a += (-lam) * np.outer(q, q.conj())
    terms = _matrix_cut_terms(a, clique)
    if len(terms) > density_cap:
        return None
    violation = float(sum(lam * lam for lam, _ in neg))
    return LinearCut(terms=terms, rhs=0.0, kind="projection",
                     provenance=tuple(clique), violation_at_birth=violation)


def jabr_cut(v2_k: float, v2_m: float, c: float, s: float, pair):
    """Eigen-cut of the 2x2 pair matrix; separates c^2 + s^2 <= v2_k v2_m."""
    pair = canonical_pair(*pair)
    x0 = HermitianMatrix(np.array([[v2_k, c + 1j * s],
                                   [c - 1j * s, v2_m]]))
    cut = eigen_cut(x0, pair)
    return None if cut is None else replace(cut, kind="jabr")


def limit_cut(p_hat: float, q_hat: float, u: float, branch_dir):
    """Tangent to the thermal circle at the projection of (p_hat, q_hat)."""
    if not math.isfinite(u):
        raise ValueError("limit_cut needs a finite thermal limit")
    norm2 = p_hat * p_hat + q_hat * q_hat
    if norm2 <= u * u * (1.0 + 1e-8) or norm2 == 0.0:
        return None
    norm = math.sqrt(norm2)
    bkey, d = branch_dir
    terms = {("P", bkey, d): -p_hat, ("Q", bkey, d): -q_hat}
    violation = (norm - u)  # euclidean excess beyond the circle
    return LinearCut(terms=terms, rhs=-u * norm, kind="limit",
                     provenance=(bkey, d), violation_at_birth=violation)


def cost_cut(p_hat: float, t_hat: float, gen, gkey):
    """Epigraph tangent for a quadratic cost; None for linear/pwl costs."""
    cost = gen.cost
    if cost.kind != "polynomial" or cost.coefficients[0] == 0.0:
        return None  # exact supports installed at model build
    f = cost.value(p_hat)
    if t_hat >= f - 1e-9:
        return None
    slope = cost.derivative(p_hat)
    terms = {("t", gkey): 1.0, ("Pg", gkey): -slope}
    return LinearCut(terms=terms, rhs=f - slope * p_hat, kind="cost_tangent",
                     provenance=(gkey,), violation_at_birth=f - t_hat)
