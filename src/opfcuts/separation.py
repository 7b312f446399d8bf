"""Violated valid linear cuts: eigen, projection, Jabr, limit, cost tangents.

Matrix cuts <A, X> >= 0 are mapped onto model variables as

    sum_k A_kk v2[k] + sum_{k<m} 2 (Re A_km c[k,m] + Im A_km s[k,m]) >= 0

with the s coefficient sign adjusted to the canonical pair orientation.
Coefficients are Python floats from birth, so a cut hashes like its copy
read back from a cut file.  `jabr_cut` and `clique_cuts` take a stack of
matrices of one size and make one `eigen` call for it; only the matrices
below their PSD cutoff build cuts, from the stack's eigenpairs and cutoff.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hermitian import EigenDecomposition, eigen, psd_cutoff
from .network import canonical_pair

PSD_TOL = 1e-8           # relative to max(1, trace)
VIOLATION_THRESHOLD = 1e-5
HASH_DIGITS = 12

_pack = struct.Struct("<d").pack


class _KeyBytes(dict):
    """repr(key).encode() per variable key, made once; UTF-8 keeps code
    point order, so sorting by these bytes is sorting by `repr`."""

    def __missing__(self, key):
        self[key] = value = repr(key).encode()
        return value


_KEY_BYTES = _KeyBytes()


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
        self.terms = {k: self.terms[k]
                      for k in sorted(self.terms, key=_KEY_BYTES.__getitem__)}
        self.inf_norm = max(map(abs, self.terms.values()))

    @cached_property
    def content_hash(self) -> int:
        """Hash of kind, terms and rhs scaled to unit infinity norm."""
        scale = self.inf_norm
        parts = [self.kind.encode()]
        for key, w in self.terms.items():
            parts += (_KEY_BYTES[key], _pack(round(w / scale, HASH_DIGITS)))
        parts.append(_pack(round(self.rhs / scale, HASH_DIGITS)))
        digest = hashlib.blake2b(b"".join(parts), digest_size=8).digest()
        return int.from_bytes(digest, "little")

    def value_at(self, values: dict) -> float:
        return sum(w * values[k] for k, w in self.terms.items())

    def normalized_violation(self, values: dict) -> float:
        """(rhs - value) / ||coeffs||_inf; positive means violated."""
        return (self.rhs - self.value_at(values)) / self.inf_norm


def _matrix_cut_terms(a: np.ndarray, clique) -> dict:
    """Coefficient map, in Python floats, for <A, X> >= 0 over a clique."""
    a = a.tolist()
    n = len(clique)
    terms = {}
    for i in range(n):
        if a[i][i].real != 0.0:
            terms[("v2", clique[i])] = a[i][i].real
    for i in range(n):
        for j in range(i + 1, n):
            pair = canonical_pair(clique[i], clique[j])
            sign = 1.0 if clique[i] < clique[j] else -1.0
            re, im = 2.0 * a[i][j].real, 2.0 * a[i][j].imag
            if re != 0.0:
                terms[("c",) + pair] = re
            if im != 0.0:
                terms[("s",) + pair] = sign * im
    return terms


def eigen_cut(x0, clique, decomposition=None, cutoff=None):
    """Most-negative-eigenvector cut of x0, a HermitianMatrix or Hermitian
    array, whose eigenpairs and PSD cutoff a caller may pass; None if PSD."""
    dec = decomposition or eigen(x0)
    lam_min = dec.eigenvalues[-1]
    if lam_min >= (psd_cutoff(x0, PSD_TOL) if cutoff is None else cutoff):
        return None
    q = dec.eigenvectors[:, -1]
    terms = _matrix_cut_terms(np.outer(q, q.conj()), clique)
    return LinearCut(terms=terms, rhs=0.0, kind="eigen",
                     provenance=tuple(clique),
                     violation_at_birth=float(-lam_min))


def projection_cut(x0, clique, max_negative: int = 2, decomposition=None,
                   cutoff=None):
    """Maximum-distance cut from the PSD projection of x0.

    Emitted when the negative eigenvalue count is between 1 and
    `max_negative`; with a single negative eigenvalue the cut is collinear
    with the eigen-cut.
    """
    dec = decomposition or eigen(x0)
    neg = dec.negative_pairs(
        psd_cutoff(x0, PSD_TOL) if cutoff is None else cutoff)
    if not neg or len(neg) > max_negative:
        return None
    n = len(dec.eigenvalues)
    a = np.zeros((n, n), dtype=complex)
    for lam, q in neg:
        a += (-lam) * np.outer(q, q.conj())
    terms = _matrix_cut_terms(a, clique)
    violation = float(sum(lam * lam for lam, _ in neg))
    return LinearCut(terms=terms, rhs=0.0, kind="projection",
                     provenance=tuple(clique), violation_at_birth=violation)


def clique_cuts(x: np.ndarray, cliques) -> list:
    """Eigen-cuts, and projection cuts, of a stack (M, n, n) of cliques.

    A matrix with two negative eigenvalues gets a projection cut after its
    eigen-cut; with one, that cut would be collinear with the eigen-cut.
    """
    dec = eigen(x)
    cutoff = psd_cutoff(x, PSD_TOL)
    neg = (dec.eigenvalues < cutoff[:, None]).sum(axis=1)
    cuts = []
    for m in np.flatnonzero(neg).tolist():
        dec_m = EigenDecomposition(dec.eigenvalues[m], dec.eigenvectors[m])
        cuts.append(eigen_cut(x[m], cliques[m], dec_m, cutoff[m]))
        if neg[m] == 2:
            cuts.append(projection_cut(x[m], cliques[m], decomposition=dec_m,
                                       cutoff=cutoff[m]))
    return cuts


def jabr_cut(x: np.ndarray, pairs) -> list:
    """Eigen-cuts of pair matrices; each separates c^2 + s^2 <= v2_k v2_m.

    `x` stacks the matrices (P, 2, 2) of `pairs`, s in canonical orientation.
    With q the eigenvector of lambda_min, a cut's coefficients |q_0|^2,
    |q_1|^2, 2 Re q_0 conj(q_1) and 2 Im q_0 conj(q_1) are `eigen_cut`'s.
    """
    dec = eigen(x)
    lam = dec.eigenvalues[:, -1]
    hit = np.flatnonzero(lam < psd_cutoff(x, PSD_TOL))
    q0, q1 = dec.eigenvectors[hit, 0, -1], dec.eigenvectors[hit, 1, -1]
    a01 = q0 * q1.conj()
    columns = ((q0 * q0.conj()).real, (q1 * q1.conj()).real,
               2.0 * a01.real, 2.0 * a01.imag)
    cuts = []
    for i, lam_i, *coeffs in zip(hit.tolist(), lam[hit].tolist(),
                                 *(col.tolist() for col in columns)):
        a, b = canonical_pair(*pairs[i])
        keys = (("v2", a), ("v2", b), ("c", a, b), ("s", a, b))
        terms = {k: w for k, w in zip(keys, coeffs) if w != 0.0}
        cuts.append(LinearCut(terms, 0.0, "jabr", (a, b), -lam_i))
    return cuts


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
