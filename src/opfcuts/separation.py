"""Violated valid linear cuts: eigen, projection, Jabr, limit, cost tangents.

Every matrix cut is a support <A, X> >= 0 of the PSD cone at a bus tuple's
matrix X, mapped onto model variables as

    sum_k A_kk v2[k] + sum_{k<m} 2 (Re A_km c[k,m] + Im A_km s[k,m]) >= 0

with the s coefficient sign adjusted to the canonical pair orientation.
There is one path from a stack of matrices of one size to such cuts:
`jabr_cut` and `clique_cuts` make one `eigen` call per stack, `eigen_cut`
and `projection_cut` turn the stack's eigenpairs and PSD cutoffs into a
coefficient stack, and `_matrix_cuts` maps that stack to cuts.  A Jabr cut
is the eigen cut of a 2 x 2 pair matrix.  Coefficients are Python floats
from birth, so a cut hashes like its copy read back from a cut file.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property

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


class _TupleKeys(dict):
    """Per bus tuple, made once: the variable keys of its matrix entries and
    a picker of their coefficients from a `_matrix_cuts` row.  v2 takes the
    diagonal and c the upper triangle's real parts; s takes its imaginary
    parts, negated where the tuple's order opposes the canonical pair's."""

    def __missing__(self, t):
        buses = tuple(map(int, t))  # numpy integers equal, and hash like, ints
        n = len(buses)
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pairs = [canonical_pair(buses[i], buses[j]) for i, j in upper]
        m = len(pairs)
        keys = ([("v2", b) for b in buses] + [("c",) + p for p in pairs]
                + [("s",) + p for p in pairs])
        picks = list(range(n + m)) + [
            n + m + k if buses[i] < buses[j] else n + 2 * m + k
            for k, (i, j) in enumerate(upper)]
        self[t] = value = (keys, operator.itemgetter(*picks))
        return value


_TUPLE_KEYS = _TupleKeys()


@cache
def _upper(n: int) -> tuple:
    """Row and column indices of the strict upper triangle of n x n, made
    once per n: `np.triu_indices` takes tens of microseconds a call."""
    return np.triu_indices(n, 1)


def _matrix_cuts(a: np.ndarray, tuples, kind: str, violations) -> list:
    """Cuts <A_k, X_k> >= 0 of a coefficient stack `a` (K, n, n) over K bus
    tuples, coefficients in Python floats, zero coefficients left out."""
    iu, ju = _upper(a.shape[-1])
    off = 2.0 * a[:, iu, ju]
    rows = np.concatenate((a.diagonal(0, -2, -1).real, off.real, off.imag,
                           -off.imag), axis=1).tolist()
    cuts = []
    for t, row, violation in zip(tuples, rows, violations.tolist()):
        keys, pick = _TUPLE_KEYS[t]
        terms = {k: w for k, w in zip(keys, pick(row)) if w != 0.0}
        cuts.append(LinearCut(terms, 0.0, kind, t, violation))
    return cuts


def eigen_cut(dec: EigenDecomposition, cutoff: np.ndarray, tuples,
              kind: str = "eigen") -> list:
    """Most-negative-eigenvector cuts of the stack whose eigenpairs are
    `dec`, one per matrix whose lambda_min is below its `cutoff`."""
    lam = dec.eigenvalues[:, -1]
    hit = np.flatnonzero(lam < cutoff)
    q = dec.eigenvectors[hit, :, -1]
    a = q[:, :, None] * q[:, None, :].conj()
    return _matrix_cuts(a, [tuples[m] for m in hit.tolist()], kind, -lam[hit])


def projection_cut(dec: EigenDecomposition, cutoff: np.ndarray,
                   tuples) -> list:
    """Maximum-distance cuts from the PSD projection, one per matrix of the
    stack with an eigenvalue below its `cutoff`: A = sum of -lambda q q^H
    over those eigenvalues, violation the sum of their squares."""
    w = np.where(dec.eigenvalues < cutoff[:, None], -dec.eigenvalues, 0.0)
    hit = np.flatnonzero(w.any(axis=1))
    w, q = w[hit], dec.eigenvectors[hit]
    a = np.zeros(q.shape, dtype=complex)
    violation = np.zeros(len(hit))
    for i in range(q.shape[-1]):  # a zero weight adds nothing
        qi = q[:, :, i]
        a += w[:, i, None, None] * (qi[:, :, None] * qi[:, None, :].conj())
        violation += w[:, i] * w[:, i]
    return _matrix_cuts(a, [tuples[m] for m in hit.tolist()], "projection",
                        violation)


def clique_cuts(x: np.ndarray, cliques) -> list:
    """Eigen-cuts of a stack (M, n, n) of cliques, then projection cuts.

    Only a matrix with exactly two negative eigenvalues gets a projection
    cut; with one, that cut would be collinear with the eigen-cut.
    """
    dec = eigen(x)
    cutoff = psd_cutoff(x, PSD_TOL)
    cuts = eigen_cut(dec, cutoff, cliques)
    two = np.flatnonzero((dec.eigenvalues < cutoff[:, None]).sum(axis=1) == 2)
    if two.size:
        cuts += projection_cut(
            EigenDecomposition(dec.eigenvalues[two], dec.eigenvectors[two]),
            cutoff[two], [cliques[m] for m in two.tolist()])
    return cuts


def jabr_cut(x: np.ndarray, pairs) -> list:
    """Eigen-cuts of a stack (P, 2, 2) of pair matrices, each in its pair's
    order as `clique_matrix` builds it; a cut separates c^2 + s^2 <=
    v2_k v2_m."""
    return eigen_cut(eigen(x), psd_cutoff(x, PSD_TOL), pairs, "jabr")


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
