"""Violated valid linear cuts: eigen, projection, Jabr, limit, cost tangents.

Every matrix cut is a support <A, X> >= 0 of the PSD cone at a bus tuple's
matrix X, mapped onto model variables as

    sum_k A_kk v2[k] + sum_{k<m} 2 (Re A_km c[k,m] + Im A_km s[k,m]) >= 0

with the s coefficient sign adjusted to the canonical pair orientation.
There is one path from a stack of matrices of one size to such cuts:
`jabr_cut` and `clique_cuts` make one `eigen` call per stack, `eigen_cut`
and `projection_cut` turn the stack's eigenpairs and PSD cutoffs into a
coefficient stack, and `_matrix_cuts` maps that stack to a `CutBlock`.  A
Jabr cut is the eigen cut of a 2 x 2 pair matrix.  No cut violated by less
than `VIOLATION_THRESHOLD` per unit norm is built.  `limit_cut` and
`cost_cut` build a round's tangents in one array pass each over the LP
solution, by the compiled network's tangent tables (see `relaxation`).

Every cut is built as a `CutBlock`: the columns of a version 3 cut file
(kind, provenance, size, rhs, and per term a key and a coefficient),
plus each cut's infinity norm and violation at birth.  Separation returns
blocks, the pool is a block, the LP takes a block as one row block, and a
cut file is written from and read into one.  `block[i]` is cut i as a
`LinearCut`, a one-cut view for tests and `value_at`.

A cut has no name of its own: a run names it by its position in the
run's pool, which is its cut row's position in the LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress, repeat

import numpy as np

from .hermitian import EigenDecomposition, eigen, psd_cutoff
from .network import canonical_pair

PSD_TOL = 1e-8           # relative to max(1, trace)
VIOLATION_THRESHOLD = 1e-5  # least violation per unit infinity norm
COSINE_BOUND = 0.999


@dataclass
class LinearCut:
    """One cut of a block, `block[i]`: a sparse >= inequality over
    symbolic model variables, `terms` in canonical (`repr`) key order."""

    terms: dict              # variable key -> coefficient
    rhs: float
    kind: str                # eigen | projection | jabr | limit | cost_tangent
    provenance: tuple        # clique / pair / branch / generator identifier
    violation_at_birth: float
    inf_norm: float

    def value_at(self, values: dict) -> float:
        return sum(w * values[k] for k, w in self.terms.items())

    def normalized_violation(self, values: dict) -> float:
        """(rhs - value) / ||coeffs||_inf; positive means violated."""
        return (self.rhs - self.value_at(values)) / self.inf_norm


@dataclass(frozen=True, eq=False)
class CutBlock:
    """Many cuts as columns; nothing in one ever changes.

    Cut i has kind kind[i], provenance provenance[i], right-hand side
    rhs[i], infinity norm norm[i] > 0, violation at birth violation[i] and
    size[i] >= 1 terms: the next entries of the flat `keys`, in canonical
    order, and of `coeff`.  `kind`, `provenance` and `keys` are object
    arrays.
    """
    kind: np.ndarray
    provenance: np.ndarray
    size: np.ndarray
    rhs: np.ndarray
    norm: np.ndarray
    violation: np.ndarray
    keys: np.ndarray
    coeff: np.ndarray

    @staticmethod
    def concat(*blocks) -> CutBlock:
        """The cuts of `blocks`, in order."""
        blocks = [b for b in blocks if len(b)]
        if len(blocks) < 2:
            return blocks[0] if blocks else NO_CUTS
        return CutBlock(*map(np.concatenate, zip(*[vars(b).values()
                                                    for b in blocks])))

    def __len__(self):
        return len(self.size)

    def __getitem__(self, i) -> LinearCut:
        cut = self.take([i])
        return LinearCut(dict(zip(cut.keys.tolist(), cut.coeff.tolist())), *[
            a.item() for a in (cut.rhs, cut.kind, cut.provenance,
                               cut.violation, cut.norm)])

    @property
    def cut_of(self) -> np.ndarray:
        """The cut of each term."""
        return np.repeat(np.arange(len(self)), self.size)

    def take(self, which) -> CutBlock:
        """The cuts that `which`, a bool mask or an index array, picks, in
        its order."""
        cuts = np.arange(len(self))[which]
        run, place = _runs(self.size[cuts])
        terms = (np.cumsum(self.size) - self.size)[cuts][run] + place
        return CutBlock(self.kind[cuts], self.provenance[cuts],
                        self.size[cuts], self.rhs[cuts], self.norm[cuts],
                        self.violation[cuts], self.keys[terms],
                        self.coeff[terms])

    def naming(self, test) -> np.ndarray:
        """Per cut, whether `test(key)` holds for one of its keys; `test`
        is asked once per distinct key."""
        keys = self.keys.tolist()
        answer = {key: test(key) for key in dict.fromkeys(keys)}
        hit = np.fromiter(map(answer.__getitem__, keys), bool, len(keys))
        return np.bincount(self.cut_of[hit], minlength=len(self)) > 0


NO_CUTS = CutBlock(*[np.zeros(0, t) for t in (object, object, np.intp, float,
                                                float, float, object, float)])


class _TupleKeys(dict):
    """Per bus tuple, made once: the variable keys of its matrix entries in
    canonical order, and the positions of their coefficients in a
    `_matrix_cuts` row.  v2 takes the diagonal and c the upper triangle's
    real parts; s takes its imaginary parts, negated where the tuple's
    order opposes the canonical pair's."""

    def __missing__(self, t):
        buses = tuple(map(int, t))  # plain ints, so repr gives key order
        n = len(buses)
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pairs = [canonical_pair(buses[i], buses[j]) for i, j in upper]
        m = len(pairs)
        keys = ([("v2", b) for b in buses] + [("c",) + p for p in pairs]
                + [("s",) + p for p in pairs])
        picks = list(range(n + m)) + [
            n + m + k if buses[i] < buses[j] else n + 2 * m + k
            for k, (i, j) in enumerate(upper)]
        order = sorted(range(len(keys)), key=lambda i: repr(keys[i]))
        self[t] = value = (np.fromiter([keys[i] for i in order], object),
                           np.array([picks[i] for i in order]))
        return value


_TUPLE_KEYS = _TupleKeys()


@cache
def _upper(n: int) -> tuple:
    """Row and column indices of the strict upper triangle of n x n, made
    once per n: `np.triu_indices` takes tens of microseconds a call."""
    return np.triu_indices(n, 1)


def _matrix_cuts(a: np.ndarray, tuples, kind: str,
                 violations: np.ndarray) -> CutBlock:
    """The block of cuts <A_k, X_k> >= 0 of a coefficient stack `a`
    (K, n, n) over K bus tuples, zero coefficients left out."""
    iu, ju = _upper(a.shape[-1])
    off = 2.0 * a[:, iu, ju]
    rows = np.concatenate((a.diagonal(0, -2, -1).real, off.real, off.imag,
                           -off.imag), axis=1)
    norms = np.abs(rows).max(axis=1)
    keep = violations / norms >= VIOLATION_THRESHOLD
    if not keep.any():
        return NO_CUTS
    kept = list(compress(tuples, keep))
    keys, picks = zip(*map(_TUPLE_KEYS.__getitem__, kept))
    coeffs = np.take_along_axis(
        rows[keep], np.concatenate(picks).reshape(len(kept), -1), axis=1)
    nonzero = coeffs != 0.0
    return CutBlock(
        np.full(len(kept), kind, object), np.fromiter(kept, object),
        nonzero.sum(axis=1), np.zeros(len(kept)), norms[keep],
        violations[keep], np.concatenate(keys)[nonzero.ravel()],
        coeffs[nonzero])


def eigen_cut(dec: EigenDecomposition, cutoff: np.ndarray, tuples,
              kind: str = "eigen") -> CutBlock:
    """Most-negative-eigenvector cuts of the stack whose eigenpairs are
    `dec`, one per matrix whose lambda_min is below its `cutoff`."""
    lam = dec.eigenvalues[:, -1]
    hit = np.flatnonzero(lam < cutoff)
    q = dec.eigenvectors[hit, :, -1]
    a = q[:, :, None] * q[:, None, :].conj()
    return _matrix_cuts(a, [tuples[m] for m in hit.tolist()], kind, -lam[hit])


def projection_cut(dec: EigenDecomposition, cutoff: np.ndarray,
                   tuples) -> CutBlock:
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


def _runs(size: np.ndarray):
    """Per term of runs of `size` consecutive terms: its run, and its place
    in the run."""
    run = np.repeat(np.arange(len(size)), size)
    return run, np.arange(len(run)) - (np.cumsum(size) - size)[run]


def _cosines(x: np.ndarray, y: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Per run of `size` terms, the cosine of the angle between the
    coefficients x and y of two cuts on the same keys.  Each sum runs left
    to right over the terms, as a plain loop would: numpy's `sum` pairs
    them up."""
    run, place = _runs(size)
    rows = np.zeros((3, len(size), size.max(initial=1)))
    rows[:, run, place] = (x * y, x * x, y * y)
    dot, na, nb = np.add.accumulate(rows, axis=2)[:, :, -1]
    return dot / np.sqrt(na * nb)


def clique_cuts(x: np.ndarray, cliques) -> CutBlock:
    """Eigen-cuts of a stack (M, n, n) of cliques, then projection cuts.

    Only a matrix with exactly two negative eigenvalues gets a projection
    cut: with one, it would be collinear with the eigen-cut.  When the two
    cuts of a clique have the same keys and are near-parallel (|cos| >
    `COSINE_BOUND`, as with a tiny second eigenvalue), only the more
    violated one is kept, the eigen-cut on a tie.
    """
    dec = eigen(x)
    cutoff = psd_cutoff(x, PSD_TOL)
    cuts = eigen_cut(dec, cutoff, cliques)
    two = np.flatnonzero((dec.eigenvalues < cutoff[:, None]).sum(axis=1) == 2)
    if not two.size:
        return cuts
    proj = projection_cut(
        EigenDecomposition(dec.eigenvalues[two], dec.eigenvectors[two]),
        cutoff[two], [cliques[m] for m in two.tolist()])
    # each projection cut beside its clique's eigen-cut, when one has as
    # many terms
    at = dict(zip(cuts.provenance.tolist(), range(len(cuts))))
    other = np.fromiter(map(at.get, proj.provenance.tolist(),
                            repeat(-1)), np.intp, len(proj))
    pair = np.flatnonzero(other >= 0)
    pair = pair[proj.size[pair] == cuts.size[other[pair]]]
    p, e = proj.take(pair), cuts.take(other[pair])
    same = np.bincount(p.cut_of[p.keys != e.keys], minlength=len(pair)) == 0
    near = pair[same & (np.abs(_cosines(p.coeff, e.coeff, p.size))
                        > COSINE_BOUND)]
    if not near.size:
        return CutBlock.concat(cuts, proj)
    wins = proj.violation[near] > cuts.violation[other[near]]
    return CutBlock.concat(
        cuts.take(np.delete(np.arange(len(cuts)), other[near[wins]])),
        proj.take(np.delete(np.arange(len(proj)), near[~wins])))


def jabr_cut(x: np.ndarray, pairs) -> CutBlock:
    """Eigen-cuts of a stack (P, 2, 2) of pair matrices, each in its pair's
    order as `clique_matrix` builds it; a cut separates c^2 + s^2 <=
    v2_k v2_m."""
    return eigen_cut(eigen(x), psd_cutoff(x, PSD_TOL), pairs, "jabr")


def _tangents(kind, keys, hit, coeff, rhs, norm, violation) -> CutBlock:
    """The tangents `hit` picks of table rows of two keys and two
    coefficients, zeros kept; provenance is the first key's tail."""
    if not hit.size:
        return NO_CUTS
    return CutBlock(
        np.full(hit.size, kind, object), np.fromiter(
            [key[1:] for key in keys[hit, 0].tolist()], object, hit.size),
        np.full(hit.size, 2, np.intp), rhs[hit], norm[hit], violation[hit],
        keys[hit].ravel(), coeff[hit].ravel())


def limit_cut(y, cols, rate, keys) -> CutBlock:
    """Tangents to the thermal circles, as one block.

    Per table row i, with flow (p, q) = y[cols[i]], the tangent over
    keys[i] at the projection of (p, q) onto the circle of radius rate[i],
    unless it is violated by less than `VIOLATION_THRESHOLD` per unit norm.
    """
    if not len(rate):
        return NO_CUTS
    flow = y[cols]
    p, q = flow.T
    norm = np.sqrt(p * p + q * q)
    big = np.abs(flow).max(axis=1)
    hit = np.flatnonzero(norm)
    hit = hit[(norm - rate)[hit] / big[hit] >= VIOLATION_THRESHOLD]
    return _tangents("limit", keys, hit, -flow, -rate * norm, big,
                     norm - rate)


def cost_cut(y, cols, coefficients, keys) -> CutBlock:
    """Epigraph tangents of quadratic costs, as one block.

    Per table row i, with (Pg, t) = y[cols[i]] and (c2, c1, c0) =
    coefficients[i], the tangent over keys[i] at Pg, unless it is violated
    by less than `VIOLATION_THRESHOLD` per unit norm.
    """
    p, t = y[cols].T
    c2, c1, c0 = coefficients.T
    f = c2 * p * p + c1 * p + c0
    slope = 2.0 * c2 * p + c1
    norm = np.maximum(np.abs(slope), 1.0)
    hit = np.flatnonzero((f - t) / norm >= VIOLATION_THRESHOLD)
    return _tangents("cost_tangent", keys, hit,
                     np.stack([-slope, np.ones(len(p))], axis=1),
                     f - slope * p, norm, f - t)
