"""Violated valid linear cuts: eigen, projection, Jabr, limit, cost tangents.

Every matrix cut is a support <A, X> >= 0 of the PSD cone at a bus tuple's
matrix X, mapped onto model variables as

    sum_k A_kk v2[k] + sum_{k<m} 2 (Re A_km c[k,m] + Im A_km s[k,m]) >= 0

with the s coefficient sign adjusted to the canonical pair orientation.
There is one path from a stack of matrices of one size to such cuts:
`jabr_cut` and `clique_cuts` make one `eigen` call per stack (or take the
caller's), the eigenpairs and PSD cutoffs give a coefficient stack, and
the stack's `StackPlan` maps it to coefficient rows in key order and to a
`CutBlock`.  Every function of a stack takes its plan, `StackPlan.of`
the list of bus tuples, made once per list (the relaxation keeps the
plans with the compiled network): each tuple's canonical keys as one
(M, n * n) object array, the places and factors of their coefficients in
the stack as arrays of that shape, and the tuples; a round only indexes
it with the rows it keeps.  A Jabr cut is the eigen cut of a 2 x 2 pair matrix.  No cut
violated by less than `VIOLATION_THRESHOLD` per unit norm is built.
`clique_cuts` pairs each projection cut with its clique's eigen-cut on
the coefficient rows, before it builds its one block.  `limit_cut` and
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
from itertools import combinations

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
        return np.arange(len(self)).repeat(self.size)

    def take(self, which) -> CutBlock:
        """The cuts that `which`, a bool mask or an index array, picks, in
        its order."""
        which = np.asarray(which)
        if which.dtype == bool:
            terms = which.repeat(self.size)
        else:
            which = which.astype(np.intp, copy=False)
            size = self.size[which]
            start = (self.size.cumsum() - self.size)[which]
            terms = (start - (size.cumsum() - size)).repeat(size) \
                + np.arange(size.sum())
        *cuts, keys, coeff = vars(self).values()
        return CutBlock(*[a[which] for a in cuts], keys[terms], coeff[terms])

    def naming(self, test) -> np.ndarray:
        """Per cut, whether `test(key)` holds for one of its keys; `test`
        is asked once per distinct key."""
        keys = self.keys.tolist()
        answer = {key: test(key) for key in dict.fromkeys(keys)}
        hit = np.fromiter(map(answer.__getitem__, keys), bool, len(keys))
        return np.bincount(self.cut_of[hit], minlength=len(self)) > 0


NO_CUTS = CutBlock(*[np.zeros(0, t) for t in (object, object, np.intp, float,
                                                float, float, object, float)])


@dataclass(frozen=True, eq=False)
class StackPlan:
    """What maps the coefficient stacks of a list of M bus tuples of one
    size n to cuts, made once per list by `of`.

    Row m of the (M, n * n) arrays is tuple m's: `keys` holds the variable
    keys of its matrix entries in canonical order, v2 per bus and c and s
    per pair; `picks` the place of each key's coefficient in the flat real
    view of an n x n coefficient matrix, and `scale` its factor.  v2 takes
    the real part of its diagonal entry, c twice the real part of the
    pair's upper-triangle entry, and s twice its imaginary part, negated
    where the tuple's order opposes the canonical pair's.  `provenance`
    holds the tuples.  The arrays are read-only.
    """
    provenance: np.ndarray
    keys: np.ndarray
    picks: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, tuples) -> StackPlan:
        m = len(tuples)
        n = len(tuples[0]) if m else 0
        terms = []
        for t in tuples:
            buses = tuple(map(int, t))  # plain ints, so repr gives key order
            row = [(("v2", b), 2 * (n + 1) * i, 1.0)
                   for i, b in enumerate(buses)]
            for i, j in combinations(range(n), 2):
                pair = canonical_pair(buses[i], buses[j])
                row += [(("c",) + pair, 2 * (n * i + j), 2.0),
                        (("s",) + pair, 2 * (n * i + j) + 1,
                         2.0 if buses[i] < buses[j] else -2.0)]
            terms += sorted(row, key=lambda term: repr(term[0]))
        keys, picks, scale = zip(*terms) if terms else ((), (), ())
        plan = cls(np.fromiter(tuples, object, m),
                   np.fromiter(keys, object, len(keys)).reshape(m, n * n),
                   np.array(picks, np.intp).reshape(m, n * n),
                   np.array(scale, float).reshape(m, n * n))
        for a in vars(plan).values():
            a.flags.writeable = False
        return plan


def _rows(a: np.ndarray, plan: StackPlan, which: np.ndarray,
          violation: np.ndarray):
    """The cuts <A_k, X_k> >= 0 of a coefficient stack `a` (K, n, n) on
    the plan's tuples `which`, as rows: (coefficients (K, n * n) in key
    order, infinity norms, violations, and whether each is violated by at
    least `VIOLATION_THRESHOLD` per unit norm)."""
    k, n = len(a), a.shape[-1]
    flat = np.ascontiguousarray(a, complex).reshape(k, n * n).view(float)
    coeff = flat[np.arange(k)[:, None], plan.picks[which]] * plan.scale[which]
    norm = np.maximum.reduce(np.abs(coeff), axis=1)
    return coeff, norm, violation, violation / norm >= VIOLATION_THRESHOLD


def _block(plan: StackPlan, kind, which, coeff, norm, violation,
           keep) -> CutBlock:
    """The block of the rows `keep` picks, on the plan's tuples `which`,
    of one kind or of the kinds of an object array; zero coefficients are
    left out."""
    if not keep.any():  # at a converged point, the common case
        return NO_CUTS
    if isinstance(kind, str):
        kind = np.array([kind] * len(which), object)
    if not keep.all():
        kind, which, coeff, norm, violation = (
            kind[keep], which[keep], coeff[keep], norm[keep], violation[keep])
    nonzero = coeff != 0.0
    return CutBlock(kind, plan.provenance[which], nonzero.sum(axis=1),
                    np.zeros(len(which)), norm, violation,
                    plan.keys[which][nonzero], coeff[nonzero])


def _eigen(dec: EigenDecomposition, hit: np.ndarray):
    """q q^H of the most negative eigenvector q of each matrix `hit`, and
    its violation -lambda_min."""
    q = dec.eigenvectors[hit, :, -1]
    return q[:, :, None] * q[:, None, :].conj(), -dec.eigenvalues[hit, -1]


def _projection(w: np.ndarray, q: np.ndarray):
    """Per stack of weights w (K, r) and vectors q (K, n, r): the sum of
    w_i q_i q_i^H and the sum of w_i^2, each summed over i left to right;
    a zero weight adds nothing."""
    a = np.add.accumulate(w[:, None, None, :] * (
        q[:, :, None, :] * q[:, None, :, :].conj()), axis=3)[..., -1]
    return a, np.add.accumulate(w * w, axis=1)[:, -1]


def eigen_cut(dec: EigenDecomposition, cutoff: np.ndarray, plan: StackPlan,
              kind: str = "eigen") -> CutBlock:
    """Most-negative-eigenvector cuts of the stack whose eigenpairs are
    `dec`, one per matrix whose lambda_min is below its `cutoff`, on the
    tuples of `plan`."""
    hit = (dec.eigenvalues[:, -1] < cutoff).nonzero()[0]
    a, violation = _eigen(dec, hit)
    return _block(plan, kind, hit, *_rows(a, plan, hit, violation))


def projection_cut(dec: EigenDecomposition, cutoff: np.ndarray,
                   plan: StackPlan) -> CutBlock:
    """Maximum-distance cuts from the PSD projection, one per matrix of the
    stack with an eigenvalue below its `cutoff`, on the tuples of `plan`:
    A = sum of -lambda q q^H over those eigenvalues, violation the sum of
    their squares."""
    w = np.where(dec.eigenvalues < cutoff[:, None], -dec.eigenvalues, 0.0)
    hit = w.any(axis=1).nonzero()[0]
    a, violation = _projection(w[hit], dec.eigenvectors[hit])
    return _block(plan, "projection", hit, *_rows(a, plan, hit, violation))


def _cosines(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row, the cosine of the angle between the coefficient rows x and
    y of two cuts on the same keys.  Each sum runs left to right, as a
    plain loop over the terms would: numpy's `sum` pairs them up, and the
    zeros of both rows add nothing."""
    dot, na, nb = np.add.accumulate(np.array((x * y, x * x, y * y)),
                                    axis=2)[:, :, -1]
    return dot / np.sqrt(na * nb)


def clique_cuts(x: np.ndarray, plan: StackPlan, dec=None) -> CutBlock:
    """Eigen-cuts of a stack (M, n, n) on the cliques of `plan`, then
    projection cuts; `dec` is the stack's eigenpairs when the caller has
    them.

    Only a matrix with exactly two negative eigenvalues gets a projection
    cut: with one, it would be collinear with the eigen-cut.  When the two
    cuts of a clique have the same keys, that is the same nonzero
    coefficients, and are near-parallel (|cos| > `COSINE_BOUND`, as with a
    tiny second eigenvalue), only the more violated one is kept, the
    eigen-cut on a tie.  Both kinds are rows of one coefficient stack, and
    the pairs are settled on its rows before the block is built.
    """
    dec = eigen(x) if dec is None else dec
    cutoff = psd_cutoff(x, PSD_TOL)
    negative = dec.eigenvalues < cutoff[:, None]
    hit = negative[:, -1].nonzero()[0]
    two = (negative.sum(axis=1) == 2).nonzero()[0]
    a, violation = _eigen(dec, hit)
    if not two.size:
        return _block(plan, "eigen", hit, *_rows(a, plan, hit, violation))
    # the two negative eigenvalues are the last two; a matrix with them
    # has an eigen-cut row too, at its place in `hit`
    b, squares = _projection(-dec.eigenvalues[two, -2:],
                             dec.eigenvectors[two, :, -2:])
    which = np.concatenate((hit, two))
    coeff, norm, violation, keep = _rows(
        np.concatenate((a, b)), plan, which,
        np.concatenate((violation, squares)))
    e, p = np.searchsorted(hit, two), np.arange(len(hit), len(which))
    near = keep[e] & keep[p] \
        & ((coeff[p] != 0.0) == (coeff[e] != 0.0)).all(axis=1) \
        & (np.abs(_cosines(coeff[p], coeff[e])) > COSINE_BOUND)
    wins = violation[p] > violation[e]
    keep[e[near & wins]] = keep[p[near & ~wins]] = False
    return _block(plan, np.array(["eigen", "projection"], object).repeat(
        (len(hit), len(two))), which, coeff, norm, violation, keep)


def jabr_cut(x: np.ndarray, plan: StackPlan) -> CutBlock:
    """Eigen-cuts of a stack (P, 2, 2) of pair matrices on the pairs of
    `plan`, each in its pair's order as `clique_matrix` builds it; a cut
    separates c^2 + s^2 <= v2_k v2_m."""
    return eigen_cut(eigen(x), psd_cutoff(x, PSD_TOL), plan, "jabr")


def _tangents(kind, keys, coeff, rhs, norm, violation) -> CutBlock:
    """The tangents over table rows of two keys, `keys`, with two
    coefficients each, zeros kept; provenance is the first key's tail."""
    return CutBlock(
        np.array([kind] * len(keys), object), np.fromiter(
            [key[1:] for key in keys[:, 0].tolist()], object, len(keys)),
        np.full(len(keys), 2, np.intp), rhs, norm, violation, keys.ravel(),
        coeff.ravel())


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
    hit = norm.nonzero()[0]
    hit = hit[(norm - rate)[hit] / big[hit] >= VIOLATION_THRESHOLD]
    return _tangents("limit", keys[hit], -flow[hit], (-rate * norm)[hit],
                     big[hit], (norm - rate)[hit])


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
    violation = f - t
    hit = (violation / norm >= VIOLATION_THRESHOLD).nonzero()[0]
    if not hit.size:
        return NO_CUTS
    coeff = np.ones((hit.size, 2))
    coeff[:, 0] = -slope[hit]
    return _tangents("cost_tangent", keys[hit], coeff, (f - slope * p)[hit],
                     norm[hit], violation[hit])
