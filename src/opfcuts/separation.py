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
than `VIOLATION_THRESHOLD` per unit norm is built.

Many cuts take one form, the `CutBlock`: the columns of a version 3 cut
file (kind, provenance, size, rhs, and per term a key and a coefficient),
plus each cut's infinity norm and violation at birth.  Separation returns
blocks, the pool is a block, the LP takes a block as one row block, and a
cut file is written from and read into one.  `block[i]` is cut i as a
`LinearCut`, a one-cut view for tests and `value_at`.

A cut has no name of its own: a run names it by the serial id that
`cut_manager.admit` gives it.  Its content hash, which `cut_hashes`
computes for a block in one `_content_hashes` pass, names it only in a cut
file: `cut_manager.save_cuts` orders a file by it, and a version 1 or 2
load orders its cuts by it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, compress, repeat

import numpy as np

from .hermitian import EigenDecomposition, eigen, psd_cutoff
from .network import canonical_pair

PSD_TOL = 1e-8           # relative to max(1, trace)
VIOLATION_THRESHOLD = 1e-5  # least violation per unit infinity norm
COSINE_BOUND = 0.999
HASH_DIGITS = 12

_ROUND_SCALE = float(10 ** HASH_DIGITS)
_CLIP = 2.0 ** 53 / _ROUND_SCALE  # beyond it, v * 1e12 has no fraction


def _plain(key):
    """`key` with its numpy integers as Python ints: they equal, and hash
    like, each other, so both must give one `repr`."""
    if isinstance(key, tuple):
        return tuple(map(_plain, key))
    return int(key) if isinstance(key, np.integer) else key


class _KeyBytes(dict):
    """repr(key).encode() per variable key, made once, from the key with
    plain ints whichever form came first; UTF-8 keeps code point order, so
    sorting by these bytes is sorting by `repr`."""

    def __missing__(self, key):
        self[key] = value = repr(_plain(key)).encode()
        return value


_KEY_BYTES = _KeyBytes()


def _round_digits(x: np.ndarray) -> np.ndarray:
    """round(v, HASH_DIGITS) of every v of `x`, bit for bit.

    rint(v * 1e12) / 1e12 rounds v * 1e12 in floating point before it
    rounds to an integer, and the division is exact to the nearest double,
    as Python's round is.  So the two differ only where v * 1e12 is within
    its own rounding error of a tie (|y - rint(y)| within |y| 2**-51 of
    0.5, for y = v * 1e12), or too large for rint to be exact (|y| >=
    2**52); those few values go through Python's round.  Clipping v first
    keeps y finite.
    """
    y = np.minimum(np.maximum(x, -_CLIP), _CLIP) * _ROUND_SCALE
    r = np.rint(y)
    # |y - r| is exact; beyond 2**52, |y| * 2**-51 alone reaches 0.5
    unsure = np.abs(y - r) + np.abs(y) * 2.0 ** -51 >= 0.5
    out = r / _ROUND_SCALE
    for i in unsure.nonzero()[0].tolist():
        out[i] = round(float(x[i]), HASH_DIGITS)
    return out


def _content_hashes(kinds, key_bytes, coeffs: np.ndarray, rhs: np.ndarray,
                    sizes: list, norms: np.ndarray) -> list:
    """Content hashes of many cuts: cut i has kind kinds[i], right-hand side
    rhs[i], infinity norm norms[i] and the next sizes[i] (>= 1) terms, in
    canonical order, of the flat `key_bytes` (`_KEY_BYTES` of each key) and
    `coeffs`.

    A cut's hash is the blake2b digest of its kind, then per term its key
    bytes and its coefficient over the norm rounded to `HASH_DIGITS`
    digits, then its rhs so scaled, each number as a little-endian double.
    """
    n = len(key_bytes)
    packed = _round_digits(np.concatenate((
        coeffs / np.repeat(norms, sizes), rhs / norms))).astype(
            "<f8", copy=False).view("V8").tolist()
    parts = [b""] * (2 * n)
    parts[::2] = key_bytes
    parts[1::2] = packed[:n]
    bounds = [0, *accumulate([2 * k for k in sizes])]
    return [int.from_bytes(hashlib.blake2b(
        b"".join([kind.encode(), *parts[a:b], end]), digest_size=8).digest(),
        "little") for kind, a, b, end in zip(kinds, bounds, bounds[1:],
                                             packed[n:])]


def cut_hashes(cuts: CutBlock) -> list:
    """The content hashes of a block's cuts, in one `_content_hashes`
    pass."""
    return _content_hashes(
        cuts.kind.tolist(), list(map(_KEY_BYTES.__getitem__,
                                     cuts.keys.tolist())),
        cuts.coeff, cuts.rhs, cuts.size.tolist(), cuts.norm)


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

    @classmethod
    def of(cls, rows) -> CutBlock:
        """The block of the sequence `rows`, each (terms, rhs, kind,
        provenance, violation at birth) with `terms` a dict {key: coeff},
        put in canonical order."""
        terms, rhs, kinds, provenances, violations = zip(*rows) if rows \
            else ((),) * 5
        keys = [sorted(t, key=_KEY_BYTES.__getitem__) for t in terms]
        return cls(
            np.fromiter(kinds, object), np.fromiter(provenances, object),
            np.array(list(map(len, keys)), np.intp), np.array(rhs, float),
            np.array([max(map(abs, t.values())) for t in terms], float),
            np.array(violations, float),
            np.fromiter(chain.from_iterable(keys), object),
            np.array([t[k] for t, ks in zip(terms, keys) for k in ks], float))

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


NO_CUTS = CutBlock.of(())


class _TupleKeys(dict):
    """Per bus tuple, made once: the variable keys of its matrix entries in
    canonical order, and the positions of their coefficients in a
    `_matrix_cuts` row.  v2 takes the diagonal and c the upper triangle's
    real parts; s takes its imaginary parts, negated where the tuple's
    order opposes the canonical pair's."""

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
        order = sorted(range(len(keys)), key=lambda i: _KEY_BYTES[keys[i]])
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


def limit_cut(flows) -> list:
    """Tangents to the thermal circles, as rows for `cost_cut` to build.

    Per (p_hat, q_hat, u, branch_dir) of `flows`, the tangent at the
    projection of (p_hat, q_hat) onto the circle of radius u, unless it is
    violated by less than `VIOLATION_THRESHOLD` per unit norm.
    """
    rows = []
    for p_hat, q_hat, u, (bkey, d) in flows:
        if not math.isfinite(u):
            raise ValueError("limit_cut needs a finite thermal limit")
        norm = math.sqrt(p_hat * p_hat + q_hat * q_hat)
        violation = norm - u  # euclidean excess beyond the circle
        if norm == 0.0 or violation / max(abs(p_hat), abs(q_hat)) \
                < VIOLATION_THRESHOLD:
            continue
        rows.append(({("P", bkey, d): -p_hat, ("Q", bkey, d): -q_hat},
                     -u * norm, "limit", (bkey, d), violation))
    return rows


def cost_cut(points, limits=()) -> CutBlock:
    """Epigraph tangents, after the limit tangents `limits`, as one block.

    Per (p_hat, t_hat, gen, gkey) of `points` whose cost is quadratic (the
    base model holds exact supports of the others), the tangent at p_hat,
    unless it is violated by less than `VIOLATION_THRESHOLD` per unit norm.
    `limits` are rows from `limit_cut`; their cuts come first.  Zero
    coefficients stay in the terms.
    """
    rows = list(limits)
    for p_hat, t_hat, gen, gkey in points:
        cost = gen.cost
        if cost.kind != "polynomial" or cost.coefficients[0] == 0.0:
            continue
        f = cost.value(p_hat)
        slope = cost.derivative(p_hat)
        if (f - t_hat) / max(abs(slope), 1.0) < VIOLATION_THRESHOLD:
            continue
        rows.append(({("t", gkey): 1.0, ("Pg", gkey): -slope},
                     f - slope * p_hat, "cost_tangent", (gkey,), f - t_hat))
    return CutBlock.of(rows)
