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
from birth, so a cut hashes like its copy read back from a cut file.  No
cut violated by less than `VIOLATION_THRESHOLD` per unit norm is built.

A cut's content hash is set at birth by `_content_hashes`, which hashes
many cuts in one pass: a stack's cuts in `_matrix_cuts`, a round's limit
and cost tangents in `cost_cut`, a cut file's in `cut_manager.load_cuts`,
and a single `LinearCut(...)` as a batch of one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain, compress

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


@dataclass
class LinearCut:
    """Sparse >= inequality over symbolic model variables.

    Canonical from birth: `terms` is kept in `repr` order of its keys, the
    one term order the content hash, the LP row and the cut file all read;
    `inf_norm` and `content_hash` (of kind, terms and rhs scaled to unit
    infinity norm) are set once.
    """

    terms: dict              # variable key -> coefficient
    rhs: float
    kind: str                # eigen | projection | jabr | limit | cost_tangent
    provenance: tuple        # clique / pair / branch / generator identifier
    violation_at_birth: float = 0.0
    inf_norm: float = field(init=False)
    content_hash: int = field(init=False)

    def __post_init__(self):
        self.terms = {k: self.terms[k]
                      for k in sorted(self.terms, key=_KEY_BYTES.__getitem__)}
        self.inf_norm = max(map(abs, self.terms.values()))
        [self.content_hash] = _content_hashes(
            [self.kind], list(map(_KEY_BYTES.__getitem__, self.terms)),
            np.array(list(self.terms.values()), float),
            np.array([self.rhs], float), [len(self.terms)],
            np.array([self.inf_norm], float))

    def value_at(self, values: dict) -> float:
        return sum(w * values[k] for k, w in self.terms.items())

    def normalized_violation(self, values: dict) -> float:
        """(rhs - value) / ||coeffs||_inf; positive means violated."""
        return (self.rhs - self.value_at(values)) / self.inf_norm


def _cuts_from_columns(kinds, provenances, keys, coeffs: np.ndarray,
                       rhs: np.ndarray, sizes: list, norms: np.ndarray,
                       violations) -> list:
    """`LinearCut`s from columns, hashed in one pass.

    Cut i has kind kinds[i], provenance provenances[i], right-hand side
    rhs[i], violation_at_birth violations[i] and sizes[i] (>= 1) terms: the
    next entries of the flat `keys`, in canonical order, and `coeffs`,
    finite, the largest in magnitude norms[i] > 0.  Nothing is checked or
    sorted again.
    """
    hashes = _content_hashes(kinds, list(map(_KEY_BYTES.__getitem__, keys)),
                             coeffs, rhs, sizes, norms)
    values = coeffs.tolist()
    bounds = [0, *accumulate(sizes)]
    cuts = []
    for kind, prov, b, v, norm, h, start, stop in zip(
            kinds, provenances, rhs.tolist(), violations, norms.tolist(),
            hashes, bounds, bounds[1:]):
        cut = object.__new__(LinearCut)
        cut.__dict__.update(
            terms=dict(zip(keys[start:stop], values[start:stop])), rhs=b,
            kind=kind, provenance=prov, violation_at_birth=v, inf_norm=norm,
            content_hash=h)
        cuts.append(cut)
    return cuts


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
        self[t] = value = ([keys[i] for i in order],
                           np.array([picks[i] for i in order]))
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
                           -off.imag), axis=1)
    norms = np.abs(rows).max(axis=1)
    keep = violations / norms >= VIOLATION_THRESHOLD
    if not keep.any():
        return []
    kept = list(compress(tuples, keep))
    keys, picks = zip(*map(_TUPLE_KEYS.__getitem__, kept))
    coeffs = np.take_along_axis(
        rows[keep], np.concatenate(picks).reshape(len(kept), -1), axis=1)
    nonzero = coeffs != 0.0
    return _cuts_from_columns(
        [kind] * len(kept), kept,
        list(compress(chain.from_iterable(keys), nonzero.ravel().tolist())),
        coeffs[nonzero], np.zeros(len(kept)), nonzero.sum(axis=1).tolist(),
        norms[keep], violations[keep].tolist())


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


def _cosine(a: LinearCut, b: LinearCut) -> float:
    """Cosine of the angle between the coefficient vectors of two cuts."""
    # a plain loop, as sum() compensates rounding from Python 3.12 on
    dot = na = nb = 0.0
    for key, x in a.terms.items():
        dot += x * b.terms.get(key, 0.0)
        na += x * x
    for y in b.terms.values():
        nb += y * y
    return dot / math.sqrt(na * nb)


def clique_cuts(x: np.ndarray, cliques) -> list:
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
    by_clique = {cut.provenance: cut for cut in cuts}
    projections, beaten = [], set()
    for cut in projection_cut(
            EigenDecomposition(dec.eigenvalues[two], dec.eigenvectors[two]),
            cutoff[two], [cliques[m] for m in two.tolist()]):
        other = by_clique.get(cut.provenance)
        if other is None or other.terms.keys() != cut.terms.keys() \
                or abs(_cosine(cut, other)) <= COSINE_BOUND:
            projections.append(cut)
        elif cut.violation_at_birth > other.violation_at_birth:
            projections.append(cut)
            beaten.add(cut.provenance)
    return [cut for cut in cuts if cut.provenance not in beaten] + projections


def jabr_cut(x: np.ndarray, pairs) -> list:
    """Eigen-cuts of a stack (P, 2, 2) of pair matrices, each in its pair's
    order as `clique_matrix` builds it; a cut separates c^2 + s^2 <=
    v2_k v2_m."""
    return eigen_cut(eigen(x), psd_cutoff(x, PSD_TOL), pairs, "jabr")


def _linear_cuts(rows) -> list:
    """`LinearCut(*row)` of each row (terms, rhs, kind, provenance,
    violation_at_birth), field for field, hashed in one batch."""
    if not rows:
        return []
    terms, rhs, kinds, provenances, violations = zip(*rows)
    keys = [sorted(t, key=_KEY_BYTES.__getitem__) for t in terms]
    coeffs = [t[k] for t, ks in zip(terms, keys) for k in ks]
    return _cuts_from_columns(
        kinds, provenances, list(chain.from_iterable(keys)),
        np.array(coeffs, float), np.array(rhs, float), list(map(len, keys)),
        np.array([max(map(abs, t.values())) for t in terms], float),
        violations)


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


def cost_cut(points, limits=()) -> list:
    """Epigraph tangents, after the limit tangents `limits`, as cuts built
    and hashed in one batch.

    Per (p_hat, t_hat, gen, gkey) of `points` whose cost is quadratic (the
    base model holds exact supports of the others), the tangent at p_hat,
    unless it is violated by less than `VIOLATION_THRESHOLD` per unit norm.
    `limits` are rows from `limit_cut`; their cuts come first.
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
    return _linear_cuts(rows)
