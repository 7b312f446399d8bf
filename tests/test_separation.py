import dataclasses
import math

import numpy as np
import pytest

from opfcuts import cut_manager, separation
from opfcuts.case_io import CostFunction, Generator
from opfcuts.cut_manager import cut_hashes
from opfcuts.hermitian import HermitianMatrix, eigen, psd_cutoff
from opfcuts.network import canonical_pair
from opfcuts.separation import (COSINE_BOUND, PSD_TOL, VIOLATION_THRESHOLD,
                                CutBlock, clique_cuts, cost_cut, eigen_cut,
                                jabr_cut, limit_cut, projection_cut)


def rows_block(rows):
    """The block of the sequence `rows`, each (terms, rhs, kind,
    provenance, violation at birth) with `terms` a dict {key: coeff}, put
    in canonical order."""
    if not rows:
        return separation.NO_CUTS
    terms, rhs, kinds, provenances, violations = zip(*rows)
    keys = [sorted(t, key=cut_manager._KEY_BYTES.__getitem__) for t in terms]
    return CutBlock(
        np.fromiter(kinds, object), np.fromiter(provenances, object),
        np.array(list(map(len, keys)), np.intp), np.array(rhs, float),
        np.array([max(map(abs, t.values())) for t in terms], float),
        np.array(violations, float),
        np.fromiter([k for ks in keys for k in ks], object),
        np.array([t[k] for t, ks in zip(terms, keys) for k in ks], float))


def block_of(*cuts):
    """The block of the one-cut views `cuts`."""
    return rows_block([(c.terms, c.rhs, c.kind, c.provenance,
                        c.violation_at_birth) for c in cuts])


def one_cut(terms, rhs, kind, provenance, violation=0.0):
    """The view of the one cut of a block built from these fields."""
    return rows_block([(terms, rhs, kind, provenance, violation)])[0]


def _hash(cut):
    """The content hash of one cut, a `cut_hashes` batch of one."""
    [h] = cut_hashes(block_of(cut))
    return h


def _cosine(a, b) -> float:
    """Reference cosine of two cuts' coefficient vectors: a plain loop
    over a's terms, reading b by key."""
    dot = na = nb = 0.0
    for key, x in a.terms.items():
        dot += x * b.terms.get(key, 0.0)
        na += x * x
    for y in b.terms.values():
        nb += y * y
    return dot / math.sqrt(na * nb)


def _one(cut_fn, x, clique):
    """`cut_fn`'s cut of the one-matrix stack of x, or None."""
    x = np.asarray(x.mat if isinstance(x, HermitianMatrix) else x)[None]
    cuts = cut_fn(eigen(x), psd_cutoff(x, PSD_TOL), [clique])
    assert len(cuts) <= 1
    return cuts[0] if cuts else None


def _jabr(v2_k, v2_m, c, s, pair):
    """jabr_cut on the one-pair stack of [[v2_k, c + js], [c - js, v2_m]]."""
    x = HermitianMatrix(np.array([[v2_k, c + 1j * s], [c - 1j * s, v2_m]]))
    return jabr_cut(x.mat[None], [pair])


def _values_for(x0, clique):
    """Variable values consistent with the clique matrix x0."""
    vals = {}
    for i, a in enumerate(clique):
        vals[("v2", a)] = float(x0[i, i].real)
    for i in range(len(clique)):
        for j in range(i + 1, len(clique)):
            pair = canonical_pair(clique[i], clique[j])
            s = float(x0[i, j].imag)
            if clique[i] > clique[j]:
                s = -s
            vals[("c",) + pair] = float(x0[i, j].real)
            vals[("s",) + pair] = s
    return vals


def test_eigen_cut_hand_example():
    x0 = HermitianMatrix(np.array([[0.5, 1.0], [1.0, 0.5]]))
    cut = _one(eigen_cut, x0, (1, 2))
    assert cut.kind == "eigen"
    assert cut.violation_at_birth == pytest.approx(0.5)
    scale = cut.terms[("v2", 1)]
    assert cut.terms[("v2", 2)] / scale == pytest.approx(1.0)
    assert cut.terms[("c", 1, 2)] / scale == pytest.approx(-2.0)
    assert cut.rhs == 0.0


def test_eigen_cut_psd_returns_none():
    assert _one(eigen_cut, np.eye(3), (1, 2, 3)) is None
    near = HermitianMatrix(np.diag([1.0, 1e-12]))
    assert _one(eigen_cut, near, (1, 2)) is None


def test_projection_cut_hand_example():
    cut = _one(projection_cut, np.diag([1.0, -2.0]), (3, 7))
    assert cut.kind == "projection"
    assert cut.terms == {("v2", 7): pytest.approx(2.0)}
    assert cut.violation_at_birth == pytest.approx(4.0)


def test_projection_cut_single_negative_collinear():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(a)
    x0 = HermitianMatrix(q @ np.diag([5.0, 2.0, -1.0]) @ q.conj().T)
    vals = np.linalg.eigvalsh(x0.mat)
    e = _one(eigen_cut, x0, (1, 2, 3))
    p = _one(projection_cut, x0, (1, 2, 3))
    ratio = p.terms[("v2", 1)] / e.terms[("v2", 1)]
    for key, w in e.terms.items():
        assert p.terms[key] == pytest.approx(ratio * w, rel=1e-9)
    assert ratio == pytest.approx(-vals[0])


def test_projection_cut_too_many_negatives():
    """clique_cuts gives a matrix with three negative eigenvalues its
    eigen-cut and no projection cut; projection_cut itself sums all three."""
    x = -np.eye(3)[None]
    [cut] = clique_cuts(x, [(1, 2, 3)])
    assert cut.kind == "eigen"
    [proj] = projection_cut(eigen(x), psd_cutoff(x, PSD_TOL), [(1, 2, 3)])
    assert proj.violation_at_birth == pytest.approx(3.0)
    assert proj.terms == {("v2", b): pytest.approx(1.0) for b in (1, 2, 3)}


@pytest.mark.parametrize("second, kinds", [
    (1e-5, ["eigen"]), (0.08, ["eigen", "projection"])],
    ids=["tiny", "comparable"])
def test_clique_cuts_leave_out_parallel_projection_cut(second, kinds):
    """A 3 x 3 matrix with two negative eigenvalues yields its projection
    cut only when it is not near-parallel to the matrix's eigen-cut: with a
    tiny second eigenvalue the two are the same cut up to scale."""
    rng = np.random.default_rng(25)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(a)
    x = HermitianMatrix(q @ np.diag([1.0, -second, -0.1]) @ q.conj().T).mat
    cuts = clique_cuts(x[None], [(1, 2, 3)])
    assert [cut.kind for cut in cuts] == kinds
    proj = _one(projection_cut, x, (1, 2, 3))
    assert (abs(_cosine(proj, cuts[0])) > COSINE_BOUND) \
        == (len(kinds) == 1)


def test_more_violated_projection_cut_replaces_its_eigen_cut():
    """Of a near-parallel pair on one clique's keys the more violated cut
    is kept: here the projection cut, violated by lambda^2 = 4 against the
    eigen-cut's 2."""
    rng = np.random.default_rng(25)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(a)
    x = HermitianMatrix(q @ np.diag([1.0, -1e-5, -2.0]) @ q.conj().T).mat
    [cut] = clique_cuts(x[None], [(1, 2, 3)])
    proj = _one(projection_cut, x, (1, 2, 3))
    eig = _one(eigen_cut, x, (1, 2, 3))
    assert cut.kind == "projection" and _hash(cut) == _hash(proj)
    assert proj.terms.keys() == eig.terms.keys()
    assert abs(_cosine(proj, eig)) > COSINE_BOUND
    assert proj.violation_at_birth > eig.violation_at_birth


def test_parallel_cuts_on_other_keys_are_both_kept():
    """A projection cut near-parallel to its eigen-cut but on more keys is
    kept beside it."""
    x = np.diag([-2.0, -1e-5, 1.0]).astype(complex)
    cuts = clique_cuts(x[None], [(1, 2, 3)])
    assert [cut.kind for cut in cuts] == ["eigen", "projection"]
    eig, proj = cuts
    assert set(eig.terms) < set(proj.terms)
    assert abs(_cosine(proj, eig)) > COSINE_BOUND


def _fields(cut):
    return (list(cut.terms.items()), cut.rhs, cut.kind, cut.provenance,
            cut.violation_at_birth, cut.inf_norm, _hash(cut))


def _keys(keys):
    """The key rows, two keys a row, of the list `keys`."""
    return np.fromiter(keys, object, len(keys)).reshape(-1, 2)


def _limit_cuts(flows):
    """`limit_cut` of the flows (p_hat, q_hat, u, (bkey, d)), each end a
    table row over two columns of its own."""
    y = np.array([v for p, q, _, _ in flows for v in (p, q)], float)
    return limit_cut(y, np.arange(len(y)).reshape(-1, 2),
                     np.array([u for _, _, u, _ in flows], float),
                     _keys([(kind, bkey, d) for *_, (bkey, d) in flows
                            for kind in "PQ"]))


def _cost_cuts(points):
    """`cost_cut` of the points (p_hat, t_hat, gen, gkey), each generator a
    table row over two columns of its own."""
    y = np.array([v for p, t, _, _ in points for v in (p, t)], float)
    return cost_cut(y, np.arange(len(y)).reshape(-1, 2),
                    np.array([g.cost.coefficients for _, _, g, _ in points],
                             float).reshape(-1, 3),
                    _keys([(kind, gkey) for *_, gkey in points
                           for kind in ("Pg", "t")]))


def test_tangent_batch_equals_one_by_one_cuts():
    """A round's limit and cost tangents, each built in one array pass,
    equal the `LinearCut`s built one by one, field for field and hash for
    hash, in table order; zero coefficients stay in the terms."""
    rng = np.random.default_rng(31)
    t = VIOLATION_THRESHOLD
    flows = [(float(p), float(q), 1.0, ((1, 2, i), "ft"[i % 2]))
             for i, (p, q) in enumerate(rng.uniform(-2.0, 2.0, (20, 2)))]
    flows += [(0.0, 0.0, 1.0, ((3, 4, 0), "f")),  # no projection: none
              (0.0, 1.5, 1.0, ((3, 4, 1), "f")),   # p = 0
              (1.5, 0.0, 1.0, ((3, 4, 2), "t")),   # q = 0
              (1.0 + 0.99 * t, 0.0, 1.0, ((3, 4, 3), "f")),  # just below
              (1.0 + 1.01 * t, 0.0, 1.0, ((3, 4, 4), "f"))]  # just above
    flat = _gen((1.0, 0.0, 0.0))  # slope 0 at p = 0
    points = [(float(p), float(tt), _gen((float(c), 3.0, 1.0)), (i, 0))
              for i, (p, tt, c) in enumerate(zip(
                  rng.uniform(0.0, 1.0, 20), rng.uniform(-1.0, 5.0, 20),
                  rng.uniform(0.0, 2.0, 20)))]
    points += [(0.0, -1.0, flat, (30, 0)),
               (1.0, 1.0 - 2.0 * 0.99 * t, flat, (31, 0)),  # just below
               (1.0, 1.0 - 2.0 * 1.01 * t, flat, (32, 0))]  # just above
    want = []
    for p_hat, q_hat, u, (bkey, d) in flows:
        norm = math.sqrt(p_hat * p_hat + q_hat * q_hat)
        if norm and (norm - u) / max(abs(p_hat), abs(q_hat)) >= t:
            want.append(one_cut(
                {("P", bkey, d): -p_hat, ("Q", bkey, d): -q_hat},
                -u * norm, "limit", (bkey, d), norm - u))
    for p_hat, t_hat, gen, gkey in points:
        f, slope = gen.cost.value(p_hat), gen.cost.derivative(p_hat)
        if (f - t_hat) / max(abs(slope), 1.0) >= t:
            want.append(one_cut({("t", gkey): 1.0, ("Pg", gkey): -slope},
                                f - slope * p_hat, "cost_tangent",
                                (gkey,), f - t_hat))
    got = CutBlock.concat(_limit_cuts(flows), _cost_cuts(points))
    assert list(map(_fields, got)) == list(map(_fields, want))
    provenances = {cut.provenance for cut in got}
    assert {((3, 4, 1), "f"), ((3, 4, 2), "t"), ((3, 4, 4), "f"),
            ((30, 0),), ((32, 0),)} <= provenances
    assert not {((3, 4, 0), "f"), ((3, 4, 3), "f"), ((31, 0),)} \
        & provenances
    assert len(_limit_cuts([])) == len(_cost_cuts([])) == 0


def test_below_threshold_not_built():
    """No candidate whose violation per unit infinity norm is below
    VIOLATION_THRESHOLD is built, of any kind; one above it is."""
    t = VIOLATION_THRESHOLD
    for scale, built in ((0.5, False), (2.0, True)):
        # a unit cut on v2 of bus 2, violated by lambda
        x = np.diag([1.0, -scale * t])
        assert (_one(eigen_cut, x, (1, 2)) is not None) == built
        # lambda v2 of bus 2 >= 0, violated by lambda^2
        assert (_one(projection_cut, x, (1, 2)) is not None) == built
        # coefficients of norm 1 + scale t, violated by scale t
        assert (_limit(1.0 + scale * t, 0.0, 1.0, (0, "f")) is not None) \
            == built
        # t - 2 Pg >= -1 at Pg = 1, violated by 2 scale t
        assert (_cost(1.0, 1.0 - 2.0 * scale * t, _gen((1.0, 0.0, 0.0)),
                         "g0") is not None) == built


def test_matrix_cut_orientation_invariance():
    """Permuting the clique ordering yields the same variable coefficients."""
    rng = np.random.default_rng(21)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = a + a.conj().T - 3.0 * np.eye(3)
    clique = (2, 5, 9)
    base = _one(eigen_cut, x, clique)
    perm = [2, 0, 1]
    xp = x[np.ix_(perm, perm)]
    other = _one(eigen_cut, xp, tuple(clique[i] for i in perm))
    assert set(base.terms) == set(other.terms)
    scale = other.terms[("v2", 2)] / base.terms[("v2", 2)]
    for key, w in base.terms.items():
        assert other.terms[key] == pytest.approx(scale * w, abs=1e-12)


def test_violation_identity_random():
    """Birth violation equals -lambda_min and equals rhs - value at x0."""
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = a + a.conj().T
        lam = np.linalg.eigvalsh(x)
        clique = tuple(sorted(rng.choice(np.arange(1, 30), n, replace=False)))
        cut = _one(eigen_cut, x, clique)
        if lam[0] >= -1e-8 * max(1.0, float(np.trace(x).real)):
            assert cut is None
            continue
        assert cut.violation_at_birth == pytest.approx(-lam[0], rel=1e-9)
        vals = _values_for(x, clique)
        assert cut.rhs - cut.value_at(vals) == pytest.approx(-lam[0], rel=1e-8)


@pytest.mark.parametrize("n", [4, 5])
def test_dense_clique_cuts(n):
    """A violated 4- or 5-clique yields its dense eigen cut: n^2 terms."""
    rng = np.random.default_rng(23)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 = HermitianMatrix(-np.outer(v, v.conj()))
    clique = tuple(range(1, n + 1))
    cut = _one(eigen_cut, x0, clique)
    assert cut is not None and len(cut.terms) == n * n
    [got] = clique_cuts(x0.mat[None], [clique])
    _assert_same_cut(got, cut)
    assert _one(projection_cut, x0, clique) is not None


def test_jabr_cut_examples():
    [cut] = _jabr(1.0, 1.0, 1.2, 0.0, (4, 9))
    assert cut.kind == "jabr"
    assert cut.violation_at_birth == pytest.approx(0.2)
    assert cut.provenance == (4, 9)
    assert len(_jabr(1.0, 1.0, 0.5, 0.5, (4, 9))) == 0
    [scut] = _jabr(1.0, 1.0, 0.0, 1.2, (9, 4))
    assert scut is not None
    assert scut.violation_at_birth == pytest.approx(0.2)
    assert ("s", 4, 9) in scut.terms


def _with_negatives(rng, n, neg):
    """Random Hermitian n x n matrix with `neg` negative eigenvalues."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    lam = np.concatenate([rng.uniform(0.2, 2.0, n - neg),
                          -rng.uniform(0.05, 1.0, neg)])
    return HermitianMatrix(q @ np.diag(lam) @ q.conj().T).mat


def _assert_same_cut(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(w) is float for w in got.terms.values())
    assert (got.kind, got.provenance, got.rhs, got.violation_at_birth) \
        == (want.kind, want.provenance, want.rhs, want.violation_at_birth)
    assert _hash(got) == _hash(want)


def _stack(rng, n, negs):
    """Matrices with the given negative eigenvalue counts, each on a bus
    tuple in random order, so most tuples oppose canonical orientation."""
    x = np.array([_with_negatives(rng, n, k) for k in negs])
    tuples = [tuple(rng.permutation(np.arange(1, 40))[:n].tolist())
              for _ in negs]
    return x, tuples


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_clique_cuts_match_per_matrix_cuts(n):
    """A stack's cuts equal the cuts of its one-matrix stacks, term for term
    and hash for hash: every eigen-cut first, then every projection cut."""
    rng = np.random.default_rng(40 + n)
    negs = [k % (min(n, 3) + 1) for k in range(24)]  # PSD, 1, 2 (, 3)
    x, cliques = _stack(rng, n, negs)
    one = [clique_cuts(x[m:m + 1], [c]) for m, c in enumerate(cliques)]
    want = [cut for cuts in one for cut in cuts if cut.kind == "eigen"] \
        + [cut for cuts in one for cut in cuts if cut.kind == "projection"]
    got = clique_cuts(x, cliques)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_cut(g, w)
    assert sum(k > 0 for k in negs) == sum(c.kind == "eigen" for c in got)
    assert negs.count(2) == sum(c.kind == "projection" for c in got) > 0


def test_jabr_cut_matches_pair_eigen_cuts():
    """A pair stack's Jabr cuts equal the eigen-cuts of its one-matrix
    stacks but for their kind, and its one-matrix stacks' Jabr cuts."""
    rng = np.random.default_rng(50)
    negs = [k % 3 for k in range(30)]
    x, pairs = _stack(rng, 2, negs)
    want = []
    for m, pair in enumerate(pairs):
        ref = _one(eigen_cut, x[m], pair)
        if ref is not None:
            want.append(one_cut(dict(ref.terms), ref.rhs, "jabr",
                                ref.provenance, ref.violation_at_birth))
            [one] = jabr_cut(x[m:m + 1], [pair])
            _assert_same_cut(one, want[-1])
    got = jabr_cut(x, pairs)
    assert len(got) == len(want) == sum(k > 0 for k in negs)
    for g, w in zip(got, want):
        _assert_same_cut(g, w)


@pytest.mark.parametrize("separate, n", [(jabr_cut, 2), (clique_cuts, 3),
                                         (clique_cuts, 4)],
                         ids=["jabr", "clique3", "clique4"])
def test_one_eigen_call_per_stack(monkeypatch, separate, n):
    """jabr_cut and clique_cuts each make one eigen call per stack."""
    calls = []

    def counted(x):
        calls.append(x.shape)
        return eigen(x)

    monkeypatch.setattr(separation, "eigen", counted)
    x, tuples = _stack(np.random.default_rng(60 + n), n, [0, 1, 2] * 5)
    assert separate(x, tuples)
    assert calls == [x.shape]


def test_limit_cut_examples():
    cut = _limit(1.0, 1.0, 1.0, (0, "f"))
    scale = -cut.terms[("P", 0, "f")]
    assert cut.terms[("Q", 0, "f")] / scale == pytest.approx(-1.0)
    assert cut.rhs / scale == pytest.approx(-math.sqrt(2.0))
    assert cut.violation_at_birth == pytest.approx(math.sqrt(2.0) - 1.0)
    assert _limit(0.5, 0.5, 1.0, (0, "f")) is None
    axis = _limit(2.0, 0.0, 1.0, (3, "t"))
    assert axis.terms[("P", 3, "t")] == pytest.approx(-2.0)
    assert axis.rhs == pytest.approx(-2.0)


def test_limit_cut_valid_on_circle():
    rng = np.random.default_rng(24)
    cut = _limit(1.3, -0.9, 1.0, (0, "f"))
    for _ in range(200):
        th = rng.uniform(0, 2 * math.pi)
        vals = {("P", 0, "f"): math.cos(th), ("Q", 0, "f"): math.sin(th)}
        assert cut.value_at(vals) >= cut.rhs - 1e-12


def _gen(coeffs):
    return Generator(1, 0.0, 1.0, -1.0, 1.0,
                     CostFunction("polynomial", coeffs))


def _limit(p_hat, q_hat, u, branch_dir):
    """The limit tangent at one point, or None."""
    cuts = _limit_cuts([(p_hat, q_hat, u, branch_dir)])
    return cuts[0] if cuts else None


def _cost(p_hat, t_hat, gen, gkey):
    """The cost tangent at one point, or None."""
    cuts = _cost_cuts([(p_hat, t_hat, gen, gkey)])
    return cuts[0] if cuts else None


def test_cost_cut_examples():
    cut = _cost(1.0, 0.0, _gen((1.0, 0.0, 0.0)), "g0")
    assert cut.terms == {("t", "g0"): 1.0, ("Pg", "g0"): -2.0}
    assert cut.rhs == pytest.approx(-1.0)
    assert cut.violation_at_birth == pytest.approx(1.0)

    at_zero = _cost(0.0, -1.0, _gen((0.25, 20.0, 0.0)), "g1")
    assert at_zero.terms[("Pg", "g1")] == pytest.approx(-20.0)
    assert at_zero.rhs == pytest.approx(0.0)

    assert _cost(1.0, 5.0, _gen((1.0, 0.0, 0.0)), "g0") is None


def test_cost_cut_is_supporting():
    """The tangent never exceeds the true cost."""
    gen = _gen((0.5, 3.0, 1.0))
    cut = _cost(0.7, 0.0, gen, "g")
    for p in np.linspace(0.0, 2.0, 41):
        tangent = cut.rhs + (-cut.terms[("Pg", "g")]) * p
        assert tangent <= gen.cost.value(p) + 1e-12


def test_content_hash_scale_invariant():
    a = one_cut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.5, "eigen", (1, 2))
    b = one_cut({("v2", 1): 3.0, ("c", 1, 2): -6.0}, 1.5, "eigen", (1, 2))
    c = one_cut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.6, "eigen", (1, 2))
    d = one_cut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.5, "jabr", (1, 2))
    assert _hash(a) == _hash(b)
    assert _hash(a) != _hash(c)
    assert _hash(a) != _hash(d)


def test_content_hash_golden_values():
    """Saved pools order their cuts by these hashes; they must not move."""
    cut = one_cut({("s", 1, 2): 0.25, ("v2", 2): 1.0, ("c", 1, 2): -2.0,
                   ("v2", 1): 4.0}, 0.5, "eigen", (1, 2))
    assert _hash(cut) == 11199671962411321844
    assert _hash(_jabr(1.0, 1.0, 1.2, 0.3, (4, 9))[0]) \
        == 11573129386543259869


def test_content_hash_golden_values_on_rounding_edges():
    """Hashes of cuts whose scaled numbers sit where rounding to
    `HASH_DIGITS` digits is delicate: exact ties of the 12th decimal (k /
    8192 times 1e12 is a half-integer; a tie rounds to even), their
    neighbouring doubles, signed zeros, and magnitudes near 1e-13 and
    1e300."""
    tie = 1 / 8192
    above, below = (float(np.nextafter(tie, v)) for v in (1.0, 0.0))

    def cut(c, rhs):
        return one_cut({("v2", 1): 1.0, ("c", 1, 2): c, ("s", 1, 2): -3 * tie},
                       rhs, "eigen", (1, 2))

    assert _hash(cut(tie, 5 * tie)) == _hash(cut(below, 5 * tie)) \
        == 712969952903432637
    assert _hash(cut(above, 5 * tie)) == 17225088890736862982
    rhs_above, rhs_below = (float(np.nextafter(5 * tie, v))
                            for v in (1.0, 0.0))
    assert _hash(one_cut({("v2", 1): 1.0}, rhs_above, "eigen", (1, 2))) \
        == 652039021494370939
    assert _hash(one_cut({("v2", 1): 1.0}, rhs_below, "eigen", (1, 2))) \
        == 13335996805083127338
    zeros = {("v2", 1): 1.0, ("c", 1, 2): 0.0, ("s", 1, 2): -0.0}
    assert _hash(one_cut(zeros, 0.0, "eigen", (1, 2))) \
        == 11880875162313524898
    assert _hash(one_cut(zeros, -0.0, "eigen", (1, 2))) \
        == 15866259000779034792
    assert _hash(one_cut({("v2", 1): -1.0, ("c", 1, 2): 1e-13,
                          ("s", 1, 2): -4e-13}, 5e-13, "eigen", (1, 2))) \
        == 15118275784633568672
    assert _hash(one_cut({("v2", 1): 1.0}, 1e300, "eigen", (1, 2))) \
        == 6572536366904021994
    assert _hash(one_cut({("v2", 1): 1.0}, -1e300, "eigen", (1, 2))) \
        == 13768837182872731406


def test_content_hash_ignores_integer_type_seen_first():
    """A key holding a numpy integer equals, and hashes like, the key with
    the Python int, so the process caches one key form for both: the hash
    must not depend on which form it met first.  Buses 9001 and 9002 occur
    in no other test, so each order really runs."""
    def cut(bus):
        return one_cut({("v2", bus): 1.0, ("P", (bus, 9, 0), "f"): 2.0},
                       0.0, "eigen", (bus,))

    assert _hash(cut(np.int64(9001))) == _hash(cut(9001)) \
        == 6174716756211593512
    assert _hash(cut(9002)) == _hash(cut(np.int64(9002))) \
        == 15637270813488812095


def test_jabr_hash_equals_direct_jabr_cut():
    [cut] = _jabr(1.0, 1.0, 1.2, 0.3, (4, 9))
    direct = one_cut(dict(cut.terms), cut.rhs, "jabr", cut.provenance)
    assert _hash(cut) == _hash(direct)


def test_normalized_violation():
    cut = one_cut({("v2", 1): 2.0}, 1.0, "eigen", (1,))
    assert cut.normalized_violation({("v2", 1): 0.0}) == pytest.approx(0.5)
    assert cut.normalized_violation({("v2", 1): 1.0}) == pytest.approx(-0.5)


def test_batch_hashes_equal_single_hashes():
    """A stack's cuts equal the cuts built one at a time, and hash in one
    batch as they do alone; so do cuts with zero terms left out."""
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        x, tuples = _stack(rng, n, [1, 2, 0, 1, 2] * 4)
        cuts = clique_cuts(x, tuples)
        assert len(cuts) > 10
        assert cut_hashes(cuts) == list(map(_hash, cuts))
        for cut in cuts:
            assert one_cut(dict(reversed(cut.terms.items())), cut.rhs,
                           cut.kind, cut.provenance,
                           cut.violation_at_birth) == cut
    # a real pair matrix gives an s coefficient of exactly zero
    [cut] = _jabr(1.0, 1.0, 1.2, 0.0, (4, 9))
    assert ("s", 4, 9) not in cut.terms
    assert one_cut(dict(cut.terms), 0.0, "jabr", (4, 9),
                   cut.violation_at_birth) == cut


def test_content_hashes_of_many_cuts_in_one_call():
    cuts = rows_block([
        ({("v2", 1): 4.0, ("c", 1, 2): -2.0}, 0.5, "eigen", (1, 2), 0.0),
        ({("t", (1, 0)): 1.0}, -3.25, "cost_tangent", ((1, 0),), 0.0),
        ({("P", (1, 2, 0), "f"): -0.6, ("Q", (1, 2, 0), "f"): 0.8}, -1.0,
         "limit", ((1, 2, 0), "f"), 0.0)])
    assert cut_hashes(cuts) == list(map(_hash, cuts))


def _random_block(rng, n):
    """n random cuts of 1 to 25 terms, some coefficients zero."""
    keys = [("v2", b) for b in range(1, 31)]
    rows = []
    for i in range(n):
        size = int(rng.integers(1, 26))
        chosen = rng.choice(len(keys), size, replace=False).tolist()
        coeffs = rng.standard_normal(size) * (rng.random(size) > 0.2)
        coeffs[0] = 1.0 + rng.random()
        rows.append(({keys[j]: float(w) for j, w in zip(chosen, coeffs)},
                     float(rng.standard_normal()), "eigen", (i,),
                     float(rng.random())))
    return rows_block(rows)


def _columns(block):
    return [getattr(block, f.name).tolist()
            for f in dataclasses.fields(CutBlock)]


def test_block_take_concat_round_trip():
    """Taking a block's cuts in any order and concatenating the parts
    gives the cuts in that order, and taking them back gives the block,
    column for column."""
    rng = np.random.default_rng(91)
    block = _random_block(rng, 40)
    order = rng.permutation(40)
    parts = [block.take(order[:13]), block.take(order[13:13]),
             block.take(order[13:])]
    joined = CutBlock.concat(*parts)
    assert list(joined) == [block[i] for i in order.tolist()]
    assert _columns(joined.take(np.argsort(order))) == _columns(block)
    mask = rng.random(40) < 0.5
    assert list(block.take(mask)) \
        == [cut for cut, m in zip(block, mask.tolist()) if m]
    assert _columns(CutBlock.concat(block.take(mask), block.take(~mask))) \
        == _columns(block.take(np.concatenate([np.flatnonzero(mask),
                                               np.flatnonzero(~mask)])))
    assert len(block.take(np.zeros(40, bool))) == 0


def test_cosines_equal_the_plain_loop():
    """The block cosine of cuts on the same keys equals the plain-loop
    reference bit for bit."""
    rng = np.random.default_rng(92)
    a = _random_block(rng, 50)
    b = rows_block([({k: float(rng.standard_normal()) for k in cut.terms},
                      0.0, "eigen", (), 0.0) for cut in a])
    got = separation._cosines(a.coeff, b.coeff, a.size).tolist()
    assert got == [_cosine(x, y) for x, y in zip(a, b)]
