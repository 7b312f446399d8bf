import math
import warnings

import numpy as np
import pytest

from opfcuts import separation
from opfcuts.case_io import CostFunction, Generator
from opfcuts.hermitian import HermitianMatrix, eigen, psd_cutoff
from opfcuts.network import canonical_pair
from opfcuts.separation import (COSINE_BOUND, PSD_TOL, VIOLATION_THRESHOLD,
                                LinearCut, clique_cuts, cost_cut, cut_hashes,
                                eigen_cut, jabr_cut, limit_cut, projection_cut)


def _hash(cut):
    """The content hash of one cut, a `_content_hashes` batch of one."""
    [h] = cut_hashes([cut])
    return h


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
    assert (abs(separation._cosine(proj, cuts[0])) > COSINE_BOUND) \
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
    assert abs(separation._cosine(proj, eig)) > COSINE_BOUND
    assert proj.violation_at_birth > eig.violation_at_birth


def test_parallel_cuts_on_other_keys_are_both_kept():
    """A projection cut near-parallel to its eigen-cut but on more keys is
    kept beside it."""
    x = np.diag([-2.0, -1e-5, 1.0]).astype(complex)
    cuts = clique_cuts(x[None], [(1, 2, 3)])
    assert [cut.kind for cut in cuts] == ["eigen", "projection"]
    eig, proj = cuts
    assert set(eig.terms) < set(proj.terms)
    assert abs(separation._cosine(proj, eig)) > COSINE_BOUND


def _fields(cut):
    return (list(cut.terms.items()), cut.rhs, cut.kind, cut.provenance,
            cut.violation_at_birth, cut.inf_norm, _hash(cut))


def test_tangent_batch_equals_one_by_one_cuts():
    """A round's limit and cost tangents, built in one batch, equal the
    `LinearCut`s built one by one, field for field and hash for hash, in
    the order limits first; zero coefficients stay in the terms."""
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
               (1.0, 1.0 - 2.0 * 1.01 * t, flat, (32, 0)),  # just above
               (1.0, 0.0, _gen((0.0, 20.0, 0.0)), (33, 0))]  # linear: none
    want = []
    for p_hat, q_hat, u, (bkey, d) in flows:
        norm = math.sqrt(p_hat * p_hat + q_hat * q_hat)
        if norm and (norm - u) / max(abs(p_hat), abs(q_hat)) >= t:
            want.append(LinearCut(
                {("P", bkey, d): -p_hat, ("Q", bkey, d): -q_hat},
                -u * norm, "limit", (bkey, d), norm - u))
    for p_hat, t_hat, gen, gkey in points:
        f, slope = gen.cost.value(p_hat), gen.cost.derivative(p_hat)
        if gen.cost.coefficients[0] and (f - t_hat) / max(abs(slope),
                                                           1.0) >= t:
            want.append(LinearCut({("t", gkey): 1.0, ("Pg", gkey): -slope},
                                  f - slope * p_hat, "cost_tangent",
                                  (gkey,), f - t_hat))
    got = cost_cut(points, limit_cut(flows))
    assert list(map(_fields, got)) == list(map(_fields, want))
    provenances = {cut.provenance for cut in got}
    assert {((3, 4, 1), "f"), ((3, 4, 2), "t"), ((3, 4, 4), "f"),
            ((30, 0),), ((32, 0),)} <= provenances
    assert not {((3, 4, 0), "f"), ((3, 4, 3), "f"), ((31, 0),),
                ((33, 0),)} & provenances
    assert cost_cut([], []) == []


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
    assert _jabr(1.0, 1.0, 0.5, 0.5, (4, 9)) == []
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
            want.append(LinearCut(dict(ref.terms), ref.rhs, "jabr",
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
    with pytest.raises(ValueError):
        _limit(1.0, 1.0, math.inf, (0, "f"))


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
    cuts = cost_cut([], limit_cut([(p_hat, q_hat, u, branch_dir)]))
    return cuts[0] if cuts else None


def _cost(p_hat, t_hat, gen, gkey):
    """The cost tangent at one point, or None."""
    cuts = cost_cut([(p_hat, t_hat, gen, gkey)])
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
    assert _cost(1.0, 0.0, _gen((0.0, 20.0, 0.0)), "g0") is None


def test_cost_cut_is_supporting():
    """The tangent never exceeds the true cost."""
    gen = _gen((0.5, 3.0, 1.0))
    cut = _cost(0.7, 0.0, gen, "g")
    for p in np.linspace(0.0, 2.0, 41):
        tangent = cut.rhs + (-cut.terms[("Pg", "g")]) * p
        assert tangent <= gen.cost.value(p) + 1e-12


def test_content_hash_scale_invariant():
    a = LinearCut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.5, "eigen", (1, 2))
    b = LinearCut({("v2", 1): 3.0, ("c", 1, 2): -6.0}, 1.5, "eigen", (1, 2))
    c = LinearCut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.6, "eigen", (1, 2))
    d = LinearCut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.5, "jabr", (1, 2))
    assert _hash(a) == _hash(b)
    assert _hash(a) != _hash(c)
    assert _hash(a) != _hash(d)


def test_content_hash_golden_values():
    """Saved pools order their cuts by these hashes; they must not move."""
    cut = LinearCut({("s", 1, 2): 0.25, ("v2", 2): 1.0, ("c", 1, 2): -2.0,
                     ("v2", 1): 4.0}, 0.5, "eigen", (1, 2))
    assert _hash(cut) == 11199671962411321844
    assert _hash(_jabr(1.0, 1.0, 1.2, 0.3, (4, 9))[0]) \
        == 11573129386543259869


def test_content_hash_ignores_integer_type_seen_first():
    """A key holding a numpy integer equals, and hashes like, the key with
    the Python int, so the process caches one key form for both: the hash
    must not depend on which form it met first.  Buses 9001 and 9002 occur
    in no other test, so each order really runs."""
    def cut(bus):
        return LinearCut({("v2", bus): 1.0, ("P", (bus, 9, 0), "f"): 2.0},
                         0.0, "eigen", (bus,))

    assert _hash(cut(np.int64(9001))) == _hash(cut(9001)) \
        == 6174716756211593512
    assert _hash(cut(9002)) == _hash(cut(np.int64(9002))) \
        == 15637270813488812095


def test_jabr_hash_equals_direct_jabr_cut():
    [cut] = _jabr(1.0, 1.0, 1.2, 0.3, (4, 9))
    direct = LinearCut(dict(cut.terms), cut.rhs, "jabr", cut.provenance)
    assert _hash(cut) == _hash(direct)


def test_normalized_violation():
    cut = LinearCut({("v2", 1): 2.0}, 1.0, "eigen", (1,))
    assert cut.normalized_violation({("v2", 1): 0.0}) == pytest.approx(0.5)
    assert cut.normalized_violation({("v2", 1): 1.0}) == pytest.approx(-0.5)


def _rounding_sample():
    """Seeded values for `_round_digits`: exact and near ties of the 12th
    decimal, random values over many magnitudes, and edge values."""
    rng = np.random.default_rng(1212)
    ties = np.arange(-20000, 20000) / 8192.0  # x * 1e12 is a half-integer
    decimal_ties = (rng.integers(-10 ** 12, 10 ** 12, 40000) + 0.5) / 1e12
    near = np.concatenate([np.nextafter(v, np.inf) for v in
                           (ties, decimal_ties)] +
                          [np.nextafter(v, -np.inf) for v in
                           (ties, decimal_ties)])
    spread = rng.uniform(-1.0, 1.0, 100000) * 10.0 ** rng.uniform(
        -20.0, 8.0, 100000)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      -2.2250738585072014e-308, 1e-13, -4e-13, 5e-13,
                      -5e-13, 4503.599627370496, 4503.599627370497, 1e300,
                      -1e300, 1.7976931348623157e308, 1.0, -1.0])
    return np.concatenate([ties, decimal_ties, near, spread, edges])


def test_round_digits_is_python_round_bit_for_bit():
    x = _rounding_sample()
    with warnings.catch_warnings():  # 1e300 * 1e12 overflows, silently
        warnings.simplefilter("error")
        got = separation._round_digits(x)
    want = np.array([round(v, 12) for v in x.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


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
            assert LinearCut(dict(reversed(cut.terms.items())), cut.rhs,
                             cut.kind, cut.provenance,
                             cut.violation_at_birth) == cut
    # a real pair matrix gives an s coefficient of exactly zero
    [cut] = _jabr(1.0, 1.0, 1.2, 0.0, (4, 9))
    assert ("s", 4, 9) not in cut.terms
    assert LinearCut(dict(cut.terms), 0.0, "jabr", (4, 9),
                     cut.violation_at_birth) == cut


def test_content_hashes_of_many_cuts_in_one_call():
    cuts = [LinearCut({("v2", 1): 4.0, ("c", 1, 2): -2.0}, 0.5, "eigen",
                      (1, 2)),
            LinearCut({("t", (1, 0)): 1.0}, -3.25, "cost_tangent",
                      ((1, 0),)),
            LinearCut({("P", (1, 2, 0), "f"): -0.6, ("Q", (1, 2, 0), "f"):
                       0.8}, -1.0, "limit", ((1, 2, 0), "f"))]
    hashes = separation._content_hashes(
        [c.kind for c in cuts],
        [separation._KEY_BYTES[k] for c in cuts for k in c.terms],
        np.array([w for c in cuts for w in c.terms.values()]),
        np.array([c.rhs for c in cuts]), [len(c.terms) for c in cuts],
        np.array([c.inf_norm for c in cuts]))
    assert hashes == cut_hashes(cuts) == list(map(_hash, cuts))
