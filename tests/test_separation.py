import math

import numpy as np
import pytest

from opfcuts import separation
from opfcuts.case_io import CostFunction, Generator
from opfcuts.hermitian import HermitianMatrix, eigen, psd_cutoff
from opfcuts.network import canonical_pair
from opfcuts.separation import (PSD_TOL, LinearCut, clique_cuts, cost_cut,
                                eigen_cut, jabr_cut, limit_cut,
                                projection_cut)


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
    assert got.content_hash == want.content_hash


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
    cut = limit_cut(1.0, 1.0, 1.0, (0, "f"))
    scale = -cut.terms[("P", 0, "f")]
    assert cut.terms[("Q", 0, "f")] / scale == pytest.approx(-1.0)
    assert cut.rhs / scale == pytest.approx(-math.sqrt(2.0))
    assert cut.violation_at_birth == pytest.approx(math.sqrt(2.0) - 1.0)
    assert limit_cut(0.5, 0.5, 1.0, (0, "f")) is None
    axis = limit_cut(2.0, 0.0, 1.0, (3, "t"))
    assert axis.terms[("P", 3, "t")] == pytest.approx(-2.0)
    assert axis.rhs == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        limit_cut(1.0, 1.0, math.inf, (0, "f"))


def test_limit_cut_valid_on_circle():
    rng = np.random.default_rng(24)
    cut = limit_cut(1.3, -0.9, 1.0, (0, "f"))
    for _ in range(200):
        th = rng.uniform(0, 2 * math.pi)
        vals = {("P", 0, "f"): math.cos(th), ("Q", 0, "f"): math.sin(th)}
        assert cut.value_at(vals) >= cut.rhs - 1e-12


def _gen(coeffs):
    return Generator(1, 0.0, 1.0, -1.0, 1.0,
                     CostFunction("polynomial", coeffs))


def test_cost_cut_examples():
    cut = cost_cut(1.0, 0.0, _gen((1.0, 0.0, 0.0)), "g0")
    assert cut.terms == {("t", "g0"): 1.0, ("Pg", "g0"): -2.0}
    assert cut.rhs == pytest.approx(-1.0)
    assert cut.violation_at_birth == pytest.approx(1.0)

    at_zero = cost_cut(0.0, -1.0, _gen((0.25, 20.0, 0.0)), "g1")
    assert at_zero.terms[("Pg", "g1")] == pytest.approx(-20.0)
    assert at_zero.rhs == pytest.approx(0.0)

    assert cost_cut(1.0, 5.0, _gen((1.0, 0.0, 0.0)), "g0") is None
    assert cost_cut(1.0, 0.0, _gen((0.0, 20.0, 0.0)), "g0") is None


def test_cost_cut_is_supporting():
    """The tangent never exceeds the true cost."""
    gen = _gen((0.5, 3.0, 1.0))
    cut = cost_cut(0.7, 0.0, gen, "g")
    for p in np.linspace(0.0, 2.0, 41):
        tangent = cut.rhs + (-cut.terms[("Pg", "g")]) * p
        assert tangent <= gen.cost.value(p) + 1e-12


def test_content_hash_scale_invariant():
    a = LinearCut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.5, "eigen", (1, 2))
    b = LinearCut({("v2", 1): 3.0, ("c", 1, 2): -6.0}, 1.5, "eigen", (1, 2))
    c = LinearCut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.6, "eigen", (1, 2))
    d = LinearCut({("v2", 1): 1.0, ("c", 1, 2): -2.0}, 0.5, "jabr", (1, 2))
    assert a.content_hash == b.content_hash
    assert a.content_hash != c.content_hash
    assert a.content_hash != d.content_hash


def test_content_hash_golden_values():
    """Saved pools and row order rest on these hashes; they must not move."""
    cut = LinearCut({("s", 1, 2): 0.25, ("v2", 2): 1.0, ("c", 1, 2): -2.0,
                     ("v2", 1): 4.0}, 0.5, "eigen", (1, 2))
    assert cut.content_hash == 11199671962411321844
    assert _jabr(1.0, 1.0, 1.2, 0.3, (4, 9))[0].content_hash \
        == 11573129386543259869


def test_jabr_hash_equals_direct_jabr_cut():
    [cut] = _jabr(1.0, 1.0, 1.2, 0.3, (4, 9))
    direct = LinearCut(dict(cut.terms), cut.rhs, "jabr", cut.provenance)
    assert cut.content_hash == direct.content_hash


def test_normalized_violation():
    cut = LinearCut({("v2", 1): 2.0}, 1.0, "eigen", (1,))
    assert cut.normalized_violation({("v2", 1): 0.0}) == pytest.approx(0.5)
    assert cut.normalized_violation({("v2", 1): 1.0}) == pytest.approx(-0.5)
