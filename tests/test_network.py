import cmath
import itertools

import numpy as np
import pytest

from opfcuts.case_io import Branch, Bus, CaseData, CostFunction, Generator
from opfcuts.errors import CaseValidationError
from opfcuts.network import (PairGraph, _maximal_cliques, _min_degree_fill,
                             branch_admittance, canonical_pair,
                             chordal_cliques, enumerate_three_cycles)


def _graph(edges):
    return PairGraph(vertices=tuple(sorted({v for e in edges for v in e})),
                     edges=tuple(sorted({canonical_pair(a, b)
                                         for a, b in edges})))


def test_admittance_pure_reactance():
    y_ff, y_ft, _, y_tt = branch_admittance(Branch(1, 2, 0.0, 0.1, 0.0))
    assert y_ff.real == pytest.approx(0.0)
    assert y_ff.imag == pytest.approx(-10.0)
    assert y_ft.real == pytest.approx(0.0)
    assert y_ft.imag == pytest.approx(10.0)
    assert y_tt.imag == pytest.approx(-10.0)


def test_admittance_pure_resistance():
    y_ff, y_ft, _, _ = branch_admittance(Branch(1, 2, 1.0, 0.0, 0.0))
    assert y_ff.real == pytest.approx(1.0)
    assert y_ff.imag == pytest.approx(0.0)
    assert y_ft.real == pytest.approx(-1.0)
    assert y_ft.imag == pytest.approx(0.0)


def test_admittance_tap():
    y_ff, y_ft, _, _ = branch_admittance(
        Branch(1, 2, 0.0, 0.1, 0.0, tap=2.0))
    assert y_ff.imag == pytest.approx(-2.5)
    assert y_ft.imag == pytest.approx(5.0)


def test_admittance_singular_branch():
    """An in-service branch with r = x = 0 is bad data when it is made."""
    with pytest.raises(CaseValidationError, match="branch 1-2"):
        Branch(1, 2, 0.0, 0.0, 0.0)


def test_flow_identity_random_phasors():
    """Linear flow expressions in (v2, c, s) match the complex power."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        br = Branch(1, 2, float(rng.uniform(0, 0.2)),
                    float(rng.uniform(0.05, 0.5)), float(rng.uniform(0, 0.1)),
                    tap=float(rng.uniform(0.9, 1.1)),
                    shift=float(rng.uniform(-0.2, 0.2)))
        y_ff, y_ft, y_tf, y_tt = branch_admittance(br)
        vk = rng.uniform(0.9, 1.1) * cmath.exp(1j * rng.uniform(-1, 1))
        vm = rng.uniform(0.9, 1.1) * cmath.exp(1j * rng.uniform(-1, 1))
        v2k, v2m = abs(vk) ** 2, abs(vm) ** 2
        w = vk * vm.conjugate()
        c, s = w.real, w.imag
        p_f = y_ff.real * v2k + y_ft.real * c + y_ft.imag * s
        q_f = -y_ff.imag * v2k - y_ft.imag * c + y_ft.real * s
        p_t = y_tt.real * v2m + y_tf.real * c - y_tf.imag * s
        q_t = -y_tt.imag * v2m - y_tf.imag * c - y_tf.real * s
        y = 1 / complex(br.r, br.x)
        ysh = 1j * br.b_charge / 2
        t = br.tap * cmath.exp(1j * br.shift)
        s_f = vk * ((y + ysh) / br.tap ** 2 * vk - y / t.conjugate() * vm).conjugate()
        s_t = vm * (-y / t * vk + (y + ysh) * vm).conjugate()
        worst = max(worst, abs(p_f - s_f.real), abs(q_f - s_f.imag),
                    abs(p_t - s_t.real), abs(q_t - s_t.imag))
    assert worst < 1e-10


def test_three_cycles_k3():
    cs = enumerate_three_cycles(_graph([(1, 2), (2, 3), (1, 3)]))
    assert cs.cliques == ((1, 2, 3),)


def test_three_cycles_tree_empty():
    cs = enumerate_three_cycles(_graph([(1, 2), (2, 3), (3, 4)]))
    assert cs.cliques == ()


def test_three_cycles_case14(case14):
    cs = enumerate_three_cycles(PairGraph.from_case(case14))
    assert set(cs.cliques) == {(1, 2, 5), (2, 3, 4), (2, 4, 5),
                               (4, 7, 9), (6, 12, 13)}
    assert cs.sizes() == (5, 0, 0)


def test_chordal_four_cycle():
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    g = _graph(edges)
    cs = chordal_cliques(g, 3)
    assert len(cs.cliques) == 2
    assert all(len(c) == 3 for c in cs.cliques)
    assert g == _graph(edges)  # the graph is not modified
    covered = {frozenset(p) for c in cs.cliques
               for p in itertools.combinations(c, 2)}
    for edge in edges:
        assert frozenset(edge) in covered
    # the one pair the cliques add is a chord of the cycle
    chords = covered - {frozenset(e) for e in edges}
    assert len(chords) == 1
    assert chords <= {frozenset((1, 3)), frozenset((2, 4))}


def test_chordal_tree_empty():
    edges = [(1, 2), (2, 3), (3, 4)]
    g = _graph(edges)
    cs = chordal_cliques(g, 5)
    assert cs.cliques == ()
    assert g == _graph(edges)


def test_chordal_k6_edge_cover():
    g = _graph(list(itertools.combinations(range(1, 7), 2)))
    cs = chordal_cliques(g, 5)
    assert all(3 <= len(c) <= 5 for c in cs.cliques)
    covered = {frozenset(p) for c in cs.cliques
               for p in itertools.combinations(c, 2)}
    for edge in itertools.combinations(range(1, 7), 2):
        assert frozenset(edge) in covered


def test_maximal_cliques_random_graphs():
    """On random small graphs, the cliques returned are the maximal cliques
    of the chordal extension (the graph of the elimination cliques), and
    every edge lies in a returned clique of size >= 3 or is a bare edge."""
    rng = np.random.default_rng(40)
    for _ in range(300):
        n = int(rng.integers(3, 11))
        adj = {v: set() for v in range(n)}
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < rng.uniform(0.2, 0.8):
                adj[a].add(b)
                adj[b].add(a)
        elim = _min_degree_fill(adj)
        ext = {frozenset(p) for c in elim.values()
               for p in itertools.combinations(c, 2)}
        assert all(frozenset((a, b)) in ext for a in adj for b in adj[a])
        got = _maximal_cliques(elim)
        for c in got:
            assert all(frozenset(p) in ext
                       for p in itertools.combinations(c, 2))
            assert not any(all(frozenset((v, u)) in ext for u in c)
                           for v in set(adj) - set(c))
        for edge in ext:
            assert any(edge <= set(c) for c in got if len(c) >= 3) \
                or tuple(sorted(edge)) in got
        # every maximal clique, by brute force over the vertex subsets
        cliques = [set(c) for k in range(1, n + 1)
                   for c in itertools.combinations(range(n), k)
                   if all(frozenset(p) in ext
                          for p in itertools.combinations(c, 2))]
        assert got == sorted(tuple(sorted(c)) for c in cliques
                             if not any(c < d for d in cliques))


def test_triangles_survive_chordal_extension(case14):
    g = PairGraph.from_case(case14)
    three = set(enumerate_three_cycles(g).cliques)
    chordal = set(chordal_cliques(g, 5).cliques)
    assert three <= chordal


def test_parallel_branches_one_edge():
    case = CaseData(
        base_mva=1.0,
        buses=(Bus(1, 0, 0, 0.9, 1.1), Bus(2, 0.1, 0, 0.9, 1.1)),
        branches=(Branch(1, 2, 0.0, 0.1, 0.0), Branch(1, 2, 0.0, 0.2, 0.0)),
        generators=(Generator(1, 0, 1, -1, 1,
                              CostFunction("polynomial", (0, 1, 0))),),
    )
    g = PairGraph.from_case(case)
    assert g.edges == ((1, 2),)


def test_canonical_pair():
    assert canonical_pair(5, 2) == (2, 5)
    assert canonical_pair(2, 5) == (2, 5)
