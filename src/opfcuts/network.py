"""Branch admittances, the bus-pair graph, 3-cycles, and chordal cliques.

The pair graph collapses parallel branches onto one canonical (low, high)
edge.  It is never modified: the chordal extension only returns cliques, and
the relaxation gives their chord pairs (c, s) variables.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

from .case_io import Branch, CaseData
from .errors import SingularBranchError


@dataclass(frozen=True)
class BranchAdmittance:
    """Real/imaginary parts of the 2x2 Pi-model admittance blocks."""

    g_kk: float
    b_kk: float
    g_km: float
    b_km: float
    g_mk: float
    b_mk: float
    g_mm: float
    b_mm: float


def branch_admittance(branch: Branch) -> BranchAdmittance:
    """Pi-model admittances with off-nominal tap and phase shift.

    Y_ff = (y + y_sh)/tau^2, Y_ft = -y/(tau e^{-j shift}),
    Y_tf = -y/(tau e^{j shift}), Y_tt = y + y_sh.
    """
    if branch.r == 0.0 and branch.x == 0.0:
        raise SingularBranchError(
            "branch %d-%d has r = x = 0" % (branch.from_bus, branch.to_bus))
    y = 1.0 / complex(branch.r, branch.x)
    y_sh = complex(0.0, branch.b_charge / 2.0)
    tau = branch.tap
    rot = cmath.exp(1j * branch.shift)
    y_ff = (y + y_sh) / (tau * tau)
    y_ft = -y / (tau / rot)      # -y / (tau e^{-j shift})
    y_tf = -y / (tau * rot)
    y_tt = y + y_sh
    return BranchAdmittance(
        g_kk=y_ff.real, b_kk=y_ff.imag,
        g_km=y_ft.real, b_km=y_ft.imag,
        g_mk=y_tf.real, b_mk=y_tf.imag,
        g_mm=y_tt.real, b_mm=y_tt.imag)


@dataclass
class PairGraph:
    """Simple graph on bus ids with canonical (low, high) edge orientation."""

    vertices: tuple[int, ...]
    pair_branches: dict[tuple[int, int], list[int]]  # pair -> branch indices

    @classmethod
    def from_case(cls, case: CaseData) -> "PairGraph":
        pairs: dict[tuple[int, int], list[int]] = {}
        for idx, br in enumerate(case.branches):
            if not br.status:
                continue
            pair = canonical_pair(br.from_bus, br.to_bus)
            pairs.setdefault(pair, []).append(idx)
        return cls(vertices=tuple(b.id for b in case.buses),
                   pair_branches=pairs)

    @property
    def edges(self):
        return sorted(self.pair_branches)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for (a, b) in self.pair_branches:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def canonical_pair(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise ValueError("self-loop pair (%d, %d)" % (a, b))
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CliqueSet:
    cliques: tuple[tuple[int, ...], ...]

    def sizes(self):
        """Counts of 3-, 4-, 5-cliques as a tuple (n3, n4, n5)."""
        n = {3: 0, 4: 0, 5: 0}
        for c in self.cliques:
            if len(c) in n:
                n[len(c)] += 1
        return (n[3], n[4], n[5])

    @cached_property
    def by_size(self) -> tuple:
        """The cliques grouped by size, sizes ascending, each in set order."""
        sizes = sorted({len(c) for c in self.cliques})
        return tuple(tuple(c for c in self.cliques if len(c) == n)
                     for n in sizes)

    def merged_with(self, other: "CliqueSet") -> "CliqueSet":
        return CliqueSet(tuple(dict.fromkeys(self.cliques + other.cliques)))


def enumerate_three_cycles(g: PairGraph) -> CliqueSet:
    """All vertex triples whose three pairs are edges, each reported once."""
    adj = g.adjacency()
    triangles = []
    for (a, b) in g.edges:
        for c in sorted(adj[a] & adj[b]):
            if c > b:
                triangles.append((a, b, c))
    triangles.sort()
    return CliqueSet(tuple(triangles))


def _min_degree_fill(adj: dict[int, set[int]]):
    """Minimum-degree elimination; returns (ordering, clique per vertex).

    Ties break on lowest vertex id for determinism.
    """
    work = {v: set(nbrs) for v, nbrs in adj.items()}
    order = []
    elim_clique = {}
    remaining = set(work)
    while remaining:
        v = min(remaining, key=lambda u: (len(work[u]), u))
        nbrs = set(work[v])
        elim_clique[v] = frozenset({v} | nbrs)
        for a in nbrs:
            for b in nbrs:
                if a < b and b not in work[a]:  # a fill-in edge
                    work[a].add(b)
                    work[b].add(a)
        for a in nbrs:
            work[a].discard(v)
        del work[v]
        remaining.discard(v)
        order.append(v)
    return order, elim_clique


def _maximal_cliques(order, elim_clique):
    """Maximal cliques of the chordal extension (Fulkerson-Gross)."""
    cliques = []
    seen = []
    for v in order:
        c = elim_clique[v]
        if not any(c <= other for other in seen):
            cliques.append(tuple(sorted(c)))
        seen.append(c)
    # a clique can still be dominated by a later one
    out = []
    for c in cliques:
        cs = set(c)
        if not any(cs < set(d) for d in cliques if d != c):
            out.append(c)
    return sorted(set(out))


def _greedy_edge_cover(clique, max_size):
    """Cover all pairs of an oversized clique with size-`max_size` subsets."""
    pairs = {(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]}
    covered = set()
    out = []
    while covered != pairs:
        a, b = min(pairs - covered)
        subset = [a, b]
        while len(subset) < max_size:
            best, best_gain = None, -1
            for v in clique:
                if v in subset:
                    continue
                gain = sum(1 for u in subset
                           if canonical_pair(u, v) not in covered)
                if gain > best_gain:
                    best, best_gain = v, gain
            subset.append(best)
        subset = tuple(sorted(subset))
        out.append(subset)
        covered |= {(a, b) for i, a in enumerate(subset)
                    for b in subset[i + 1:]}
    return sorted(set(out))


def chordal_cliques(g: PairGraph, max_size: int) -> CliqueSet:
    """Cliques of a minimum-degree chordal extension, capped at `max_size`.

    `g` is not modified.  Maximal cliques larger than max_size are replaced
    by a greedy family of size-max_size subsets covering every pair of the
    big clique, so every fill-in pair lies in some returned clique.
    """
    if max_size not in (3, 4, 5):
        raise ValueError("max_size must be 3, 4 or 5")
    order, elim_clique = _min_degree_fill(g.adjacency())
    cliques = []
    for c in _maximal_cliques(order, elim_clique):
        if len(c) < 3:
            continue
        if len(c) <= max_size:
            cliques.append(c)
        else:
            cliques.extend(_greedy_edge_cover(c, max_size))
    cliques = sorted(set(cliques))
    return CliqueSet(tuple(cliques))
