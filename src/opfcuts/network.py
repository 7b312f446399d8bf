"""Branch admittances, the bus-pair graph, 3-cycles, and chordal cliques.

The records of `case_io` check themselves, so every branch here joins two
different known buses and an in-service one has nonzero series impedance.
The pair graph collapses parallel branches onto one canonical (low, high)
edge.  It is never modified: the chordal extension only returns cliques, and
the relaxation gives their chord pairs (c, s) variables.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

from .case_io import Branch, CaseData


def branch_admittance(branch: Branch):
    """Pi-model admittances (Y_ff, Y_ft, Y_tf, Y_tt) of an in-service
    branch, with off-nominal tap and phase shift.

    Y_ff = (y + y_sh)/tau^2, Y_ft = -y/(tau e^{-j shift}),
    Y_tf = -y/(tau e^{j shift}), Y_tt = y + y_sh.
    """
    y = 1.0 / complex(branch.r, branch.x)
    y_sh = complex(0.0, branch.b_charge / 2.0)
    tau = branch.tap
    rot = cmath.exp(1j * branch.shift)
    return ((y + y_sh) / (tau * tau),
            -y / (tau / rot),      # -y / (tau e^{-j shift})
            -y / (tau * rot),
            y + y_sh)


@dataclass(frozen=True)
class PairGraph:
    """Simple graph on bus ids: `edges` holds once, sorted, each canonical
    (low, high) pair of buses that an in-service branch joins."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_case(cls, case: CaseData) -> "PairGraph":
        return cls(vertices=tuple(b.id for b in case.buses),
                   edges=tuple(sorted({canonical_pair(br.from_bus, br.to_bus)
                                       for br in case.branches
                                       if br.status})))

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for (a, b) in self.edges:
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

    @cached_property
    def pairs(self) -> tuple:
        """Every pair of buses inside a clique, once, sorted."""
        return tuple(sorted({(a, b) for c in self.cliques
                             for i, a in enumerate(c) for b in c[i + 1:]}))

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
    """Minimum-degree elimination; returns the clique of each vertex, in
    elimination order.  Ties break on lowest vertex id for determinism.
    """
    work = {v: set(nbrs) for v, nbrs in adj.items()}
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
    return elim_clique


def _maximal_cliques(elim_clique):
    """Maximal cliques of the chordal extension (Fulkerson-Gross): the
    distinct elimination cliques that no other one strictly contains."""
    distinct = set(elim_clique.values())
    return sorted(tuple(sorted(c)) for c in distinct
                  if not any(c < other for other in distinct))


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
    cliques = []
    for c in _maximal_cliques(_min_degree_fill(g.adjacency())):
        if len(c) < 3:
            continue
        if len(c) <= max_size:
            cliques.append(c)
        else:
            cliques.extend(_greedy_edge_cover(c, max_size))
    cliques = sorted(set(cliques))
    return CliqueSet(tuple(cliques))
