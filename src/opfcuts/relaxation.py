"""The linearly constrained base model and its shared variable index space.

Variables are addressed by symbolic keys that survive model rebuilds:

    ("v2", bus)            squared voltage magnitude, pu^2
    ("c", a, b)            pair cosine-product variable, a < b canonical
    ("s", a, b)            pair sine-product variable
    ("P", bkey, "f"/"t")   active flow per branch and direction, pu
    ("Q", bkey, "f"/"t")   reactive flow, pu
    ("Pg", gkey)           active generation, pu
    ("Qg", gkey)           reactive generation, pu
    ("t", gkey)            generator cost epigraph, cost units

where bkey = (from_bus, to_bus, parallel_index) and gkey = (bus, index among
the bus's generators).  The base model contains only variable bounds, the
linear flow-definition and balance equalities, and the initial cost epigraph
supports; everything nonlinear is enforced by dynamically separated cuts.

`RelaxationModel` keeps only the symbolic maps (`branch_keys`, `gen_keys`)
and the branch pair graph.  Every column it builds is written straight into
its `ScipyHighsBackend`, named by its key; the backend is the only holder
of the LP and of its names, and `var_index` is the backend's own key map.
Every row, base or cut, is a dict {key: coeff} that one method, `_add_row`,
maps to columns, leaving zero coefficients out, and queues with the
backend's one `add_row`.  Base rows carry no id and stay; cut rows carry the
cut's id, by which `remove_cut_row` deletes them; the backend rejects a
duplicate or unknown id.  The (c, s) columns are the one record of which
bus pairs exist; `extend_pairs` adds to them.
`clique_matrix` gathers the matrices of the pairs, or of the cliques of one
size, as one stack, by index arrays cached per list of bus tuples.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from .case_io import CaseData
from .errors import ModelError
from .lp_backend import LpSolveResult, ScipyHighsBackend
from .network import PairGraph, branch_admittance, canonical_pair

INF = math.inf


def _quadratic_tangent(cost, p_hat):
    slope = cost.derivative(p_hat)
    return slope, cost.value(p_hat) - slope * p_hat


class RelaxationModel:
    """Dynamic LP relaxation: base rows are immutable, cut rows come and go."""

    def __init__(self, case: CaseData):
        self.case = case
        self.pairs = PairGraph.from_case(case)
        self.backend = ScipyHighsBackend()
        self._bus = case.bus_by_id()  # made once: pair bounds and key checks
        self._solution: np.ndarray | None = None
        self._gathers: dict = {}  # bus-tuple list -> clique_matrix indices

        self.branch_keys: dict[int, tuple] = {}
        self.gen_keys: dict[int, tuple] = {}
        self.var_index = self.backend.columns  # the backend's, not a copy
        self._build()

    # -- construction -----------------------------------------------------

    def _pair_bound(self, pair):
        return self._bus[pair[0]].v_max * self._bus[pair[1]].v_max

    def _add_pair_vars(self, pair):
        bound = self._pair_bound(pair)
        self.backend.add_column(("c",) + pair, -bound, bound)
        self.backend.add_column(("s",) + pair, -bound, bound)

    def _build(self):
        case = self.case
        column = self.backend.add_column

        for b in case.buses:
            column(("v2", b.id), b.v_min ** 2, b.v_max ** 2)
        for pair in self.pairs.edges:
            self._add_pair_vars(pair)

        par_count: dict[tuple, int] = {}
        for idx, br in enumerate(case.branches):
            if not br.status:
                continue
            pk = (br.from_bus, br.to_bus)
            k = par_count.get(pk, 0)
            par_count[pk] = k + 1
            bkey = (br.from_bus, br.to_bus, k)
            self.branch_keys[idx] = bkey
            u = br.rate_a if br.rate_a is not None else INF
            for d in ("f", "t"):
                column(("P", bkey, d), -u, u)
                column(("Q", bkey, d), -u, u)

        gen_count: dict[int, int] = {}
        for idx, g in enumerate(case.generators):
            if not g.status:
                continue
            k = gen_count.get(g.bus, 0)
            gen_count[g.bus] = k + 1
            gkey = (g.bus, k)
            self.gen_keys[idx] = gkey
            column(("Pg", gkey), g.p_min, g.p_max)
            column(("Qg", gkey), g.q_min, g.q_max)
            column(("t", gkey), -INF, INF, obj=1.0)

        # flow definitions: each flow equals a linear map of (v2, c, s)
        for idx, bkey in self.branch_keys.items():
            br = case.branches[idx]
            a = branch_admittance(br)
            pair = canonical_pair(br.from_bus, br.to_bus)
            orient = 1.0 if br.from_bus < br.to_bus else -1.0
            c, s = ("c",) + pair, ("s",) + pair
            v2f, v2t = ("v2", br.from_bus), ("v2", br.to_bus)
            flows = {
                ("P", bkey, "f"): {v2f: -a.g_kk, c: -a.g_km,
                                   s: -a.b_km * orient},
                ("P", bkey, "t"): {v2t: -a.g_mm, c: -a.g_mk,
                                   s: a.b_mk * orient},
                ("Q", bkey, "f"): {v2f: a.b_kk, c: a.b_km,
                                   s: -a.g_km * orient},
                ("Q", bkey, "t"): {v2t: a.b_mm, c: a.b_mk,
                                   s: a.g_mk * orient},
            }
            for flow, terms in flows.items():
                self._add_row(None, {flow: 1.0, **terms}, 0.0, ge=False)

        # power balance with bus shunts
        touching: dict[int, list] = {b.id: [] for b in case.buses}
        for idx, bkey in self.branch_keys.items():
            br = case.branches[idx]
            touching[br.from_bus].append((bkey, "f"))
            touching[br.to_bus].append((bkey, "t"))
        gens_at: dict[int, list] = {b.id: [] for b in case.buses}
        for idx, gkey in self.gen_keys.items():
            gens_at[case.generators[idx].bus].append(gkey)

        for b in case.buses:
            for flow, gen, shunt, load in (("P", "Pg", b.shunt_g, b.p_load),
                                           ("Q", "Qg", -b.shunt_b, b.q_load)):
                terms = {(flow, bk, d): 1.0 for bk, d in touching[b.id]}
                terms[("v2", b.id)] = shunt
                terms.update({(gen, gkey): -1.0 for gkey in gens_at[b.id]})
                self._add_row(None, terms, -load, ge=False)

        # initial epigraph supports
        for idx, gkey in self.gen_keys.items():
            g = case.generators[idx]
            if g.cost.kind == "polynomial":
                c2 = g.cost.coefficients[0]
                if c2 == 0.0:
                    anchors = [0.0]
                else:
                    anchors = sorted({g.p_min, g.p_max,
                                      0.5 * (g.p_min + g.p_max)})
                supports = [_quadratic_tangent(g.cost, p) for p in anchors]
            else:
                supports = g.cost.segment_supports()
            for slope, intercept in supports:
                self._add_row(None, {("t", gkey): 1.0, ("Pg", gkey): -slope},
                              intercept)

    def _add_row(self, row_id, terms: dict, rhs: float, ge: bool = True):
        """Queue sum(coeff * column of key) >= rhs, or = rhs when not `ge`.

        The one place where keys become columns.  Zero coefficients are
        left out; a key without a column raises KeyError, queueing nothing.
        """
        cols = list(map(self.var_index.__getitem__, terms))
        coeffs = list(terms.values())
        if not all(coeffs):
            cols = list(compress(cols, coeffs))
            coeffs = list(filter(None, coeffs))
        self.backend.add_row(row_id, cols, coeffs, float(rhs), ge)

    # -- dynamic edits ----------------------------------------------------

    def extend_pairs(self, new_pairs):
        """Append (c, s) columns, in sorted order, for pairs not yet present.

        Existing column indices and every row of the LP are kept as they are.
        """
        for pair in sorted(new_pairs):
            pair = canonical_pair(*pair)
            if ("c",) + pair not in self.var_index:
                self._add_pair_vars(pair)

    def cs_pairs(self):
        """Every pair with (c, s) columns, sorted."""
        return sorted(key[1:] for key in self.var_index if key[0] == "c")

    def has_variables(self, keys) -> bool:
        """Every key (of an iterable, such as a cut's terms) is a column or
        a canonical (c|s, a, b) pair of buses."""
        bus = self._bus
        return all(key in self.var_index or (
            isinstance(key, tuple) and len(key) == 3 and key[0] in ("c", "s")
            and key[1] in bus and key[2] in bus and key[1] < key[2])
            for key in keys)

    def add_cut_row(self, row_id, terms: dict, rhs: float):
        try:
            self._add_row(row_id, terms, rhs)
        except KeyError as exc:
            raise ModelError("unknown variable %r" % (exc.args[0],)) from None

    def remove_cut_row(self, row_id):
        self.backend.remove_rows([row_id])

    # -- solving and solution access --------------------------------------

    def solve(self) -> LpSolveResult:
        """Solve the LP; a solve without a primal keeps the last one."""
        res = self.backend.solve()
        if res.primal is not None:
            self._solution = res.primal
        return res

    def value(self, key) -> float:
        if self._solution is None:
            raise ModelError("no solution available")
        return float(self._solution[self.var_index[key]])

    def clique_matrix(self, cliques) -> np.ndarray:
        """Hermitian stack (M, n, n) of X_i(y) over M bus tuples of size n:
        v2 on the diagonal, c + js off it, s signed by the tuple's order."""
        if self._solution is None:
            raise ModelError("no solution available")
        cliques = tuple(cliques)
        if cliques not in self._gathers:
            self._gathers[cliques] = self._gather_index(cliques)
        re_idx, im_idx, im_sign = self._gathers[cliques]
        y = self._solution
        x = np.empty(re_idx.shape, dtype=complex)
        x.real, x.imag = y[re_idx], y[im_idx] * im_sign
        return x

    def _gather_index(self, cliques):
        """Per tuple and entry (a, b): the column of the real part, and the
        column and sign of the imaginary part."""
        def column(kind, a, b):
            key = ("v2", a) if a == b else (kind,) + canonical_pair(a, b)
            if key not in self.var_index:
                raise ModelError("clique variable %r does not exist" % (key,))
            return self.var_index[key]

        entries = [(a, b) for c in cliques for a in c for b in c]
        re_idx = [column("c", a, b) for a, b in entries]
        im_idx = [column("s", a, b) for a, b in entries]
        sign = [0.0 if a == b else 1.0 if a < b else -1.0 for a, b in entries]
        shape = (len(cliques),) + (len(cliques[0]),) * 2
        return tuple(np.reshape(v, shape) for v in (re_idx, im_idx, sign))


def build_m0(case: CaseData) -> RelaxationModel:
    """Build the base linearly constrained relaxation for a validated case."""
    return RelaxationModel(case)
