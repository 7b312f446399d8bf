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

A model is a compiled network plus the loads of its case.  The
`CompiledNetwork` is the load-independent part, built once from vectors over
buses, branches and generators: the column keys, bounds and objective, and
the base rows as one block (the flow definitions, then each bus's active and
reactive balance, then the epigraph supports), whose right-hand side is
fixed but at the balance rows, and the tangent tables of separation.
`compile_network` keeps the last `NETWORKS_KEPT` networks by content, every
case field but the buses' loads and the case name, so the load instances of
one network share one compiled network, its cliques and its gather indices.
Nothing shared changes: its arrays, and the cached ones, are read-only, and
each model copies the columns into a backend of its own.

`RelaxationModel` writes the compiled network into its `ScipyHighsBackend`,
the base rows as one block with the balance rows' right-hand side set to
-P_load and -Q_load of its case; the backend is the only holder of the LP
and of its names, and `var_index` is the backend's own key map.  Cut rows
come as a `separation.CutBlock`: one method, `add_cut_row`, maps the
block's keys to columns in one pass, leaving zero coefficients out, and
appends its rows as one block of cut rows.  Cut rows are named by their
position among the cut rows, the position of their cut in the run's pool
(see `cut_manager`); `remove_cut_row` deletes them by it, and the backend
rejects a position that names no cut row.  The (c, s) columns are the one
record of which bus pairs exist; `extend_pairs` adds to them, one block of
columns per call.
The model keeps no solve state: the round loop solves its backend and keeps
the point.  `clique_matrix(y, tuples)` gathers the matrices at the point
`y` of the pairs, or of the cliques of one size, as one stack, by read-only
index arrays that the compiled network caches per list of bus tuples and
per sequence of pairs its models added: models that added the same pairs in
the same order have the same columns, so the load instances of a network
share them.  Beside them the compiled network keeps, per list of bus
tuples, its `separation.StackPlan` (`stack_plan`), which maps the list's
coefficient stacks to cuts.  `cs_pairs` returns the sorted pairs as a
tuple that `extend_pairs` keeps up to date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import starmap
from types import MappingProxyType

import numpy as np

from .case_io import Bus, CaseData
from .errors import ModelError
from .lp_backend import ScipyHighsBackend
from .network import CliqueSet, PairGraph, branch_admittance, canonical_pair
from .separation import CutBlock, StackPlan

INF = math.inf
NETWORKS_KEPT = 8  # compiled networks that `compile_network` keeps


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """The load-independent base model of one network.

    Column j is named keys[j], with bounds lower[j], upper[j] and objective
    coefficient objective[j].  Base row i reads a.x >= rhs[i] where ge[i],
    a.x = rhs[i] elsewhere, over the next sizes[i] entries of `cols` and
    `vals`.  `balance` holds each bus's active and reactive balance row, in
    bus order; their right-hand side is the case's, 0 here.
    """
    keys: tuple
    lower: tuple
    upper: tuple
    objective: tuple
    cols: np.ndarray
    vals: np.ndarray
    sizes: np.ndarray
    rhs: np.ndarray
    ge: np.ndarray
    balance: np.ndarray
    limits: tuple  # limited branch ends, f then t: (P, Q) cols, rate_a, keys
    costs: tuple   # quadratic costs: (Pg, t) cols, (c2, c1, c0), keys
    branch_keys: MappingProxyType  # branch index -> bkey, active ones
    gen_keys: MappingProxyType     # generator index -> gkey, active ones
    pairs: PairGraph
    v_max: MappingProxyType        # bus id -> v_max
    _cliques: dict = field(default_factory=dict, init=False, repr=False)
    # (pairs the model added, bus-tuple list) -> clique_matrix index arrays
    gathers: dict = field(default_factory=dict, init=False, repr=False)
    # bus-tuple list -> its separation.StackPlan
    plans: dict = field(default_factory=dict, init=False, repr=False)

    def cliques(self, find, *args) -> CliqueSet:
        """`find(self.pairs, *args)`, computed once: a clique set depends
        on the pair graph alone."""
        key = (find.__name__,) + args
        if key not in self._cliques:
            self._cliques[key] = find(self.pairs, *args)
        return self._cliques[key]


def compile_network(case: CaseData) -> CompiledNetwork:
    """The compiled network of `case`, built once for its content while it
    is among the last `NETWORKS_KEPT` networks asked for."""
    return _compile(case.base_mva, tuple([
        (b.id, b.v_min, b.v_max, b.shunt_g, b.shunt_b) for b in case.buses]),
        tuple(case.branches), tuple(case.generators))


def _epigraph_supports(g) -> list:
    """(slope, intercept) of the generator's initial epigraph supports: a
    pwl cost's segments, or a quadratic's tangents at its bounds and their
    midpoint (at 0 when it is linear)."""
    if g.cost.kind != "polynomial":
        return g.cost.segment_supports()
    anchors = [0.0] if g.cost.coefficients[0] == 0.0 else sorted(
        {g.p_min, g.p_max, 0.5 * (g.p_min + g.p_max)})
    slopes = [g.cost.derivative(p) for p in anchors]
    return [(s, g.cost.value(p) - s * p) for s, p in zip(slopes, anchors)]


def _rows(cols, vals):
    """Rows of equal width as (cols, vals, sizes), zero coefficients left
    out."""
    keep = vals != 0.0
    return cols[keep], vals[keep], keep.sum(axis=1)


@lru_cache(maxsize=NETWORKS_KEPT)
def _compile(base_mva, buses, branches, generators) -> CompiledNetwork:
    case = CaseData(base_mva, tuple([Bus(i, 0.0, 0.0, lo, hi, g, b)
                                     for i, lo, hi, g, b in buses]),
                    branches, generators)
    pairs = PairGraph.from_case(case)
    edges = pairs.edges
    v_max = {b.id: b.v_max for b in case.buses}

    branch_keys, par_count = {}, {}
    for idx, br in enumerate(branches):
        if br.status:
            k = par_count.get((br.from_bus, br.to_bus), 0)
            par_count[br.from_bus, br.to_bus] = k + 1
            branch_keys[idx] = (br.from_bus, br.to_bus, k)
    gen_keys, gen_count = {}, {}
    for idx, g in enumerate(generators):
        if g.status:
            k = gen_count.get(g.bus, 0)
            gen_count[g.bus] = k + 1
            gen_keys[idx] = (g.bus, k)
    lines = [branches[i] for i in branch_keys]
    gens = [generators[i] for i in gen_keys]

    # columns: v2 per bus; c, s per pair; P, Q per branch end; Pg, Qg, t
    # per generator
    keys = ([("v2", b.id) for b in case.buses]
            + [(kind,) + p for p in edges for kind in ("c", "s")]
            + [(kind, bkey, d) for bkey in branch_keys.values()
               for d in ("f", "t") for kind in ("P", "Q")]
            + [(kind, gkey) for gkey in gen_keys.values()
               for kind in ("Pg", "Qg", "t")])
    rate = [br.rate_a if br.rate_a is not None else INF for br in lines]
    bounds = ([(b.v_min ** 2, b.v_max ** 2) for b in case.buses]
              + [(-u, u) for a, b in edges for u in [v_max[a] * v_max[b]] * 2]
              + [(-u, u) for u in rate for _ in range(4)]
              + [bound for g in gens for bound in (
                  (g.p_min, g.p_max), (g.q_min, g.q_max), (-INF, INF))])
    lower, upper = map(tuple, zip(*bounds)) if bounds else ((), ())

    n_bus, n_br, n_gen = len(case.buses), len(lines), len(gens)
    bus_at = {b.id: i for i, b in enumerate(case.buses)}
    pair_at = {p: i for i, p in enumerate(edges)}
    f_bus = np.array([bus_at[br.from_bus] for br in lines], int)
    t_bus = np.array([bus_at[br.to_bus] for br in lines], int)
    c_col = n_bus + 2 * np.array(
        [pair_at[canonical_pair(br.from_bus, br.to_bus)] for br in lines],
        int)
    p_col = n_bus + 2 * len(edges) + 4 * np.arange(n_br)  # P f of a branch
    pg_col = n_bus + 2 * len(edges) + 4 * n_br + 3 * np.arange(n_gen)

    # flow definitions: per branch the rows P f, P t, Q f, Q t, each the
    # flow, then v2 of its end, c and s
    y = np.array([branch_admittance(br) for br in lines],
                 complex).reshape(-1, 4).T
    (g_kk, g_km, g_mk, g_mm), (b_kk, b_km, b_mk, b_mm) = y.real, y.imag
    orient = np.array([1.0 if br.from_bus < br.to_bus else -1.0
                       for br in lines])
    one = np.ones(n_br)
    cols = np.array([[p_col, f_bus, c_col, c_col + 1],
                     [p_col + 2, t_bus, c_col, c_col + 1],
                     [p_col + 1, f_bus, c_col, c_col + 1],
                     [p_col + 3, t_bus, c_col, c_col + 1]])
    vals = np.array([[one, -g_kk, -g_km, -b_km * orient],
                     [one, -g_mm, -g_mk, b_mk * orient],
                     [one, b_kk, b_km, -g_km * orient],
                     [one, b_mm, b_mk, g_mk * orient]])
    flow = _rows(*(a.transpose(2, 0, 1).reshape(-1, 4) for a in (cols, vals)))

    # power balance with bus shunts: per bus its P row, then its Q row, of
    # the flows at the bus in branch order, v2 times the shunt, and minus
    # the generation in generator order
    shunt_g, shunt_b = np.array([(b.shunt_g, b.shunt_b) for b in case.buses],
                                float).reshape(-1, 2).T
    row = 2 * np.concatenate([f_bus, t_bus, np.arange(n_bus),
                              [bus_at[g.bus] for g in gens]]).astype(int)
    part = np.repeat([0, 0, 1, 2], [n_br, n_br, n_bus, n_gen])
    seq = np.concatenate([np.arange(n_br), np.arange(n_br),
                          np.zeros(n_bus, int), np.arange(n_gen)])
    p_cols = np.concatenate([p_col, p_col + 2, np.arange(n_bus), pg_col])
    q_cols = p_cols + (part != 1)  # Q f, Q t and Qg follow P f, P t and Pg
    order = np.lexsort((np.tile(seq, 2), np.tile(part, 2),
                        np.concatenate([row, row + 1])))
    row = np.concatenate([row, row + 1])[order]
    cols = np.concatenate([p_cols, q_cols])[order]
    vals = np.concatenate([one, one, shunt_g, -np.ones(n_gen),
                           one, one, -shunt_b, -np.ones(n_gen)])[order]
    keep = vals != 0.0
    balance = (cols[keep], vals[keep],
               np.bincount(row[keep], minlength=2 * n_bus))

    # initial epigraph supports t - slope Pg >= intercept
    gen, slope, intercept = np.array(
        [(j, *support) for j, g in enumerate(gens)
         for support in _epigraph_supports(g)], float).reshape(-1, 3).T
    gen = gen.astype(int)
    epigraph = _rows(np.stack([pg_col[gen] + 2, pg_col[gen]], axis=1),
                     np.stack([np.ones(len(gen)), -slope], axis=1))

    limited = [j for j, br in enumerate(lines) if br.rate_a is not None]
    quadratic = [j for j, g in enumerate(gens) if g.cost.kind == "polynomial"
                 and g.cost.coefficients[0] != 0.0]
    key_of = np.fromiter(keys, object, len(keys))
    limits, costs = [(cols, values, key_of[cols]) for cols, values in (
        ((p_col[limited, None] + [0, 2]).reshape(-1, 1) + [0, 1],
         np.repeat([lines[j].rate_a for j in limited], 2)),
        (pg_col[quadratic, None] + [0, 2], np.array(
            [gens[j].cost.coefficients for j in quadratic],
            float).reshape(-1, 3)))]

    n_eq = 4 * n_br + 2 * n_bus
    arrays = dict(
        cols=np.concatenate([flow[0], balance[0], epigraph[0]]).astype(
            np.int32),
        vals=np.concatenate([flow[1], balance[1], epigraph[1]]),
        sizes=np.concatenate([flow[2], balance[2], epigraph[2]]),
        rhs=np.concatenate([np.zeros(n_eq), intercept]),
        ge=np.arange(n_eq + len(intercept)) >= n_eq,
        balance=4 * n_br + np.arange(2 * n_bus))
    for a in [*arrays.values(), *limits, *costs]:
        a.flags.writeable = False
    return CompiledNetwork(
        keys=tuple(keys), lower=lower, upper=upper, limits=limits,
        costs=costs,
        objective=tuple([1.0 if k[0] == "t" else 0.0 for k in keys]),
        branch_keys=MappingProxyType(branch_keys),
        gen_keys=MappingProxyType(gen_keys), pairs=pairs,
        v_max=MappingProxyType(v_max), **arrays)


class RelaxationModel:
    """Dynamic LP relaxation: base rows are immutable, cut rows come and go."""

    def __init__(self, case: CaseData):
        self.network = net = compile_network(case)
        self.backend = ScipyHighsBackend()
        self.var_index = self.backend.columns  # the backend's, not a copy
        self._added = ()  # the pairs extend_pairs added, in column order
        self._pairs = net.pairs.edges  # every pair with columns, sorted
        self.backend.add_columns(net.keys, net.lower, net.upper,
                                 net.objective)
        rhs = net.rhs.copy()
        rhs[net.balance] = [-load for b in case.buses
                            for load in (b.p_load, b.q_load)]
        self.backend.add_rows(net.cols, net.vals, net.sizes, rhs, net.ge)

    # -- dynamic edits ----------------------------------------------------

    def extend_pairs(self, new_pairs):
        """Append (c, s) columns for the pairs not yet present, in the order
        of the sequence `new_pairs`, as one block.

        Existing column indices and every row of the LP are kept as they are.
        """
        pairs = dict.fromkeys(starmap(canonical_pair, new_pairs))
        pairs = [p for p in pairs if ("c",) + p not in self.var_index]
        if pairs:
            v_max = self.network.v_max
            u = np.repeat([v_max[a] * v_max[b] for a, b in pairs], 2)
            keys = [(kind,) + p for p in pairs for kind in "cs"]
            self.backend.add_columns(keys, -u, u, np.zeros(len(keys)))
            self._added += tuple(pairs)
            self._pairs = tuple(sorted(self._pairs + tuple(pairs)))

    def cs_pairs(self) -> tuple:
        """Every pair with (c, s) columns, sorted."""
        return self._pairs

    def has_variable(self, key) -> bool:
        """`key` is a column or a canonical (c|s, a, b) pair of buses."""
        if key in self.var_index:
            return True
        bus = self.network.v_max
        return isinstance(key, tuple) and len(key) == 3 \
            and key[0] in ("c", "s") and key[1] in bus and key[2] in bus \
            and key[1] < key[2]

    def add_cut_row(self, cuts: CutBlock):
        """Append the rows sum(coeff * column of key) >= rhs of the block
        `cuts` as one block of cut rows.

        The one place where keys become columns.  Zero coefficients are
        left out; a key without a column raises ModelError, adding nothing.
        """
        keys = cuts.keys.tolist()
        try:
            cols = np.fromiter(map(self.var_index.__getitem__, keys),
                               np.int32, len(keys))
        except KeyError as exc:
            raise ModelError("unknown variable %r" % (exc.args[0],)) from None
        nonzero = cuts.coeff != 0.0
        self.backend.add_rows(
            cols[nonzero], cuts.coeff[nonzero],
            np.bincount(cuts.cut_of[nonzero], minlength=len(cuts)),
            cuts.rhs, np.ones(len(cuts), bool), cut=True)

    def remove_cut_row(self, positions):
        """Remove the cut rows at `positions` among the cut rows."""
        self.backend.remove_rows(positions)

    def clique_matrix(self, y: np.ndarray, cliques) -> np.ndarray:
        """Hermitian stack (M, n, n) of X_i(y) over M bus tuples of size n
        at the point `y`: v2 on the diagonal, c + js off it, s signed by the
        tuple's order."""
        key = (self._added, tuple(cliques))
        gathers = self.network.gathers
        if key not in gathers:
            gathers[key] = self._gather_index(key[1])
        re_idx, im_idx, im_sign = gathers[key]
        x = np.empty(re_idx.shape, dtype=complex)
        x.real, x.imag = y[re_idx], y[im_idx] * im_sign
        return x

    def stack_plan(self, cliques: tuple) -> StackPlan:
        """The `separation.StackPlan` of the bus tuples `cliques`, made
        once per network and tuple."""
        plan = self.network.plans.get(cliques) or StackPlan.of(cliques)
        return self.network.plans.setdefault(cliques, plan)

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
        arrays = tuple(np.reshape(v, shape) for v in (re_idx, im_idx, sign))
        for a in arrays:
            a.flags.writeable = False
        return arrays


def build_m0(case: CaseData) -> RelaxationModel:
    """Build the base linearly constrained relaxation for a validated case."""
    return RelaxationModel(case)
