import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from opfcuts import driver, relaxation, separation
from opfcuts.case_io import (Branch, Bus, CaseData, CostFunction, Generator,
                             parse_case, perturb_loads)
from opfcuts.driver import RunConfig, cutplane
from opfcuts.errors import LpBackendError, ModelError
from opfcuts.network import branch_admittance, canonical_pair
from opfcuts.relaxation import build_m0
from opfcuts.separation import CutBlock
from test_separation import rows_block


def _cuts(*rows):
    """The block of cuts (terms, rhs), each an eigen-cut on no tuple."""
    return rows_block([(terms, rhs, "eigen", (), 0.0) for terms, rhs in rows])

TWO_BUS = """
mpc.baseMVA = 1;
mpc.bus = [
    1 3 0   0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 0.5 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 10 -10 1 1 1 10 0;
];
mpc.branch = [
    1 2 0 0.1 0 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0 1 0;
];
"""


def test_two_bus_lossless_bound():
    model = build_m0(parse_case(TWO_BUS))
    res = model.backend.solve()
    assert res.status == "optimal"
    assert res.objective >= 0.5 - 1e-6


def test_case14_m0_is_valid_bound(case14):
    model = build_m0(case14)
    res = model.backend.solve()
    assert res.status == "optimal"
    assert res.objective <= 8081.18 * (1 + 1e-6)


def test_zero_load_zero_cost():
    text = TWO_BUS.replace("2 1 0.5 0", "2 1 0 0")
    model = build_m0(parse_case(text))
    res = model.backend.solve()
    assert res.objective == pytest.approx(0.0, abs=1e-8)


def _point(model, values):
    """The point with `values` at their keys' columns and 0 elsewhere."""
    y = np.zeros(len(model.backend.objective))
    for key, val in values.items():
        y[model.var_index[key]] = val
    return y


def _triangle_model():
    text = """
mpc.baseMVA = 1;
mpc.bus = [
    1 3 0 0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 0 0 0 0 1 1 0 0 1 1.1 0.9;
    3 1 0 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 10 -10 1 1 1 10 0;
];
mpc.branch = [
    1 2 0 0.1 0 0 0 0 0 0 1 -360 360;
    2 3 0 0.1 0 0 0 0 0 0 1 -360 360;
    1 3 0 0.1 0 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0 1 0;
];
"""
    return build_m0(parse_case(text))


def test_clique_matrix_rank_one_point():
    model = _triangle_model()
    vals = {("v2", b): 1.0 for b in (1, 2, 3)}
    for p in [(1, 2), (2, 3), (1, 3)]:
        vals[("c",) + p] = 1.0
        vals[("s",) + p] = 0.0
    x = model.clique_matrix(_point(model, vals), [(1, 2, 3)])[0]
    assert np.allclose(x, np.ones((3, 3)))


def test_clique_matrix_indefinite_point():
    model = _triangle_model()
    vals = {("v2", b): 1.0 for b in (1, 2, 3)}
    for p, c in zip([(1, 2), (2, 3), (1, 3)], [1.0, 1.0, -1.0]):
        vals[("c",) + p] = c
        vals[("s",) + p] = 0.0
    x = model.clique_matrix(_point(model, vals), [(1, 2, 3)])[0]
    assert np.linalg.eigvalsh(x)[0] < -0.5


def test_clique_matrix_orientation():
    model = _triangle_model()
    vals = {("v2", b): 1.0 for b in (1, 2, 3)}
    for p in [(1, 2), (2, 3), (1, 3)]:
        vals[("c",) + p] = 0.9
        vals[("s",) + p] = 0.1
    fwd, rev = model.clique_matrix(_point(model, vals),
                                   [(1, 2, 3), (3, 2, 1)])
    assert np.allclose(rev, fwd[::-1, ::-1].conj().T)
    assert np.allclose(rev, rev.conj().T)


def test_clique_matrix_unknown_pair(case14):
    model = build_m0(case14)
    y = model.backend.solve().primal
    # (1, 4) is not a branch pair and has no c/s columns
    with pytest.raises(ModelError):
        model.clique_matrix(y, [(1, 2, 4)])


def test_has_variable_truth_table(case14):
    """A key is a variable when it is a column, or a canonical (c|s, a, b)
    pair, a < b, on buses of the case."""
    model = build_m0(case14)
    table = {
        ("v2", 1): True, ("c", 1, 2): True, ("s", 4, 9): True,
        ("Pg", (1, 0)): True, ("t", (2, 0)): True,
        ("c", 1, 3): True, ("s", 1, 3): True,     # a fill pair
        ("c", 3, 1): False, ("s", 3, 1): False,   # the same, reversed
        ("c", 2, 1): False, ("c", 1, 1): False,
        ("c", 1, 999): False, ("s", 999, 1000): False,  # an unknown bus
        ("v2", 999): False,
        ("P", (1, 2, 0), "f"): True, ("Q", (1, 2, 0), "t"): True,
        ("P", (1, 2, 1), "f"): False, ("Q", (1, 999, 0), "t"): False,
    }
    assert {key: model.has_variable(key) for key in table} == table


def _reference_gather(model, cliques):
    """The clique_matrix index arrays of `cliques`, entry by entry."""
    idx = model.var_index

    def column(kind, a, b):
        return idx[("v2", a) if a == b else (kind,) + canonical_pair(a, b)]

    return ([[[column("c", a, b) for b in c] for a in c] for c in cliques],
            [[[column("s", a, b) for b in c] for a in c] for c in cliques],
            [[[float(np.sign(b - a)) for b in c] for a in c]
             for c in cliques])


@pytest.mark.parametrize("which", ["case14", "two_tile"])
def test_gather_indices_shared_by_the_networks_models(which, request,
                                                      monkeypatch):
    """The index arrays of every list a cold and a warm run gather equal a
    per-model build, and the warm run, on the cold run's columns, builds
    none of its own."""
    case = request.getfixturevalue(which)
    models, built = [], []

    def build(case):
        models.append(build_m0(case))
        return models[-1]

    gather_index = relaxation.RelaxationModel._gather_index
    monkeypatch.setattr(driver, "build_m0", build)
    monkeypatch.setattr(relaxation.RelaxationModel, "_gather_index",
                        lambda self, cliques: built.append(self) or
                        gather_index(self, cliques))
    relaxation._compile.cache_clear()
    cold = cutplane(case, RunConfig())
    warm = cutplane(perturb_loads(case, 3, 0.0, 0.01), RunConfig(),
                    warm=cold.pool)
    assert warm.num_rounds >= 1
    cold_model, warm_model = models
    assert warm_model.network is cold_model.network
    assert built and warm_model not in built
    gathers = cold_model.network.gathers
    for model in models + [build_m0(case)]:  # the last added no pairs
        mine = [key[1] for key in gathers if key[0] == model._added]
        assert mine
        for cliques in mine:
            arrays = gathers[model._added, cliques]
            assert [a.tolist() for a in arrays] \
                == list(_reference_gather(model, cliques))
            assert not any(a.flags.writeable for a in arrays)


def test_gather_indices_follow_the_column_order(case14):
    """Models that added the same pairs in another order get arrays of
    their own; a missing pair raises ModelError and caches nothing."""
    first, second = build_m0(case14), build_m0(case14)
    first.extend_pairs([(1, 3), (1, 4)])
    second.extend_pairs([(1, 4), (1, 3)])
    cliques = [(1, 2, 3), (1, 2, 4)]
    for model in (first, second):
        model.clique_matrix(_point(model, {}), cliques)
    gathers = first.network.gathers
    mine, theirs = (gathers[m._added, tuple(cliques)]
                    for m in (first, second))
    assert mine[0].tolist() != theirs[0].tolist()
    assert [a.tolist() for a in theirs] \
        == list(_reference_gather(second, cliques))
    size = len(gathers)
    with pytest.raises(ModelError):
        first.clique_matrix(_point(first, {}), [(1, 3, 6)])
    assert len(gathers) == size


def _random_case_and_point(rng, n_bus):
    """Random small grid plus an exactly feasible rank-one point."""
    volts = {b: rng.uniform(0.9, 1.1) * cmath.exp(1j * rng.uniform(-0.5, 0.5))
             for b in range(1, n_bus + 1)}
    edges = [(i, i + 1) for i in range(1, n_bus)]
    if n_bus >= 3 and rng.random() < 0.7:
        edges.append((1, n_bus))
    branches = tuple(
        Branch(a, b, float(rng.uniform(0.0, 0.05)),
               float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.0, 0.1)),
               tap=float(rng.uniform(0.95, 1.05)),
               shift=float(rng.uniform(-0.1, 0.1)))
        for a, b in edges)

    inj = {b: 0j for b in volts}
    flows = {}
    for idx, br in enumerate(branches):
        y = 1 / complex(br.r, br.x)
        ysh = 1j * br.b_charge / 2
        t = br.tap * cmath.exp(1j * br.shift)
        vf, vt = volts[br.from_bus], volts[br.to_bus]
        s_f = vf * ((y + ysh) / br.tap ** 2 * vf - y / t.conjugate() * vt).conjugate()
        s_t = vt * (-y / t * vf + (y + ysh) * vt).conjugate()
        flows[idx] = (s_f, s_t)
        inj[br.from_bus] += s_f
        inj[br.to_bus] += s_t

    buses, gens = [], []
    for b, v in volts.items():
        load = complex(rng.uniform(0.0, 0.5), rng.uniform(-0.2, 0.2))
        buses.append(Bus(b, load.real, load.imag, 0.5, 1.5))
        gen_out = inj[b] + load
        gens.append(Generator(b, gen_out.real - 1.0, gen_out.real + 1.0,
                              gen_out.imag - 1.0, gen_out.imag + 1.0,
                              CostFunction("polynomial", (0.0, 1.0, 0.0))))
    case = CaseData(base_mva=1.0, buses=tuple(buses), branches=branches,
                    generators=tuple(gens))

    vals = {}
    for b, v in volts.items():
        vals[("v2", b)] = abs(v) ** 2
    model = build_m0(case)
    for pair in model.cs_pairs():
        w = volts[pair[0]] * volts[pair[1]].conjugate()
        vals[("c",) + pair] = w.real
        vals[("s",) + pair] = w.imag
    for idx, bkey in model.network.branch_keys.items():
        s_f, s_t = flows[idx]
        vals[("P", bkey, "f")] = s_f.real
        vals[("Q", bkey, "f")] = s_f.imag
        vals[("P", bkey, "t")] = s_t.real
        vals[("Q", bkey, "t")] = s_t.imag
    for idx, gkey in model.network.gen_keys.items():
        g = case.generators[idx]
        p = 0.5 * (g.p_min + g.p_max)
        vals[("Pg", gkey)] = p
        vals[("Qg", gkey)] = 0.5 * (g.q_min + g.q_max)
        vals[("t", gkey)] = g.cost.value(p)
    return model, vals


def test_m0_soundness_random_grids():
    """Feasible AC points satisfy every base row and bound."""
    rng = np.random.default_rng(12)
    for _ in range(25):
        model, vals = _random_case_and_point(rng, int(rng.integers(2, 5)))
        lp = model.backend
        x = np.zeros(len(lp.objective))
        for key, val in vals.items():
            x[model.var_index[key]] = val
        model.backend.solve()  # moves the queued rows into the row store
        excess = np.array([
            sum(w * x[j] for j, w in zip(lp.cols[lp.row_of == i],
                                         lp.vals[lp.row_of == i])) - rhs
            for i, rhs in enumerate(lp.rhs)])
        assert np.all(np.abs(excess[~lp.ge]) < 1e-9)
        for key, idx in model.var_index.items():
            assert lp.lower[idx] - 1e-9 <= x[idx] <= lp.upper[idx] + 1e-9
        assert lp.ge.any()  # the cost epigraph supports
        assert lp.n_base == len(lp.rhs)  # every row is a base row
        assert np.all(excess[lp.ge] >= -1e-9)


def test_case14_base_rows_store_no_zero_and_no_id(case14):
    """Lossless branches give zero flow coefficients; none is stored, and
    every row of the base model is a base row, so it has no cut row."""
    model = build_m0(case14)
    res = model.backend.solve()
    assert res.status == "optimal"
    lp = model.backend
    assert len(lp.vals) and np.all(lp.vals != 0.0)
    assert lp.n_base == len(lp.rhs) and len(res.row_slack) == 0


def test_extend_pairs_preserves_columns(case14):
    model = build_m0(case14)
    before = dict(model.var_index)
    # t is minimized and only bounded below, so this row binds at the optimum
    t_key = ("t", model.network.gen_keys[0])
    model.add_cut_row(_cuts(({t_key: 1.0}, 100.0)))
    model.extend_pairs([(4, 6), (6, 9)])
    for key, idx in before.items():
        assert model.var_index[key] == idx
    assert ("c", 4, 6) in model.var_index
    assert len(model.backend.rhs) == model.backend.n_base + 1
    res = model.backend.solve()
    assert res.status == "optimal"
    assert res.row_slack.tolist() == pytest.approx([0.0], abs=1e-9)
    assert res.primal[model.var_index[t_key]] == pytest.approx(100.0)


def test_add_remove_cut_row(case14):
    model = build_m0(case14)
    base = model.backend.solve().objective
    model.add_cut_row(_cuts(({("v2", 1): 1.0}, 1.1)))
    with pytest.raises(ModelError):  # a zero coefficient is still checked
        model.add_cut_row(_cuts(({("v2", 1): 1.0, ("v2", 999): 0.0}, 1.1)))
    n_base = model.backend.n_base
    assert len(model.backend.rhs) == n_base + 1
    higher = model.backend.solve().objective
    assert higher >= base - 1e-9
    model.remove_cut_row([0])
    assert len(model.backend.rhs) == model.backend.n_base == n_base
    again = model.backend.solve().objective
    assert again == pytest.approx(base, abs=1e-6)
    with pytest.raises(LpBackendError):
        model.remove_cut_row([0])


def test_row_slack_matches_cut_violation(case14):
    """The LP's row slack, normalized, is the cut's own slack at the primal."""
    pool = cutplane(case14, RunConfig(max_rounds=4)).pool
    model = build_m0(case14)
    keep = ~pool.cuts.naming(lambda key: not model.has_variable(key))
    cuts = pool.cuts.take(keep)
    assert len(cuts)
    model.add_cut_row(cuts)
    res = model.backend.solve()
    assert res.status == "optimal"
    assert len(res.row_slack) == len(cuts)
    for slack, cut in zip(res.row_slack.tolist(), cuts):
        values = {k: float(res.primal[model.var_index[k]])
                  for k in cut.terms}
        assert slack / cut.inf_norm \
            == pytest.approx(-cut.normalized_violation(values), abs=1e-9)


def test_cut_block_rows_equal_one_by_one(case14, cold_report):
    """A block's LP rows equal its cuts' rows added one at a time, entry
    for entry, zero coefficients left out; so do those the formula gives,
    a row per cut."""
    pool = cold_report.pool
    t_key, pg_key = ("t", (1, 0)), ("Pg", (1, 0))
    zeros = _cuts(({t_key: 1.0, pg_key: 0.0}, 2.0),
                  ({("v2", 1): 0.0, ("v2", 2): -1.0}, -1.5))
    cuts = CutBlock.concat(pool.cuts, zeros)
    block, one_by_one = build_m0(case14), build_m0(case14)
    for model in (block, one_by_one):
        model.extend_pairs(sorted({key[1:] for cut in cuts for key in cut.terms
                                   if key[0] in ("c", "s")}))
    block.add_cut_row(cuts)
    for i in range(len(cuts)):
        one_by_one.add_cut_row(cuts.take([i]))
    a, b = block.backend, one_by_one.backend
    for name in ("cols", "vals", "row_of", "rhs", "ge"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a.n_base == b.n_base == len(a.rhs) - len(cuts)
    for cut, row in zip(cuts, range(a.n_base, len(a.rhs))):
        kept = {k: w for k, w in cut.terms.items() if w != 0.0}
        entries = a.row_of == row
        assert a.cols[entries].tolist() == [block.var_index[k] for k in kept]
        assert a.vals[entries].tolist() == list(kept.values())
        assert (a.rhs[row], a.ge[row]) == (cut.rhs, True)
    assert len(kept) == 1


# -- the compiled network ---------------------------------------------------

@pytest.fixture(scope="module")
def two_tile(case14, tiler):
    """case14 tiled twice into a chain by the benchmark's tiler."""
    return tiler.tile_case(case14, 2, 1)


def _formula_rows(case, model):
    """The base rows of `case` as the flow, balance and epigraph formulas
    give them, one dict {key: coeff} per row: (terms, rhs, ge)."""
    rows = []
    for idx, bkey in model.network.branch_keys.items():
        br = case.branches[idx]
        y_ff, y_ft, y_tf, y_tt = branch_admittance(br)
        pair = canonical_pair(br.from_bus, br.to_bus)
        orient = 1.0 if br.from_bus < br.to_bus else -1.0
        c, s = ("c",) + pair, ("s",) + pair
        v2f, v2t = ("v2", br.from_bus), ("v2", br.to_bus)
        for flow, terms in (
                (("P", bkey, "f"), {v2f: -y_ff.real, c: -y_ft.real,
                                    s: -y_ft.imag * orient}),
                (("P", bkey, "t"), {v2t: -y_tt.real, c: -y_tf.real,
                                    s: y_tf.imag * orient}),
                (("Q", bkey, "f"), {v2f: y_ff.imag, c: y_ft.imag,
                                    s: -y_ft.real * orient}),
                (("Q", bkey, "t"), {v2t: y_tt.imag, c: y_tf.imag,
                                    s: y_tf.real * orient})):
            rows.append(({flow: 1.0, **terms}, 0.0, False))
    for b in case.buses:
        for flow, gen, shunt, load in (("P", "Pg", b.shunt_g, b.p_load),
                                       ("Q", "Qg", -b.shunt_b, b.q_load)):
            terms = {}
            for idx, bkey in model.network.branch_keys.items():
                br = case.branches[idx]
                if br.from_bus == b.id:
                    terms[(flow, bkey, "f")] = 1.0
                if br.to_bus == b.id:
                    terms[(flow, bkey, "t")] = 1.0
            terms[("v2", b.id)] = shunt
            for idx, gkey in model.network.gen_keys.items():
                if case.generators[idx].bus == b.id:
                    terms[(gen, gkey)] = -1.0
            rows.append((terms, -load, False))
    for idx, gkey in model.network.gen_keys.items():
        cost = case.generators[idx].cost
        g = case.generators[idx]
        anchors = [0.0] if cost.coefficients[0] == 0.0 else sorted(
            {g.p_min, g.p_max, 0.5 * (g.p_min + g.p_max)})
        for p in anchors:
            slope = cost.derivative(p)
            rows.append(({("t", gkey): 1.0, ("Pg", gkey): -slope},
                         cost.value(p) - slope * p, True))
    return rows


@pytest.mark.parametrize("which", ["case14", "two_tile"])
def test_store_matches_the_formulas(which, request):
    """Every base row of the store is its formula, entry for entry: the
    same columns in the same order and the same coefficients, zeros left
    out."""
    case = request.getfixturevalue(which)
    model = build_m0(case)
    lp = model.backend
    rows = _formula_rows(case, model)
    assert len(lp.rhs) == len(rows)
    for i, (terms, rhs, ge) in enumerate(rows):
        kept = {k: w for k, w in terms.items() if w != 0.0}
        entries = lp.row_of == i
        assert lp.cols[entries].tolist() \
            == [model.var_index[k] for k in kept]
        assert lp.vals[entries].tolist() == list(kept.values())
        assert (lp.rhs[i], lp.ge[i]) == (rhs, ge)


def test_pwl_epigraph_rows_are_its_segment_supports(case14_pwl):
    """A pwl cost's epigraph rows t - slope Pg >= intercept are its
    segment supports, in order."""
    model = build_m0(case14_pwl)
    lp, gkey = model.backend, model.network.gen_keys[0]
    t_col = model.var_index[("t", gkey)]
    pg_col = model.var_index[("Pg", gkey)]
    rows = np.unique(lp.row_of[lp.cols == t_col])
    got = []
    for i in rows:
        entries = lp.row_of == i
        assert lp.ge[i]
        assert lp.cols[entries].tolist() == [t_col, pg_col]
        assert lp.vals[entries][0] == 1.0
        got.append((-lp.vals[entries][1], lp.rhs[i]))
    assert got == case14_pwl.generators[0].cost.segment_supports()


def _snapshot(model):
    lp = model.backend
    return (list(lp.columns.items()),
            [a.tobytes() for a in (lp.lower, lp.upper, lp.objective, lp.cols,
                                   lp.vals, lp.row_of, lp.rhs, lp.ge)],
            dict(model.network.branch_keys), dict(model.network.gen_keys))


def _trajectory(case):
    return [(st.objective.hex(), st.bound.hex())
            for st in cutplane(case, RunConfig()).rounds]


def test_shared_network_builds_like_a_fresh_one(case14):
    """A perturbed case built after another case of its network shares
    that compiled network and gets the model, and the trajectory, of a
    build with an empty map."""
    perturbed = perturb_loads(case14, 7, 0.0, 0.05)
    first = build_m0(case14)
    shared = build_m0(perturbed)
    assert shared.network is first.network
    warm = _snapshot(shared), _trajectory(perturbed)
    relaxation._compile.cache_clear()
    fresh = build_m0(perturbed)
    assert fresh.network is not first.network
    assert (_snapshot(fresh), _trajectory(perturbed)) == warm


def _bus(case, i, **change):
    buses = list(case.buses)
    buses[i] = replace(buses[i], **change)
    return replace(case, buses=tuple(buses))


def _branch(case, i, **change):
    branches = list(case.branches)
    branches[i] = replace(branches[i], **change)
    return replace(case, branches=tuple(branches))


def _generator(case, i, **change):
    gens = list(case.generators)
    gens[i] = replace(gens[i], **change)
    return replace(case, generators=tuple(gens))


@pytest.mark.parametrize("change", [
    lambda c: _branch(c, 3, x=c.branches[3].x * 1.01),
    lambda c: _bus(c, 5, v_max=c.buses[5].v_max + 0.01),
    lambda c: _bus(c, 8, shunt_b=c.buses[8].shunt_b + 0.01),
    lambda c: _bus(c, 2, shunt_g=0.01),
    lambda c: _generator(c, 1, cost=CostFunction("polynomial",
                                                 (0.5, 20.0, 0.0))),
    lambda c: _generator(c, 4, status=0),
], ids=["branch_x", "bus_v_max", "bus_shunt_b", "bus_shunt_g",
        "generator_cost", "generator_status"])
def test_other_network_gets_its_own(case14, change):
    other = change(case14)
    assert other != case14
    model = build_m0(other)
    assert model.network is not build_m0(case14).network
    assert model.network is build_m0(other).network


def test_loads_and_name_share_the_network(case14):
    other = replace(_bus(perturb_loads(case14, 3, 0.0, 0.1), 0,
                         p_load=0.25, q_load=-0.1), name="renamed")
    assert build_m0(other).network is build_m0(case14).network


def test_shared_network_is_read_only_and_bounded(case14):
    net = build_m0(case14).network
    for a in (net.cols, net.vals, net.sizes, net.rhs, net.ge, net.balance,
              *net.limits, *net.costs):
        with pytest.raises(ValueError):
            a[:1] = a[:1]
    with pytest.raises(TypeError):
        net.branch_keys[0] = None
    model = build_m0(case14)
    model.extend_pairs([(4, 6)])
    assert ("c", 4, 6) not in net.keys and ("c", 4, 6) in model.var_index
    assert ("c", 4, 6) not in build_m0(case14).var_index
    for i in range(relaxation.NETWORKS_KEPT + 2):
        build_m0(_bus(case14, 0, v_max=1.2 + 0.01 * i))
    assert relaxation._compile.cache_info().currsize \
        == relaxation.NETWORKS_KEPT
    assert build_m0(case14).network is not net  # pushed out, built anew


# -- the tangent tables ----------------------------------------------------

def _tangent_rows(case, model, y):
    """The round's limit, then cost tangents at the point `y`, one by one
    from lookups of the flow and generation keys: (terms, rhs, kind,
    provenance, violation) rows."""
    t = separation.VIOLATION_THRESHOLD

    def value(key):
        return float(y[model.var_index[key]])

    rows = []
    for idx, bkey in model.network.branch_keys.items():
        u = case.branches[idx].rate_a
        for d in ("f", "t") if u is not None else ():
            p, q = value(("P", bkey, d)), value(("Q", bkey, d))
            norm = math.sqrt(p * p + q * q)
            if norm and (norm - u) / max(abs(p), abs(q)) >= t:
                rows.append(({("P", bkey, d): -p, ("Q", bkey, d): -q},
                             -u * norm, "limit", (bkey, d), norm - u))
    for idx, gkey in model.network.gen_keys.items():
        cost = case.generators[idx].cost
        if cost.kind != "polynomial" or cost.coefficients[0] == 0.0:
            continue
        p, t_hat = value(("Pg", gkey)), value(("t", gkey))
        f, slope = cost.value(p), cost.derivative(p)
        if (f - t_hat) / max(abs(slope), 1.0) >= t:
            rows.append(({("t", gkey): 1.0, ("Pg", gkey): -slope},
                         f - slope * p, "cost_tangent", (gkey,), f - t_hat))
    return rows


def _bits(block):
    """The columns of a block, floats by their bytes."""
    return [a.tolist() if a.dtype == object else (a.dtype.str, a.tobytes())
            for a in vars(block).values()]


def test_tangents_from_the_tables_equal_the_key_lookups(two_tile,
                                                        monkeypatch):
    """At every round of a cold run, the tangents built from the network's
    tables equal those built from the keys one by one, bit for bit."""
    kinds = []
    separate = driver._separate

    def checked(model, y, cliques):
        net = model.network
        got = CutBlock.concat(separation.limit_cut(y, *net.limits),
                              separation.cost_cut(y, *net.costs))
        assert _bits(got) == _bits(rows_block(_tangent_rows(two_tile, model,
                                                            y)))
        kinds.extend(got.kind.tolist())
        return separate(model, y, cliques)

    monkeypatch.setattr(driver, "_separate", checked)
    report = cutplane(two_tile, RunConfig())
    assert len(kinds) and report.num_rounds > 1
    assert "limit" in kinds and "cost_tangent" in kinds


def test_tangent_tables_hold_the_limited_ends_and_quadratic_costs(case14):
    """A pwl or linear cost, an out-of-service branch and a branch without
    a limit add no table row; a limited branch adds its f row, then its t
    row, and a quadratic cost its row, each with its columns' keys."""
    pwl = CostFunction("pwl", breakpoints=((0.0, 0.0), (1.0, 10.0),
                                           (2.0, 30.0)))
    case = _generator(_generator(case14, 0, cost=pwl), 1,
                      cost=CostFunction("polynomial", (0.0, 20.0, 0.0)))
    case = _branch(_branch(_branch(case, 2, rate_a=1.5), 5, rate_a=2.0,
                           status=0), 7, rate_a=None)
    model = build_m0(case)
    net, at = model.network, model.var_index
    cols, rate, keys = net.limits
    bkey = net.branch_keys[2]
    assert keys.tolist() == [[("P", bkey, "f"), ("Q", bkey, "f")],
                             [("P", bkey, "t"), ("Q", bkey, "t")]]
    assert rate.tolist() == [1.5, 1.5]
    assert cols.tolist() == [[at[k] for k in row] for row in keys.tolist()]
    cols, coefficients, keys = net.costs
    quadratic = [2, 3, 4]
    assert keys.tolist() == [[("Pg", net.gen_keys[i]),
                              ("t", net.gen_keys[i])] for i in quadratic]
    assert coefficients.tolist() == [list(case.generators[i].cost.coefficients)
                                     for i in quadratic]
    assert cols.tolist() == [[at[k] for k in row] for row in keys.tolist()]
    assert len(build_m0(case14).network.limits[0]) == 0  # case14 has none


# -- the round's separation against a per-matrix reference -----------------

def _reference_matrix_rows(model, y, tuples, kind):
    """The round's matrix cuts of one list of bus tuples, one matrix at a
    time: one `np.linalg.eigh` call per matrix, and the eigen (or Jabr),
    projection and pairing rules written out.  Rows as `_tangent_rows`
    gives them, eigen-cuts first, then projection cuts."""
    t = separation.VIOLATION_THRESHOLD

    def value(key):
        return float(y[model.var_index[key]])

    def entry(a, b):
        if a == b:
            return complex(value(("v2", a)), 0.0)
        pair = canonical_pair(a, b)
        c, s = value(("c",) + pair), value(("s",) + pair)
        return complex(c, s if a < b else -s)

    def row(buses, a, violation, kind):
        """The cut <a, X> >= 0 on `buses`, unless too little violated."""
        n = len(buses)
        terms, entries = {}, []
        for i in range(n):
            terms[("v2", buses[i])] = a[i, i].real
            entries.append(a[i, i].real)
        for i in range(n):
            for j in range(i + 1, n):
                off = 2.0 * a[i, j]
                pair = canonical_pair(buses[i], buses[j])
                terms[("c",) + pair] = off.real
                terms[("s",) + pair] = off.imag if buses[i] < buses[j] \
                    else -off.imag
                entries += [off.real, off.imag]
        norm = max(abs(v) for v in entries)
        if violation / norm < t:
            return None
        return ({k: float(w) for k, w in terms.items() if w != 0.0}, 0.0,
                kind, buses, float(violation))

    eigen_rows, projection_rows = [], []
    for buses in tuples:
        n = len(buses)
        x = np.array([[entry(a, b) for b in buses] for a in buses])
        lam, q = np.linalg.eigh(x)
        lam, q = lam[::-1], q[:, ::-1]  # nonincreasing
        trace = 0.0
        for i in range(n):
            trace += x[i, i].real
        cutoff = -separation.PSD_TOL * max(1.0, trace)
        e = p = None
        if lam[-1] < cutoff:
            e = row(buses, np.outer(q[:, -1], q[:, -1].conj()), -lam[-1],
                    kind)
        if kind != "jabr" and sum(v < cutoff for v in lam) == 2:
            a, violation = np.zeros((n, n), complex), 0.0
            for i in range(n):
                w = -lam[i] if lam[i] < cutoff else 0.0
                a = a + w * np.outer(q[:, i], q[:, i].conj())
                violation += w * w
            p = row(buses, a, violation, "projection")
        if e is not None and p is not None and set(e[0]) == set(p[0]):
            dot = na = nb = 0.0
            for key, w in p[0].items():
                dot += w * e[0][key]
                na += w * w
            for w in e[0].values():
                nb += w * w
            if abs(dot / math.sqrt(na * nb)) > separation.COSINE_BOUND:
                if p[4] > e[4]:
                    e = None
                else:
                    p = None
        eigen_rows += [e] if e is not None else []
        projection_rows += [p] if p is not None else []
    return eigen_rows + projection_rows


@pytest.mark.parametrize("which", ["case14", "two_tile"])
def test_separation_equals_the_per_matrix_reference(which, request,
                                                   monkeypatch):
    """At every round of a cold run, `_separate` gives the Jabr cuts, the
    tangents and each clique size's eigen and projection cuts of the
    per-matrix reference, in that order: kinds, provenance, sizes, keys,
    coefficients and numbers bit for bit."""
    case = request.getfixturevalue(which)
    seen = []
    separate = driver._separate

    def checked(model, y, cliques):
        cuts, spectra = separate(model, y, cliques)
        pairs = sorted(key[1:] for key in model.var_index if key[0] == "c")
        rows = _reference_matrix_rows(model, y, pairs, "jabr") \
            + _tangent_rows(case, model, y)
        for group in cliques.by_size:
            rows += _reference_matrix_rows(model, y, group, "eigen")
        assert _bits(cuts) == _bits(rows_block(rows))
        seen.extend(cuts.kind.tolist())
        return cuts, spectra

    monkeypatch.setattr(driver, "_separate", checked)
    report = cutplane(case, RunConfig())
    assert report.num_rounds > 1
    assert {"jabr", "eigen", "projection", "cost_tangent"} <= set(seen)
