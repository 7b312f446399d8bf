import cmath
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from opfcuts import relaxation
from opfcuts.case_io import (Branch, Bus, CaseData, CostFunction, Generator,
                             parse_case, perturb_loads)
from opfcuts.driver import RunConfig, cutplane
from opfcuts.errors import LpBackendError, ModelError
from opfcuts.network import branch_admittance, canonical_pair
from opfcuts.relaxation import build_m0

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
    res = model.solve()
    assert res.status == "optimal"
    assert res.objective >= 0.5 - 1e-6


def test_case14_m0_is_valid_bound(case14):
    model = build_m0(case14)
    res = model.solve()
    assert res.status == "optimal"
    assert res.objective <= 8081.18 * (1 + 1e-6)


def test_zero_load_zero_cost():
    text = TWO_BUS.replace("2 1 0.5 0", "2 1 0 0")
    model = build_m0(parse_case(text))
    res = model.solve()
    assert res.objective == pytest.approx(0.0, abs=1e-8)


def _solved_with(model, values):
    model._solution = np.zeros(len(model.backend.objective))
    for key, val in values.items():
        model._solution[model.var_index[key]] = val
    return model


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
    _solved_with(model, vals)
    x = model.clique_matrix([(1, 2, 3)])[0]
    assert np.allclose(x, np.ones((3, 3)))


def test_clique_matrix_indefinite_point():
    model = _triangle_model()
    vals = {("v2", b): 1.0 for b in (1, 2, 3)}
    for p, c in zip([(1, 2), (2, 3), (1, 3)], [1.0, 1.0, -1.0]):
        vals[("c",) + p] = c
        vals[("s",) + p] = 0.0
    _solved_with(model, vals)
    x = model.clique_matrix([(1, 2, 3)])[0]
    assert np.linalg.eigvalsh(x)[0] < -0.5


def test_clique_matrix_orientation():
    model = _triangle_model()
    vals = {("v2", b): 1.0 for b in (1, 2, 3)}
    for p in [(1, 2), (2, 3), (1, 3)]:
        vals[("c",) + p] = 0.9
        vals[("s",) + p] = 0.1
    _solved_with(model, vals)
    fwd, rev = model.clique_matrix([(1, 2, 3), (3, 2, 1)])
    assert np.allclose(rev, fwd[::-1, ::-1].conj().T)
    assert np.allclose(rev, rev.conj().T)


def test_clique_matrix_unknown_pair(case14):
    model = build_m0(case14)
    model.solve()
    # (1, 4) is not a branch pair and has no c/s columns
    with pytest.raises(ModelError):
        model.clique_matrix([(1, 2, 4)])


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
    for idx, bkey in model.branch_keys.items():
        s_f, s_t = flows[idx]
        vals[("P", bkey, "f")] = s_f.real
        vals[("Q", bkey, "f")] = s_f.imag
        vals[("P", bkey, "t")] = s_t.real
        vals[("Q", bkey, "t")] = s_t.imag
    for idx, gkey in model.gen_keys.items():
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
        model.solve()  # moves the queued rows into the row store
        excess = np.array([
            sum(w * x[j] for j, w in zip(lp.cols[lp.row_of == i],
                                         lp.vals[lp.row_of == i])) - rhs
            for i, rhs in enumerate(lp.rhs)])
        assert np.all(np.abs(excess[~lp.ge]) < 1e-9)
        for key, idx in model.var_index.items():
            assert lp.lower[idx] - 1e-9 <= x[idx] <= lp.upper[idx] + 1e-9
        assert lp.ge.any()  # the cost epigraph supports
        assert lp.rows == {}  # base rows carry no id
        assert np.all(excess[lp.ge] >= -1e-9)


def test_case14_base_rows_store_no_zero_and_no_id(case14):
    """Lossless branches give zero flow coefficients; none is stored, and
    no base row has an id, so the backend's ids are cut rows only."""
    model = build_m0(case14)
    res = model.solve()
    assert res.status == "optimal"
    lp = model.backend
    assert len(lp.vals) and np.all(lp.vals != 0.0)
    assert lp.rows == {} and res.row_slack == {}


def test_extend_pairs_preserves_columns(case14):
    model = build_m0(case14)
    before = dict(model.var_index)
    # t is minimized and only bounded below, so this row binds at the optimum
    t_key = ("t", model.gen_keys[0])
    model.add_cut_row("r1", {t_key: 1.0}, 100.0)
    model.extend_pairs([(4, 6), (6, 9)])
    for key, idx in before.items():
        assert model.var_index[key] == idx
    assert ("c", 4, 6) in model.var_index
    assert "r1" in model.backend.rows
    res = model.solve()
    assert res.status == "optimal"
    assert res.row_slack["r1"] == pytest.approx(0.0, abs=1e-9)
    assert model.value(t_key) == pytest.approx(100.0)


def test_add_remove_cut_row(case14):
    model = build_m0(case14)
    base = model.solve().objective
    model.add_cut_row("r1", {("v2", 1): 1.0}, 1.1)
    with pytest.raises(LpBackendError):
        model.add_cut_row("r1", {("v2", 2): 1.0}, 1.1)
    with pytest.raises(ModelError):  # a zero coefficient is still checked
        model.add_cut_row("r2", {("v2", 1): 1.0, ("v2", 999): 0.0}, 1.1)
    assert list(model.backend.rows) == ["r1"]
    higher = model.solve().objective
    assert higher >= base - 1e-9
    model.remove_cut_row("r1")
    again = model.solve().objective
    assert again == pytest.approx(base, abs=1e-6)
    with pytest.raises(LpBackendError):
        model.remove_cut_row("r1")


def test_row_slack_matches_cut_violation(case14):
    """The LP's row slack, normalized, is the cut's own slack at the primal."""
    pool = cutplane(case14, RunConfig(max_rounds=4)).pool
    model = build_m0(case14)
    cuts = {h: c for h, c in pool.cuts.items()
            if model.has_variables(c.terms)}
    assert cuts
    for h, cut in cuts.items():
        model.add_cut_row(h, cut.terms, cut.rhs)
    res = model.solve()
    assert res.status == "optimal"
    for h, cut in cuts.items():
        values = {k: model.value(k) for k in cut.terms}
        assert res.row_slack[h] / cut.inf_norm \
            == pytest.approx(-cut.normalized_violation(values), abs=1e-9)


# -- the compiled network ---------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def two_tile(case14):
    """case14 tiled twice into a chain by the benchmark's tiler."""
    spec = importlib.util.spec_from_file_location(
        "tiler", ROOT / "perfbench" / "tiler.py")
    tiler = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tiler)
    return tiler.tile_case(case14, 2, 1)


def _formula_rows(model):
    """The base rows as the flow, balance and epigraph formulas give them,
    one dict {key: coeff} per row: (terms, rhs, ge)."""
    case = model.case
    rows = []
    for idx, bkey in model.branch_keys.items():
        br = case.branches[idx]
        a = branch_admittance(br)
        pair = canonical_pair(br.from_bus, br.to_bus)
        orient = 1.0 if br.from_bus < br.to_bus else -1.0
        c, s = ("c",) + pair, ("s",) + pair
        v2f, v2t = ("v2", br.from_bus), ("v2", br.to_bus)
        for flow, terms in (
                (("P", bkey, "f"), {v2f: -a.g_kk, c: -a.g_km,
                                    s: -a.b_km * orient}),
                (("P", bkey, "t"), {v2t: -a.g_mm, c: -a.g_mk,
                                    s: a.b_mk * orient}),
                (("Q", bkey, "f"), {v2f: a.b_kk, c: a.b_km,
                                    s: -a.g_km * orient}),
                (("Q", bkey, "t"), {v2t: a.b_mm, c: a.b_mk,
                                    s: a.g_mk * orient})):
            rows.append(({flow: 1.0, **terms}, 0.0, False))
    for b in case.buses:
        for flow, gen, shunt, load in (("P", "Pg", b.shunt_g, b.p_load),
                                       ("Q", "Qg", -b.shunt_b, b.q_load)):
            terms = {}
            for idx, bkey in model.branch_keys.items():
                br = case.branches[idx]
                if br.from_bus == b.id:
                    terms[(flow, bkey, "f")] = 1.0
                if br.to_bus == b.id:
                    terms[(flow, bkey, "t")] = 1.0
            terms[("v2", b.id)] = shunt
            for idx, gkey in model.gen_keys.items():
                if case.generators[idx].bus == b.id:
                    terms[(gen, gkey)] = -1.0
            rows.append((terms, -load, False))
    for idx, gkey in model.gen_keys.items():
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
    rows = _formula_rows(model)
    assert len(lp.rhs) == len(rows) and not lp._queue
    for i, (terms, rhs, ge) in enumerate(rows):
        kept = {k: w for k, w in terms.items() if w != 0.0}
        entries = lp.row_of == i
        assert lp.cols[entries].tolist() \
            == [model.var_index[k] for k in kept]
        assert lp.vals[entries].tolist() == list(kept.values())
        assert (lp.rhs[i], lp.ge[i]) == (rhs, ge)


def _snapshot(model):
    lp = model.backend
    return (list(lp.columns.items()),
            [a.tobytes() for a in (lp.lower, lp.upper, lp.objective, lp.cols,
                                   lp.vals, lp.row_of, lp.rhs, lp.ge)],
            dict(model.branch_keys), dict(model.gen_keys))


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
    for a in (net.cols, net.vals, net.sizes, net.rhs, net.ge, net.balance):
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
