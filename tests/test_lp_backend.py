import dataclasses
import importlib.machinery
import importlib.util
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.optimize import linprog

from opfcuts import lp_backend
from opfcuts.driver import RunConfig, cutplane
from opfcuts.errors import LpBackendError
from opfcuts.lp_backend import CERTIFY_TOL, SavedBasis, ScipyHighsBackend
from test_acceptance import BAND_HI, BAND_LO


def _add_row(be, cols, coeffs, rhs, ge=True, cut=True):
    """Add the row a.x >= rhs, or a.x = rhs when not `ge`, as a block of
    one: a cut row, or a base row when not `cut`."""
    be.add_rows(np.array(cols, np.int32), np.array(coeffs, float),
                [len(cols)], np.array([rhs], float), np.array([ge]), cut)


def _add_column(be, key, lower, upper, obj=0.0):
    be.add_columns([key], [lower], [upper], [obj])


def _backend(objective, lower, upper, eq_rows=()):
    be = ScipyHighsBackend()
    be.add_columns(list(range(len(objective))), lower, upper, objective)
    for row in eq_rows:
        _add_row(be, *row, ge=False, cut=False)
    return be


def _loaded(lower=0.0, upper=10.0):
    return _backend([1.0], [lower], [upper])


def test_duplicate_column_key_raises():
    be = _loaded()
    with pytest.raises(LpBackendError, match="duplicate column key 0"):
        _add_column(be, 0, 0.0, 1.0)
    assert be.columns == {0: 0} and len(be.objective) == 1


def test_minimize_with_single_row():
    be = _loaded()
    _add_row(be, [0], [1.0], 1.0)
    res = be.solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)
    assert res.primal[0] == pytest.approx(1.0)
    assert res.primal_residual <= 1e-8


def test_tighten_then_relax():
    be = _loaded()
    _add_row(be, [0], [1.0], 1.0)
    _add_row(be, [0], [1.0], 2.0)
    res = be.solve()
    assert res.objective == pytest.approx(2.0)
    assert (be.n_base, len(be.rhs)) == (0, 2)
    assert res.row_slack.tolist() == pytest.approx([1.0, 0.0])
    be.remove_rows([1])
    assert be.solve().objective == pytest.approx(1.0)


def test_stopped_solve_gives_every_cut_row_a_zero_slack(monkeypatch):
    """A solve stopped at a limit has no primal point, and still gives one
    slack per cut row, 0, so every cut counts as tight."""
    be = _backend([1.0, 1.0], [0.0, 0.0], [10.0, 10.0],
                  eq_rows=[([0, 1], [1.0, -1.0], 0.0)])
    _add_row(be, [0], [1.0], 1.0)
    _add_row(be, [1], [1.0], 2.0)
    run = lp_backend.linprog

    def stopped(highs):
        run(highs)
        return "limit"

    monkeypatch.setattr(lp_backend, "linprog", stopped)
    res = be.solve()
    assert (res.status, res.primal) == ("limit", None)
    assert res.row_slack.tolist() == [0.0, 0.0]


def test_hot_resolve_prices_with_devex():
    """Row edits drop HiGHS's steepest-edge weights, so the persistent
    model prices with Devex (strategy 1) rather than rebuild them."""
    be = _loaded()
    _add_row(be, [0], [1.0], 1.0)
    be.solve()
    _add_row(be, [0], [1.0], 2.0)
    assert be.solve().objective == pytest.approx(2.0)
    status, strategy = be._highs.getOptionValue(
        "simplex_dual_edge_weight_strategy")
    assert (status, strategy) == (lp_backend._highs.HighsStatus.kOk, 1)


def _three_rows():
    """min x0 + 2 x1 over [0, 10]^2 with one base row and two cut rows;
    the slack basis is primal infeasible."""
    be = _backend([1.0, 2.0], [0.0, 0.0], [10.0, 10.0])
    _add_row(be, [0, 1], [1.0, 1.0], 3.0, cut=False)
    _add_row(be, [0], [1.0], 1.0)
    _add_row(be, [1], [1.0], 0.5)
    return be


def test_saved_basis_starts_a_twin_at_its_optimum():
    first = _three_rows()
    solved = first.solve()
    assert solved.iterations > 0
    saved = first.last_basis().saved()
    assert (set(saved.columns), len(saved.base_rows), len(saved.cuts)) \
        == ({0, 1}, 1, 2)
    assert "".join([*saved.columns.values(), saved.base_rows,
                    saved.cuts]).count("B") == 3
    twin = _three_rows()
    assert twin.start_basis(saved) is None
    res = twin.solve()
    assert res.iterations == 0
    assert res.objective == solved.objective


def _count_linprog(monkeypatch):
    """The list that gets one entry per HiGHS run from now on."""
    calls = []

    def counted(highs):
        calls.append(1)
        return run(highs)

    run = lp_backend.linprog
    monkeypatch.setattr(lp_backend, "linprog", counted)
    return calls


def test_unedited_lp_solves_again_to_the_same_result(monkeypatch):
    """A solve with no edit since the last optimal one runs HiGHS again,
    which returns that result bit for bit, with 0 iterations."""
    calls = _count_linprog(monkeypatch)
    be = _three_rows()
    first = be.solve()
    again = be.solve()
    assert len(calls) == 2
    assert first.iterations > 0 and again.iterations == 0
    assert (again.status, again.objective, again.dual_bound,
            again.row_slack.tolist()) == (first.status, first.objective,
                                          first.dual_bound,
                                          first.row_slack.tolist())
    assert again.primal.tolist() == first.primal.tolist()


def test_start_basis_fills_what_it_lacks():
    """A column the basis lacks starts nonbasic at a bound, a cut row
    without a letter starts basic; here that is still optimal."""
    first = _three_rows()
    first.solve()
    saved = first.last_basis().saved()
    twin = _three_rows()
    _add_column(twin, "new", -np.inf, 5.0)
    _add_row(twin, [0], [1.0], 0.0)
    assert twin.start_basis(dataclasses.replace(
        saved, cuts=saved.cuts + "-")) is None
    assert twin.solve().iterations == 0
    basis = twin.last_basis().saved()
    assert (basis.columns["new"], basis.cuts[2]) == ("U", "B")


def _named(order):
    """min x0 + 2 x1 over [0, 10]^2 with x0 + x1 >= 3 and x0 >= 1, its
    columns added in `order`; at the optimum x0 is basic and x1 is not."""
    cost = {"x0": 1.0, "x1": 2.0}
    be = ScipyHighsBackend()
    for key in order:
        _add_column(be, key, 0.0, 10.0, cost[key])
    x0, x1 = be.columns["x0"], be.columns["x1"]
    _add_row(be, [x0, x1], [1.0, 1.0], 3.0, cut=False)
    _add_row(be, [x0], [1.0], 1.0)
    return be


def test_basis_restores_by_name_onto_a_reordered_twin():
    """Columns are matched by key, not by position: a basis read from one
    backend starts a twin whose columns came in the other order at its
    optimum."""
    first = _named(["x0", "x1"])
    solved = first.solve()
    assert solved.iterations > 0
    saved = first.last_basis().saved()
    assert saved.columns == {"x0": "B", "x1": "L"}
    twin = _named(["x1", "x0"])
    assert twin.start_basis(saved) is None
    res = twin.solve()
    assert res.iterations == 0
    assert res.objective == solved.objective
    assert twin.last_basis().saved() == saved


def test_basis_leaves_out_rows_edited_since_the_solve():
    """At the optimum cut row 0 (x0 >= 1) is slack, so basic, and cut row
    1 (x1 >= 0.5) tight.  Removing the slack row keeps HiGHS's basis, the
    other row's letter moving up; a cut row and a column added since the
    solve have no letter."""
    be = _three_rows()
    be.solve()
    assert be.last_basis().saved().cuts == "BL"
    be.remove_rows([0])
    _add_row(be, [0], [1.0], 0.0)
    _add_column(be, "new", 0.0, 1.0)
    saved = be.last_basis().saved()
    assert len(saved.base_rows) == 1 and saved.cuts == "L-"
    assert set(saved.columns) == {0, 1}
    # removing a tight row leaves HiGHS no valid basis until the next solve
    be.remove_rows([0])
    assert be.last_basis() is None
    assert be.solve().status == "optimal"
    assert be.last_basis().saved().cuts == "B"


def test_start_basis_refusals():
    """A basis of the wrong shape is refused before HiGHS sees it."""
    be = _three_rows()
    assert _three_rows().last_basis() is None  # no solve yet
    assert "base rows" in be.start_basis(SavedBasis({}, "BB", "--"))
    assert "cut rows" in be.start_basis(SavedBasis({}, "B", "-"))
    # every column basic, and every row but base rows: 2 + 2 for 3 rows
    assert "basic" in be.start_basis(SavedBasis({0: "B", 1: "B"}, "L",
                                                "--"))
    res = be.solve()  # from the slack basis
    assert res.status == "optimal" and res.iterations > 0


def test_infeasible():
    be = _loaded(upper=0.5)
    _add_row(be, [0], [1.0], 1.0)
    res = be.solve()
    assert res.status == "infeasible"
    assert res.objective is None
    assert res.dual_bound == -np.inf


def test_equality_rows():
    be = _backend([1.0, 1.0], [0.0, 0.0], [5.0, 5.0],
                  [([0, 1], [1.0, 1.0], 3.0)])
    res = be.solve()
    assert res.objective == pytest.approx(3.0)


def test_many_row_edits_idempotent():
    be = _loaded()
    base = be.solve().objective
    for i in range(1000):
        _add_row(be, [0], [1.0], 0.001 * i)
    assert be.solve().objective == pytest.approx(0.999)
    be.remove_rows(list(range(1000)))
    assert len(be.rhs) == be.n_base == 0
    assert be.solve().objective == pytest.approx(base)


def test_position_out_of_range_rejected():
    """A position names a cut row: one past the last cut row, a negative
    one, or one left after a removal raises, before or after a solve,
    and removes none."""
    be = _loaded()
    _add_row(be, [0], [1.0], 0.0, cut=False)
    _add_row(be, [0], [1.0], 1.0)
    for positions in ([1], [-1], [0, 1]):
        with pytest.raises(LpBackendError, match="no cut row at position"):
            be.remove_rows(positions)
        assert (be.n_base, len(be.rhs)) == (1, 2)
    assert be.solve().status == "optimal"
    with pytest.raises(LpBackendError, match="no cut row at position 1"):
        be.remove_rows([0, 1])
    be.remove_rows([0])
    with pytest.raises(LpBackendError, match="no cut row at position 0"):
        be.remove_rows([0])
    assert (be.n_base, len(be.rhs)) == (1, 1)


def test_base_row_after_a_cut_row_raises():
    """Base rows come before every cut row: one after a cut row raises and
    adds none."""
    be = _loaded()
    _add_row(be, [0], [1.0], 0.0, cut=False)
    _add_row(be, [0], [1.0], 0.5, cut=False)
    _add_row(be, [0], [1.0], 1.0)
    with pytest.raises(LpBackendError, match="a base row after a cut row"):
        _add_row(be, [0], [1.0], 2.0, cut=False)
    assert (be.n_base, len(be.rhs)) == (2, 3)
    assert be.solve().objective == pytest.approx(1.0)


def test_empty_model_rejected():
    with pytest.raises(LpBackendError):
        ScipyHighsBackend().solve()


def test_deterministic_repeat():
    rng = np.random.default_rng(30)
    n = 20
    c = rng.standard_normal(n)
    lo, up = -np.ones(n), np.ones(n)

    def run():
        be = _backend(c, lo, up, [(list(range(n)), [1.0] * n, 0.5)])
        for i in range(5):
            _add_row(be, list(range(n)),
                     list(np.random.default_rng(i).standard_normal(n)), -1.0)
        return be.solve()

    a, b = run(), run()
    assert a.objective == b.objective
    assert np.array_equal(a.primal, b.primal)


def test_dual_bound_matches_objective_on_clean_lp():
    """On a well-conditioned solve the certified bound equals the optimum."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = 8
        be = _backend(rng.standard_normal(n), -np.ones(n), np.ones(n),
                      [(list(range(n)), list(rng.standard_normal(n)), 0.1)])
        _add_row(be, list(range(n)), list(rng.standard_normal(n)), -2.0)
        res = be.solve()
        if res.status != "optimal":
            continue
        assert res.dual_infeasibility == pytest.approx(0.0, abs=1e-7)
        assert res.dual_bound == pytest.approx(res.objective, abs=1e-7)
        assert res.dual_bound <= res.objective + 1e-9


def test_dual_bound_with_free_variable():
    """Free columns with nonzero reduced cost lower the certificate safely."""
    be = _backend([1.0, 0.0], [0.0, -np.inf], [10.0, np.inf],
                  [([1], [1.0], 0.0)])
    _add_row(be, [0], [1.0], 2.0)
    res = be.solve()
    assert res.status == "optimal"
    assert res.dual_bound <= res.objective + 1e-9


@pytest.mark.parametrize("shift", [1e-6, 1e-3])
def test_dual_bound_certified_only_within_tolerance(monkeypatch, shift):
    """A reduced-cost repair above CERTIFY_TOL certifies no bound."""
    def shifted(*args):
        *rows, ge, y = args  # shift the equality-row duals
        return certify(*rows, ge, np.where(ge, y, y + shift))

    certify = lp_backend._safe_dual_bound
    monkeypatch.setattr(lp_backend, "_safe_dual_bound", shifted)
    # the free column absorbs no reduced cost, so the shift is clipped
    be = _backend([1.0, 0.0], [0.0, -np.inf], [10.0, np.inf],
                  [([1], [1.0], 0.0)])
    _add_row(be, [0], [1.0], 2.0)
    res = be.solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)
    assert res.dual_infeasibility == pytest.approx(shift)
    if shift <= CERTIFY_TOL:
        assert res.dual_bound == pytest.approx(2.0, abs=1e-5)
    else:
        assert res.dual_bound == -np.inf


def _fresh_objective(be, eq_rows, rows):
    """The optimum of the rows as added, solved cold by linprog."""
    n = len(be.objective)
    a_eq = np.zeros((len(eq_rows), n))
    for i, (cols, coeffs, _) in enumerate(eq_rows):
        a_eq[i, cols] = coeffs
    a_ge = np.zeros((len(rows), n))
    for i, (cols, coeffs, _) in enumerate(rows):
        a_ge[i, cols] = coeffs
    res = linprog(be.objective, A_ub=-a_ge if rows else None,
                  b_ub=[-b for _, _, b in rows] or None,
                  A_eq=a_eq, b_eq=[b for _, _, b in eq_rows],
                  bounds=list(zip(be.lower, be.upper)), method="highs")
    assert res.status == 0
    return res.fun


def test_row_queue_stays_in_sync():
    """Random edits between solves leave the LP HiGHS solves equal to the
    rows added and not removed, kept here in `rows` in row order."""
    rng = np.random.default_rng(32)
    eq_rows = [([0, 1, 2], [1.0, 1.0, 1.0], 0.0)]
    be = _backend(rng.standard_normal(6), -np.ones(6), np.ones(6), eq_rows)
    _add_column(be, 6, -1.0, 1.0, 1.0)  # column 6 wants its lower bound
    rows = []

    def add(row):
        _add_row(be, *row)
        rows.append(row)

    def remove(positions):
        be.remove_rows(positions)
        for i in sorted(positions, reverse=True):
            del rows[i]

    def random_row():
        n = len(be.objective)
        cols = sorted(rng.choice(n, size=min(n, 3), replace=False).tolist())
        # x = 0 satisfies every row, so the LP stays feasible
        return cols, rng.standard_normal(len(cols)).tolist(), -rng.random()

    def check():
        res = be.solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(
            _fresh_objective(be, eq_rows, rows), rel=1e-7, abs=1e-9)
        assert len(be.rhs) - be.n_base == len(rows)
        assert res.row_slack.tolist() == pytest.approx(
            [np.dot(coeffs, res.primal[cols]) - b
             for cols, coeffs, b in rows], abs=1e-9)
        return res

    # removals before the first solve, of rows HiGHS never held
    for _ in range(4):
        add(random_row())
    remove([2, 0])
    for step in range(60):
        op = rng.random()
        if op < 0.15:
            _add_column(be, len(be.objective), -1.0, 1.0,
                        float(rng.standard_normal()))
        elif op < 0.6 or len(rows) < 2:
            for _ in range(rng.integers(1, 4)):
                add(random_row())
        else:
            remove(rng.choice(len(rows), size=rng.integers(1, 3),
                              replace=False).tolist())
        if step % 3 == 2:
            check()
        if step % 10 == 9:
            # a row added after the last solve and removed before the next
            add(random_row())
            remove([len(rows) - 1])
            check()
            # a row removed and another added in its place before the next
            # solve: the binding row must reach HiGHS with its new rhs
            add(([6], [1.0], -0.9))
            check()
            remove([len(rows) - 1])
            add(([6], [1.0], 0.1 * step / 10))
            res = check()
            assert res.primal[6] == pytest.approx(0.1 * step / 10)
            remove([len(rows) - 1])


def test_certificate_covers_dropped_coefficients():
    """HiGHS drops the 1e-10 of x0 + 1e-10 x1 >= 1 and reports min x0 = 1;
    with x1 = 1e12 the optimum is -99, and the certificate must hold it."""
    be = _backend([1.0, 0.0], [-1000.0, 0.0], [1000.0, 1e12])
    _add_row(be, [0, 1], [1.0, 1e-10], 1.0)
    res = be.solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)  # the altered LP's optimum
    assert -99.0 - 1e-6 <= res.dual_bound <= -99.0


def _reference_certificate(objective, lower, upper, cols, vals, row_of, b,
                           ge, y):
    """The certificate one column at a time: the `>=` rows' duals clipped
    to y >= 0, each column's reduced cost summed entry by entry in store
    order, and absorbed at the bound its sign picks, or clipped when that
    bound is infinite.  The two totals are taken as the certificate takes
    them, by numpy's dot and its pairwise sum."""
    y = np.array([max(v, 0.0) if g else v
                  for v, g in zip(y.tolist(), ge.tolist())])
    acc = [0.0] * len(objective)
    for j, w, i in zip(cols.tolist(), vals.tolist(), row_of.tolist()):
        acc[j] += w * y[i]
    absorbed, dual_inf = [], 0.0
    for c, a, lo, up in zip(objective.tolist(), acc, lower.tolist(),
                            upper.tolist()):
        rc = c - a
        at = lo if rc > 0.0 else up if rc < 0.0 else None
        if at is None:
            absorbed.append(0.0)
        elif math.isfinite(at):
            absorbed.append(rc * at)
        else:
            absorbed.append(0.0)
            dual_inf = max(dual_inf, abs(rc))
    if dual_inf > CERTIFY_TOL:
        return -np.inf, dual_inf
    return float(y @ b) + float(np.array(absorbed).sum()), dual_inf


def _random_certificate_input(rng):
    """A seeded random row store, bounds, objective and duals.  Columns
    past the matrix have no entry, so their reduced cost is their
    objective coefficient: exactly 0, -0.0, 1e-300, or a repair at, just
    below or just above `CERTIFY_TOL`, each beside an infinite bound on
    either side.  Some matrix columns get the objective that makes their
    reduced cost exactly 0."""
    n, m = int(rng.integers(3, 15)), int(rng.integers(1, 10))
    sizes = rng.integers(1, n + 1, m)
    cols = np.concatenate([rng.choice(n, s, replace=False) for s in sizes])
    vals = rng.standard_normal(len(cols))
    row_of = np.repeat(np.arange(m), sizes)
    ge = rng.random(m) < 0.6
    y = rng.standard_normal(m)
    edge = np.nextafter(CERTIFY_TOL, [0.0, 1.0])
    special = rng.choice([0.0, -0.0, 1e-300, -1e-300, CERTIFY_TOL, *edge,
                          -edge[1]], int(rng.integers(0, 4)))
    objective = np.concatenate([rng.standard_normal(n), special])
    exact = np.flatnonzero(rng.random(n) < 0.3)
    acc = np.bincount(cols, vals * np.where(ge, np.maximum(y, 0.0), y)[
        row_of], n + len(special))
    objective[exact] = acc[exact]
    k = len(objective)
    lower, upper = rng.uniform(-5.0, 0.0, k), rng.uniform(0.0, 5.0, k)
    lower[rng.random(k) < 0.3] = -np.inf
    upper[rng.random(k) < 0.3] = np.inf
    return (objective, lower, upper, cols.astype(np.int32), vals, row_of,
            rng.standard_normal(m), ge, y)


def test_certificate_equals_the_per_column_reference():
    """`_safe_dual_bound` gives the bound and the dual infeasibility of the
    per-column reference bit for bit, certified or not."""
    rng = np.random.default_rng(2013)
    outcomes = set()
    for _ in range(400):
        args = _random_certificate_input(rng)
        got = lp_backend._safe_dual_bound(*args)
        want = _reference_certificate(*args)
        assert [v.hex() for v in got] == [float(v).hex() for v in want]
        outcomes.add((got[0] == -np.inf, got[1] > 0.0))
    assert outcomes == {(False, False), (False, True), (True, True)}


def _highs_rows(be):
    """Dense matrix, row bounds and columns of HiGHS's copy of the LP."""
    lp = be._highs.getLp()
    mat = lp.a_matrix_
    a = np.zeros((lp.num_row_, lp.num_col_))
    colwise = mat.format_ == lp_backend._highs.MatrixFormat.kColwise
    for outer in range(len(mat.start_) - 1):
        for k in range(mat.start_[outer], mat.start_[outer + 1]):
            i, j = (mat.index_[k], outer) if colwise else (outer, mat.index_[k])
            a[i, j] = mat.value_[k]
    return (a, np.asarray(lp.row_lower_), np.asarray(lp.row_upper_),
            [list(lp.col_cost_), list(lp.col_lower_), list(lp.col_upper_)])


def _store_is_highs_copy(be):
    """HiGHS holds the leading rows of the store, entry for entry and in
    the same order, and every column."""
    a, lo, up, columns = _highs_rows(be)
    n = len(lo)
    held = be.row_of < n
    stored = np.zeros_like(a)
    np.add.at(stored, (be.row_of[held], be.cols[held]), be.vals[held])
    assert np.array_equal(a, stored[:, :a.shape[1]])
    assert np.array_equal(lo, be.rhs[:n])
    assert np.array_equal(up, np.where(be.ge[:n], np.inf, be.rhs[:n]))
    return n, columns


def test_row_store_equals_highs_copy():
    """After add_row / remove_rows / add_column edits the row store is
    HiGHS's copy of the rows, entry for entry and in the same order, plus
    the rows added since the last solve; after a solve it is the copy."""
    rng = np.random.default_rng(33)
    be = _backend(rng.standard_normal(5), -np.ones(5), np.ones(5),
                  [([0, 1, 4], [1.0, -2.0, 0.5], 0.0)])
    for step in range(40):
        op = rng.random()
        n_cut = len(be.rhs) - be.n_base
        if op < 0.2:
            _add_column(be, len(be.objective), -1.0, 1.0,
                        float(rng.standard_normal()))
        elif op < 0.7 or n_cut < 2:
            n = len(be.objective)
            cols = rng.choice(n, size=min(n, 3), replace=False).tolist()
            _add_row(be, cols,
                     rng.uniform(0.5, 2.0, len(cols)).tolist(), -rng.random())
        else:
            be.remove_rows(rng.choice(n_cut, size=2, replace=False).tolist())
        if be._highs is not None:
            _store_is_highs_copy(be)
        if step % 4 == 3:
            assert be.solve().status == "optimal"
            n, columns = _store_is_highs_copy(be)
            assert n == len(be.rhs)
            assert columns == [be.objective.tolist(), be.lower.tolist(),
                               be.upper.tolist()]
            assert np.flatnonzero(be.ge).tolist() \
                == list(range(be.n_base, len(be.rhs)))


def test_add_columns_names_a_block():
    be = _loaded()
    be.add_columns(("a", "b"), (0.0, -1.0), (1.0, 2.0), (3.0, 4.0))
    assert be.columns == {0: 0, "a": 1, "b": 2}
    assert [a.tolist() for a in (be.lower, be.upper, be.objective)] \
        == [[0.0, 0.0, -1.0], [10.0, 1.0, 2.0], [1.0, 3.0, 4.0]]
    for keys in (("c", "a"), ("c", "c")):
        with pytest.raises(LpBackendError,
                           match="duplicate column key '%s'" % keys[1]):
            be.add_columns(keys, (0.0, 0.0), (1.0, 1.0), (0.0, 0.0))
    assert len(be.columns) == len(be.objective) == 3


def test_row_block_stores_like_its_rows():
    """Rows added as a block, base rows and then cut rows, are stored as
    the same rows added one by one, in the order they came, and reach
    HiGHS."""
    rng = np.random.default_rng(34)
    # x = 0 is feasible: equality rows have rhs 0, the others rhs < 0
    rows = [(rng.choice(4, size=k, replace=False).tolist(),
             rng.uniform(0.5, 2.0, k).tolist(), -float(rng.random()) * ge,
             ge) for k, ge in ((1, True), (3, False), (2, True), (4, False),
                               (0, True))]
    one_by_one, block = (_backend([1.0] * 4, [-1.0] * 4, [1.0] * 4)
                         for _ in range(2))
    cols, vals, rhs, ge = zip(*rows)
    for cut in (False, True):
        for c, v, b, g in rows:
            _add_row(one_by_one, c, v, b, g, cut=cut)
        block.add_rows(np.concatenate(cols).astype(np.int32),
                       np.concatenate(vals), list(map(len, cols)),
                       np.array(rhs), np.array(ge), cut=cut)
    for be in (one_by_one, block):
        _add_row(be, [1], [1.0], -1.0)
        assert be.solve().status == "optimal"
    for name in ("cols", "vals", "row_of", "rhs", "ge"):
        a, b = getattr(one_by_one, name), getattr(block, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert block.n_base == one_by_one.n_base == len(rows)
    assert len(block.rhs) == 2 * len(rows) + 1
    assert _store_is_highs_copy(block)[0] == len(block.rhs)


def use_highs_class(monkeypatch, cls):
    """Make the backend build its HiGHS models from `cls`, a subclass of
    the bindings' `_Highs`."""
    highs = types.SimpleNamespace(**vars(lp_backend._highs))
    highs._Highs = cls
    monkeypatch.setattr(lp_backend, "_highs", highs)


def report_model_status(monkeypatch, name, after=0):
    """Make HiGHS report the model status `name` (a member of
    `HighsModelStatus`) for every run after the first `after` runs."""
    status = getattr(lp_backend._highs.HighsModelStatus, name)
    runs = []

    class Reporting(lp_backend._highs._Highs):
        def run(self):
            runs.append(1)
            return super().run()

        def getModelStatus(self):
            return status if len(runs) > after else super().getModelStatus()

    use_highs_class(monkeypatch, Reporting)


def test_case14_solve_reads_back_no_matrix(monkeypatch, case14):
    """The hot path never reads HiGHS's copy of the LP back: a whole case14
    run goes without it."""
    class NoReadback(lp_backend._highs._Highs):
        def getLp(self):
            raise AssertionError("getLp called on the solve path")

    use_highs_class(monkeypatch, NoReadback)
    report = cutplane(case14, RunConfig())
    assert report.termination == "no_cuts"
    assert report.best_bound > 8079.0


_ISOLATION_RUN = """
import io, json, sys
import opfcuts
from opfcuts import lp_backend
from opfcuts.cut_manager import load_cuts, save_cuts
from opfcuts.relaxation import build_m0

def scipy_loaded():
    return [m for m in ("scipy.optimize", "scipy.sparse", "numpy.ma")
            if m in sys.modules]

out = {"import": scipy_loaded()}
case = opfcuts.parse_case_file(%r)
report = opfcuts.cutplane(case, opfcuts.RunConfig())
out["solve"], out["bound"] = scipy_loaded(), report.best_bound
# a warm run from the saved pool, on loads that make it drop cuts
text = io.StringIO()
save_cuts(report.pool, text)
text.seek(0)
pert = opfcuts.perturb_loads(case, seed=2, mu_frac=0.0, sigma_frac=0.1)
pool, _ = load_cuts(text, build_m0(pert))
warm = opfcuts.cutplane(pert, opfcuts.RunConfig(), warm=pool)
out["warm"] = scipy_loaded()
out["warm_dropped"] = sum(st.cuts_dropped for st in warm.rounds)
from scipy.optimize._highspy import _core
out["same"] = _core is lp_backend._highs
print(json.dumps(out))
"""


def test_import_and_hot_path_leave_scipy_optimize_out(case14_path):
    """`import opfcuts` loads HiGHS's bindings without the scipy.optimize
    and scipy.sparse packages, and the hot path of a case14 solve needs
    neither, nor numpy.ma (about 1 MB, which numpy's `setdiff1d` and
    `unique` import); nor does a save, a load and a warm run that drops
    cuts.  A later import through scipy.optimize gets the same module."""
    src = os.path.dirname(os.path.dirname(lp_backend.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _ISOLATION_RUN % case14_path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    out = json.loads(proc.stdout)
    assert out["import"] == []
    assert out["solve"] == [] and out["warm"] == []
    assert out["warm_dropped"] > 0
    assert BAND_LO <= out["bound"] <= BAND_HI
    assert out["same"] is True


def test_load_highs_raises_without_a_loadable_core(monkeypatch, tmp_path):
    """No `_core` extension under scipy (scipy < 1.15), or one that fails
    to load, raises an ImportError that names the scipy requirement, and
    leaves no module behind."""
    monkeypatch.delitem(sys.modules, lp_backend._HIGHS_MODULE, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name:
                        types.SimpleNamespace(
                            submodule_search_locations=[str(tmp_path)]))
    with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
        lp_backend._load_highs()
    assert lp_backend._HIGHS_MODULE not in sys.modules
    core = tmp_path / "optimize" / "_highspy" / (
        "_core" + importlib.machinery.EXTENSION_SUFFIXES[0])
    core.parent.mkdir(parents=True)
    core.write_bytes(b"not a shared object")
    importlib.invalidate_caches()  # the folder is new to the path finder
    with pytest.raises(ImportError, match=r"scipy >= 1\.15") as raised:
        lp_backend._load_highs()
    assert raised.value.__cause__ is not None  # found, and failed to load
    assert lp_backend._HIGHS_MODULE not in sys.modules


def test_unmapped_model_status_raises(monkeypatch):
    """A model status outside optimal, limit, infeasible and unbounded is a
    backend failure."""
    report_model_status(monkeypatch, "kSolveError")
    be = _loaded()
    _add_row(be, [0], [1.0], 1.0)
    with pytest.raises(LpBackendError, match="Solve error"):
        be.solve()
