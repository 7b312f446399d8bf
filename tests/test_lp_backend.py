import types

import numpy as np
import pytest
from scipy.optimize import linprog

from opfcuts import lp_backend
from opfcuts.driver import RunConfig, cutplane
from opfcuts.errors import LpBackendError
from opfcuts.lp_backend import CERTIFY_TOL, ScipyHighsBackend


def _backend(objective, lower, upper, eq_rows=()):
    be = ScipyHighsBackend()
    for c, lo, up in zip(objective, lower, upper):
        be.add_column(lo, up, c)
    for row in eq_rows:
        be.add_eq_row(*row)
    return be


def _loaded(lower=0.0, upper=10.0):
    return _backend([1.0], [lower], [upper])


def test_minimize_with_single_row():
    be = _loaded()
    be.add_rows({"r1": ([0], [1.0], 1.0)})
    res = be.solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)
    assert res.primal[0] == pytest.approx(1.0)
    assert res.primal_residual <= 1e-8


def test_tighten_then_relax():
    be = _loaded()
    be.add_rows({"r1": ([0], [1.0], 1.0)})
    be.add_rows({"r2": ([0], [1.0], 2.0)})
    res = be.solve()
    assert res.objective == pytest.approx(2.0)
    assert res.row_slack == pytest.approx({"r1": 1.0, "r2": 0.0})
    be.remove_rows(["r2"])
    assert be.solve().objective == pytest.approx(1.0)


def test_infeasible():
    be = _loaded(upper=0.5)
    be.add_rows({"r1": ([0], [1.0], 1.0)})
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
    ids = ["r%d" % i for i in range(1000)]
    be.add_rows({rid: ([0], [1.0], 0.001 * i) for i, rid in enumerate(ids)})
    assert be.solve().objective == pytest.approx(0.999)
    be.remove_rows(ids)
    assert be.rows == {}
    assert be.solve().objective == pytest.approx(base)


def test_unknown_row_id():
    be = _loaded()
    with pytest.raises(LpBackendError):
        be.remove_rows(["nope"])


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
        be.add_rows({"r%d" % i:
                     (list(range(n)), list(rng2.standard_normal(n)), -1.0)
                     for i, rng2 in ((j, np.random.default_rng(j))
                                     for j in range(5))})
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
        be.add_rows({"r": (list(range(n)), list(rng.standard_normal(n)), -2.0)})
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
    be.add_rows({"r": ([0], [1.0], 2.0)})
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
    for highs in (lp_backend._highs, None):  # None: the linprog fallback
        monkeypatch.setattr(lp_backend, "_highs", highs)
        # the free column absorbs no reduced cost, so the shift is clipped
        be = _backend([1.0, 0.0], [0.0, -np.inf], [10.0, np.inf],
                      [([1], [1.0], 0.0)])
        be.add_rows({"r": ([0], [1.0], 2.0)})
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
    for i, (cols, coeffs, _) in enumerate(rows.values()):
        a_ge[i, cols] = coeffs
    res = linprog(be.objective, A_ub=-a_ge if rows else None,
                  b_ub=[-b for _, _, b in rows.values()] or None,
                  A_eq=a_eq, b_eq=[b for _, _, b in eq_rows],
                  bounds=list(zip(be.lower, be.upper)), method="highs")
    assert res.status == 0
    return res.fun


def test_row_queue_stays_in_sync():
    """Random edits between solves leave the LP HiGHS solves equal to the
    rows added and not removed, kept here in `rows`."""
    rng = np.random.default_rng(32)
    eq_rows = [([0, 1, 2], [1.0, 1.0, 1.0], 0.0)]
    be = _backend(rng.standard_normal(6), -np.ones(6), np.ones(6), eq_rows)
    be.add_column(-1.0, 1.0, 1.0)  # column 6 wants its lower bound
    rows = {}
    next_id = 0

    def add(row_id, row):
        be.add_rows({row_id: row})
        rows.pop(row_id, None)
        rows[row_id] = row

    def remove(row_ids):
        be.remove_rows(row_ids)
        for row_id in row_ids:
            del rows[row_id]

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
        assert list(res.row_slack) == list(rows) == list(be.rows)
        return res

    for step in range(60):
        op = rng.random()
        if op < 0.15:
            be.add_column(-1.0, 1.0, float(rng.standard_normal()))
        elif op < 0.6 or len(rows) < 2:
            for _ in range(rng.integers(1, 4)):
                add(next_id, random_row())
                next_id += 1
        else:
            remove(rng.choice(list(rows), size=rng.integers(1, 3),
                              replace=False).tolist())
        if step % 3 == 2:
            check()
        if step % 10 == 9:
            # a row added after the last solve and removed before the next
            add("late", random_row())
            remove(["late"])
            check()
            # an id removed and re-added with a new rhs before the next
            # solve: the binding row must reach HiGHS with its new rhs
            add("pin", ([6], [1.0], -0.9))
            check()
            remove(["pin"])
            add("pin", ([6], [1.0], 0.1 * step / 10))
            res = check()
            assert res.primal[6] == pytest.approx(0.1 * step / 10)
            remove(["pin"])


@pytest.mark.parametrize("hot", [True, False], ids=["hot", "linprog"])
def test_certificate_covers_dropped_coefficients(monkeypatch, hot):
    """HiGHS drops the 1e-10 of x0 + 1e-10 x1 >= 1 and reports min x0 = 1;
    with x1 = 1e12 the optimum is -99, and the certificate must hold it."""
    if not hot:
        monkeypatch.setattr(lp_backend, "_highs", None)
    elif lp_backend._highs is None:
        pytest.skip("scipy ships no HiGHS bindings")
    be = _backend([1.0, 0.0], [-1000.0, 0.0], [1000.0, 1e12])
    be.add_rows({"r": ([0, 1], [1.0, 1e-10], 1.0)})
    res = be.solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)  # the altered LP's optimum
    assert -99.0 - 1e-6 <= res.dual_bound <= -99.0


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


def test_row_store_equals_highs_copy():
    """After add_rows / remove_rows / add_column edits the row store is
    HiGHS's copy of the rows, entry for entry and in the same order."""
    if lp_backend._highs is None:
        pytest.skip("scipy ships no HiGHS bindings")
    rng = np.random.default_rng(33)
    be = _backend(rng.standard_normal(5), -np.ones(5), np.ones(5),
                  [([0, 1, 4], [1.0, -2.0, 0.5], 0.0)])
    for step in range(40):
        op = rng.random()
        if op < 0.2:
            be.add_column(-1.0, 1.0, float(rng.standard_normal()))
        elif op < 0.7 or len(be.rows) < 2:
            n = len(be.objective)
            cols = rng.choice(n, size=min(n, 3), replace=False).tolist()
            be.add_rows({step: (cols, rng.uniform(0.5, 2.0, len(cols))
                                .tolist(), -rng.random())})
        else:
            be.remove_rows(rng.choice(list(be.rows), size=2,
                                      replace=False).tolist())
        if step % 4 == 3:
            assert be.solve().status == "optimal"
            a, lo, up, columns = _highs_rows(be)
            stored = np.zeros_like(a)
            np.add.at(stored, (be.row_of, be.cols), be.vals)
            assert np.array_equal(a, stored)
            assert np.array_equal(lo, be.rhs)
            assert np.array_equal(up, np.where(be.ge, np.inf, be.rhs))
            assert columns == [be.objective, be.lower, be.upper]
            assert list(be.rows.values()) == np.flatnonzero(be.ge).tolist()


def test_case14_solve_reads_back_no_matrix(monkeypatch, case14):
    """The hot path never reads HiGHS's copy of the LP back, nor builds a
    scipy.sparse matrix: a whole case14 run goes without either."""
    if lp_backend._highs is None:
        pytest.skip("scipy ships no HiGHS bindings")

    class NoReadback(lp_backend._highs._Highs):
        def getLp(self):
            raise AssertionError("getLp called on the solve path")

    def no_sparse(*args, **kwargs):
        raise AssertionError("scipy.sparse matrix built on the solve path")

    highs = types.SimpleNamespace(**vars(lp_backend._highs))
    highs._Highs = NoReadback
    monkeypatch.setattr(lp_backend, "_highs", highs)
    monkeypatch.setattr(lp_backend, "csr_matrix", no_sparse)
    report = cutplane(case14, RunConfig())
    assert report.termination == "no_cuts"
    assert report.best_bound > 8079.0
