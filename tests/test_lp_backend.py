import numpy as np
import pytest

from opfcuts import lp_backend
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
    def shifted(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.eqlin.marginals = res.eqlin.marginals + shift
        return res

    linprog = lp_backend.linprog
    monkeypatch.setattr(lp_backend, "linprog", shifted)
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
