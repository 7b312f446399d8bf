import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from opfcuts import lp_backend
from opfcuts.case_io import parse_case, perturb_loads
from opfcuts.driver import RunConfig, RunReport, cutplane, report_table
from opfcuts.errors import ModelError


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(time_limit=-1.0)
    with pytest.raises(ValueError):
        RunConfig(hierarchy_round=0)
    with pytest.raises(ValueError):
        RunConfig(max_clique_size=6)


def test_time_limit_zero_single_round(case14):
    report = cutplane(case14, RunConfig(time_limit=0.0))
    assert report.num_rounds == 1
    assert report.termination == "time"
    assert report.best_bound >= 0.0


# round 2's bound on case14 is still 0; by round 5 it is positive
@pytest.mark.parametrize("stop", [3, 6])
def test_backend_time_limit_ends_run_with_best_bound(case14, cold_report,
                                                     monkeypatch, stop):
    """An LP solve stopped by the budget ends the run with `time`."""
    limits = []
    solve = lp_backend.ScipyHighsBackend.solve

    def limited(self):
        limits.append(self.time_limit)
        if len(limits) == stop:
            return lp_backend.LpSolveResult("limit", None, None, None)
        return solve(self)

    monkeypatch.setattr(lp_backend.ScipyHighsBackend, "solve", limited)
    report = cutplane(case14, RunConfig())
    assert report.termination == "time"
    assert report.num_rounds == stop - 1
    assert report.best_bound == max(st.bound
                                    for st in cold_report.rounds[:stop - 1])
    # read from the last optimal solve, not from the stopped one
    assert report.dual_inf is not None
    assert math.isfinite(report.eig_ratio)
    assert limits[0] is None
    assert all(0.0 <= t < math.inf for t in limits[1:])


def test_max_rounds(case14):
    report = cutplane(case14, RunConfig(max_rounds=3))
    assert report.num_rounds == 3
    assert report.termination == "rounds"


def test_cold_run_shape(cold_report):
    assert cold_report.termination in ("no_cuts", "stall", "time")
    assert cold_report.clique_counts == (5, 0, 0)
    assert cold_report.final_clique_counts[0] >= 5
    assert sum(cold_report.final_clique_counts) >= 5
    assert cold_report.num_rounds >= 2
    assert not cold_report.warm_started
    assert math.isfinite(cold_report.best_bound)


def test_best_bound_is_max_over_rounds(cold_report):
    assert cold_report.best_bound == max(st.bound for st in cold_report.rounds)
    for st in cold_report.rounds:
        assert st.bound == pytest.approx(st.objective, abs=1e-5)


def test_perturbed_duals_credit_no_bound(case14, cold_report, monkeypatch):
    # duals that need a reduced-cost repair above the certification
    # tolerance prove nothing, however feasible the primal point looks
    # (only optimal solves hand their duals to the certificate)
    def perturbed(*args):
        *rows, ge, y = args
        return certify(*rows, ge, np.where(ge, y, y + 1e-3))

    certify = lp_backend._safe_dual_bound
    monkeypatch.setattr(lp_backend, "_safe_dual_bound", perturbed)
    report = cutplane(case14, RunConfig())
    assert report.best_bound == -math.inf
    assert [st.bound for st in report.rounds] \
        == [-math.inf] * cold_report.num_rounds
    assert [st.objective for st in report.rounds] \
        == [st.objective for st in cold_report.rounds]


_COLD_RUN = """
from opfcuts.case_io import parse_case_file
from opfcuts.driver import RunConfig, cutplane
report = cutplane(parse_case_file(%r), RunConfig())
print(report.best_bound.hex(), report.num_rounds)
"""


def test_cold_run_independent_of_hash_seed(case14_path):
    # HiGHS sees the rows in insertion order, so no set order may leak in
    src = os.path.dirname(os.path.dirname(lp_backend.__file__))
    out = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out.append(subprocess.run(
            [sys.executable, "-c", _COLD_RUN % case14_path], env=env,
            capture_output=True, text=True, check=True).stdout)
    assert out[0] == out[1]


def test_one_log_line_per_round(case14, caplog, monkeypatch):
    results = []

    def recorded(backend):
        results.append(solve(backend))
        return results[-1]

    solve = lp_backend.ScipyHighsBackend.solve
    monkeypatch.setattr(lp_backend.ScipyHighsBackend, "solve", recorded)
    with caplog.at_level(logging.INFO, logger="opfcuts.driver"):
        report = cutplane(case14, RunConfig(max_rounds=3))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "opfcuts.driver"]
    assert len(lines) == report.num_rounds == len(results) == 3
    for st, res, line in zip(report.rounds, results, lines):
        assert line.startswith("round %d: objective %.6f, bound %.6f, "
                               "dual_inf %.2e, residual %.2e, "
                               "added %d, dropped %d, pool "
                               % (st.index, st.objective, st.bound,
                                  res.dual_infeasibility, res.primal_residual,
                                  st.cuts_added, st.cuts_dropped))
        assert "LP rows" in line


def test_rounds_to_reach(cold_report):
    first = cold_report.rounds[0].bound
    assert cold_report.rounds_to_reach(first) == 1
    assert cold_report.rounds_to_reach(1e12) is None


def test_infeasible_case_raises():
    text = """
mpc.baseMVA = 1;
mpc.bus = [
    1 3 1.0 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 1 -1 1 1 1 0.5 0;
];
mpc.branch = [];
mpc.gencost = [
    2 0 0 3 0 1 0;
];
"""
    with pytest.raises(ModelError):
        cutplane(parse_case(text), RunConfig(time_limit=5.0))


def test_case_without_pairs_runs():
    """One bus and no branch: no pair matrix to separate, a bound all the
    same (10 $/MWh on 50 MW, 525 with the quadratic term)."""
    text = """
mpc.baseMVA = 100;
mpc.bus = [
    1 3 50 10 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 100 -100 1 100 1 200 0;
];
mpc.branch = [];
mpc.gencost = [
    2 0 0 3 0.01 10 0;
];
"""
    report = cutplane(parse_case(text), RunConfig(time_limit=5.0))
    assert report.best_bound == pytest.approx(525.0)
    assert report.eig_ratio == math.inf


def test_warm_start_first_round_bound(case14, cold_report):
    pert = perturb_loads(case14, seed=0, mu_frac=0.0, sigma_frac=0.01)
    cold = cutplane(pert, RunConfig(max_rounds=2))
    warm = cutplane(pert, RunConfig(max_rounds=2), warm=cold_report.pool)
    assert warm.warm_started
    assert warm.rounds[0].objective >= cold.rounds[0].objective - 1e-9


def test_warm_start_leaves_callers_pool_unchanged(case14, cold_report):
    given = cold_report.pool
    before = {h: (id(cut), cut.age) for h, cut in given.cuts.items()}
    pert = perturb_loads(case14, seed=0, mu_frac=0.0, sigma_frac=0.01)
    warm = cutplane(pert, RunConfig(max_rounds=4), warm=given)
    assert {h: (id(cut), cut.age) for h, cut in given.cuts.items()} == before
    assert not {id(c) for c in given.cuts.values()} \
        & {id(c) for c in warm.pool.cuts.values()}


def test_empty_round_escalates_at_once(case14, cold_report):
    """An idle warm round escalates before the hierarchy round."""
    warm = cutplane(case14, RunConfig(max_rounds=2), warm=cold_report.pool)
    assert warm.final_clique_counts == cold_report.final_clique_counts


def test_warm_start_from_own_pool_reaches_cold_bound(case14, cold_report):
    warm = cutplane(case14, RunConfig(), warm=cold_report.pool)
    assert len(warm.pool) >= len(cold_report.pool)
    assert warm.num_rounds <= 3
    assert warm.best_bound == pytest.approx(cold_report.best_bound, rel=1e-5)


def test_report_table_text(cold_report):
    text = report_table([cold_report])
    lines = text.splitlines()
    assert lines[0].startswith("Case")
    assert "(5,0,0)" in lines[1]
    assert cold_report.termination in lines[1]


def test_report_table_empty():
    text = report_table([])
    assert text.splitlines()[0].startswith("Case")
    assert len(text.splitlines()) == 1


def test_report_table_csv(cold_report):
    import csv
    import io
    out = report_table([cold_report], csv=True)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "Case"
    assert len(rows) == 2
    assert rows[1][2] == "(5,0,0)"
    assert float(rows[1][1]) == pytest.approx(cold_report.best_bound, abs=0.01)
