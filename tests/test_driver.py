import dataclasses
import gc
import io
import logging
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from opfcuts import driver, lp_backend, network
from opfcuts.case_io import parse_case, perturb_loads
from opfcuts.cut_manager import (CutPool, admit, age_and_drop, load_cuts,
                                 save_cuts)
from opfcuts.driver import RunConfig, RunReport, cutplane, report_table
from opfcuts.errors import ModelError
from opfcuts.relaxation import build_m0
from opfcuts.separation import VIOLATION_THRESHOLD
from test_lp_backend import report_model_status, use_highs_class
from test_separation import block_of, one_cut


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(time_limit=-1.0)
    with pytest.raises(ValueError):  # NaN is not >= 0 either
        RunConfig(time_limit=math.nan)
    with pytest.raises(ValueError):
        RunConfig(hierarchy_round=0)
    with pytest.raises(ValueError):
        RunConfig(max_clique_size=6)
    for rounds in (0, -3):
        with pytest.raises(ValueError):
            RunConfig(max_rounds=rounds)


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


@pytest.mark.parametrize("stop", [3, 6])
def test_stopped_solve_keeps_last_optimal_point(case14, monkeypatch, stop):
    """A solve HiGHS ran but reports as stopped by the time limit leaves
    the report's dual infeasibility and eigenvalue ratio at those of the
    last optimal solve: the run stopped one round earlier."""
    earlier = cutplane(case14, RunConfig(max_rounds=stop - 1))
    calls = []
    run = lp_backend.linprog

    def limited(highs):
        status = run(highs)
        calls.append(status)
        return "limit" if len(calls) == stop else status

    monkeypatch.setattr(lp_backend, "linprog", limited)
    report = cutplane(case14, RunConfig())
    assert report.termination == "time"
    assert report.num_rounds == stop - 1
    assert report.eig_ratio == earlier.eig_ratio
    assert report.dual_inf == earlier.dual_inf


def test_max_rounds(case14):
    report = cutplane(case14, RunConfig(max_rounds=3))
    assert report.num_rounds == 3
    assert report.termination == "rounds"


def test_unbounded_master_ends_run(case14, cold_report, monkeypatch):
    """An unbounded master LP ends the run as a backend failure, keeping
    the bounds of the rounds solved before it."""
    report_model_status(monkeypatch, "kUnbounded", after=2)
    report = cutplane(case14, RunConfig())
    assert report.termination == "backend_unbounded"
    assert report.num_rounds == 2
    assert report.best_bound == max(st.bound
                                    for st in cold_report.rounds[:2])


def test_cold_run_shape(cold_report):
    assert cold_report.termination in ("no_cuts", "stall", "time")
    assert cold_report.clique_counts == (5, 0, 0)
    assert cold_report.final_clique_counts[0] >= 5
    assert sum(cold_report.final_clique_counts) >= 5
    assert cold_report.num_rounds >= 2
    assert not cold_report.warm_started
    assert math.isfinite(cold_report.best_bound)


def test_pwl_cost_cold_run(case14_pwl, monkeypatch):
    """A cold run on a case with a pwl cost ends with a finite certified
    bound, and no cost tangent names the pwl generator: its epigraph is
    exact in the base model."""
    gkey = build_m0(case14_pwl).network.gen_keys[0]
    named = []
    separate = driver._separate

    def watched(model, y, cliques):
        cuts, spectra = separate(model, y, cliques)
        tangents = cuts.take(cuts.kind == "cost_tangent")
        named.extend(tangents.naming(lambda key: key[1:] == (gkey,)))
        return cuts, spectra

    monkeypatch.setattr(driver, "_separate", watched)
    report = cutplane(case14_pwl, RunConfig())
    assert report.termination == "no_cuts"
    assert report.best_bound == pytest.approx(8640.8192, rel=1e-6)
    assert len(named) and not any(named)


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
        assert line.endswith(", LP iterations %d" % res.iterations)
        assert st.lp_iterations == res.iterations


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


_ONE_BUS = """
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


def test_case_without_pairs_runs():
    """One bus and no branch: no pair matrix to separate, a bound all the
    same (10 $/MWh on 50 MW, 525 with the quadratic term)."""
    report = cutplane(parse_case(_ONE_BUS), RunConfig(time_limit=5.0))
    assert report.best_bound == pytest.approx(525.0)
    assert report.eig_ratio == math.inf


def test_warm_start_first_round_bound(case14, cold_report):
    pert = perturb_loads(case14, seed=0, mu_frac=0.0, sigma_frac=0.01)
    cold = cutplane(pert, RunConfig(max_rounds=2))
    warm = cutplane(pert, RunConfig(max_rounds=2), warm=cold_report.pool)
    assert warm.warm_started
    assert warm.rounds[0].objective >= cold.rounds[0].objective - 1e-9


def test_warm_start_leaves_callers_pool_unchanged(case14, cold_report):
    """A warm run reads the given pool's cuts and changes none of them:
    the pool keeps its block and ages, and the block its arrays.  The run's
    pool starts with the given cuts, in their order."""
    given = cold_report.pool
    block = given.cuts
    arrays = {name: a.copy() for name, a in vars(block).items()}
    ages = given.ages.copy()
    text = io.StringIO()
    save_cuts(given, text)
    pert = perturb_loads(case14, seed=0, mu_frac=0.0, sigma_frac=0.01)
    warm = cutplane(pert, RunConfig(max_rounds=4), warm=given)
    assert given.cuts is block
    assert all(np.array_equal(a, getattr(block, name))
               for name, a in arrays.items())
    assert np.array_equal(given.ages, ages)
    again = io.StringIO()
    save_cuts(given, again)
    assert again.getvalue() == text.getvalue()
    # four rounds age no cut T_AGE times, so none of them is dropped
    assert sum(st.cuts_dropped for st in warm.rounds) == 0
    assert list(warm.pool.cuts)[:len(given)] == list(given.cuts)


def test_warm_start_from_a_runs_last_basis(case14):
    """The unperturbed pool of a run, basis as HiGHS gave it, in admission
    order, starts round 0 at its optimum."""
    pool = cutplane(case14, RunConfig()).pool
    assert isinstance(pool._basis, lp_backend.LastBasis)
    warm = cutplane(case14, RunConfig(max_rounds=1), warm=pool)
    assert warm.rounds[0].lp_iterations == 0


def test_candidates_reach_admission_admissible(case14, monkeypatch):
    """Separation builds only candidates violated beyond the threshold."""
    seen = []

    def recording(pool, candidates):
        seen.extend(candidates)
        return admit(pool, candidates)

    monkeypatch.setattr(driver, "admit", recording)
    cutplane(case14, RunConfig())
    assert seen
    assert all(cut.violation_at_birth / cut.inf_norm >= VIOLATION_THRESHOLD
               for cut in seen)


def test_empty_round_escalates_at_once(case14, cold_report):
    """An idle cold round escalates before the hierarchy round, and the
    run goes on."""
    report = cutplane(case14, RunConfig(hierarchy_round=50))
    added = [st.cuts_added for st in report.rounds]
    assert 0 in added[:-1] and len(added) < 50
    assert report.final_clique_counts == cold_report.final_clique_counts
    assert report.clique_counts != report.final_clique_counts


def test_warm_start_begins_escalated(case14, cold_report):
    """A warm start separates the chordal cliques from round 0 on."""
    warm = cutplane(case14, RunConfig(max_rounds=1), warm=cold_report.pool)
    assert warm.final_clique_counts == cold_report.final_clique_counts
    assert warm.clique_counts == cold_report.clique_counts


def test_warm_start_from_own_pool_reaches_cold_bound(case14, cold_report):
    warm = cutplane(case14, RunConfig(), warm=cold_report.pool)
    assert len(warm.pool) >= len(cold_report.pool)
    assert warm.num_rounds == 1
    assert warm.best_bound == pytest.approx(cold_report.best_bound, rel=1e-5)


def test_warm_start_is_one_round_on_the_cold_layout(case14, monkeypatch):
    """Warm-started from its own pool, case14 ends after one round with the
    cold bound, on a model whose columns are the cold model's, in order."""
    models = []

    def build(case):
        models.append(build_m0(case))
        return models[-1]

    monkeypatch.setattr(driver, "build_m0", build)
    cold = cutplane(case14, RunConfig())
    warm = cutplane(case14, RunConfig(), warm=cold.pool)
    assert (warm.termination, warm.num_rounds) == ("no_cuts", 1)
    assert warm.best_bound == pytest.approx(cold.best_bound, rel=1e-12,
                                            abs=0.0)
    cold_model, warm_model = models
    assert list(warm_model.var_index) == list(cold_model.var_index)


def test_warm_start_checks_each_key_once(case14, cold_report, monkeypatch):
    """The warm injection asks the model about each distinct key once,
    skips the cuts naming an unknown one, and adds the pairs of the others
    after the chordal pairs: the base columns, then the sorted chordal
    block, then the pool's other pairs, sorted."""
    stray = one_cut({("v2", 1): 1.0, ("c", 1, 999): -1.0}, 0.0, "eigen",
                    (1, 999))
    warm = CutPool(cold_report.pool.cuts)
    admit(warm, block_of(stray))
    models, asked = [], []

    def build(case):
        model = build_m0(case)
        has_variable = model.has_variable
        model.has_variable = lambda key: asked.append(key) or \
            has_variable(key)
        models.append(model)
        return model

    monkeypatch.setattr(driver, "build_m0", build)
    report = cutplane(case14, RunConfig(max_rounds=1), warm=warm)
    named = {key for cut in warm.cuts for key in cut.terms}
    assert sorted(asked, key=repr) == sorted(named, key=repr)
    assert list(report.pool.cuts) == list(cold_report.pool.cuts)
    reference = build_m0(case14)
    chordal = reference.network.cliques(network.chordal_cliques, 5)
    reference.extend_pairs(sorted({(a, b) for c in chordal.cliques
                                   for a in c for b in c if a < b}))
    reference.extend_pairs(sorted({key[1:] for cut in cold_report.pool.cuts
                                   for key in cut.terms
                                   if key[0] in ("c", "s")}))
    [model] = models
    assert len(reference.var_index) > len(build_m0(case14).var_index)
    assert list(model.var_index) == list(reference.var_index)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_cut_slacks_in_pool_order(case14, cold_report, monkeypatch, warm):
    """Each solve's row slacks are its pool's cuts', one per cut in pool
    order, after drops and after a warm start: the i-th is a.x - b of the
    i-th cut of the pool at the solve's primal point."""
    models, points, seen = [], [], []
    solve = lp_backend.ScipyHighsBackend.solve

    def build(case):
        models.append(build_m0(case))
        return models[-1]

    def solved(backend):
        res = solve(backend)
        points.append(res.primal)
        return res

    def aging(pool, slacks):
        [model], x = models, points[-1]
        assert len(slacks) == len(pool)
        assert slacks.tolist() == pytest.approx([
            sum(w * x[model.var_index[k]] for k, w in cut.terms.items())
            - cut.rhs for cut in pool.cuts], rel=1e-9, abs=1e-9)
        seen.append(len(slacks))
        return age_and_drop(pool, slacks)

    monkeypatch.setattr(driver, "build_m0", build)
    monkeypatch.setattr(lp_backend.ScipyHighsBackend, "solve", solved)
    monkeypatch.setattr(driver, "age_and_drop", aging)
    pert = perturb_loads(case14, seed=2, mu_frac=0.0, sigma_frac=0.1)
    report = cutplane(pert, RunConfig(),
                      warm=cold_report.pool if warm else None)
    assert sum(st.cuts_dropped for st in report.rounds) > 0
    # a run ending with no_cuts ages its last round too
    assert len(seen) == report.num_rounds - (report.termination != "no_cuts")
    assert max(seen) > 0
    assert (seen[0] > 0) == warm


@pytest.fixture(scope="module")
def pool_text(cold_report):
    buf = io.StringIO()
    save_cuts(cold_report.pool, buf)
    return buf.getvalue()


def _round0(case, pool, caplog):
    """Round 0's simplex iterations and the warm-start basis log lines."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="opfcuts.driver"):
        report = cutplane(case, RunConfig(max_rounds=1), warm=pool)
    lines = [r.getMessage() for r in caplog.records
             if "basis" in r.getMessage()]
    return report.rounds[0].lp_iterations, lines


@pytest.fixture(scope="module")
def perturbed(case14):
    return perturb_loads(case14, seed=0, mu_frac=0.0, sigma_frac=0.01)


@pytest.fixture(scope="module")
def slack_iterations(perturbed, pool_text):
    """Round 0 from the slack basis, with the cold pool's cuts."""
    pool, _ = load_cuts(io.StringIO(pool_text))
    return cutplane(perturbed, RunConfig(max_rounds=1),
                    warm=dataclasses.replace(pool, basis=None)
                    ).rounds[0].lp_iterations


def test_saved_basis_starts_round_0_at_its_optimum(perturbed, pool_text,
                                                   slack_iterations, caplog):
    """Only the balance rhs move at sigma 1 %, so the cold run's final
    basis, read back from its text, is still optimal."""
    pool, _ = load_cuts(io.StringIO(pool_text))
    iterations, lines = _round0(perturbed, pool, caplog)
    assert iterations == 0
    assert slack_iterations > 200
    assert lines == ["warm start: round 0 starts from the saved basis"]


def _refused(perturbed, pool, slack_iterations, caplog, reason):
    iterations, lines = _round0(perturbed, pool, caplog)
    assert iterations == slack_iterations
    assert len(lines) == 1
    assert lines[0].startswith("warm start: saved basis not used, as ")
    assert reason in lines[0]
    assert lines[0].endswith("round 0 starts from the slack basis")


def test_basis_of_another_case_is_ignored(perturbed, pool_text,
                                          slack_iterations, caplog):
    other = cutplane(parse_case(_ONE_BUS), RunConfig(max_rounds=1)).pool
    pool, _ = load_cuts(io.StringIO(pool_text))
    pool.basis = other.basis
    _refused(perturbed, pool, slack_iterations, caplog,
             "it has %d base rows" % len(other.basis.base_rows))


def test_basis_with_wrong_basic_count_is_ignored(perturbed, pool_text,
                                                 slack_iterations, caplog):
    pool, _ = load_cuts(io.StringIO(pool_text))
    base = pool.basis.base_rows
    pool.basis = dataclasses.replace(pool.basis, base_rows=base.replace(
        "B", "L", 1))
    _refused(perturbed, pool, slack_iterations, caplog, "basic variables")


def test_basis_highs_rejects_falls_back_to_slack(perturbed, pool_text,
                                                 slack_iterations, caplog,
                                                 monkeypatch):
    class Rejecting(lp_backend._highs._Highs):
        def setBasis(self, *args):
            return lp_backend._highs.HighsStatus.kError

    use_highs_class(monkeypatch, Rejecting)
    pool, _ = load_cuts(io.StringIO(pool_text))
    _refused(perturbed, pool, slack_iterations, caplog, "HiGHS rejected it")


def test_warm_start_leaves_callers_basis_unchanged(perturbed, pool_text):
    given, _ = load_cuts(io.StringIO(pool_text))
    basis = given.basis
    warm = cutplane(perturbed, RunConfig(max_rounds=4), warm=given)
    assert given.basis is basis
    buf = io.StringIO()
    save_cuts(given, buf)
    assert buf.getvalue() == pool_text
    assert warm.pool.basis is not None and warm.pool.basis is not basis


def test_pool_basis_is_the_last_solves(perturbed, monkeypatch):
    """The pool's basis, read after the run, equals the one the backend
    read at the end of the run."""
    read = []
    last_basis = lp_backend.ScipyHighsBackend.last_basis

    def recording(backend):
        read.append(last_basis(backend).saved())  # what basis() reads
        return last_basis(backend)

    monkeypatch.setattr(lp_backend.ScipyHighsBackend, "last_basis",
                        recording)
    report = cutplane(perturbed, RunConfig())
    [basis] = read
    assert isinstance(report.pool.basis, lp_backend.SavedBasis)
    assert report.pool.basis == basis
    assert report.pool.basis is report.pool.basis  # made once


def test_report_does_not_keep_the_backend(case14, monkeypatch):
    """Neither the report nor its pool's basis keeps the run's backend,
    and with it the HiGHS model, alive."""
    backends = []
    init = lp_backend.ScipyHighsBackend.__init__

    def recording(backend):
        init(backend)
        backends.append(weakref.ref(backend))

    monkeypatch.setattr(lp_backend.ScipyHighsBackend, "__init__", recording)
    report = cutplane(case14, RunConfig(max_rounds=3))
    [backend] = backends
    gc.collect()
    assert backend() is None
    assert report.pool.basis is not None


def test_report_table_text(cold_report):
    text = report_table([cold_report, RunReport(case_name="x")])
    lines = text.splitlines()
    assert lines[0].startswith("Case")
    assert "(5,0,0)" in lines[1]
    assert cold_report.termination in lines[1]
    assert lines[1].split()[6] == str(len(cold_report.pool))
    assert lines[2].split()[6] == "-"  # no pool, as DInf without a solve


def test_report_table_empty():
    text = report_table([])
    assert text.splitlines()[0].startswith("Case")
    assert len(text.splitlines()) == 1


def test_report_table_csv(cold_report):
    import csv
    import io
    out = report_table([cold_report, RunReport(case_name="x")], csv=True)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "Case"
    assert len(rows) == 3
    assert rows[1][2] == "(5,0,0)"
    assert (rows[2][3], rows[2][6]) == ("-", "-")
    assert float(rows[1][1]) == pytest.approx(cold_report.best_bound, abs=0.01)


@pytest.mark.parametrize("which", ["cold", "warm", "rounds"])
def test_eig_ratio_equals_a_decomposition_at_the_last_point(
        which, case14, cold_report, monkeypatch):
    """The report's eigenvalue ratio equals, bit for bit, the least ratio
    of the two largest eigenvalues over one `np.linalg.eigh` call per
    clique stack at the last solve's point.  A run that ends `no_cuts`
    reads it from its last separation and decomposes nothing again."""
    models, points, escalated, stacks, decomposed = [], [], [], [], []

    def build(case):
        models.append(build_m0(case))
        return models[-1]

    def solve(backend):
        res = solve_(backend)
        if res.primal is not None:
            points.append(res.primal)
        return res

    def escalate(*args):
        escalated.append(escalate_(*args))
        return escalated[-1]

    def separate(model, y, cliques):
        stacks.append(len(cliques.by_size))
        return separate_(model, y, cliques)

    def counted(x):
        decomposed.append(1)
        return eigen_(x)

    solve_, escalate_ = lp_backend.ScipyHighsBackend.solve, driver._escalate
    separate_, eigen_ = driver._separate, driver.eigen
    monkeypatch.setattr(driver, "build_m0", build)
    monkeypatch.setattr(lp_backend.ScipyHighsBackend, "solve", solve)
    monkeypatch.setattr(driver, "_escalate", escalate)
    monkeypatch.setattr(driver, "_separate", separate)
    monkeypatch.setattr(driver, "eigen", counted)
    config = RunConfig(max_rounds=3) if which == "rounds" else RunConfig()
    report = cutplane(case14, config, warm=cold_report.pool
                      if which == "warm" else None)
    assert report.termination == ("rounds" if which == "rounds"
                                  else "no_cuts")
    [model] = models
    cliques = escalated[-1] if escalated \
        else model.network.cliques(network.enumerate_three_cycles)
    # one decomposition per clique stack per separation, and one per stack
    # at the end unless the run is out of cuts
    assert len(decomposed) == sum(stacks) + (
        len(cliques.by_size) if which == "rounds" else 0)
    ratio = math.inf
    for group in cliques.by_size:
        vals = np.linalg.eigh(model.clique_matrix(points[-1], group))[0]
        ratio = min(ratio, float(np.min(vals[:, -1] / np.maximum(
            vals[:, -2], driver.EIG_RATIO_FLOOR))))
    assert report.eig_ratio.hex() == ratio.hex()
