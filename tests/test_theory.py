import numpy as np

from opfcuts.hermitian import realify, w_to_x
from opfcuts.theory import (TheoryCheckResult, _jabr_forms, _random_complex,
                            check_feasibility_transfer,
                            check_no_orthogonal_similarity,
                            check_permuted_jabr, check_rank_lemma,
                            check_psd_transfer, run_all)
from test_hermitian import hermitian


def test_result_passed_logic():
    assert TheoryCheckResult("x", 1, 1e-10, 1e-9).passed
    assert not TheoryCheckResult("x", 1, 1e-8, 1e-9).passed


def test_random_complex_plants_rank():
    rng = np.random.default_rng(40)
    for r in range(5):
        x = _random_complex(rng, 5, r)
        assert np.linalg.matrix_rank(x, tol=1e-7) == r


def test_psd_transfer_named_examples():
    # the zero matrix and any realified Hermitian PSD matrix map inside
    assert np.allclose(w_to_x(np.zeros((6, 6))), 0.0)
    v = np.array([1.0 + 2.0j, -1.0j, 0.5])
    x = hermitian(np.outer(v, v.conj()))
    mapped = w_to_x(realify(x))
    assert np.linalg.eigvalsh(mapped)[0] >= -1e-12


def test_jabr_forms_identity():
    c, s, r, t = _jabr_forms(np.eye(8), 0, 1, 4, 5)
    assert (c, s, r, t) == (0.0, 0.0, 2.0, 2.0)
    assert c * c + s * s <= r * t


def test_similarity_counterexample_n1():
    # L(vv*) for unit complex v has spectrum {1, 1}; rank-one W has {1, 0}
    x = hermitian(np.array([[1.0 + 0j]]))
    spec = np.sort(np.linalg.eigvalsh(realify(x)))
    assert np.allclose(spec, [1.0, 1.0])


def test_each_check_passes_small():
    for chk in (check_psd_transfer, check_permuted_jabr, check_rank_lemma,
                check_no_orthogonal_similarity, check_feasibility_transfer):
        res = chk(trials=60, seed=1)
        assert res.passed, res


def test_run_all_names_unique():
    results = run_all(trials=30, seed=2)
    assert len(results) == 5
    assert len({r.name for r in results}) == 5
    assert all(r.passed for r in results)


def test_checks_deterministic():
    a = check_psd_transfer(trials=40, seed=7)
    b = check_psd_transfer(trials=40, seed=7)
    assert a == b
