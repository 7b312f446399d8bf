import numpy as np
import pytest

from opfcuts.hermitian import (HermitianMatrix, eigen, psd_cutoff,
                               psd_project, rank_of, realify, w_to_x)


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(a + a.conj().T)


def test_realify_identity():
    assert np.array_equal(realify(HermitianMatrix(np.eye(3))), np.eye(6))


def test_realify_hand_example():
    x = HermitianMatrix(np.array([[0, -1j], [1j, 0]]))
    expect = np.zeros((4, 4))
    expect[0, 3] = expect[3, 0] = 1.0
    expect[1, 2] = expect[2, 1] = -1.0
    assert np.allclose(realify(x), expect)


def test_realify_linear():
    rng = np.random.default_rng(0)
    x, y = _random_hermitian(rng, 4), _random_hermitian(rng, 4)
    lhs = realify(HermitianMatrix(2.0 * x.mat + 3.0 * y.mat))
    assert np.allclose(lhs, 2.0 * realify(x) + 3.0 * realify(y))


def test_eigen_diagonal():
    dec = eigen(HermitianMatrix(np.diag([3.0, -1.0])))
    assert dec.eigenvalues == pytest.approx([3.0, -1.0])
    assert abs(dec.eigenvectors[0, 0]) == pytest.approx(1.0)


def test_eigen_symmetric_2x2():
    dec = eigen(HermitianMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert dec.eigenvalues == pytest.approx([3.0, -1.0])
    q = dec.eigenvectors[:, 1]
    ratio = q[0] / q[1]
    assert ratio == pytest.approx(-1.0)


def test_eigen_complex_2x2():
    dec = eigen(HermitianMatrix(np.array([[2.0, 1j], [-1j, 2.0]])))
    assert dec.eigenvalues == pytest.approx([3.0, 1.0])


def test_eigen_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x = _random_hermitian(rng, n)
        dec = eigen(x)
        scale = 1.0 + np.linalg.norm(x.mat)
        for i in range(n):
            resid = x.mat @ dec.eigenvectors[:, i] \
                - dec.eigenvalues[i] * dec.eigenvectors[:, i]
            assert np.abs(resid).max() <= 1e-9 * scale
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-9


def test_eigen_degenerate_spectrum():
    dec = eigen(HermitianMatrix(np.eye(4)))
    assert dec.eigenvalues == pytest.approx([1.0] * 4)


def test_psd_status_agrees_with_realified_spectrum():
    """X is PSD iff L(X) is: separation's PSD test, `eigen` against
    `psd_cutoff`, agrees with the spectrum of L(X) on random indefinite
    matrices and on Gram matrices."""
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        for x in (_random_hermitian(rng, int(rng.integers(2, 6))),
                  HermitianMatrix(v.conj().T @ v)):
            vals = np.linalg.eigvalsh(realify(x))
            direct_psd = vals[0] >= -1e-8 * max(1.0, np.trace(x.mat).real)
            psd = eigen(x).eigenvalues[-1] >= psd_cutoff(x.mat, 1e-8)
            assert psd == direct_psd
        assert psd  # the Gram matrix, checked last


def test_psd_project_examples():
    proj = psd_project(HermitianMatrix(np.diag([1.0, -2.0])))
    assert np.allclose(proj.mat, np.diag([1.0, 0.0]), atol=1e-9)
    x = HermitianMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert np.allclose(psd_project(x).mat, x.mat, atol=1e-9)
    zero = psd_project(HermitianMatrix(-np.eye(2)))
    assert np.allclose(zero.mat, 0.0, atol=1e-12)


def test_psd_project_distance_and_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = _random_hermitian(rng, 4)
        dec = eigen(x)
        proj = psd_project(x)
        dist = np.linalg.norm(proj.mat - x.mat)
        expect = np.sqrt(sum(l * l for l in dec.eigenvalues if l < 0))
        assert dist == pytest.approx(expect, abs=1e-9)
        inner = np.trace((proj.mat - x.mat) @ proj.mat).real
        assert abs(inner) <= 1e-8 * (1 + np.linalg.norm(x.mat) ** 2)


def test_w_to_x_identity():
    assert np.allclose(w_to_x(np.eye(8)).mat, 2 * np.eye(4))


def test_w_to_x_realified_round_trip():
    rng = np.random.default_rng(5)
    x = _random_hermitian(rng, 5)
    assert np.allclose(w_to_x(realify(x)).mat, 2 * x.mat, atol=1e-12)


def test_w_to_x_rank_one():
    rng = np.random.default_rng(6)
    e = rng.standard_normal(4)
    f = rng.standard_normal(4)
    u = np.concatenate([e, f])
    v = e + 1j * f
    assert np.allclose(w_to_x(np.outer(u, u)).mat,
                       np.outer(v, v.conj()), atol=1e-12)


def test_w_to_x_odd_dimension():
    with pytest.raises(ValueError):
        w_to_x(np.eye(3))


def test_rank_of_examples():
    assert rank_of(HermitianMatrix(np.zeros((3, 3))), 1e-9) == 0
    assert rank_of(HermitianMatrix(np.eye(5)), 1e-9) == 5
    rng = np.random.default_rng(7)
    q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    q /= np.linalg.norm(q)
    x = HermitianMatrix(np.outer(q, q.conj()))
    assert rank_of(x, 1e-9) == 1
    assert rank_of(realify(x), 1e-9) == 2
