"""Randomized verification harness for the structural facts the cuts rely on.

Each check draws its own generator from a seed, so runs are reproducible and
independent of global RNG state.  Checks return a TheoryCheckResult rather
than raising, so a driver can run the whole battery and report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hermitian import eigen, rank_of, realify, w_to_x

DEFAULT_TRIALS = 500
PSD_CHECK_TOL = 1e-8
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class TheoryCheckResult:
    name: str
    trials: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def _random_psd(rng, n: int) -> np.ndarray:
    """Random real PSD matrix with spectrum in roughly [0, n]."""
    a = rng.standard_normal((n, n))
    return a @ a.T / n


def _random_complex(rng, n: int, rank: int) -> np.ndarray:
    """Random complex n x n matrix with exactly the planted rank.

    Built from orthonormal factors and singular values in [0.5, 2] so the
    numerical rank is unambiguous.
    """
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    u, _ = np.linalg.qr(rng.standard_normal((n, rank))
                        + 1j * rng.standard_normal((n, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((n, rank))
                        + 1j * rng.standard_normal((n, rank)))
    sigma = rng.uniform(0.5, 2.0, size=rank)
    return (u * sigma) @ v.conj().T


def check_psd_transfer(trials: int = DEFAULT_TRIALS,
                       seed: int = 0) -> TheoryCheckResult:
    """PSD W of order 2n maps to a PSD X^W of order n."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        w = _random_psd(rng, 2 * n)
        x = w_to_x(w)
        lam_min = eigen(x).eigenvalues[-1]
        floor = -PSD_CHECK_TOL * max(1.0, float(np.trace(w)))
        worst = max(worst, max(0.0, floor - lam_min))
    return TheoryCheckResult("psd_transfer", trials, worst, PSD_CHECK_TOL)


def _jabr_forms(w: np.ndarray, k: int, m: int, kp: int, mp: int):
    c = w[k, m] + w[kp, mp]
    s = w[m, kp] - w[k, mp]
    r = w[k, k] + w[kp, kp]
    t = w[m, m] + w[mp, mp]
    return c, s, r, t


def check_permuted_jabr(trials: int = DEFAULT_TRIALS,
                        seed: int = 0) -> TheoryCheckResult:
    """c^2 + s^2 <= r t over every permutation of a random index quadruple."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 13))
        w = _random_psd(rng, n)
        quad = tuple(rng.choice(n, size=4, replace=False))
        for perm in itertools.permutations(quad):
            c, s, r, t = _jabr_forms(w, *perm)
            worst = max(worst, c * c + s * s - r * t)
    return TheoryCheckResult("permuted_jabr", trials, worst, EXACT_TOL)


def check_rank_lemma(trials: int = DEFAULT_TRIALS,
                     seed: int = 0) -> TheoryCheckResult:
    """Realification exactly doubles the rank of any complex square matrix."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        x = _random_complex(rng, n, r)
        got = rank_of(realify(x), tol=1e-7)
        worst = max(worst, float(abs(got - 2 * r)))
    return TheoryCheckResult("rank_lemma", trials, worst, 0.0)


def check_no_orthogonal_similarity(trials: int = DEFAULT_TRIALS,
                                   seed: int = 0) -> TheoryCheckResult:
    """L(X) of a rank-one Hermitian X is never similar to a rank-one W.

    Orthogonal similarity preserves spectra; the realification of a nonzero
    rank-one X has two equal positive eigenvalues, while a rank-one symmetric
    W has only one nonzero eigenvalue, so the sorted spectra must differ.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        x = np.outer(v, v.conj())
        u = rng.standard_normal(2 * n)
        u /= np.linalg.norm(u)
        w = np.outer(u, u)
        spec_l = np.sort(np.linalg.eigvalsh(realify(x)))
        spec_w = np.sort(np.linalg.eigvalsh(w))
        worst = min(worst, float(np.abs(spec_l - spec_w).max()))
    # a "violation" here is the spectra coinciding; report how close they got
    return TheoryCheckResult("no_orthogonal_similarity", trials,
                             0.0 if worst > EXACT_TOL else 1.0, 0.0)


def check_feasibility_transfer(trials: int = DEFAULT_TRIALS,
                               seed: int = 0) -> TheoryCheckResult:
    """The W -> X^W map preserves the shared linear constraint values.

    Every model constraint is a function of (v2, c, s); extracting those from
    a PSD W of order 2n and from X^W must give identical numbers, and X^W
    stays PSD, so any feasible doubled-variable point transfers.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        w = _random_psd(rng, 2 * n)
        x = w_to_x(w)
        for k in range(n):
            v2 = w[k, k] + w[k + n, k + n]
            worst = max(worst, abs(x[k, k].real - v2))
            for m in range(k + 1, n):
                c = w[k, m] + w[k + n, m + n]
                s = w[m, k + n] - w[k, m + n]
                worst = max(worst, abs(x[k, m].real - c),
                            abs(x[k, m].imag - s))
        lam_min = eigen(x).eigenvalues[-1]
        floor = -PSD_CHECK_TOL * max(1.0, float(np.trace(w)))
        worst = max(worst, max(0.0, floor - lam_min))
    return TheoryCheckResult("feasibility_transfer", trials, worst, EXACT_TOL)


ALL_CHECKS = (check_psd_transfer, check_permuted_jabr, check_rank_lemma,
              check_no_orthogonal_similarity, check_feasibility_transfer)


def run_all(trials: int = DEFAULT_TRIALS, seed: int = 0):
    return [chk(trials=trials, seed=seed) for chk in ALL_CHECKS]
