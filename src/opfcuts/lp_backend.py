"""LP solver abstraction with incremental row edits.

The relaxation model only ever talks to this interface; the one adapter,
backed by scipy's HiGHS, is built by the driver.  Backends without true
incremental support rebuild the matrices on every solve, which is transparent
for correctness.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import LpBackendError


@dataclass
class LpSolveResult:
    status: str               # optimal | infeasible | unbounded | limit
    objective: float | None
    primal: np.ndarray | None
    dual_infeasibility: float | None
    solve_time: float
    primal_residual: float = 0.0  # worst row/bound violation of the primal
    dual_bound: float = -np.inf   # certified lower bound from the duals


class LpBackend(ABC):
    """Contract: load a model once, edit >= rows incrementally, solve."""

    name = "abstract"

    @abstractmethod
    def load(self, objective, lower, upper, eq_rows):
        """eq_rows: list of (cols, coeffs, rhs) equality constraints."""

    @abstractmethod
    def add_rows(self, rows):
        """rows: dict row_id -> (cols, coeffs, rhs) with sense >=."""

    @abstractmethod
    def remove_rows(self, row_ids):
        ...

    @abstractmethod
    def solve(self) -> LpSolveResult:
        ...


class ScipyHighsBackend(LpBackend):
    """HiGHS via scipy.optimize.linprog; deterministic given fixed input."""

    name = "highs"

    def __init__(self, feasibility_tol: float = 1e-6,
                 optimality_tol: float = 1e-6,
                 time_limit: float | None = None):
        self.feasibility_tol = feasibility_tol
        self.optimality_tol = optimality_tol
        self.time_limit = time_limit
        self._rows: dict = {}
        self._loaded = False

    def load(self, objective, lower, upper, eq_rows):
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.size < 1:
            raise LpBackendError("model has no variables")
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.eq_rows = list(eq_rows)
        self._rows = {}
        self._loaded = True

    def add_rows(self, rows):
        for row_id, row in rows.items():
            self._rows[row_id] = row

    def remove_rows(self, row_ids):
        for row_id in row_ids:
            if row_id not in self._rows:
                raise LpBackendError("unknown row id %r" % (row_id,))
            del self._rows[row_id]

    @property
    def row_ids(self):
        return set(self._rows)

    def _matrix(self, rows, negate=False):
        n = self.objective.size
        data, indices, indptr, rhs = [], [], [0], []
        sign = -1.0 if negate else 1.0
        for cols, coeffs, b in rows:
            indices.extend(cols)
            data.extend(sign * c for c in coeffs)
            indptr.append(len(indices))
            rhs.append(sign * b)
        return (csr_matrix((data, indices, indptr), shape=(len(rows), n)),
                np.array(rhs))

    def solve(self) -> LpSolveResult:
        if not self._loaded:
            raise LpBackendError("solve before load")
        t0 = time.perf_counter()
        a_eq = b_eq = a_ub = b_ub = None
        if self.eq_rows:
            a_eq, b_eq = self._matrix(self.eq_rows)
        self._a_eq = a_eq
        cut_rows = [self._rows[k] for k in sorted(self._rows, key=repr)]
        if cut_rows:
            # >= rows enter HiGHS as negated <= rows
            a_ub, b_ub = self._matrix(cut_rows, negate=True)
        options = {
            "presolve": True,
            "primal_feasibility_tolerance": self.feasibility_tol,
            "dual_feasibility_tolerance": self.optimality_tol,
        }
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        try:
            res = linprog(self.objective, A_ub=a_ub, b_ub=b_ub,
                          A_eq=a_eq, b_eq=b_eq,
                          bounds=list(zip(self.lower, self.upper)),
                          method="highs", options=options)
        except Exception as exc:  # scipy-level failure
            raise LpBackendError("HiGHS solve failed: %s" % exc) from exc
        elapsed = time.perf_counter() - t0
        status = {0: "optimal", 1: "limit", 2: "infeasible",
                  3: "unbounded"}.get(res.status)
        if status is None:
            raise LpBackendError("HiGHS error: %s" % res.message,
                                 backend_code=res.status)
        primal = np.asarray(res.x) if res.x is not None else None
        dual_bound, dual_inf = self._safe_dual_bound(res, a_ub, b_ub, b_eq)
        residual = 0.0
        if primal is not None:
            # trust-but-verify: on ill-conditioned instances HiGHS can report
            # an infeasible point as optimal, which would fake a bound
            if a_eq is not None:
                residual = float(np.abs(a_eq @ primal - b_eq).max())
            if a_ub is not None:
                residual = max(residual,
                               float((a_ub @ primal - b_ub).max(initial=0.0)))
            residual = max(residual,
                           float((self.lower - primal).max(initial=0.0)),
                           float((primal - self.upper).max(initial=0.0)))
        return LpSolveResult(
            status=status,
            objective=float(res.fun) if res.status == 0 else None,
            primal=primal,
            dual_infeasibility=dual_inf,
            solve_time=elapsed,
            primal_residual=residual,
            dual_bound=dual_bound)

    def _safe_dual_bound(self, res, a_ub, b_ub, b_eq):
        """Lower bound certified by the returned duals, and the repair size.

        HiGHS can declare an ill-conditioned LP optimal while its primal
        objective exceeds the true minimum, so the primal value alone is not
        a safe bound.  Weak duality rescues the round: for any y_ub <= 0 the
        Lagrangian bound  y'b + sum_j min_{l_j <= x_j <= u_j} rc_j x_j  is
        valid, where rc = c - A' y.  Reduced costs on unbounded coordinates
        cannot be absorbed and are clipped, with their magnitude reported as
        the dual infeasibility.
        """
        if res.status != 0:
            return -np.inf, None
        bound = 0.0
        rc = self.objective.astype(float).copy()
        if a_ub is not None:
            y_ub = np.minimum(np.asarray(res.ineqlin.marginals), 0.0)
            bound += float(y_ub @ b_ub)
            rc -= a_ub.T @ y_ub
        if b_eq is not None:
            y_eq = np.asarray(res.eqlin.marginals)
            bound += float(y_eq @ b_eq)
            rc -= self._a_eq.T @ y_eq
        lo, up = self.lower, self.upper
        pos, neg = rc > 0.0, rc < 0.0
        absorbed = np.zeros_like(rc)
        absorbed[pos] = np.where(np.isfinite(lo[pos]), rc[pos] * lo[pos], np.nan)
        absorbed[neg] = np.where(np.isfinite(up[neg]), rc[neg] * up[neg], np.nan)
        clipped = np.isnan(absorbed)
        dual_inf = float(np.abs(rc[clipped]).max()) if clipped.any() else 0.0
        absorbed[clipped] = 0.0
        return bound + float(absorbed.sum()), dual_inf

