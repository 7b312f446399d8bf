"""The LP master: the one owner of its columns and rows, solved by HiGHS.

`ScipyHighsBackend` holds the whole LP: the columns (objective and bounds),
the equality rows in build order, and the `>=` rows keyed by row id.  The
relaxation model writes into it and never keeps a copy.  Each solve hands
HiGHS the rows in a fixed order (equalities as built, `>=` rows sorted by
the `repr` of their id), so a solve is deterministic given the rows.

The backend alone decides what a solve proves: `LpSolveResult.dual_bound`
is the weak-duality bound of the returned multipliers, or -inf when they
need a reduced-cost repair above `CERTIFY_TOL`.  The primal objective and
the primal residual are reported but never certify anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import LpBackendError

FEASIBILITY_TOL = 1e-6   # HiGHS primal and dual feasibility tolerance
CERTIFY_TOL = 10.0 * FEASIBILITY_TOL  # largest reduced-cost repair credited


@dataclass
class LpSolveResult:
    status: str               # optimal | infeasible | unbounded | limit
    objective: float | None
    primal: np.ndarray | None
    dual_infeasibility: float | None
    primal_residual: float = 0.0  # worst row/bound violation of the primal
    dual_bound: float = -np.inf   # certified lower bound, or -inf for none
    row_slack: dict = field(default_factory=dict)  # >= row id -> a.x - b


class ScipyHighsBackend:
    """HiGHS via scipy.optimize.linprog; deterministic given fixed input."""

    def __init__(self, time_limit: float | None = None):
        self.time_limit = time_limit
        self.objective: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.eq_rows: list[tuple] = []   # (cols, coeffs, rhs), == rhs
        self.rows: dict = {}             # row_id -> (cols, coeffs, rhs), >= rhs

    def add_column(self, lower: float, upper: float, obj: float = 0.0) -> int:
        """Append a column; returns its index."""
        self.objective.append(obj)
        self.lower.append(lower)
        self.upper.append(upper)
        return len(self.objective) - 1

    def add_eq_row(self, cols, coeffs, rhs: float):
        self.eq_rows.append((cols, coeffs, rhs))

    def add_rows(self, rows):
        """rows: dict row_id -> (cols, coeffs, rhs) with sense >=."""
        self.rows.update(rows)

    def remove_rows(self, row_ids):
        for row_id in row_ids:
            if row_id not in self.rows:
                raise LpBackendError("unknown row id %r" % (row_id,))
            del self.rows[row_id]

    def _matrix(self, rows, negate=False):
        n = len(self.objective)
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
        if not self.objective:
            raise LpBackendError("model has no variables")
        objective = np.asarray(self.objective, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        a_eq = b_eq = a_ub = b_ub = None
        if self.eq_rows:
            a_eq, b_eq = self._matrix(self.eq_rows)
        row_ids = sorted(self.rows, key=repr)
        if row_ids:
            # >= rows enter HiGHS as negated <= rows
            a_ub, b_ub = self._matrix([self.rows[k] for k in row_ids],
                                      negate=True)
        options = {
            "presolve": True,
            "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "dual_feasibility_tolerance": FEASIBILITY_TOL,
        }
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        try:
            res = linprog(objective, A_ub=a_ub, b_ub=b_ub,
                          A_eq=a_eq, b_eq=b_eq,
                          bounds=list(zip(lower, upper)),
                          method="highs", options=options)
        except Exception as exc:  # scipy-level failure
            raise LpBackendError("HiGHS solve failed: %s" % exc) from exc
        status = {0: "optimal", 1: "limit", 2: "infeasible",
                  3: "unbounded"}.get(res.status)
        if status is None:
            raise LpBackendError("HiGHS error: %s" % res.message)
        primal = np.asarray(res.x) if res.x is not None else None
        dual_bound, dual_inf = _safe_dual_bound(
            res, objective, lower, upper, a_ub, b_ub, a_eq, b_eq)
        residual = 0.0
        row_slack = {}
        if primal is not None:
            # observed only: on ill-conditioned instances HiGHS can report
            # an infeasible point as optimal; the bound never rests on it
            if a_eq is not None:
                residual = float(np.abs(a_eq @ primal - b_eq).max())
            if a_ub is not None:
                ub_excess = a_ub @ primal - b_ub
                residual = max(residual, float(ub_excess.max(initial=0.0)))
                row_slack = dict(zip(row_ids, (-ub_excess).tolist()))
            residual = max(residual,
                           float((lower - primal).max(initial=0.0)),
                           float((primal - upper).max(initial=0.0)))
        return LpSolveResult(
            status=status,
            objective=float(res.fun) if res.status == 0 else None,
            primal=primal,
            dual_infeasibility=dual_inf,
            primal_residual=residual,
            dual_bound=dual_bound,
            row_slack=row_slack)


def _safe_dual_bound(res, objective, lower, upper, a_ub, b_ub, a_eq, b_eq):
    """Lower bound certified by the returned duals, and the repair size.

    HiGHS can declare an ill-conditioned LP optimal while its primal
    objective exceeds the true minimum, so the primal value is never a
    bound.  Weak duality rescues the round: for any y_ub <= 0 the
    Lagrangian bound  y'b + sum_j min_{l_j <= x_j <= u_j} rc_j x_j  is
    valid, where rc = c - A' y.  Reduced costs on unbounded coordinates
    cannot be absorbed and are clipped; their magnitude is the dual
    infeasibility.  A repair above `CERTIFY_TOL` certifies nothing, and
    the bound is -inf.
    """
    if res.status != 0:
        return -np.inf, None
    bound = 0.0
    rc = objective.copy()
    if a_ub is not None:
        y_ub = np.minimum(np.asarray(res.ineqlin.marginals), 0.0)
        bound += float(y_ub @ b_ub)
        rc -= a_ub.T @ y_ub
    if b_eq is not None:
        y_eq = np.asarray(res.eqlin.marginals)
        bound += float(y_eq @ b_eq)
        rc -= a_eq.T @ y_eq
    pos, neg = rc > 0.0, rc < 0.0
    absorbed = np.zeros_like(rc)
    absorbed[pos] = np.where(np.isfinite(lower[pos]),
                             rc[pos] * lower[pos], np.nan)
    absorbed[neg] = np.where(np.isfinite(upper[neg]),
                             rc[neg] * upper[neg], np.nan)
    clipped = np.isnan(absorbed)
    dual_inf = float(np.abs(rc[clipped]).max()) if clipped.any() else 0.0
    if dual_inf > CERTIFY_TOL:
        return -np.inf, dual_inf
    absorbed[clipped] = 0.0
    return bound + float(absorbed.sum()), dual_inf
