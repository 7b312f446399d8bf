"""The LP master: the one owner of its columns and rows, solved by HiGHS.

`ScipyHighsBackend` holds the whole LP: the columns (objective and bounds),
the equality rows, and the `>=` rows keyed by row id, each in insertion
order.  The relaxation model writes into it and never keeps a copy.

HiGHS sees one persistent model, created at the first `solve()`.  Every
edit is recorded in Python and queued; `solve()` applies the queue in place
(new columns, deleted rows, then new equality rows and new `>=` rows in
insertion order) and re-solves with the simplex method from the basis the
model kept, presolve off.  A `>=` row enters as the row bounds [rhs, +inf].
scipy before 1.15 ships no HiGHS bindings (`scipy.optimize._highspy._core`);
there each solve builds the LP afresh and calls `scipy.optimize.linprog`.

`time_limit`, when set, bounds the seconds HiGHS may spend in the next
solve; the driver sets it to what is left of the run's time limit, and a
solve stopped by it returns the status `limit`.

The backend alone decides what a solve proves: `LpSolveResult.dual_bound`
is the weak-duality bound of the returned multipliers over the unscaled
rows the backend handed HiGHS, or -inf when they need a reduced-cost repair
above `CERTIFY_TOL`.  The primal objective and the primal residual are
reported but never certify anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix, csr_matrix

from .errors import LpBackendError

try:  # HiGHS's own bindings, shipped with scipy >= 1.15
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None

FEASIBILITY_TOL = 1e-6   # HiGHS primal and dual feasibility tolerance
CERTIFY_TOL = 10.0 * FEASIBILITY_TOL  # largest reduced-cost repair credited

_EQ_ROW = object()  # marks an equality row in the HiGHS row order


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
    """One HiGHS model, edited in place; deterministic given the edits."""

    def __init__(self):
        self.time_limit: float | None = None  # seconds for the next solve
        self.objective: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.eq_rows: list[tuple] = []   # (cols, coeffs, rhs), == rhs
        self.rows: dict = {}             # row_id -> (cols, coeffs, rhs), >= rhs
        self._highs = None     # the persistent model, made at the first solve
        self._loaded: list = []  # HiGHS row order: >= row ids and _EQ_ROW
        self._added: dict = {}   # >= row ids added since the last solve
        self._removed: list = []  # ids of removed rows that HiGHS still holds

    def add_column(self, lower: float, upper: float, obj: float = 0.0) -> int:
        """Append a column; returns its index."""
        self.objective.append(obj)
        self.lower.append(lower)
        self.upper.append(upper)
        return len(self.objective) - 1

    def add_eq_row(self, cols, coeffs, rhs: float):
        self.eq_rows.append((cols, coeffs, rhs))

    def add_rows(self, rows):
        """rows: dict row_id -> (cols, coeffs, rhs) with sense >=.

        An id already present is replaced: its old row is removed first.
        """
        for row_id, row in rows.items():
            if row_id in self.rows:
                self.remove_rows([row_id])
            self.rows[row_id] = row
            self._added[row_id] = None

    def remove_rows(self, row_ids):
        for row_id in row_ids:
            if row_id not in self.rows:
                raise LpBackendError("unknown row id %r" % (row_id,))
            del self.rows[row_id]
            if row_id in self._added:  # never handed to HiGHS
                del self._added[row_id]
            else:
                self._removed.append(row_id)

    def solve(self) -> LpSolveResult:
        if not self.objective:
            raise LpBackendError("model has no variables")
        if _highs is None:
            return self._solve_linprog()
        highs = self._sync()
        if self.time_limit is not None:
            # HiGHS compares its limit with the run time summed over every
            # run() of the model, so the budget starts from that sum
            _check(highs.setOptionValue(
                "time_limit", highs.getRunTime() + self.time_limit),
                "time_limit")
        _check(highs.run(), "solve")
        model_status = highs.getModelStatus()
        kind = _highs.HighsModelStatus
        status = {kind.kOptimal: "optimal", kind.kTimeLimit: "limit",
                  kind.kIterationLimit: "limit",
                  kind.kInfeasible: "infeasible",
                  kind.kUnbounded: "unbounded"}.get(model_status)
        if status is None:
            raise LpBackendError(
                "HiGHS error: %s" % highs.modelStatusToString(model_status))
        lp = highs.getLp()
        mat = lp.a_matrix_
        fmt = csc_matrix if mat.format_ == _highs.MatrixFormat.kColwise \
            else csr_matrix
        a = fmt((mat.value_, mat.index_, mat.start_),
                shape=(lp.num_row_, lp.num_col_))
        ge = np.isinf(np.asarray(lp.row_upper_))
        sol = highs.getSolution()
        primal = np.asarray(sol.col_value) \
            if status in ("optimal", "limit") and sol.value_valid else None
        return _result(
            status, highs.getInfo().objective_function_value, primal,
            np.asarray(sol.row_dual), np.asarray(lp.col_cost_),
            np.asarray(lp.col_lower_), np.asarray(lp.col_upper_), a,
            np.asarray(lp.row_lower_), ge,
            [rid for rid in self._loaded if rid is not _EQ_ROW])

    def _sync(self):
        """Apply the queued edits to the persistent HiGHS model."""
        if self._highs is None:
            self._highs = _highs._Highs()
            for option, value in (
                    ("output_flag", False), ("presolve", "off"),
                    ("primal_feasibility_tolerance", FEASIBILITY_TOL),
                    ("dual_feasibility_tolerance", FEASIBILITY_TOL)):
                _check(self._highs.setOptionValue(option, value), option)
        highs = self._highs
        n_col = highs.getNumCol()
        if len(self.objective) > n_col:
            none_i, none_f = np.zeros(0, np.int32), np.zeros(0)
            _check(highs.addCols(
                len(self.objective) - n_col,
                np.array(self.objective[n_col:], dtype=float),
                np.array(self.lower[n_col:], dtype=float),
                np.array(self.upper[n_col:], dtype=float),
                0, none_i, none_i, none_f), "addCols")
        if self._removed:
            gone = set(self._removed)
            drop = [i for i, rid in enumerate(self._loaded)
                    if rid is not _EQ_ROW and rid in gone]
            _check(highs.deleteRows(len(drop), np.array(drop, np.int32)),
                   "deleteRows")
            self._loaded = [rid for rid in self._loaded
                            if rid is _EQ_ROW or rid not in gone]
            self._removed = []
        n_eq = self._loaded.count(_EQ_ROW)
        new_eq = self.eq_rows[n_eq:]
        new_ge = [self.rows[rid] for rid in self._added]
        if new_eq or new_ge:
            a, rhs = _matrix(new_eq + new_ge, highs.getNumCol())
            upper = rhs.copy()
            upper[len(new_eq):] = np.inf
            _check(highs.addRows(len(rhs), rhs, upper, a.nnz,
                                 a.indptr[:-1].astype(np.int32),
                                 a.indices.astype(np.int32), a.data),
                   "addRows")
            self._loaded += [_EQ_ROW] * len(new_eq) + list(self._added)
            self._added = {}
        return highs

    def _solve_linprog(self) -> LpSolveResult:
        """Build the LP afresh and solve it cold with linprog."""
        objective = np.asarray(self.objective, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        n_eq = len(self.eq_rows)
        row_ids = list(self.rows)
        a, b = _matrix(self.eq_rows + list(self.rows.values()), len(objective))
        ge = np.arange(len(b)) >= n_eq
        options = {
            "presolve": True,
            "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "dual_feasibility_tolerance": FEASIBILITY_TOL,
        }
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        try:
            # >= rows enter linprog as negated <= rows
            res = linprog(objective,
                          A_ub=-a[n_eq:] if row_ids else None,
                          b_ub=-b[n_eq:] if row_ids else None,
                          A_eq=a[:n_eq] if n_eq else None,
                          b_eq=b[:n_eq] if n_eq else None,
                          bounds=list(zip(lower, upper)),
                          method="highs", options=options)
        except Exception as exc:  # scipy-level failure
            raise LpBackendError("HiGHS solve failed: %s" % exc) from exc
        status = {0: "optimal", 1: "limit", 2: "infeasible",
                  3: "unbounded"}.get(res.status)
        if status is None:
            raise LpBackendError("HiGHS error: %s" % res.message)
        y = np.zeros(len(b))
        if res.status == 0:
            if n_eq:
                y[:n_eq] = res.eqlin.marginals
            if row_ids:
                y[n_eq:] = -np.asarray(res.ineqlin.marginals)
        return _result(status, res.fun,
                       np.asarray(res.x) if res.x is not None else None,
                       y, objective, lower, upper, a, b, ge, row_ids)


def _check(status, what: str):
    if status == _highs.HighsStatus.kError:
        raise LpBackendError("HiGHS %s failed" % what)


def _matrix(rows, n_col: int):
    """CSR matrix and rhs of (cols, coeffs, rhs) rows."""
    data, indices, indptr, rhs = [], [], [0], []
    for cols, coeffs, b in rows:
        indices.extend(cols)
        data.extend(coeffs)
        indptr.append(len(indices))
        rhs.append(b)
    return (csr_matrix((np.asarray(data, dtype=float),
                        np.asarray(indices, dtype=np.int32), indptr),
                       shape=(len(rows), n_col)),
            np.asarray(rhs, dtype=float))


def _result(status, objective_value, primal, y, objective, lower, upper,
            a, b, ge, row_ids) -> LpSolveResult:
    """The solve result over rows a.x = b (a.x >= b where `ge`).

    `y` holds the row duals, `row_ids` the ids of the `>=` rows in order.
    Certificate, residual and row slacks all read the same matrix.
    """
    if status == "optimal":
        dual_bound, dual_inf = _safe_dual_bound(
            objective, lower, upper, a, b, ge, y)
    else:
        dual_bound, dual_inf = -np.inf, None
    residual = 0.0
    row_slack = {}
    if primal is not None:
        # observed only: on ill-conditioned instances HiGHS can report
        # an infeasible point as optimal; the bound never rests on it
        excess = a @ primal - b
        row_slack = dict(zip(row_ids, excess[ge].tolist()))
        residual = max(float(np.abs(excess[~ge]).max(initial=0.0)),
                       float((-excess[ge]).max(initial=0.0)),
                       float((lower - primal).max(initial=0.0)),
                       float((primal - upper).max(initial=0.0)))
    return LpSolveResult(
        status=status,
        objective=float(objective_value) if status == "optimal" else None,
        primal=primal,
        dual_infeasibility=dual_inf,
        primal_residual=residual,
        dual_bound=dual_bound,
        row_slack=row_slack)


def _safe_dual_bound(objective, lower, upper, a, b, ge, y):
    """Lower bound certified by the row duals `y`, and the repair size.

    HiGHS can declare an ill-conditioned LP optimal while its primal
    objective exceeds the true minimum, so the primal value is never a
    bound.  Weak duality rescues the round: with the duals of the `>=`
    rows clipped to y >= 0, the Lagrangian bound
    y'b + sum_j min_{l_j <= x_j <= u_j} rc_j x_j  is valid, where
    rc = c - A'y.  Reduced costs on unbounded coordinates cannot be
    absorbed and are clipped; their magnitude is the dual infeasibility.
    A repair above `CERTIFY_TOL` certifies nothing, and the bound is -inf.
    """
    y = np.where(ge, np.maximum(y, 0.0), y)
    bound = float(y @ b)
    rc = objective - a.T @ y
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
