"""The LP master: the one owner of its columns and rows, solved by HiGHS.

`ScipyHighsBackend` holds the whole LP: the columns (objective and bounds)
and one flat row store in HiGHS row order.  Entry k is `vals[k]` in row
`row_of[k]`, column `cols[k]`; row i reads a.x >= rhs[i] where `ge[i]`,
a.x = rhs[i] elsewhere; `rows` maps the id of each `>=` row to its row.
The relaxation model writes into it and never keeps a copy.

HiGHS sees one persistent model, created at the first `solve()`.  Row
edits are queued; `solve()` appends the queued rows to the store, compacts
it over the removed ones with one mask, hands HiGHS the new columns, the
removed rows and the new rows as slices of the store, and re-solves with
the simplex method from the basis the model kept, presolve off.  Only the
solution, the duals and the status are read back.  scipy before 1.15 ships
no HiGHS bindings (`scipy.optimize._highspy._core`); there each solve
builds its matrix from the same store and calls `scipy.optimize.linprog`.

`time_limit`, when set, bounds the seconds HiGHS may spend in the next
solve; the driver sets it to what is left of the run's time limit, and a
solve stopped by it returns the status `limit`.

The backend alone decides what a solve proves: `LpSolveResult.dual_bound`
is the weak-duality bound of the returned multipliers over the rows as
built, or -inf when they need a reduced-cost repair above `CERTIFY_TOL`.
HiGHS silently drops matrix entries of magnitude at most 1e-9; the store
keeps them, so the certificate covers them too.  The primal objective and
the primal residual are reported but never certify anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import LpBackendError

try:  # HiGHS's own bindings, shipped with scipy >= 1.15
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None

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
    """One HiGHS model, edited in place; deterministic given the edits."""

    def __init__(self):
        self.time_limit: float | None = None  # seconds for the next solve
        self.objective: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.cols = np.zeros(0, np.int32)
        self.vals = np.zeros(0)
        self.row_of = np.zeros(0, np.intp)
        self.rhs = np.zeros(0)
        self.ge = np.zeros(0, bool)
        self.rows: dict = {}   # >= row id -> its row, queued rows included
        self._queue: list = []  # rows (cols, coeffs, rhs, ge) not yet stored
        self._dead: list = []   # rows removed since the last solve
        self._highs = None     # the persistent model, made at the first solve
        self._n_loaded = 0     # leading rows of the store that HiGHS holds

    def add_column(self, lower: float, upper: float, obj: float = 0.0) -> int:
        """Append a column; returns its index."""
        self.objective.append(obj)
        self.lower.append(lower)
        self.upper.append(upper)
        return len(self.objective) - 1

    def add_eq_row(self, cols, coeffs, rhs: float):
        self._queue.append((cols, coeffs, rhs, False))

    def add_rows(self, rows):
        """rows: dict row_id -> (cols, coeffs, rhs) with sense >=.

        An id already present is replaced: its old row is removed first.
        """
        for row_id, (cols, coeffs, rhs) in rows.items():
            if row_id in self.rows:
                self.remove_rows([row_id])
            self.rows[row_id] = len(self.rhs) + len(self._queue)
            self._queue.append((cols, coeffs, rhs, True))

    def remove_rows(self, row_ids):
        for row_id in row_ids:
            row = self.rows.pop(row_id, None)
            if row is None:
                raise LpBackendError("unknown row id %r" % (row_id,))
            self._dead.append(row)

    def solve(self) -> LpSolveResult:
        if not self.objective:
            raise LpBackendError("model has no variables")
        gone = self._store()
        if _highs is None:
            return self._solve_linprog()
        highs = self._sync(gone)
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
        sol = highs.getSolution()
        primal = np.asarray(sol.col_value) \
            if status in ("optimal", "limit") and sol.value_valid else None
        return self._result(status, highs.getObjectiveValue(), primal,
                            np.asarray(sol.row_dual))

    def _store(self) -> np.ndarray:
        """Append the queued rows to the store, then compact it over the
        removed rows; returns the removed rows' positions in HiGHS."""
        if self._queue:
            cols, vals, rhs, ge = zip(*self._queue)
            n, lengths = len(self.rhs), list(map(len, cols))
            self._queue = []
            self.cols = np.append(self.cols, np.fromiter(
                chain.from_iterable(cols), np.int32))
            self.vals = np.append(self.vals, np.fromiter(
                chain.from_iterable(vals), float))
            self.row_of = np.append(self.row_of, np.repeat(
                np.arange(n, n + len(rhs)), lengths))
            self.rhs, self.ge = np.append(self.rhs, rhs), np.append(self.ge, ge)
        if not self._dead:
            return np.zeros(0, np.int32)
        keep = np.ones(len(self.rhs), bool)
        keep[self._dead] = False
        self._dead = []
        gone = np.flatnonzero(~keep[:self._n_loaded]).astype(np.int32)
        self._n_loaded -= len(gone)
        entries, new_row = keep[self.row_of], np.cumsum(keep) - 1
        self.cols, self.vals = self.cols[entries], self.vals[entries]
        self.row_of = new_row[self.row_of[entries]]
        self.rhs, self.ge = self.rhs[keep], self.ge[keep]
        self.rows = dict(zip(self.rows, new_row[list(self.rows.values())]
                             .tolist()))
        return gone

    def _sync(self, gone):
        """Apply the stored edits to the persistent HiGHS model."""
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
        if len(gone):
            _check(highs.deleteRows(len(gone), gone), "deleteRows")
        first, n_row = self._n_loaded, len(self.rhs)
        if n_row > first:
            starts = np.searchsorted(self.row_of, np.arange(first, n_row))
            rhs = self.rhs[first:]
            _check(highs.addRows(
                n_row - first, rhs, np.where(self.ge[first:], np.inf, rhs),
                int(len(self.cols) - starts[0]),
                (starts - starts[0]).astype(np.int32),
                self.cols[starts[0]:], self.vals[starts[0]:]), "addRows")
            self._n_loaded = n_row
        return highs

    def _solve_linprog(self) -> LpSolveResult:
        """Solve the stored LP cold with linprog."""
        a = csr_matrix((self.vals, (self.row_of, self.cols)),
                       shape=(len(self.rhs), len(self.objective)))
        ge, b = self.ge, self.rhs
        options = {"presolve": True,
                   "primal_feasibility_tolerance": FEASIBILITY_TOL,
                   "dual_feasibility_tolerance": FEASIBILITY_TOL}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        try:
            # >= rows enter linprog as negated <= rows
            res = linprog(self.objective,
                          A_ub=-a[ge] if ge.any() else None,
                          b_ub=-b[ge] if ge.any() else None,
                          A_eq=a[~ge] if not ge.all() else None,
                          b_eq=b[~ge] if not ge.all() else None,
                          bounds=list(zip(self.lower, self.upper)),
                          method="highs", options=options)
        except Exception as exc:  # scipy-level failure
            raise LpBackendError("HiGHS solve failed: %s" % exc) from exc
        status = {0: "optimal", 1: "limit", 2: "infeasible",
                  3: "unbounded"}.get(res.status)
        if status is None:
            raise LpBackendError("HiGHS error: %s" % res.message)
        y = np.zeros(len(b))
        if res.status == 0:
            y[~ge] = res.eqlin.marginals
            y[ge] = -np.asarray(res.ineqlin.marginals)
        return self._result(status, res.fun,
                            np.asarray(res.x) if res.x is not None else None,
                            y)

    def _result(self, status, objective_value, primal, y) -> LpSolveResult:
        """The solve result over the stored rows; `y` holds the row duals.

        Certificate, residual and row slacks all read the same store.
        """
        objective = np.asarray(self.objective, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        ge, b = self.ge, self.rhs
        if status == "optimal":
            dual_bound, dual_inf = _safe_dual_bound(
                objective, lower, upper, self.cols, self.vals, self.row_of,
                b, ge, y)
        else:
            dual_bound, dual_inf = -np.inf, None
        residual = 0.0
        row_slack = {}
        if primal is not None:
            # observed only: on ill-conditioned instances HiGHS can report
            # an infeasible point as optimal; the bound never rests on it
            excess = np.bincount(self.row_of, self.vals * primal[self.cols],
                                 len(b)) - b
            row_slack = dict(zip(self.rows, excess[ge].tolist()))
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


def _check(status, what: str):
    if status == _highs.HighsStatus.kError:
        raise LpBackendError("HiGHS %s failed" % what)


def _safe_dual_bound(objective, lower, upper, cols, vals, row_of, b, ge, y):
    """Lower bound certified by the row duals `y`, and the repair size.

    HiGHS can declare an ill-conditioned LP optimal while its primal
    objective exceeds the true minimum, so the primal value is never a
    bound.  Weak duality rescues the round: with the duals of the `>=`
    rows clipped to y >= 0, the Lagrangian bound
    y'b + sum_j min_{l_j <= x_j <= u_j} rc_j x_j  is valid, where
    rc = c - A'y, with A the stored entries (cols, vals, row_of).
    Reduced costs on unbounded coordinates cannot be
    absorbed and are clipped; their magnitude is the dual infeasibility.
    A repair above `CERTIFY_TOL` certifies nothing, and the bound is -inf.
    """
    y = np.where(ge, np.maximum(y, 0.0), y)
    bound = float(y @ b)
    rc = objective - np.bincount(cols, vals * y[row_of], len(objective))
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
