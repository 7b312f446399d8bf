"""The LP master: the one owner of its columns and rows, solved by HiGHS.

`ScipyHighsBackend` holds the whole LP: the columns (objective and bounds),
each named by a key that `columns` maps to its index, and one flat row
store in HiGHS row order.  Entry k is `vals[k]` in row `row_of[k]`, column
`cols[k]`; row i reads a.x >= rhs[i] where `ge[i]`, a.x = rhs[i] elsewhere.
The relaxation model writes into it and never keeps a copy.

Columns enter in blocks, `add_columns(keys, lower, upper, objective)`;
`objective`, `lower` and `upper` are float arrays, grown by one concatenate
per block.  Rows enter in blocks too, `add_rows(cols, vals, sizes, rhs, ge,
cut)`, appended to the store with one concatenate per array.  The first
`n_base` rows are base rows, which stay for the model's life; every row
after them is a cut row, and no base row may follow a cut row.  Cut row i,
row `n_base + i`, is named by its position i: `remove_rows` removes cut
rows by position, and `LpSolveResult.row_slack[i]` is the slack a.x - rhs
of cut row i; a solve without a primal point gives every cut row the slack
0.

HiGHS sees one persistent model, created at the first `solve()`, which
holds the leading rows of the store; the rows after them came since the
last sync.  `remove_rows` compacts the store with one mask and deletes the
rows HiGHS holds from it at once.  `solve()` hands HiGHS the new columns
and the new rows as slices of the store, and re-solves with the dual
simplex method from the basis the model kept, presolve off.  It prices
with Devex: HiGHS drops its dual steepest-edge weights at every addRows or
deleteRows, so steepest edge would rebuild them, one BTRAN per row, at
every hot re-solve.  Only the solution, the duals and the status are read
back.

The backend loads only HiGHS's bindings, the extension module
`scipy.optimize._highspy._core` that scipy >= 1.15 ships, straight from its
file: neither the `scipy.optimize` nor the `scipy.sparse` package is
imported.  Without that module, importing this one raises ImportError.
`linprog(highs)` is the one call that runs HiGHS.

A solve can start from a given basis.  A `SavedBasis` states one by name:
a status letter (`STATUS_LETTERS`) per column key, per base row and per
cut row, in row order.  `last_basis()` keeps the basis of the last solve as
HiGHS holds it, a copy, with the names it needs; its `saved()` turns it
into letters, which take pybind a conversion per column and row, so only a
reader pays for them.  Removing a basic row keeps HiGHS's basis; removing
a nonbasic one leaves HiGHS no valid basis, and `last_basis()` None, until
the next solve.  `start_basis` maps a `SavedBasis` onto this model, columns
by key and rows by position, and hands it to HiGHS.  A start basis only
saves iterations; nothing it holds is trusted.

`time_limit`, when set, bounds the seconds HiGHS may spend in the next
solve; the driver sets it to what is left of the run's time limit, and a
solve stopped by it returns the status `limit`, with neither duals nor a
primal point: only an optimal solve reports them.

The backend alone decides what a solve proves: `LpSolveResult.dual_bound`
is the weak-duality bound of the returned multipliers over the rows as
built, or -inf when they need a reduced-cost repair above `CERTIFY_TOL`.
HiGHS silently drops matrix entries of magnitude at most 1e-9; the store
keeps them, so the certificate covers them too.  The primal objective and
the primal residual are reported but never certify anything.  The
certificate takes one pass for the reduced costs (one `bincount` over the
store) and one for the absorbed terms: each reduced cost times the bound
its sign picks, 0 at a zero reduced cost.  Only when their sum is not
finite, that is when an infinite bound meets a nonzero reduced cost, does
it find those columns, clip them and measure the dual infeasibility.  The
residual and the cut rows' slacks share one `bincount` of a.x.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import LpBackendError

_HIGHS_MODULE = "scipy.optimize._highspy._core"
_NO_BINDINGS = "opfcuts needs scipy >= 1.15, which ships HiGHS's bindings"


def _load_highs():
    """HiGHS's own bindings, shipped with scipy >= 1.15.

    The extension is loaded from its file under its own module name, so
    the `scipy.optimize` package init never runs; a later import of it
    through `scipy.optimize` finds this module in `sys.modules`.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(_NO_BINDINGS)
    folder = os.path.join(scipy.submodule_search_locations[0], "optimize",
                          "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [folder])
    if spec is None:
        raise ImportError(_NO_BINDINGS)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise ImportError(_NO_BINDINGS) from exc
    sys.modules[_HIGHS_MODULE] = module
    return module


_highs = _load_highs()

FEASIBILITY_TOL = 1e-6   # HiGHS primal and dual feasibility tolerance
CERTIFY_TOL = 10.0 * FEASIBILITY_TOL  # largest reduced-cost repair credited
# HighsBasisStatus by value: kLower, kBasic, kUpper, kZero, kNonbasic
STATUS_LETTERS = "LBUZN"
_STATUS = {letter: _highs.HighsBasisStatus(value)
           for value, letter in enumerate(STATUS_LETTERS)}


@dataclass(frozen=True)
class SavedBasis:
    """A simplex basis by name, in `STATUS_LETTERS`."""
    columns: dict    # column key -> status letter
    base_rows: str   # one status letter per base row, in row order
    cuts: str        # one status letter per cut row, in row order; - none


@dataclass(frozen=True)
class LastBasis:
    """HiGHS's basis of a solve, and the names `saved` reads it by."""
    highs: object    # the HighsBasis, a copy that holds no model
    columns: tuple   # column keys in index order
    n_base: int      # base rows
    n_cut: int       # cut rows when the basis was read

    def saved(self) -> SavedBasis:
        """The basis by name; columns and cut rows added since the solve
        have no letter."""
        # keys in index order; zip stops at the columns HiGHS has
        columns = dict(zip(self.columns, [STATUS_LETTERS[s.value]
                                          for s in self.highs.col_status]))
        rows = "".join([STATUS_LETTERS[s.value]
                        for s in self.highs.row_status])
        cuts = rows[self.n_base:]
        return SavedBasis(columns=columns, base_rows=rows[:self.n_base],
                          cuts=cuts + "-" * (self.n_cut - len(cuts)))


@dataclass
class LpSolveResult:
    status: str               # optimal | infeasible | unbounded | limit
    objective: float | None
    primal: np.ndarray | None
    dual_infeasibility: float | None
    primal_residual: float = 0.0  # worst row/bound violation of the primal
    dual_bound: float = -np.inf   # certified lower bound, or -inf for none
    # a.x - b of each cut row, in row order; 0 without a primal point
    row_slack: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0           # simplex iterations of this solve


class ScipyHighsBackend:
    """One HiGHS model, edited in place; deterministic given the edits."""

    def __init__(self):
        self.time_limit: float | None = None  # seconds for the next solve
        self.columns: dict = {}  # column key -> its index
        self.objective = np.zeros(0)
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self.cols = np.zeros(0, np.int32)
        self.vals = np.zeros(0)
        self.row_of = np.zeros(0, np.intp)
        self.rhs = np.zeros(0)
        self.ge = np.zeros(0, bool)
        self.n_base = 0        # base rows, the leading rows of the store
        self._highs = None     # the persistent model, made at the first solve
        self._n_loaded = 0     # leading rows of the store that HiGHS holds

    def add_columns(self, keys, lower, upper, objective):
        """Append one column per key of `keys`, in order, with those bounds
        and objective coefficients; a key already named raises, adding
        none."""
        n = len(self.objective)
        index = dict(zip(keys, range(n, n + len(keys))))
        if len(index) < len(keys) or not self.columns.keys().isdisjoint(index):
            key = next(k for i, k in enumerate(keys)
                       if k in self.columns or index[k] != n + i)
            raise LpBackendError("duplicate column key %r" % (key,))
        self.columns.update(index)
        self.objective = np.concatenate((self.objective, objective))
        self.lower = np.concatenate((self.lower, lower))
        self.upper = np.concatenate((self.upper, upper))

    def add_rows(self, cols: np.ndarray, vals: np.ndarray,
                 sizes: np.ndarray, rhs: np.ndarray, ge: np.ndarray,
                 cut: bool = False):
        """Append a block of rows, cut rows if `cut`, else base rows: row i
        reads a.x >= rhs[i] where ge[i], a.x = rhs[i] elsewhere, over the
        next sizes[i] entries of `cols` and `vals`.  Base rows after a cut
        row raise, adding none."""
        n, k = len(self.rhs), len(rhs)
        if not k:
            return
        if not cut:
            if n > self.n_base:
                raise LpBackendError("a base row after a cut row")
            self.n_base += k
        self.cols = np.concatenate((self.cols, cols))
        self.vals = np.concatenate((self.vals, vals))
        self.row_of = np.concatenate((self.row_of,
                                      np.arange(n, n + k).repeat(sizes)))
        self.rhs = np.concatenate((self.rhs, rhs))
        self.ge = np.concatenate((self.ge, ge))

    def remove_rows(self, positions):
        """Remove the cut rows at `positions` from the store and from
        HiGHS; a position that names no cut row raises, removing none."""
        if not len(positions):
            return
        rows = self.n_base + np.asarray(positions, np.intp)
        bad = (rows < self.n_base) | (rows >= len(self.rhs))
        if bad.any():
            raise LpBackendError("no cut row at position %d"
                                 % positions[int(np.argmax(bad))])
        keep = np.ones(len(self.rhs), bool)
        keep[rows] = False
        entries, new_row = keep[self.row_of], keep.cumsum() - 1
        self.cols, self.vals = self.cols[entries], self.vals[entries]
        self.row_of = new_row[self.row_of[entries]]
        self.rhs, self.ge = self.rhs[keep], self.ge[keep]
        gone = (~keep[:self._n_loaded]).nonzero()[0].astype(np.int32)
        if len(gone):
            _check(self._highs.deleteRows(len(gone), gone), "deleteRows")
            self._n_loaded -= len(gone)

    def start_basis(self, saved: SavedBasis) -> str | None:
        """Hand HiGHS `saved` as the start basis of the next solve; returns
        why it was refused, or None.

        Columns are matched by key, rows by position.  A column `saved`
        lacks starts nonbasic at a bound, a cut row without a letter
        starts basic.  A basis whose base or cut rows are not as many as
        the model's is refused, and so is one with the wrong number of
        basic variables.  A refused basis leaves the solve to start from
        the slack basis.
        """
        highs = self._sync()
        n_row = len(self.rhs)
        n_cut = n_row - self.n_base
        if len(saved.base_rows) != self.n_base:
            return "it has %d base rows, the model %d" % (
                len(saved.base_rows), self.n_base)
        if len(saved.cuts) != n_cut:
            return "it has %d cut rows, the model %d" % (len(saved.cuts),
                                                         n_cut)
        rows = (saved.base_rows + saved.cuts).replace("-", "B")
        at_bound = np.where(self.lower > -np.inf, "L",
                            np.where(self.upper < np.inf, "U", "Z")).tolist()
        col_status = [saved.columns.get(key) or letter
                      for key, letter in zip(self.columns, at_bound)]
        basic = col_status.count("B") + rows.count("B")
        if basic != n_row:
            return "it has %d basic variables for %d rows" % (basic, n_row)
        basis = _highs.HighsBasis()
        basis.col_status = [_STATUS[s] for s in col_status]
        basis.row_status = [_STATUS[s] for s in rows]
        basis.valid, basis.alien = True, False
        if highs.setBasis(basis) == _highs.HighsStatus.kError:
            return "HiGHS rejected it"
        return None

    def last_basis(self) -> LastBasis | None:
        """The basis of the last solve as HiGHS holds it, with the names of
        its columns and rows; None when HiGHS holds no valid basis."""
        if self._highs is None:
            return None
        basis = self._highs.getBasis()
        if not basis.valid:
            return None
        return LastBasis(highs=basis, columns=tuple(self.columns),
                         n_base=self.n_base,
                         n_cut=len(self.rhs) - self.n_base)

    def solve(self) -> LpSolveResult:
        """Re-solve the LP; certificate, residual and slacks read the store."""
        if not len(self.objective):
            raise LpBackendError("model has no variables")
        highs = self._sync()
        if self.time_limit is not None:
            # HiGHS compares its limit with the run time summed over every
            # run() of the model, so the budget starts from that sum
            _check(highs.setOptionValue(
                "time_limit", highs.getRunTime() + self.time_limit),
                "time_limit")
        status = linprog(highs)
        iterations = highs.getInfoValue("simplex_iteration_count")[1]
        n_row = len(self.rhs)
        row_slack = np.zeros(n_row - self.n_base)
        if status != "optimal":
            return LpSolveResult(status, None, None, None, row_slack=row_slack,
                                 iterations=iterations)
        sol = highs.getSolution()
        dual_bound, dual_inf = _safe_dual_bound(
            self.objective, self.lower, self.upper, self.cols, self.vals,
            self.row_of, self.rhs, self.ge,
            np.fromiter(sol.row_dual, float, n_row))
        primal, residual = None, 0.0
        if sol.value_valid:
            # observed only: on ill-conditioned instances HiGHS can report
            # an infeasible point as optimal; the bound never rests on it
            primal = np.fromiter(sol.col_value, float, len(self.objective))
            excess = np.bincount(self.row_of, self.vals * primal[self.cols],
                                 n_row) - self.rhs
            row_slack = excess[self.n_base:]
            residual = float(np.maximum.reduce(np.concatenate((
                np.where(self.ge, -excess, np.abs(excess)),
                self.lower - primal, primal - self.upper)), initial=0.0))
        return LpSolveResult(status, highs.getObjectiveValue(), primal,
                             dual_inf, residual, dual_bound, row_slack,
                             iterations)

    def _sync(self):
        """Hand the persistent HiGHS model the columns and rows added since
        the last sync."""
        if self._highs is None:
            self._highs = _highs._Highs()
            # Devex pricing (1): every addRows / deleteRows makes HiGHS
            # drop its dual steepest-edge weights, so steepest edge would
            # recompute them, one BTRAN per row, at each hot re-solve
            for option, value in (
                    ("output_flag", False), ("presolve", "off"),
                    ("simplex_dual_edge_weight_strategy", 1),
                    ("primal_feasibility_tolerance", FEASIBILITY_TOL),
                    ("dual_feasibility_tolerance", FEASIBILITY_TOL)):
                _check(self._highs.setOptionValue(option, value), option)
        highs = self._highs
        n_col = highs.getNumCol()
        if len(self.objective) > n_col:
            none_i, none_f = np.zeros(0, np.int32), np.zeros(0)
            _check(highs.addCols(
                len(self.objective) - n_col, self.objective[n_col:],
                self.lower[n_col:], self.upper[n_col:],
                0, none_i, none_i, none_f), "addCols")
        first, n_row = self._n_loaded, len(self.rhs)
        if n_row > first:
            starts = self.row_of.searchsorted(np.arange(first, n_row))
            rhs = self.rhs[first:]
            _check(highs.addRows(
                n_row - first, rhs, np.where(self.ge[first:], np.inf, rhs),
                int(len(self.cols) - starts[0]),
                (starts - starts[0]).astype(np.int32),
                self.cols[starts[0]:], self.vals[starts[0]:]), "addRows")
            self._n_loaded = n_row
        return highs


def linprog(highs) -> str:
    """Run HiGHS; its model status: optimal, limit, infeasible or unbounded.

    Any other status raises LpBackendError.  `perfbench/spans.py` times the
    HiGHS layer under this name."""
    _check(highs.run(), "solve")
    model_status = highs.getModelStatus()
    kind = _highs.HighsModelStatus
    status = {kind.kOptimal: "optimal", kind.kTimeLimit: "limit",
              kind.kIterationLimit: "limit", kind.kInfeasible: "infeasible",
              kind.kUnbounded: "unbounded"}.get(model_status)
    if status is None:
        raise LpBackendError(
            "HiGHS error: %s" % highs.modelStatusToString(model_status))
    return status


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
    A zero reduced cost absorbs 0 at either bound, so only a nonzero one
    at an infinite bound makes a product, and the sum, infinite.
    """
    y = np.where(ge, np.maximum(y, 0.0), y)
    rc = objective - np.bincount(cols, vals * y[row_of], len(objective))
    # each column at the bound its reduced cost's sign picks, so that
    # only an infinite bound there makes a product infinite
    absorbed = rc * np.where(rc > 0.0, lower,
                             np.where(rc < 0.0, upper, 0.0))
    total = float(absorbed.sum())
    dual_inf = 0.0
    if not math.isfinite(total):
        clipped = ~np.isfinite(absorbed)
        dual_inf = float(np.abs(rc[clipped]).max())
        if dual_inf > CERTIFY_TOL:
            return -np.inf, dual_inf
        absorbed[clipped] = 0.0
        total = float(absorbed.sum())
    return float(y @ b) + total, dual_inf
