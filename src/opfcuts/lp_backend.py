"""The LP master: the one owner of its columns and rows, solved by HiGHS.

`ScipyHighsBackend` holds the whole LP: the columns (objective and bounds),
each named by a key that `columns` maps to its index, and one flat row
store in HiGHS row order.  Entry k is `vals[k]` in row `row_of[k]`, column
`cols[k]`; row i reads a.x >= rhs[i] where `ge[i]`, a.x = rhs[i] elsewhere.
The relaxation model writes into it and never keeps a copy.

Columns enter in blocks, `add_columns(keys, lower, upper, objective)`, or
one at a time, `add_column`; `objective`, `lower` and `upper` are float
arrays, grown by one concatenate per block.  Base rows enter as one block,
`add_rows(cols, vals, sizes, rhs, ge)`, appended to the store with one
concatenate; they have no id and stay for the model's life.  A cut row
enters through `add_row(row_id, cols, coeffs, rhs, ge)`: it can be removed
by `remove_rows`, and its slack a.x - rhs is reported in
`LpSolveResult.row_slack`; `rows` maps each id to its row.

HiGHS sees one persistent model, created at the first `solve()`.  Row
edits are queued; `solve()` appends the queued rows to the store, compacts
it over the removed ones with one mask, hands HiGHS the new columns, the
removed rows and the new rows as slices of the store, and re-solves with
the dual simplex method from the basis the model kept, presolve off.  It
prices with Devex: HiGHS drops its dual steepest-edge weights at every
addRows or deleteRows, so steepest edge would rebuild them, one BTRAN per
row, at every hot re-solve.  Only the solution, the duals and the status
are read back.  A solve with no edit since the last optimal one (no row
queued or removed, no column added, no start basis given) returns that
result again, with 0 iterations, and leaves HiGHS alone: HiGHS would
return it bit for bit.

The backend loads only HiGHS's bindings, the extension module
`scipy.optimize._highspy._core` that scipy >= 1.15 ships, straight from its
file: neither the `scipy.optimize` nor the `scipy.sparse` package is
imported.  Without that module, importing this one raises ImportError.
`linprog(highs)` is the one call that runs HiGHS.

A solve can start from a given basis.  A `SavedBasis` states one by name:
a status letter (`STATUS_LETTERS`) per column key, per base row in row
order and per row id.  `last_basis()` keeps the basis of the last solve as
HiGHS returns it, a copy, with the names it needs; its `saved()` turns it
into letters, which take pybind a conversion per column and row, so only a
reader pays for them.  `basis()` does both at once.  `start_basis` maps a
`SavedBasis` onto this model by its names and hands it to HiGHS.  A start
basis only saves iterations; nothing it holds is trusted.

`time_limit`, when set, bounds the seconds HiGHS may spend in the next
solve; the driver sets it to what is left of the run's time limit, and a
solve stopped by it returns the status `limit`, with neither duals nor a
primal point: only an optimal solve reports them.

The backend alone decides what a solve proves: `LpSolveResult.dual_bound`
is the weak-duality bound of the returned multipliers over the rows as
built, or -inf when they need a reduced-cost repair above `CERTIFY_TOL`.
HiGHS silently drops matrix entries of magnitude at most 1e-9; the store
keeps them, so the certificate covers them too.  The primal objective and
the primal residual are reported but never certify anything.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import chain

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
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if not os.path.isfile(path):
            continue
        spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError as exc:
            raise ImportError(_NO_BINDINGS) from exc
        sys.modules[_HIGHS_MODULE] = module
        return module
    raise ImportError(_NO_BINDINGS)


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
    cuts: dict       # row id -> status letter of the row


@dataclass(frozen=True)
class LastBasis:
    """HiGHS's basis of a solve, and the names `saved` reads it by."""
    highs: object    # the HighsBasis, a copy that holds no model
    columns: tuple   # column keys in index order
    rows: dict       # row id -> its row in HiGHS
    removed: frozenset  # rows removed since that solve

    def saved(self) -> SavedBasis:
        """The basis by name; removed rows are left out, and columns and
        rows added since have no letter."""
        # keys in index order; zip stops at the columns HiGHS has
        columns = dict(zip(self.columns, [STATUS_LETTERS[s.value]
                                          for s in self.highs.col_status]))
        rows = [STATUS_LETTERS[s.value] for s in self.highs.row_status]
        by_id = {row_id: rows[row] for row_id, row in self.rows.items()
                 if row < len(rows)}
        cut = self.removed.union(self.rows.values())
        base = "".join([s for i, s in enumerate(rows) if i not in cut])
        return SavedBasis(columns=columns, base_rows=base, cuts=by_id)


@dataclass
class LpSolveResult:
    status: str               # optimal | infeasible | unbounded | limit
    objective: float | None
    primal: np.ndarray | None
    dual_infeasibility: float | None
    primal_residual: float = 0.0  # worst row/bound violation of the primal
    dual_bound: float = -np.inf   # certified lower bound, or -inf for none
    row_slack: dict = field(default_factory=dict)  # row id -> a.x - b
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
        self.rows: dict = {}   # row id -> its row, queued rows included
        self._queue: list = []  # rows (cols, coeffs, rhs, ge) not yet stored
        self._dead: list = []   # rows removed since the last solve
        self._highs = None     # the persistent model, made at the first solve
        self._n_loaded = 0     # leading rows of the store that HiGHS holds
        self._last = None      # the last optimal result, while no edit came

    def add_column(self, key, lower: float, upper: float,
                   obj: float = 0.0) -> int:
        """Append the column named `key`; returns its index."""
        self.add_columns((key,), (lower,), (upper,), (obj,))
        return self.columns[key]

    def add_columns(self, keys, lower, upper, objective):
        """Append one column per key of `keys`, in order, with those bounds
        and objective coefficients; a key already named raises, adding
        none."""
        n = len(self.objective)
        index = dict(zip(keys, range(n, n + len(keys))))
        if len(index) < len(keys) or not self.columns.keys().isdisjoint(
                index):
            key = next(k for i, k in enumerate(keys)
                       if k in self.columns or index[k] != n + i)
            raise LpBackendError("duplicate column key %r" % (key,))
        self._last = None
        self.columns.update(index)
        self.objective = np.concatenate((self.objective, objective))
        self.lower = np.concatenate((self.lower, lower))
        self.upper = np.concatenate((self.upper, upper))

    def add_rows(self, cols: np.ndarray, vals: np.ndarray,
                 sizes: np.ndarray, rhs: np.ndarray, ge: np.ndarray):
        """Append a block of rows without ids: row i reads a.x >= rhs[i]
        where ge[i], a.x = rhs[i] elsewhere, over the next sizes[i] entries
        of `cols` and `vals`.  Queued rows are stored first, so rows keep
        the order in which they came."""
        self._last = None
        self._flush()
        n = len(self.rhs)
        self.cols = np.concatenate((self.cols, cols))
        self.vals = np.concatenate((self.vals, vals))
        self.row_of = np.concatenate((self.row_of, np.repeat(
            np.arange(n, n + len(rhs)), sizes)))
        self.rhs = np.concatenate((self.rhs, rhs))
        self.ge = np.concatenate((self.ge, ge))

    def add_row(self, row_id, cols, coeffs, rhs: float, ge: bool = True):
        """Queue the row a.x >= rhs, or a.x = rhs when not `ge`.

        A row with an id can be removed by it; a row with id None stays.
        """
        self._last = None
        if row_id is not None:
            if row_id in self.rows:
                raise LpBackendError("duplicate row id %r" % (row_id,))
            self.rows[row_id] = len(self.rhs) + len(self._queue)
        self._queue.append((cols, coeffs, rhs, ge))

    def remove_rows(self, row_ids):
        self._last = None
        for row_id in row_ids:
            row = self.rows.pop(row_id, None)
            if row is None:
                raise LpBackendError("unknown row id %r" % (row_id,))
            self._dead.append(row)

    def start_basis(self, saved: SavedBasis) -> str | None:
        """Hand HiGHS `saved` as the start basis of the next solve; returns
        why it was refused, or None.

        Columns are matched by key, base rows by position and other rows by
        id.  A column `saved` lacks starts nonbasic at a bound, a row it
        lacks starts basic.  A refused basis leaves the solve to start from
        the slack basis.
        """
        self._last = None
        highs = self._sync(self._store())
        n_row = len(self.rhs)
        base_rows = sorted(set(range(n_row)).difference(self.rows.values()))
        if len(saved.base_rows) != len(base_rows):
            return "it has %d base rows, the model %d" % (
                len(saved.base_rows), len(base_rows))
        rows = ["B"] * n_row
        for row, letter in zip(base_rows, saved.base_rows):
            rows[row] = letter
        for row_id, row in self.rows.items():
            rows[row] = saved.cuts.get(row_id, "B")
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
                         rows=dict(self.rows), removed=frozenset(self._dead))

    def basis(self) -> SavedBasis | None:
        """The basis of the last solve, by name (see `LastBasis.saved`);
        None when HiGHS holds no valid basis."""
        last = self.last_basis()
        return last.saved() if last is not None else None

    def solve(self) -> LpSolveResult:
        """Re-solve the LP; certificate, residual and slacks read the store."""
        if not len(self.objective):
            raise LpBackendError("model has no variables")
        if self._last is not None:
            return replace(self._last, iterations=0)
        highs = self._sync(self._store())
        if self.time_limit is not None:
            # HiGHS compares its limit with the run time summed over every
            # run() of the model, so the budget starts from that sum
            _check(highs.setOptionValue(
                "time_limit", highs.getRunTime() + self.time_limit),
                "time_limit")
        status = linprog(highs)
        iterations = highs.getInfoValue("simplex_iteration_count")[1]
        sol = highs.getSolution()
        lower, upper, ge, b = self.lower, self.upper, self.ge, self.rhs
        if status == "optimal":
            dual_bound, dual_inf = _safe_dual_bound(
                self.objective, lower, upper, self.cols, self.vals,
                self.row_of, b, ge, np.asarray(sol.row_dual))
        else:
            dual_bound, dual_inf = -np.inf, None
        primal, residual, row_slack = None, 0.0, {}
        if status == "optimal" and sol.value_valid:
            # observed only: on ill-conditioned instances HiGHS can report
            # an infeasible point as optimal; the bound never rests on it
            primal = np.asarray(sol.col_value)
            excess = np.bincount(self.row_of, self.vals * primal[self.cols],
                                 len(b)) - b
            row_slack = dict(zip(self.rows, excess[
                list(self.rows.values())].tolist()))
            residual = max(float(np.abs(excess[~ge]).max(initial=0.0)),
                           float((-excess[ge]).max(initial=0.0)),
                           float((lower - primal).max(initial=0.0)),
                           float((primal - upper).max(initial=0.0)))
        result = LpSolveResult(
            status=status,
            objective=highs.getObjectiveValue()
            if status == "optimal" else None,
            primal=primal,
            dual_infeasibility=dual_inf,
            primal_residual=residual,
            dual_bound=dual_bound,
            row_slack=row_slack,
            iterations=iterations)
        if status == "optimal":
            self._last = result
        return result

    def _flush(self):
        """Append the queued rows to the store."""
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

    def _store(self) -> np.ndarray:
        """Append the queued rows to the store, then compact it over the
        removed rows; returns the removed rows' positions in HiGHS."""
        self._flush()
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
