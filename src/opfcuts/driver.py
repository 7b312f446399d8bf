"""Cutting-plane orchestration: solve-separate-manage rounds with escalation.

Each round solves the LP master, separates Jabr / limit / cost tangents and
clique PSD cuts, admits and ages cuts, and tracks a stall counter on relative
objective improvement.  The clique set is augmented once with chordal
cliques (`_escalate`): in a cold run after the first round that admits no
cut or the hierarchy round, in a warm run before round 0.  A round that
admits nothing after that ends the run.  The 3-cycles and chordal
cliques are computed once per compiled network (see `relaxation`), so the
load instances of one network share them.  Each round is credited the
bound the LP backend certifies from its duals (-inf when it certifies none;
the LP objective is never credited), so the best bound is the maximum over
rounds (dropping cuts can make the per-round objective non-monotone).
From round 1 on, each LP solve gets what is left of the time limit; a solve
that runs out of it ends the run with `time`, like the check between rounds,
and the report's dual infeasibility and eigenvalue ratio then come from the
last optimal solve.

The loop owns a round's state: it solves the model's backend and keeps
the last primal point HiGHS gave (a solve without one keeps the previous
point), which `_separate` and the final eigenvalue ratio read.  Each round
first ages and drops the pool's cuts by the solve's `row_slack`, one slack
per cut in pool order, and removes their rows; then `admit` appends the
round's candidates, one `separation.CutBlock`, to the pool and
`add_cut_row` to the LP as one row block each, so the LP's cut rows stay in
pool order.  Cuts never change once built: a run keeps a pool of its own,
with its own ages, so a warm start shares the caller's cuts and leaves
them, and the caller's pool, as they were.  A run names a cut, and its LP
row, by its position: cut i of the pool is cut row i of the LP.  A warm
start escalates first, so its model has the columns of a cold run after
escalation, in their order: the base columns, then the sorted block of
chordal pairs.  The basis letters a cold run saved then all land, and
the pool's cuts name no pair the model lacks when they come from the same
network.  It injects the given pool in its own order, so its cuts come
first: a loaded pool is in content-hash order, a run's pool in admission
order.  It skips the cuts naming a key the model neither has nor can add,
with their basis letters (`CutPool.take`).  `has_variable` depends on the
compiled network alone, so a pool whose `checked_on` is the model's
network is injected as it is: `load_cuts` given a model of that network,
or a run on it, checked its keys.  Any other pool is walked, the model
asked once per distinct key (`CutBlock.naming`).  When the kept cuts name
pairs without columns, the model gets those (c, s) columns as one sorted
block.  The returned pool holds the last solve's basis as HiGHS gave it,
turned into letters only when read, and records the run's network as
the one its keys were checked on.

`_separate` and the final eigenvalue ratio read the PSD matrices at the
kept point as stacks from `RelaxationModel.clique_matrix`: one for the
pairs and one per clique size, each with one `eigen` call, and map them
to cuts by each stack's `RelaxationModel.stack_plan`.  `_separate`
returns the round's cuts as one block, concatenated once per column in
family order (Jabr, limit, cost, then each clique size), with the
eigenvalues of its clique stacks.  A run that ends `no_cuts` ends where
its last separation ran, at the same point on the same cliques, so its
eigenvalue ratio comes from those eigenvalues; the other endings
decompose the stacks again at the last point.  The tangents come from
the kept point and the compiled network's tangent tables, so `_separate`
builds no variable key.
"""

from __future__ import annotations

import csv as csv_mod
import io
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import separation
from .case_io import CaseData
from .cut_manager import CutPool, admit, age_and_drop
from .errors import ModelError
from .hermitian import eigen
from .network import chordal_cliques, enumerate_three_cycles
from .relaxation import build_m0
from .separation import CutBlock

log = logging.getLogger("opfcuts.driver")

EIG_RATIO_FLOOR = 1e-12
STALL_LIMIT = 5       # rounds without sufficient improvement
IMPROVE_TOL = 1e-5    # relative objective improvement


@dataclass
class RunConfig:
    time_limit: float = 1200.0
    hierarchy_round: int = 5        # latest round after which cliques escalate
    max_clique_size: int = 5
    max_rounds: int | None = None

    def __post_init__(self):
        if not self.time_limit >= 0:  # NaN too
            raise ValueError("time limit must be >= 0, got %r"
                             % self.time_limit)
        if self.hierarchy_round < 1:
            raise ValueError("hierarchy_round must be >= 1")
        if self.max_clique_size not in (3, 4, 5):
            raise ValueError("max_clique_size must be 3, 4 or 5")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class RoundStats:
    index: int
    objective: float
    cuts_added: int
    cuts_dropped: int
    wall_time: float
    bound: float = -math.inf  # certified lower bound credited to this round
    lp_iterations: int = 0    # simplex iterations of the round's LP solve


@dataclass
class RunReport:
    case_name: str
    rounds: list = field(default_factory=list)
    best_bound: float = -math.inf
    clique_counts: tuple = (0, 0, 0)        # initial 3-cycle census
    final_clique_counts: tuple = (0, 0, 0)  # census after any escalation
    eig_ratio: float = math.inf
    dual_inf: float | None = None
    termination: str = ""
    total_time: float = 0.0
    warm_started: bool = False
    pool: CutPool | None = None

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def rounds_to_reach(self, bound: float):
        """1-based round index whose certified bound first reaches `bound`."""
        for st in self.rounds:
            if st.bound >= bound:
                return st.index + 1
        return None


def cutplane(case: CaseData, config: RunConfig | None = None,
             warm: CutPool | None = None) -> RunReport:
    """Run the cutting-plane lower-bounding loop on a parsed case."""
    config = config or RunConfig()
    t_start = time.perf_counter()

    model = build_m0(case)
    cliques = model.network.cliques(enumerate_three_cycles)

    pool = CutPool()
    report = RunReport(case_name=case.name, warm_started=warm is not None,
                       clique_counts=cliques.sizes())
    escalated = warm is not None
    if warm is not None:
        cliques = _escalate(model, cliques, config)
        # `has_variable` depends on the network alone, so a pool checked
        # on this one needs no walk
        if warm.checked_on is not model.network:
            skip = warm.cuts.naming(lambda key: not model.has_variable(key))
            if skip.any():
                warm = warm.take(~skip)
                log.info("warm start: skipped %d cuts with unknown "
                         "variables", skip.sum())
        pool = CutPool(warm.cuts)
        try:
            model.add_cut_row(pool.cuts)
        except ModelError:  # the cuts name pairs without columns yet
            keys = pool.cuts.keys.tolist()
            model.extend_pairs(sorted({key[1:] for key in keys
                                       if key not in model.var_index}))
            model.add_cut_row(pool.cuts)
        if warm.basis is not None:
            # a refused basis costs only the iterations it would have saved
            refused = model.backend.start_basis(warm.basis)
            if refused:
                log.info("warm start: saved basis not used, as %s; round 0 "
                         "starts from the slack basis", refused)
            else:
                log.info("warm start: round 0 starts from the saved basis")

    stall = 0
    z_prev = -math.inf
    termination = None
    last = None  # the last optimal solve and the cliques of its round
    y = None     # the last primal point HiGHS gave

    while True:
        if report.rounds:  # round 0 runs unlimited, so a run has a round
            model.backend.time_limit = max(
                0.0, config.time_limit - (time.perf_counter() - t_start))
        res = model.backend.solve()
        if res.primal is not None:
            y = res.primal
        if res.status == "infeasible":
            raise ModelError(
                "master LP infeasible; the base relaxation is feasible for "
                "any feasible ACOPF instance, so the case data is suspect")
        if res.status != "optimal":
            termination = "time" if res.status == "limit" and report.rounds \
                else "backend_" + res.status
            break
        last = (res, cliques)
        z = res.objective
        round_idx = len(report.rounds)
        # the backend decides what the round proves; z is never a bound
        stats = RoundStats(
            index=round_idx, objective=z, cuts_added=0, cuts_dropped=0,
            wall_time=time.perf_counter() - t_start, bound=res.dual_bound,
            lp_iterations=res.iterations)
        report.rounds.append(stats)

        if time.perf_counter() - t_start >= config.time_limit:
            termination = "time"
        elif stall >= STALL_LIMIT:
            termination = "stall"
        elif config.max_rounds is not None \
                and round_idx + 1 >= config.max_rounds:
            termination = "rounds"
        if termination is not None:
            _log_round(stats, res, pool, model)
            break

        candidates, spectra = _separate(model, y, cliques)
        dropped = age_and_drop(pool, res.row_slack)
        model.remove_cut_row(dropped)
        admitted = admit(pool, candidates)
        model.add_cut_row(admitted)

        stats.cuts_added = len(admitted)
        stats.cuts_dropped = len(dropped)
        _log_round(stats, res, pool, model)

        if not escalated and (not admitted
                              or round_idx + 1 >= config.hierarchy_round):
            cliques = _escalate(model, cliques, config)
            escalated = True
        elif not admitted:
            termination = "no_cuts"
            break

        improved = (z - z_prev) >= IMPROVE_TOL * abs(z_prev) \
            if math.isfinite(z_prev) else True
        stall = 0 if improved else stall + 1
        z_prev = z

    pool.basis = model.backend.last_basis()  # letters when first read
    pool.checked_on = model.network  # its cuts name the model's columns
    report.termination = termination
    report.best_bound = max((st.bound for st in report.rounds),
                            default=-math.inf)
    report.total_time = time.perf_counter() - t_start
    report.final_clique_counts = cliques.sizes()
    if last is not None:
        res, final = last
        report.dual_inf = res.dual_infeasibility
        # a run out of cuts ended at the point and on the cliques of its
        # last separation, whose eigenpairs `spectra` holds
        if termination != "no_cuts":
            spectra = [eigen(model.clique_matrix(y, g)) for g in final.by_size]
        report.eig_ratio = min((float(np.min(d.eigenvalues[:, 0] / np.maximum(
            d.eigenvalues[:, 1], EIG_RATIO_FLOOR))) for d in spectra),
            default=math.inf)
    report.pool = pool
    return report


def _log_round(stats: RoundStats, res, pool: CutPool, model):
    log.info("round %d: objective %.6f, bound %.6f, dual_inf %.2e, "
             "residual %.2e, added %d, dropped %d, pool %d, LP rows %d, "
             "LP iterations %d",
             stats.index, stats.objective, stats.bound,
             res.dual_infeasibility, res.primal_residual, stats.cuts_added,
             stats.cuts_dropped, len(pool),
             len(model.backend.rhs), stats.lp_iterations)


def _escalate(model, cliques, config: RunConfig):
    """`cliques` merged with the network's chordal cliques, whose pairs,
    the edges plus the fill, `model` gets as one sorted block of columns;
    the network keeps both, per clique size cap."""
    extra = model.network.cliques(chordal_cliques, config.max_clique_size)
    model.extend_pairs(extra.pairs)
    return cliques.merged_with(extra)


def _separate(model, y, cliques):
    """The round's cuts at the point `y`, as one block, and the eigenpairs
    of each clique stack, by size."""
    pairs = model.cs_pairs()
    blocks = [separation.jabr_cut(model.clique_matrix(y, pairs),
                                  model.stack_plan(pairs))] if pairs else []
    net = model.network
    blocks += [separation.limit_cut(y, *net.limits),
               separation.cost_cut(y, *net.costs)]
    stacks = [model.clique_matrix(y, group) for group in cliques.by_size]
    spectra = list(map(eigen, stacks))
    blocks += map(separation.clique_cuts, stacks,
                  map(model.stack_plan, cliques.by_size), spectra)
    return CutBlock.concat(*blocks), spectra


# -- reporting ------------------------------------------------------------

_COLUMNS = ("Case", "Objective", "#Cliques", "DInf", "EigRatio",
            "Time", "Added", "Reason")


def _report_row(r: RunReport):
    return (
        r.case_name,
        "%.2f" % r.best_bound,
        "(%d,%d,%d)" % r.clique_counts,
        "%.2e" % r.dual_inf if r.dual_inf is not None else "-",
        "%.1f" % r.eig_ratio if math.isfinite(r.eig_ratio) else "inf",
        "%.2f" % r.total_time,
        str(len(r.pool)) if r.pool is not None else "-",
        r.termination,
    )


def report_table(reports, csv: bool = False) -> str:
    """Aligned-text or RFC-4180 CSV summary, one row per run."""
    rows = [_report_row(r) for r in reports]
    if csv:
        buf = io.StringIO()
        writer = csv_mod.writer(buf, quoting=csv_mod.QUOTE_MINIMAL,
                                lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
              for i, c in enumerate(_COLUMNS)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(_COLUMNS, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
