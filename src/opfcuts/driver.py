"""Cutting-plane orchestration: solve-separate-manage rounds with escalation.

Each round solves the LP master, separates Jabr / limit / cost tangents and
clique PSD cuts, admits and ages cuts, and tracks a stall counter on relative
objective improvement.  The clique set is augmented once with chordal
cliques, after the first round that admits no cut or the hierarchy round;
a later round that admits nothing ends the run.  The 3-cycles and chordal
cliques are computed once per compiled network (see `relaxation`), so the
load instances of one network share them.  Each round is credited the
bound the LP backend certifies from its duals (-inf when it certifies none;
the LP objective is never credited), so the best bound is the maximum over
rounds (dropping cuts can make the per-round objective non-monotone).
From round 1 on, each LP solve gets what is left of the time limit; a solve
that runs out of it ends the run with `time`, like the check between rounds,
and the report's dual infeasibility and eigenvalue ratio then come from the
last optimal solve.

Cuts never change once built: a run counts its cuts' slack rounds in an age
dict of its own, so a warm start shares the caller's cuts and leaves them,
and the caller's pool, as they were.  A run names a cut, and its LP row,
by the serial id that `admit` gives it.  A warm start injects the given
pool in its own order under its own ids and numbers new cuts above them:
a loaded pool is in content-hash order, a run's pool in admission order.
The returned pool holds the last solve's basis as HiGHS gave it, turned
into letters only when read.

Separation and the final eigenvalue ratio read the PSD matrices as stacks
from `RelaxationModel.clique_matrix`: one for the pairs and one per clique
size, each with one `eigen` call.
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
    ages: dict = {}  # cut id -> consecutive slack rounds
    report = RunReport(case_name=case.name, warm_started=warm is not None,
                       clique_counts=cliques.sizes())
    if warm is not None:
        # each distinct key is checked once: a cut naming an unknown one is
        # skipped, and a cut naming a (c, s) pair the model lacks adds its
        # pairs, cut by cut in the pool's order
        pool.next_id = max(warm.next_id, max(warm.cuts, default=-1) + 1)
        named = set().union(*[cut.terms for cut in warm.cuts.values()])
        unknown = {key for key in named if not model.has_variables((key,))}
        new = named.difference(unknown, model.var_index)
        skipped = 0
        for i, cut in warm.cuts.items():
            if not unknown.isdisjoint(cut.terms):
                skipped += 1
                continue
            if not new.isdisjoint(cut.terms):
                model.extend_pairs({key[1:] for key in cut.terms
                                    if key[0] in ("c", "s")})
            pool.cuts[i] = cut
            model.add_cut_row(i, cut.terms, cut.rhs)
        if skipped:
            log.info("warm start: skipped %d cuts with unknown variables",
                     skipped)
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
    escalated = False
    termination = None
    last = None  # the last optimal solve and the cliques of its round

    while True:
        if report.rounds:  # round 0 runs unlimited, so a run has a round
            model.backend.time_limit = max(
                0.0, config.time_limit - (time.perf_counter() - t_start))
        res = model.solve()
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

        candidates = _separate(model, cliques)
        admitted = admit(pool, candidates)
        for i, cut in admitted.items():
            model.add_cut_row(i, cut.terms, cut.rhs)

        # cuts admitted this round are not in the solved LP and have no
        # slack there; age_and_drop counts a missing slack as tight
        dropped = age_and_drop(pool, res.row_slack, ages)
        for i in dropped:
            model.remove_cut_row(i)

        stats.cuts_added = len(admitted)
        stats.cuts_dropped = len(dropped)
        _log_round(stats, res, pool, model)

        if not escalated and (not admitted
                              or round_idx + 1 >= config.hierarchy_round):
            extra = model.network.cliques(chordal_cliques,
                                          config.max_clique_size)
            # the pairs of the chordal cliques are the edges plus the fill
            model.extend_pairs({(a, b) for c in extra.cliques
                                for i, a in enumerate(c) for b in c[i + 1:]})
            cliques = cliques.merged_with(extra)
            escalated = True
        elif not admitted:
            termination = "no_cuts"
            break

        improved = (z - z_prev) >= IMPROVE_TOL * abs(z_prev) \
            if math.isfinite(z_prev) else True
        stall = 0 if improved else stall + 1
        z_prev = z

    pool.basis = model.backend.last_basis()  # letters when first read
    report.termination = termination
    report.best_bound = max((st.bound for st in report.rounds),
                            default=-math.inf)
    report.total_time = time.perf_counter() - t_start
    report.final_clique_counts = cliques.sizes()
    if last is not None:
        res, solved = last
        report.dual_inf = res.dual_infeasibility
        report.eig_ratio = _final_eig_ratio(model, solved)
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


def _separate(model, cliques):
    case = model.case
    pairs = model.cs_pairs()
    candidates = separation.jabr_cut(model.clique_matrix(pairs), pairs) \
        if pairs else []

    branches, gens = case.branches, case.generators
    limits = separation.limit_cut([
        (model.value(("P", bkey, d)), model.value(("Q", bkey, d)),
         branches[idx].rate_a, (bkey, d))
        for idx, bkey in model.branch_keys.items()
        if branches[idx].rate_a is not None for d in ("f", "t")])
    candidates += separation.cost_cut([
        (model.value(("Pg", gkey)), model.value(("t", gkey)), gens[idx], gkey)
        for idx, gkey in model.gen_keys.items()], limits)

    for group in cliques.by_size:
        candidates += separation.clique_cuts(model.clique_matrix(group), group)
    return candidates


def _final_eig_ratio(model, cliques) -> float:
    ratio = math.inf
    for group in cliques.by_size:
        vals = eigen(model.clique_matrix(group)).eigenvalues
        ratio = min(ratio, float(np.min(
            vals[:, 0] / np.maximum(vals[:, 1], EIG_RATIO_FLOOR))))
    return ratio


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
        str(len(r.pool)),
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
