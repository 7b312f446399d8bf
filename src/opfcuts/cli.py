"""Command line front end: solve, cliques, verify.

Exit codes: 0 success, 1 verification failure, 2 bad input data,
3 LP backend failure.  Set OPFCUTS_LOG=debug|info|warning to adjust
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .case_io import parse_case_file, perturb_loads
from .cut_manager import load_cuts, save_cuts
from .driver import RunConfig, cutplane, report_table
from .errors import (CaseParseError, CaseValidationError, CutFileError,
                     LpBackendError, ModelError)
from .network import PairGraph, chordal_cliques, enumerate_three_cycles
from .theory import run_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


def _setup_logging():
    level = os.environ.get("OPFCUTS_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser():
    p = argparse.ArgumentParser(prog="opfcuts",
                                description="Cutting-plane lower bounds for ACOPF")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the cutting-plane loop on a case")
    ps.add_argument("case", help="MATPOWER .m case file")
    ps.add_argument("--time-limit", type=float, default=1200.0)
    ps.add_argument("--rstar", type=int, default=5,
                    help="latest round after which cliques escalate")
    ps.add_argument("--max-clique", type=int, choices=(3, 4, 5), default=5)
    ps.add_argument("--warm", metavar="CUTS.jsonl",
                    help="load a saved cut pool before round 0")
    ps.add_argument("--save-cuts", metavar="CUTS.jsonl",
                    help="write the surviving cut pool after the run")
    ps.add_argument("--perturb-seed", type=int, default=None)
    ps.add_argument("--perturb-sigma", type=float, default=0.0,
                    help="load perturbation, fraction of each bus P demand")
    ps.add_argument("--csv", action="store_true", help="CSV report output")

    pc = sub.add_parser("cliques", help="report the 3/4/5-clique census")
    pc.add_argument("case", help="MATPOWER .m case file")
    pc.add_argument("--chordal", action="store_true",
                    help="census of the chordal extension instead of 3-cycles")
    pc.add_argument("--max-clique", type=int, choices=(3, 4, 5), default=5)

    pv = sub.add_parser("verify", help="run the structural check battery")
    pv.add_argument("--trials", type=int, default=500)
    pv.add_argument("--seed", type=int, default=0)
    return p


def _cmd_solve(args) -> int:
    case = parse_case_file(args.case)
    if args.perturb_seed is not None or args.perturb_sigma:
        case = perturb_loads(case, seed=args.perturb_seed or 0,
                             mu_frac=0.0, sigma_frac=args.perturb_sigma)
    config = RunConfig(time_limit=args.time_limit,
                       hierarchy_round=args.rstar,
                       max_clique_size=args.max_clique)
    warm = None
    if args.warm:
        # cutplane builds the model once and skips the cuts it lacks
        with open(args.warm) as fh:
            warm, _ = load_cuts(fh)
    report = cutplane(case, config, warm=warm)
    if args.save_cuts and report.pool is not None:
        with open(args.save_cuts, "w") as fh:
            save_cuts(report.pool, fh)
    sys.stdout.write(report_table([report], csv=args.csv))
    sys.stdout.write("best bound: %.6f\n" % report.best_bound)
    if report.termination.startswith("backend"):
        return EXIT_BACKEND
    return EXIT_OK


def _cmd_cliques(args) -> int:
    case = parse_case_file(args.case)
    pairs = PairGraph.from_case(case)
    if args.chordal:
        cliques = chordal_cliques(pairs, args.max_clique)
    else:
        cliques = enumerate_three_cycles(pairs)
    sys.stdout.write("(%d,%d,%d)\n" % cliques.sizes())
    return EXIT_OK


def _cmd_verify(args) -> int:
    failed = False
    for res in run_all(trials=args.trials, seed=args.seed):
        status = "pass" if res.passed else "FAIL"
        sys.stdout.write("%-26s trials=%-5d max_violation=%.3e  %s\n"
                         % (res.name, res.trials, res.max_violation, status))
        failed = failed or not res.passed
    return EXIT_FAIL if failed else EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "cliques":
            return _cmd_cliques(args)
        return _cmd_verify(args)
    except (CaseParseError, CaseValidationError, CutFileError, ModelError,
            FileNotFoundError, IsADirectoryError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_DATA
    except LpBackendError as exc:
        sys.stderr.write("backend error: %s\n" % exc)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
