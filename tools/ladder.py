#!/usr/bin/env python3
"""Scaling ladder: case14 tiled k times, solved cold, for k = 1, 2, 4, ...

Run from the repository root:

    python3 tools/ladder.py --out BENCH_ladder.json

For k = 1, 2, 4, ... up to --max-k (default 32) it builds
`tile_case(case14, k, 1)` with perfbench/tiler.py and solves it cold with
`RunConfig(time_limit=300)`, BLAS and OpenMP pinned to one thread as in the
benchmark, one k at a time in one process.  Per k it records the seconds of
the solve, the rounds, the best certified bound, the termination, the rows
and columns of the LP solved last, and the HiGHS simplex iterations summed
over every solve of the run, read from each solve's
`LpSolveResult.iterations` by wrapping `ScipyHighsBackend.solve` here.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TIME_LIMIT = 300.0
SEED = 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--max-k", type=int, default=32)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    sys.dont_write_bytecode = True  # import perfbench/ without writing to it
    sys.path.insert(0, str(PERFBENCH))
    import run

    _, tiler = run._import_library()  # pins BLAS threads, imports src/
    import numpy
    import scipy
    from opfcuts import lp_backend
    from opfcuts.case_io import parse_case
    from opfcuts.driver import RunConfig, cutplane

    last = {}
    solve = lp_backend.ScipyHighsBackend.solve

    def counted(backend):
        result = solve(backend)
        last["iterations"] += result.iterations
        last["rows"], last["cols"] = len(backend.rhs), len(backend.objective)
        return result

    lp_backend.ScipyHighsBackend.solve = counted
    base = parse_case(run.CASE14.read_text(encoding="utf-8"), name="case14")
    records = []
    k = 1
    while k <= args.max_k:
        case = tiler.tile_case(base, k, SEED)
        last["iterations"] = 0
        t0 = time.perf_counter()
        report = cutplane(case, RunConfig(time_limit=TIME_LIMIT))
        seconds = time.perf_counter() - t0
        records.append({
            "k": k, "buses": len(case.buses), "seconds": seconds,
            "rounds": report.num_rounds, "best_bound": report.best_bound,
            "termination": report.termination, "lp_rows": last["rows"],
            "lp_cols": last["cols"], "simplex_iterations": last["iterations"]})
        print("k %2d  %7.2f s  %2d rounds  bound %.4f  %s" % (
            k, seconds, report.num_rounds, report.best_bound,
            report.termination), file=sys.stderr)
        k *= 2
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump({
            "command": "python3 tools/ladder.py --max-k %d" % args.max_k,
            "case": "tile_case(case14, k, %d), solved cold with "
                    "RunConfig(time_limit=%g)" % (SEED, TIME_LIMIT),
            "host": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
            "records": records}, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
