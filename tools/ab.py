#!/usr/bin/env python3
"""Paired in-process A/B: CPU seconds per instance of two commits.

Run from the repository root:

    python3 tools/ab.py BASE HEAD --workload cold-sweep [--passes N]

BASE and HEAD are git revisions of this repository.  Each is exported with
`git archive` into a temporary directory, and BASE a second time as the
control, an A/A side.  The instances are the benchmark's (perfbench/run.py,
seed 1): 32 case14 load instances at sigma = 1 %, solved cold, or
warm-started from each side's own cold case14 pool.  Each instance takes
the benchmark's call sequence: parse the case text, perturb its loads, then
build_m0 + load_cuts of the pool text when warm, then cutplane.

Each of the N passes runs in a fresh process that imports the three
src/opfcuts trees under package names of their own, in an order that goes
through all six permutations from pass to pass, and sets them up in that
order.  Identical code imported into one process runs up to about 1 %
faster or slower from one copy to another, and by a different amount in
each process, so the passes are spread over processes and import orders.
In a pass, after one untimed run of each side over the instances, the
sides take turns instance by instance, their order going through the six
permutations too, so host drift falls on every side alike (Kalibera &
Jones, "Rigorous benchmarking in reasonable time", ISMM 2013).  Each solve
is timed by `time.process_time`.  Per instance, the three sides must reach
bit-equal best bounds and equal counts: rounds, HiGHS runs and simplex
iterations.  It prints the median over the pairs of log(HEAD / BASE) as a
percentage change, and the same for CONTROL / BASE, each with a 95 %
interval from a bootstrap that draws passes, then pairs within them, so
that the interval holds the spread between processes too.  A change is
resolved when its interval excludes 0; the control shows what the tool
reads between identical trees.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import itertools
import math
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP = 2000
SIDES = ("base", "head", "control")
ORDERS = list(itertools.permutations(range(len(SIDES))))


def _export(rev: str, into: Path) -> Path:
    """The tree of `rev`, unpacked under `into`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def _package(name: str, tree: Path):
    """The opfcuts package of `tree`, imported as `name`."""
    folder = tree / "src" / "opfcuts"
    spec = importlib.util.spec_from_file_location(
        name, folder / "__init__.py", submodule_search_locations=[str(folder)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    # the modules the call sequence uses, whatever the package init imports
    for sub in ("case_io", "cut_manager", "driver", "lp_backend",
                "relaxation"):
        importlib.import_module("%s.%s" % (name, sub))
    return module


class Side:
    """One commit's library and the benchmark's call sequence on it."""

    def __init__(self, lib, text: str, warm: bool):
        self.lib, self.text, self.pool_text = lib, text, None
        self.highs_runs = 0
        linprog = lib.lp_backend.linprog

        def counted(highs):  # the backend calls it by its module's name
            self.highs_runs += 1
            return linprog(highs)

        lib.lp_backend.linprog = counted
        if warm:
            base = lib.case_io.parse_case(text, name="case14")
            report = lib.driver.cutplane(base, lib.driver.RunConfig())
            buf = io.StringIO()
            lib.cut_manager.save_cuts(report.pool, buf)
            self.pool_text = buf.getvalue()

    def solve(self, name: str, seed: int, sigma: float):
        """One instance: (CPU seconds, best bound, (rounds, HiGHS runs,
        simplex iterations))."""
        lib = self.lib
        runs = self.highs_runs
        t0 = time.process_time()
        case = lib.case_io.parse_case(self.text, name=name)
        case = lib.case_io.perturb_loads(case, seed, 0.0, sigma)
        warm = None
        if self.pool_text is not None:
            model = lib.relaxation.build_m0(case)
            warm, _ = lib.cut_manager.load_cuts(io.StringIO(self.pool_text),
                                                model)
        report = lib.driver.cutplane(case, lib.driver.RunConfig(), warm=warm)
        seconds = time.process_time() - t0
        return seconds, report.best_bound, (
            report.num_rounds, self.highs_runs - runs,
            sum(st.lp_iterations for st in report.rounds))


def _pass(trees: dict, order: tuple, warm: bool) -> dict:
    """One pass, in a process of its own: the sides imported and set up in
    `order`; per side its CPU seconds per solve, and per solve the counts
    that every side must share, or an error message."""
    sys.dont_write_bytecode = True  # write nothing into the exported trees
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # the benchmark's constants; it imports no library here
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    text = run.CASE14.read_text(encoding="utf-8")
    rng = random.Random(1)  # the benchmark's seed 1 instances
    seeds = [rng.randrange(2 ** 31) for _ in range(run.SWEEP_INSTANCES)]
    sides = {}
    for label in order:
        sides[label] = Side(_package("opfcuts_" + label, trees[label]),
                            text, warm)
    sides = [sides[label] for label in SIDES]
    for side in (sides[SIDES.index(label)] for label in order):
        for seed in seeds:  # fill each side's caches untimed
            side.solve("case14_p%d" % seed, seed, run.SWEEP_SIGMA)
    times = {label: [] for label in SIDES}
    counts = []
    for i, seed in enumerate(seeds):
        outcome = [None] * len(SIDES)
        for k in ORDERS[i % len(ORDERS)]:
            seconds, *outcome[k] = sides[k].solve(
                "case14_p%d" % seed, seed, run.SWEEP_SIGMA)
            times[SIDES[k]].append(seconds)
        if any(o != outcome[0] for o in outcome):
            return {"error": "instance %d: (best bound, counts) %s" % (
                seed, ", ".join("%s %r" % pair
                                for pair in zip(SIDES, outcome)))}
        counts.append(outcome[0][1])
    return {"times": times, "counts": counts}


def _interval(ratios: list, rng):
    """The median of the pooled `ratios`, a list per pass, and a 95 %
    interval of it from a bootstrap that draws passes, then the ratios of
    each pass drawn."""
    medians = sorted(statistics.median([r for run in rng.choices(
        ratios, k=len(ratios)) for r in rng.choices(run, k=len(run))])
        for _ in range(BOOTSTRAP))
    return (statistics.median([r for run in ratios for r in run]),
            medians[int(0.025 * BOOTSTRAP)],
            medians[int(0.975 * BOOTSTRAP) - 1])


def _change(passes: list, label: str) -> str:
    """`label` against base: the paired median change and its interval."""
    ratios = [[math.log(x / b) for b, x in zip(run["base"], run[label])]
              for run in passes]
    median, lo, hi = (100.0 * math.expm1(r)
                      for r in _interval(ratios, random.Random(0)))
    return "%+.1f %% (95 %% interval %+.1f to %+.1f %%)%s" % (
        median, lo, hi, "" if lo <= 0.0 <= hi else ", resolved")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", required=True,
                   choices=("cold-sweep", "warm-sweep"))
    p.add_argument("--passes", type=int, default=6,
                   help="timed passes, each in a process of its own")
    args = p.parse_args(argv)
    if args.passes < 2:
        p.error("--passes must be at least 2")

    warm = args.workload == "warm-sweep"
    passes, counts = [], []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {label: _export(rev, Path(tmp) / label) for label, rev in
                 zip(SIDES, (args.base, args.head, args.base))}
        spawn = multiprocessing.get_context("spawn")
        for n in range(args.passes):
            order = tuple(SIDES[k] for k in ORDERS[n % len(ORDERS)])
            with spawn.Pool(1) as pool:
                run = pool.apply(_pass, (trees, order, warm))
            if "error" in run:
                sys.stderr.write("error: %s\n" % run["error"])
                return 1
            passes.append(run["times"])
            counts += run["counts"]
    print("%s, %d pairs: %s per instance (medians)" % (
        args.workload, len(counts), ", ".join(
            "%s %.2f ms" % (label, 1e3 * statistics.median(
                [t for run in passes for t in run[label]]))
            for label in SIDES)))
    print("counts equal on every side, means per instance: %.2f rounds, "
          "%.2f HiGHS runs, %.1f simplex iterations"
          % tuple(map(statistics.fmean, zip(*counts))))
    print("head / base CPU per instance: " + _change(passes, "head"))
    print("control / base CPU per instance (A/A): "
          + _change(passes, "control"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
