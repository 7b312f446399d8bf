#!/usr/bin/env python3
"""Paired in-process A/B: CPU seconds per instance of two commits.

Run from the repository root:

    python3 tools/ab.py BASE HEAD --workload cold-sweep [--passes N]

BASE and HEAD are git revisions of this repository.  Each is exported with
`git archive` into a temporary directory, and its src/opfcuts is imported
under a package name of its own, so both run in this one process.  The
instances are the benchmark's (perfbench/run.py, seed 1): 32 case14 load
instances at sigma = 1 %, solved cold, or warm-started from each side's own
cold case14 pool.  Each instance takes the benchmark's call sequence: parse
the case text, perturb its loads, then build_m0 + load_cuts of the pool text
when warm, then cutplane.

After one untimed pass of each side, the two sides alternate instance by
instance for N passes, the side that goes first alternating too, so host
drift falls on both alike (Kalibera & Jones, "Rigorous benchmarking in
reasonable time", ISMM 2013).  Each solve is timed by `time.process_time`,
and the two sides must reach bit-equal best bounds.  It prints the median
over the pairs of log(HEAD / BASE) as a percentage change, with a bootstrap
95 % interval; a change is resolved when the interval excludes 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import math
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
    for sub in ("case_io", "cut_manager", "driver", "relaxation"):
        importlib.import_module("%s.%s" % (name, sub))
    return module


class Side:
    """One commit's library and the benchmark's call sequence on it."""

    def __init__(self, lib, text: str, warm: bool):
        self.lib, self.text, self.pool_text = lib, text, None
        if warm:
            base = lib.case_io.parse_case(text, name="case14")
            report = lib.driver.cutplane(base, lib.driver.RunConfig())
            buf = io.StringIO()
            lib.cut_manager.save_cuts(report.pool, buf)
            self.pool_text = buf.getvalue()

    def solve(self, name: str, seed: int, sigma: float):
        """One instance: (CPU seconds, best bound)."""
        lib = self.lib
        t0 = time.process_time()
        case = lib.case_io.parse_case(self.text, name=name)
        case = lib.case_io.perturb_loads(case, seed, 0.0, sigma)
        warm = None
        if self.pool_text is not None:
            model = lib.relaxation.build_m0(case)
            warm, _ = lib.cut_manager.load_cuts(io.StringIO(self.pool_text),
                                                model)
        report = lib.driver.cutplane(case, lib.driver.RunConfig(), warm=warm)
        return time.process_time() - t0, report.best_bound


def _interval(ratios, rng):
    """The median of `ratios` and a bootstrap 95 % interval of it."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return (statistics.median(ratios), medians[int(0.025 * BOOTSTRAP)],
            medians[int(0.975 * BOOTSTRAP) - 1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", required=True,
                   choices=("cold-sweep", "warm-sweep"))
    p.add_argument("--passes", type=int, default=6)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")

    sys.dont_write_bytecode = True  # write nothing into the exported trees
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # the benchmark's constants; it imports no library here
    for var in run.THREAD_VARS:
        os.environ[var] = "1"

    text = run.CASE14.read_text(encoding="utf-8")
    rng = random.Random(1)  # the benchmark's seed 1 instances
    seeds = [rng.randrange(2 ** 31) for _ in range(run.SWEEP_INSTANCES)]
    warm = args.workload == "warm-sweep"
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for label, rev in (("base", args.base), ("head", args.head)):
            tree = _export(rev, Path(tmp) / label)
            sides.append(Side(_package("opfcuts_" + label, tree), text, warm))
        for side in sides:  # fill each side's caches untimed
            for seed in seeds:
                side.solve("case14_p%d" % seed, seed, run.SWEEP_SIGMA)
        times = ([], [])
        for n in range(args.passes):
            for i, seed in enumerate(seeds):
                order = (0, 1) if (n + i) % 2 == 0 else (1, 0)
                bounds = [None, None]
                for k in order:
                    seconds, bounds[k] = sides[k].solve(
                        "case14_p%d" % seed, seed, run.SWEEP_SIGMA)
                    times[k].append(seconds)
                if bounds[0] != bounds[1]:
                    sys.stderr.write("error: instance %d: best bound %r "
                                     "(base) != %r (head)\n"
                                     % (seed, bounds[0], bounds[1]))
                    return 1
    ratios = [math.log(h / b) for b, h in zip(*times)]
    median, lo, hi = (100.0 * math.expm1(r)
                      for r in _interval(ratios, random.Random(0)))
    print("%s, %d pairs: base %.2f ms, head %.2f ms per instance (medians)"
          % (args.workload, len(ratios), 1e3 * statistics.median(times[0]),
             1e3 * statistics.median(times[1])))
    print("head / base CPU per instance: %+.1f %% (95 %% interval %+.1f to "
          "%+.1f %%)%s" % (median, lo, hi, "" if lo <= 0.0 <= hi
                           else ", resolved"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
