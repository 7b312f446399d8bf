#!/usr/bin/env python3
"""Trajectory fingerprint: two sha256 digests over a benchmark pass.

Run from the repository root:

    python3 tools/fingerprint.py --workload cold-sweep --seed 1

It runs one set-up and one pass of the workload through the `Workload` class
of perfbench/run.py, so warm-sweep takes the benchmark's build_m0 + load_cuts
path, and prints two digests on one line.  The first, the full digest,
hashes per instance every round's objective and certified bound (as float
hex), the cuts added and dropped, the termination and the save_cuts text of
the final pool, plus the warm pool text.  The second, the trajectory digest,
hashes the same without any pool text: the saved text carries the simplex
basis of the last solve, so the full digest also moves when only the basis
does.  Equal trajectory digests mean bit-identical trajectories.  Compare
digests taken on one machine only: BLAS results may differ between machines.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # import perfbench/ without writing to it
    sys.path.insert(0, str(PERFBENCH))
    import run

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)

    _, tiler = run._import_library()
    tally = run.Tally()
    workload = run.Workload(args.workload, args.seed, tiler, tally)
    workload.setup()
    full, trajectory = [workload.pool_text or ""], []
    for inst in workload.instances:
        report, problems = workload.solve(inst)
        tally.record(inst.name, report, problems)
        lines = ["instance %s" % inst.name]
        lines.extend("%s %s %d %d" % (st.objective.hex(), st.bound.hex(),
                                      st.cuts_added, st.cuts_dropped)
                     for st in report.rounds)
        lines.append("termination %s" % report.termination)
        trajectory.extend(lines)
        pool = io.StringIO()
        workload.cut_manager.save_cuts(report.pool, pool)
        full.extend(lines + [pool.getvalue()])
    if tally.failed:
        sys.stderr.write("error: %d of %d solves failed their checks\n"
                         % (tally.failed, tally.attempted))
        return 1
    print(*(hashlib.sha256("\n".join(text).encode()).hexdigest()
            for text in (full, trajectory)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
