#!/usr/bin/env python3
"""Spread check and baseline for the opfcuts benchmark.

For every workload of BENCHMARK.json, runs `run.py` once per seed, for
seeds 1 to 10, with the settings of BENCHMARK.json, one after another, and
then runs the ten seeds a second time.  For every end-to-end metric it
reports each set's median and quartile spread (Q3 - Q1) / median, whether
each spread stays within the metric's bound and within a third of it,
whether the second median is worse than the first by more than the bound,
and whether deterministic metrics repeat exactly.  One traced run per
workload adds the per-layer metrics.  Exits 1 when a metric would not be
accepted.

    python3 perfbench/prove.py --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
SETS = 2
# deterministic metrics: the same seed must give the same value
EXACT = ("certified_bound", "rounds")
# which end-to-end metric each layer should move, and on which workload
LAYER_MOVES = {
    "hermitian": "time_to_bound_s_p50 on every workload (eigen is about "
                 "half of each run); the largest absolute change on "
                 "cold-tiled",
    "lp_backend": "wall_s on cold-tiled, where the LP share grows with the "
                  "row count; barely warm-sweep. uncertified_solves guards "
                  "certified_bound",
    "separation": "time_to_bound_s_p50 and wall_s on cold-tiled",
    "cut_manager": "admit and age/drop: cold-tiled, the largest pool; load: "
                   "warm-sweep only; save: warm-sweep setup_s",
    "relaxation": "build_s: both sweeps (warm-sweep builds the model twice "
                  "per instance); row edits and clique matrices: cold-tiled",
    "driver": "slack and self time: cold-tiled",
    "case_io": "setup_s and both sweeps",
    "network": "setup_s and both sweeps",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d):\n%s"
                           % (" ".join(cmd), proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s: incorrect result\n%s"
                           % (" ".join(cmd), proc.stderr))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "threads": "OMP/OPENBLAS/MKL/VECLIB/NUMEXPR_NUM_THREADS=1, "
                       "single process, closed loop"}


def check_sets(first: dict, second: dict, bench: dict) -> dict:
    """Acceptance of each end-to-end metric over two sets of runs.

    Accepted: both sets' spreads are within the bound, the second median is
    not worse than the first by more than the bound, and deterministic
    metrics repeat exactly.  Steady: accepted, and both spreads are also
    within a third of the bound.
    """
    out = {}
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        spreads = [first[name]["spread"], second[name]["spread"]]
        shift = second[name]["median"] / first[name]["median"] - 1.0
        accepted = (max(spreads) <= bound
                    and (shift if m["better"] == "lower" else -shift)
                    <= bound)
        check = {"bound": bound, "spreads": spreads,
                 "second_median_shift": shift}
        if name in EXACT:
            check["exact_repeat"] = (first[name]["values"]
                                     == second[name]["values"])
            accepted = accepted and check["exact_repeat"]
        check["accepted"] = accepted
        check["within_third"] = accepted and max(spreads) <= bound / 3.0
        out[name] = check
    return out


def describe(bench: dict) -> dict:
    """Why each workload is run and which way each metric improves."""
    return {
        "rationale": {w["name"]: w["why"] for w in bench["workloads"]},
        "layer_moves": LAYER_MOVES,
        "better": {m["name"]: m["better"]
                   for m in bench["end_to_end"] + bench["per_layer"]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    report = {"machine": machine_facts(), "run_seconds": seconds,
              "seeds": SEEDS, **describe(bench), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        t0 = time.perf_counter()
        sets = []
        for _ in range(SETS):
            runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
            sets.append({m: spread([r[m] for r in runs]) for m in metrics})
        entry = {"sets": sets, "checks": check_sets(*sets, bench)}
        for metric, check in entry["checks"].items():
            ok = ok and check["accepted"]
            print("%-11s %-20s median %-12.6g spread %s  shift %+.2f%%  "
                  "bound %5.1f%%  %s"
                  % (workload, metric, sets[0][metric]["median"],
                     "/".join("%.2f%%" % (100 * x) for x in check["spreads"]),
                     100 * check["second_median_shift"], 100 * check["bound"],
                     "steady" if check["within_third"] else
                     "accepted" if check["accepted"] else "REJECTED"),
                  flush=True)
        entry["traced"] = run_once(workload, SEEDS[0], seconds, 1)
        print("%-11s trace.coverage %.4f  trace.overhead_pct %.2f"
              % (workload, entry["traced"]["trace.coverage"],
                 entry["traced"]["trace.overhead_pct"]), flush=True)
        entry["elapsed_s"] = time.perf_counter() - t0
        report["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
