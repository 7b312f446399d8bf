#!/usr/bin/env python3
"""opfcuts benchmark: time to a certified ACOPF lower bound, cold and warm.

Run from the repository root:

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one instance at a time, all solves in one process,
BLAS and OpenMP pinned to one thread):

  cold-tiled  case14 tiled 8 times into a 112-bus chain (see tiler.py),
              solved cold: one large LP per round
  cold-sweep  32 case14 instances with loads perturbed at sigma = 1 %, each
              solved cold: small LPs, per-call costs dominate
  warm-sweep  the same 32 instances, each warm-started from the cut pool of
              one cold case14 solve through a save_cuts -> load_cuts text
              round trip, as `opfcuts solve --warm` does

The timed phase cycles through the workload's instances, one at a time,
until the next solve would end after --seconds; it always completes one
pass over all instances and repeats at least one instance.  Each instance is
timed from parsing its case text to the returned RunReport, so the time
includes perturb_loads and, when warm, build_m0 and load_cuts.  wall_s is
the wall time of one complete pass (median over passes).  setup_s is the
median time to import opfcuts in a fresh interpreter (three child
processes) plus the median of five set-ups: parsing case14 and generating
the instances, and for warm-sweep the cold solve and save_cuts of the pool.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass,
then one traced set-up and pass with every layer wrapped (spans.py), and
prints the per-layer metrics.  Every instance's output is checked; the last
line of standard output is one JSON object with the verdict and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CASE14 = SRC / "opfcuts" / "data" / "case14.m"

WORKLOADS = ("cold-tiled", "cold-sweep", "warm-sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TILES = 8
SWEEP_INSTANCES = 32
SWEEP_SIGMA = 0.01
# setup_s is the median fresh-interpreter import plus the median set-up
IMPORT_REPEATS = 3
SETUP_REPEATS = 5
# case14 cold-bound acceptance band of the acceptance battery
BAND_LO, BAND_HI = 8074.70, 8081.18 + 1e-3
ROUND_BOUND_RTOL = 1e-6
REPEAT_RTOL = 1e-9
# p90 is reported only with this many samples beyond it
TAIL_SAMPLES = 10


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Instance:
    name: str
    text: str                  # MATPOWER case text handed to parse_case
    perturb_seed: int | None   # perturb_loads seed, None for no perturbation


@dataclass
class Tally:
    """Outcomes of every solve the benchmark checks."""

    attempted: int = 0
    failed: int = 0
    bounds: dict = field(default_factory=dict)   # instance -> first bound
    rounds: dict = field(default_factory=dict)   # instance -> first rounds

    def fail(self, what: str):
        self.failed += 1
        sys.stderr.write("check failed: %s\n" % what)

    def record(self, name: str, report, extra_problems=()):
        """Check one returned RunReport; returns True when it passes."""
        self.attempted += 1
        problems = list(extra_problems)
        if not math.isfinite(report.best_bound):
            problems.append("best bound %r is not finite" % report.best_bound)
        if report.termination.startswith("backend_") \
                or report.termination == "time":
            problems.append("terminated with %r" % report.termination)
        for st in report.rounds:
            if st.bound > st.objective + ROUND_BOUND_RTOL * abs(st.objective):
                problems.append("round %d bound %.9g above objective %.9g"
                                % (st.index, st.bound, st.objective))
        first = self.bounds.setdefault(name, report.best_bound)
        self.rounds.setdefault(name, report.num_rounds)
        if abs(report.best_bound - first) > REPEAT_RTOL * abs(first):
            problems.append("repeat bound %.12g differs from %.12g"
                            % (report.best_bound, first))
        if problems:
            self.fail("%s: %s" % (name, "; ".join(problems)))
        return not problems


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _import_library():
    """Import opfcuts from this checkout's src/."""
    if not (SRC / "opfcuts" / "__init__.py").is_file():
        raise BenchError("no opfcuts sources under %s" % SRC)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import opfcuts
    import spans
    import tiler
    if Path(opfcuts.__file__).resolve().parent != SRC / "opfcuts":
        raise BenchError("opfcuts imported from %s, not from %s"
                         % (opfcuts.__file__, SRC))
    return spans, tiler


def _import_seconds() -> float:
    """Median wall time of importing opfcuts in a fresh interpreter.

    The import happens once per process, so it is timed in child processes
    to get more than one sample.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-c", "import opfcuts"], env=env,
                           check=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise BenchError("timing the import failed: %s" % exc) from exc
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


class Workload:
    """Inputs of one workload and the call sequence that solves them.

    Library functions are looked up on their modules at call time, so the
    traced run's wrappers see every call the benchmark makes.
    """

    def __init__(self, name: str, seed: int, tiler, tally: Tally):
        from opfcuts import case_io, cut_manager, driver, relaxation
        self.case_io, self.cut_manager = case_io, cut_manager
        self.driver, self.relaxation = driver, relaxation
        self.name, self.seed, self.tiler, self.tally = name, seed, tiler, tally
        self.instances: list[Instance] = []
        self.pool_text: str | None = None

    def setup(self):
        """Parse case14 and generate the instances (and the warm pool)."""
        case_io = self.case_io
        text = CASE14.read_text(encoding="utf-8")
        base = case_io.parse_case(text, name="case14")
        if self.name == "cold-tiled":
            tiled = self.tiler.tile_case(base, TILES, self.seed)
            tiled_text = case_io.serialize_case(tiled)
            if case_io.parse_case(tiled_text, name=tiled.name) != tiled:
                self.tally.fail("tiled case changes in a serialize_case -> "
                                "parse_case round trip")
            self.instances = [Instance(tiled.name, tiled_text, None)]
            return
        rng = random.Random(self.seed)
        self.instances = [
            Instance("case14_p%d" % s, text, s)
            for s in (rng.randrange(2 ** 31) for _ in range(SWEEP_INSTANCES))]
        if self.name == "warm-sweep":
            report = self.driver.cutplane(base, self.driver.RunConfig())
            band = [] if BAND_LO <= report.best_bound <= BAND_HI else [
                "cold bound %.6f outside [%.2f, %.3f]"
                % (report.best_bound, BAND_LO, BAND_HI)]
            self.tally.record("case14_cold", report, band)
            buf = io.StringIO()
            self.cut_manager.save_cuts(report.pool, buf)
            if self.pool_text not in (None, buf.getvalue()):
                self.tally.fail("saved cut pool differs between set-ups")
            self.pool_text = buf.getvalue()

    def solve(self, inst: Instance):
        """One timed instance: case text to RunReport."""
        case = self.case_io.parse_case(inst.text, name=inst.name)
        if inst.perturb_seed is not None:
            case = self.case_io.perturb_loads(case, inst.perturb_seed, 0.0,
                                              SWEEP_SIGMA)
        warm, problems = None, []
        if self.pool_text is not None:
            model = self.relaxation.build_m0(case)
            warm, skipped = self.cut_manager.load_cuts(
                io.StringIO(self.pool_text), model)
            # cuts on chordal fill-in pairs are skipped: build_m0 has none
            if not warm.cuts:
                problems.append("load_cuts kept none of %d cuts" % skipped)
        report = self.driver.cutplane(case, self.driver.RunConfig(),
                                      warm=warm)
        if warm is not None and not report.warm_started:
            problems.append("report is not marked warm-started")
        return report, problems

    def attempt(self, inst: Instance) -> float | None:
        """Solve and check one instance; its time, or None when it failed."""
        t0 = time.perf_counter()
        try:
            report, problems = self.solve(inst)
        except Exception:  # an instance that raises counts as failed
            self.tally.attempted += 1
            self.tally.fail("%s raised\n%s" % (inst.name,
                                               traceback.format_exc()))
            return None
        elapsed = time.perf_counter() - t0
        return elapsed if self.tally.record(inst.name, report, problems) \
            else None


def _timed_setup(workload: Workload) -> list[float]:
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        walls.append(time.perf_counter() - t0)
    return walls


def _measure(workload: Workload, seconds: float):
    """Untraced run: end-to-end metrics and human-readable extras."""
    import_s = _import_seconds()
    setup_walls = _timed_setup(workload)
    samples, pass_walls = [], []
    n = len(workload.instances)
    start = t_pass = time.perf_counter()
    done = 0
    # cycle through the instances until the next one would end after
    # `seconds`, but finish one pass and repeat one instance in any case
    while True:
        elapsed = workload.attempt(workload.instances[done % n])
        if elapsed is not None:
            samples.append(elapsed)
        done += 1
        now = time.perf_counter()
        if done % n == 0:
            pass_walls.append(now - t_pass)
            t_pass = now
        if done > n and now - start + statistics.median(samples or [0.0]) \
                > seconds:
            break
    tally = workload.tally
    if not samples:
        raise BenchError("no instance was solved correctly")
    names = [inst.name for inst in workload.instances]
    metrics = {
        "time_to_bound_s_p50": (statistics.median(samples), "s"),
        "wall_s": (statistics.median(pass_walls), "s"),
        "setup_s": (import_s + statistics.median(setup_walls), "s"),
        "certified_bound": (statistics.fmean(
            tally.bounds[name] for name in names if name in tally.bounds),
            "usd/h"),
        "rounds": (statistics.fmean(
            tally.rounds[name] for name in names if name in tally.rounds),
            "rounds"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    extras = {"import_s": (import_s, "s"),
              "samples": (len(samples), "count"),
              "passes": (len(pass_walls), "count"),
              "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio")}
    if len(samples) >= 10 * TAIL_SAMPLES:
        p90 = statistics.quantiles(samples, n=10)[-1]
        if sum(s > p90 for s in samples) >= TAIL_SAMPLES:
            extras["time_to_bound_s_p90"] = (p90, "s")
    return metrics, extras


def _measure_traced(workload: Workload, spans):
    """Traced run: per-layer metrics from one traced set-up and pass.

    Each instance is solved untraced and then traced, back to back, so
    that drift in host speed affects both sides of trace.overhead_pct alike.
    """
    tracer = spans.Tracer()
    workload.setup()
    with spans.wrapped(tracer):
        workload.setup()
    untraced = traced = 0.0
    for inst in workload.instances:
        untraced += workload.attempt(inst) or 0.0
        with spans.wrapped(tracer):
            traced += workload.attempt(inst) or 0.0
    leaked = spans.leaked_patches()
    if leaked:
        workload.tally.fail("trace wrappers left installed: %s"
                            % ", ".join(leaked))
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    metrics = {name: (value, units[name])
               for name, value in spans.layer_metrics(tracer).items()}
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced,
                                     "%")
    extras = {"untraced_pass_s": (untraced, "s"),
              "traced_pass_s": (traced, "s"),
              "spans": (len(tracer.names), "count")}
    return metrics, extras


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        spans, tiler = _import_library()
    except (BenchError, ImportError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    tally = Tally()
    workload = Workload(args.workload, args.seed, tiler, tally)
    try:
        if args.trace:
            metrics, extras = _measure_traced(workload, spans)
        else:
            metrics, extras = _measure(workload, args.seconds)
    except (BenchError, spans.LayerMapError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    for name, (value, unit) in {**metrics, **extras}.items():
        print("%-32s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
