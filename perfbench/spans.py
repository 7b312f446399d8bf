"""Span tracing of the opfcuts layers by wrapping library functions in place.

`Tracer.patch` replaces a module function or a class method with a wrapper
that records one span per call (name, start, end, enclosing span) and can
update counters from the call's arguments and result.  `Tracer.restore` puts
every original back.  A span's self time is its duration minus the durations
of the spans directly inside it, so self times never overlap and their sum
over all spans is at most the wall time of the traced region.

`wrapped` installs the benchmark's layer map for the duration of a block.
Functions that a module imported by name are wrapped in the importing module
(``driver.eigen``, ``separation.eigen``, ``driver.admit``, ...), because
rebinding the defining module would not reach those names.  A name in the
layer map that the library does not have raises LayerMapError, so a rename
in the library fails the traced run until the layer map follows it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict


class LayerMapError(LookupError):
    """A name to trace that the library does not have."""


class Tracer:
    """In-memory span recorder plus counters, with reversible patches."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attr, original)

    def current(self) -> str | None:
        """Name of the innermost open span, or None outside any span."""
        return self.names[self._stack[-1]] if self._stack else None

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str, observe=None,
              fold_into: tuple = ()) -> bool:
        """Wrap `owner.attr` (a module function or a class method).

        `observe(tracer, args, kwargs, result)` runs after each successful
        call.  A call made while the innermost span is named in `fold_into`
        records no span of its own, so its time stays with that span.
        Raises LayerMapError when `owner` has no such attribute of its own.
        """
        original = vars(owner).get(attr)
        if original is None:
            raise LayerMapError("%s has no attribute %r to trace"
                              % (getattr(owner, "__name__", owner), attr))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if fold_into and self.current() in fold_into:
                return original(*args, **kwargs)
            result = self.call(name, original, args, kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.span_name = name
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every patched original, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (self seconds, total seconds, call count)."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[idx]
        out: dict[str, list] = {}
        for idx, name in enumerate(self.names):
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += durations[idx] - child[idx]
            acc[1] += durations[idx]
            acc[2] += 1
        return {name: tuple(v) for name, v in out.items()}


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _observe_linprog(tracer, args, kwargs, result):
    rows = sum(m.shape[0] for m in (kwargs.get("A_ub"), kwargs.get("A_eq"))
               if m is not None)
    tracer.maxima["lp_backend.rows_max"] = max(
        tracer.maxima["lp_backend.rows_max"], rows)


def _observe_solve(tracer, args, kwargs, result):
    # the driver credits the dual bound only when dual_inf is within
    # 10 x feasibility_tol; optimal solves beyond that are uncertified
    tol = 10.0 * getattr(args[0], "feasibility_tol", 1e-6)
    if result.status == "optimal" and (result.dual_infeasibility is None
                                       or result.dual_infeasibility > tol):
        tracer.counts["lp_backend.uncertified_solves"] += 1


def _observe_admit(tracer, args, kwargs, result):
    tracer.counts["separation.candidates"] += len(
        _arg(args, kwargs, 1, "candidates"))
    tracer.counts["cut_manager.admitted"] += len(result)
    tracer.maxima["cut_manager.pool_max"] = max(
        tracer.maxima["cut_manager.pool_max"],
        len(_arg(args, kwargs, 0, "pool")))


def _observe_drop(tracer, args, kwargs, result):
    tracer.counts["cut_manager.dropped"] += len(result)


def _resolve(owner: str):
    """The opfcuts module or class named ``module`` or ``module.Class``.

    Raises LayerMapError when the library has no such module or class.
    """
    module, _, cls = owner.partition(".")
    try:
        obj = importlib.import_module("opfcuts." + module)
    except ModuleNotFoundError as exc:
        raise LayerMapError("no module opfcuts.%s to trace" % module) from exc
    if not cls:
        return obj
    try:
        return getattr(obj, cls)
    except AttributeError as exc:
        raise LayerMapError("no class opfcuts.%s to trace" % owner) from exc


# (owner, attribute, span name, observer, fold_into) per wrapped name
LAYER_MAP = [
    ("case_io", "parse_case", "case_io.parse", None, ()),
    ("case_io", "perturb_loads", "case_io.perturb", None, ()),
    ("driver", "cutplane", "driver.cutplane", None, ()),
    ("driver", "eigen", "hermitian.eigen", None, ()),
    ("separation", "eigen", "hermitian.eigen", None, ()),
    ("lp_backend", "linprog", "lp_backend.highs", _observe_linprog, ()),
    ("lp_backend.ScipyHighsBackend", "solve", "lp_backend.solve",
     _observe_solve, ()),
    ("separation", "jabr_cut", "separation.jabr", None, ()),
    # jabr_cut delegates to eigen_cut; that call stays Jabr time
    ("separation", "eigen_cut", "separation.clique", None,
     ("separation.jabr",)),
    ("separation", "projection_cut", "separation.clique", None, ()),
    ("separation", "limit_cut", "separation.tangent", None, ()),
    ("separation", "cost_cut", "separation.tangent", None, ()),
    ("driver", "admit", "cut_manager.admit", _observe_admit, ()),
    ("driver", "age_and_drop", "cut_manager.age_drop", _observe_drop, ()),
    ("cut_manager", "load_cuts", "cut_manager.load", None, ()),
    ("cut_manager", "save_cuts", "cut_manager.save", None, ()),
    ("driver", "build_m0", "relaxation.build", None, ()),
    ("relaxation", "build_m0", "relaxation.build", None, ()),
    ("relaxation.RelaxationModel", "add_cut_row", "relaxation.row_edit",
     None, ()),
    ("relaxation.RelaxationModel", "remove_cut_row", "relaxation.row_edit",
     None, ()),
    ("relaxation.RelaxationModel", "clique_matrix",
     "relaxation.clique_matrix", None, ()),
    ("relaxation.RelaxationModel", "extend_pairs", "relaxation.extend",
     None, ()),
    ("separation.LinearCut", "normalized_violation", "driver.slack",
     None, ()),
    ("driver", "enumerate_three_cycles", "network.cliques", None, ()),
    ("driver", "chordal_cliques", "network.cliques", None, ()),
]


@contextlib.contextmanager
def wrapped(tracer: Tracer):
    """Install every wrapper of `LAYER_MAP` for the block, then restore."""
    try:
        for owner, attr, name, observe, fold_into in LAYER_MAP:
            tracer.patch(_resolve(owner), attr, name, observe, fold_into)
        yield
    finally:
        tracer.restore()


def leaked_patches() -> list[str]:
    """Names in `LAYER_MAP` still bound to a tracing wrapper."""
    return ["%s.%s" % (owner, attr) for owner, attr, *_ in LAYER_MAP
            if hasattr(vars(_resolve(owner)).get(attr), "span_name")]


# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "hermitian.eigen": "hermitian.eigen_s",
    "lp_backend.highs": "lp_backend.highs_s",
    "lp_backend.solve": "lp_backend.overhead_s",
    "separation.jabr": "separation.jabr_s",
    "separation.clique": "separation.clique_s",
    "separation.tangent": "separation.tangent_s",
    "cut_manager.admit": "cut_manager.admit_s",
    "cut_manager.age_drop": "cut_manager.age_drop_s",
    "cut_manager.load": "cut_manager.load_s",
    "cut_manager.save": "cut_manager.save_s",
    "relaxation.build": "relaxation.build_s",
    "relaxation.row_edit": "relaxation.row_edit_s",
    "relaxation.clique_matrix": "relaxation.clique_matrix_s",
    "relaxation.extend": "relaxation.extend_s",
    "driver.slack": "driver.slack_s",
    "driver.cutplane": "driver.self_s",
    "case_io.parse": "case_io.parse_s",
    "case_io.perturb": "case_io.perturb_s",
    "network.cliques": "network.cliques_s",
}

# (name, unit, better) of every per-layer metric of the traced run
PER_LAYER = (
    [(metric, "s", "lower") for metric in SELF_TIME_METRICS.values()]
    + [("hermitian.eigen_calls", "count", "lower"),
       ("lp_backend.solves", "count", "lower"),
       ("lp_backend.rows_max", "count", "lower"),
       ("lp_backend.uncertified_solves", "count", "lower"),
       ("separation.candidates", "count", "lower"),
       ("cut_manager.admitted", "count", "lower"),
       ("cut_manager.admit_ratio", "ratio", "higher"),
       ("cut_manager.dropped", "count", "lower"),
       ("cut_manager.pool_max", "count", "lower"),
       ("trace.coverage", "ratio", "higher"),
       ("trace.overhead_pct", "%", "lower")])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    Self times and counts are totals over everything traced.  The caller
    adds ``trace.overhead_pct``, which needs an untraced run to compare.
    """
    times = tracer.self_times()
    out = {metric: times.get(span, (0.0, 0.0, 0))[0]
           for span, metric in SELF_TIME_METRICS.items()}
    out["hermitian.eigen_calls"] = times.get("hermitian.eigen", (0, 0, 0))[2]
    out["lp_backend.solves"] = times.get("lp_backend.solve", (0, 0, 0))[2]
    for key in ("lp_backend.uncertified_solves", "separation.candidates",
                "cut_manager.admitted", "cut_manager.dropped"):
        out[key] = tracer.counts[key]
    for key in ("lp_backend.rows_max", "cut_manager.pool_max"):
        out[key] = tracer.maxima[key]
    cands = out["separation.candidates"]
    out["cut_manager.admit_ratio"] = (out["cut_manager.admitted"] / cands
                                      if cands else 0.0)
    # share of cutplane wall time that the wrapped layers account for
    _, cutplane_wall, _ = times.get("driver.cutplane", (0.0, 0.0, 0))
    out["trace.coverage"] = (1.0 - out["driver.self_s"] / cutplane_wall
                             if cutplane_wall > 0 else 0.0)
    return out
