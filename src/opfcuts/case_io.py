"""MATPOWER case ingestion, per-unit normalization, and load perturbation.

The case records check themselves when they are made: each of `Bus`,
`Branch`, `Generator` and `CostFunction` checks its own fields, and
`CaseData` the rules that span records (base MVA, unique bus ids, known
bus references, no branch from a bus to itself).  So a case built in code
(by `perturb_loads`, a tiler or any caller) is checked as a parsed one is,
and a violation is a `CaseValidationError`.

`parse_case` reads the `.m` case format (matrices ``mpc.bus``, ``mpc.gen``,
``mpc.branch``, ``mpc.gencost`` plus scalar ``mpc.baseMVA``) and applies the
MATPOWER encodings: it rejects only what is wrong with the text, as a
`CaseParseError`.  All MW/MVAr quantities are divided by baseMVA on
ingestion; cost coefficients are rescaled so that they apply to per-unit
power arguments while keeping the original cost units.  A rateA of 0, a
negative one or +Inf means no thermal limit, a tap of 0 means 1, and angles
turn from degrees into radians.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import CaseParseError, CaseValidationError

# MATPOWER column positions (0-based).
_BUS_COLS = 13
_GEN_COLS = 10
_BRANCH_COLS = 11


@dataclass(frozen=True)
class CostFunction:
    """Convex generator cost.

    ``polynomial``: coefficients (c2, c1, c0) over per-unit power, cost units
    unchanged.  ``pwl``: breakpoints [(p_pu, cost), ...] with strictly
    increasing p and nondecreasing slopes.
    """

    kind: str  # "polynomial" | "pwl"
    coefficients: tuple = ()          # (c2, c1, c0) when polynomial
    breakpoints: tuple = ()           # ((p, f), ...) when pwl

    def __post_init__(self):
        if self.kind == "polynomial":
            if len(self.coefficients) != 3:
                raise CaseValidationError(
                    "polynomial cost of degree %d unsupported (max 2)"
                    % (len(self.coefficients) - 1))
            if not all(map(math.isfinite, self.coefficients)):
                raise CaseValidationError(
                    "polynomial cost coefficients %r must be finite"
                    % (self.coefficients,))
            c2 = self.coefficients[0]
            if c2 < 0:
                raise CaseValidationError(
                    "nonconvex polynomial cost: leading coefficient %g" % c2)
        elif self.kind == "pwl":
            pts = self.breakpoints
            if len(pts) < 2:
                raise CaseValidationError("pwl cost needs >= 2 breakpoints")
            if not all(map(math.isfinite, (v for pt in pts for v in pt))):
                raise CaseValidationError(
                    "pwl cost breakpoints %r must be finite" % (pts,))
            prev_slope = -math.inf
            for (p0, f0), (p1, f1) in zip(pts, pts[1:]):
                if p1 <= p0:
                    raise CaseValidationError(
                        "pwl breakpoints must be strictly increasing")
                slope = (f1 - f0) / (p1 - p0)
                if slope < prev_slope - 1e-9:
                    raise CaseValidationError("nonconvex pwl cost")
                prev_slope = slope
        else:
            raise CaseValidationError("unknown cost kind %r" % self.kind)

    def value(self, p: float) -> float:
        if self.kind == "polynomial":
            c2, c1, c0 = self.coefficients
            return c2 * p * p + c1 * p + c0
        # pwl: max over segment supports (convexity)
        return max(f0 + (f1 - f0) / (p1 - p0) * (p - p0)
                   for (p0, f0), (p1, f1) in zip(self.breakpoints,
                                                 self.breakpoints[1:]))

    def derivative(self, p: float) -> float:
        """Slope of a polynomial cost; a pwl cost has supports instead."""
        if self.kind != "polynomial":
            raise ValueError("derivative of a %s cost" % self.kind)
        c2, c1, _ = self.coefficients
        return 2.0 * c2 * p + c1

    def segment_supports(self):
        """All linear supports f0 + slope*(p - p0), one per pwl segment."""
        out = []
        for (p0, f0), (p1, f1) in zip(self.breakpoints, self.breakpoints[1:]):
            slope = (f1 - f0) / (p1 - p0)
            out.append((slope, f0 - slope * p0))  # t >= slope*p + intercept
        return out


def _require_finite(record, fields):
    """CaseValidationError naming `record` and the first of its `fields`
    whose value is not finite.  A record that checks many fields calls it
    only when their sum is not finite: a sum of finite values is finite
    unless it overflows."""
    for field in fields:
        value = getattr(record, field)
        if not math.isfinite(value):
            raise CaseValidationError("%s: %s must be finite, got %r"
                                      % (record.label, field, value))


@dataclass(frozen=True)
class Bus:
    """Finite loads, shunts and voltage limits, with 0 <= v_min <= v_max."""

    id: int
    p_load: float       # pu
    q_load: float       # pu
    v_min: float        # pu
    v_max: float        # pu
    shunt_g: float = 0.0
    shunt_b: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.p_load + self.q_load + self.shunt_g
                             + self.shunt_b + self.v_min + self.v_max):
            _require_finite(self, ("p_load", "q_load", "shunt_g", "shunt_b",
                                   "v_min", "v_max"))
        if not 0.0 <= self.v_min <= self.v_max:
            raise CaseValidationError(
                "%s: voltage limits 0 <= %g <= %g violated"
                % (self.label, self.v_min, self.v_max))

    label = property(lambda self: "bus %s" % self.id)


@dataclass(frozen=True)
class Branch:
    """Finite r, x, b_charge, tap and shift with tap > 0; nonzero series
    impedance when in service; a thermal limit that is None (unlimited) or
    finite and positive."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charge: float
    tap: float = 1.0
    shift: float = 0.0          # radians
    rate_a: float | None = None  # pu thermal limit, None = unlimited
    status: int = 1

    def __post_init__(self):
        if not math.isfinite(self.r + self.x + self.b_charge + self.tap
                             + self.shift):
            _require_finite(self, ("r", "x", "b_charge", "tap", "shift"))
        if not self.tap > 0.0:
            raise CaseValidationError("%s: nonpositive tap %g"
                                      % (self.label, self.tap))
        if self.status and self.r * self.r + self.x * self.x <= 0.0:
            raise CaseValidationError("%s has zero impedance" % self.label)
        if self.rate_a is not None and not 0.0 < self.rate_a < math.inf:
            raise CaseValidationError("%s: rate_a %r is not finite and > 0"
                                      % (self.label, self.rate_a))

    label = property(lambda self: "branch %s-%s" % (self.from_bus,
                                                    self.to_bus))


@dataclass(frozen=True)
class Generator:
    """Finite p_min <= p_max and q_min <= q_max; Qmax and Qmin may be
    infinite."""

    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    cost: CostFunction
    status: int = 1

    def __post_init__(self):
        _require_finite(self, ("p_min", "p_max"))
        if not (self.p_min <= self.p_max and self.q_min <= self.q_max):
            raise CaseValidationError("%s: empty box" % self.label)

    label = property(lambda self: "generator at bus %s" % self.bus)


def _require_base_mva(base: float):
    if not 0.0 < base < math.inf:
        raise CaseValidationError(
            "baseMVA must be finite and positive, got %g" % base)


@dataclass(frozen=True)
class CaseData:
    """A case whose records are joined consistently: a finite, positive
    base MVA, unique bus ids, generators and branches at known buses, and
    no branch from a bus to itself."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    name: str = "case"

    def __post_init__(self):
        _require_base_mva(self.base_mva)
        ids = {b.id for b in self.buses}
        if len(ids) != len(self.buses):
            raise CaseValidationError("duplicate bus ids")
        for g in self.generators:
            if g.bus not in ids:
                raise CaseValidationError("%s: unknown bus" % g.label)
        for br in self.branches:
            if br.from_bus not in ids or br.to_bus not in ids:
                raise CaseValidationError(
                    "%s references unknown bus" % br.label)
            if br.from_bus == br.to_bus:
                raise CaseValidationError(
                    "%s joins a bus to itself" % br.label)


_MAT_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.S)
_SCALAR_RE = re.compile(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _parse_matrix(body: str, name: str, first_line: int):
    rows = []
    for line_no, line in enumerate(body.splitlines(), first_line + 1):
        for chunk in filter(None, map(str.strip, line.split(";"))):
            try:
                row = [float(tok) for tok in chunk.split()]
            except ValueError:
                raise CaseParseError(
                    "malformed row in mpc.%s near line %d: %r"
                    % (name, line_no, chunk))
            if any(map(math.isnan, row)):
                raise CaseParseError("%s row near line %d holds a NaN: %r"
                                     % (name, line_no, chunk))
            rows.append(row)
    return rows


def parse_case(text: str, name: str = "case") -> CaseData:
    """Parse MATPOWER case text into per-unit CaseData."""
    clean = _strip_comments(text)

    m = _SCALAR_RE.search(clean)
    if m is None:
        raise CaseParseError("baseMVA scalar absent")
    base = float(m.group(1))
    _require_base_mva(base)  # before any value is divided by it

    matrices = {}
    for match in _MAT_RE.finditer(clean):
        start_line = clean[:match.start()].count("\n")
        matrices[match.group(1)] = _parse_matrix(
            match.group(2), match.group(1), start_line)

    for required in ("bus", "gen", "branch", "gencost"):
        if required not in matrices:
            raise CaseParseError("%s matrix absent" % required)

    buses = []
    for row in matrices["bus"]:
        if len(row) < _BUS_COLS:
            raise CaseParseError("bus row too short: %r" % (row,))
        buses.append(Bus(id=_whole(row, 0, "bus"),
                         p_load=row[2] / base, q_load=row[3] / base,
                         v_min=row[12], v_max=row[11],
                         shunt_g=row[4] / base, shunt_b=row[5] / base))

    gencost = matrices["gencost"]
    if len(gencost) < len(matrices["gen"]):
        raise CaseParseError("gencost has fewer rows than gen")

    generators = []
    for i, row in enumerate(matrices["gen"]):
        if len(row) < _GEN_COLS:
            raise CaseParseError("gen row too short: %r" % (row,))
        bus = _whole(row, 0, "gen")
        try:
            cost = _parse_cost(gencost[i], base)
        except CaseValidationError as exc:  # raised before its generator
            raise CaseValidationError("gencost row %d, generator at bus %d: "
                                      "%s" % (i + 1, bus, exc)) from exc
        generators.append(Generator(
            bus=bus, p_min=row[9] / base, p_max=row[8] / base,
            q_min=row[4] / base, q_max=row[3] / base, cost=cost,
            status=_whole(row, 7, "gen")))

    branches = []
    for row in matrices["branch"]:
        if len(row) < _BRANCH_COLS:
            raise CaseParseError("branch row too short: %r" % (row,))
        rate = row[5]  # 0, negative or +Inf: no limit; -Inf is bad data
        branches.append(Branch(
            from_bus=_whole(row, 0, "branch"), to_bus=_whole(row, 1, "branch"),
            r=row[2], x=row[3], b_charge=row[4],
            tap=row[8] if row[8] != 0.0 else 1.0,
            shift=math.radians(row[9]),
            rate_a=None if rate == math.inf or -math.inf < rate <= 0.0
            else rate / base,
            status=_whole(row, 10, "branch")))

    return CaseData(base_mva=base, buses=tuple(buses),
                    branches=tuple(branches), generators=tuple(generators),
                    name=name)


def _whole(row, col: int, what: str) -> int:
    """`row[col]`, an id, status, model or count, as an int; CaseParseError
    unless it is finite and whole."""
    if not row[col].is_integer():
        raise CaseParseError("%s row %r: column %d must be a whole number"
                             % (what, row, col + 1))
    return int(row[col])


def _parse_cost(row, base: float) -> CostFunction:
    if len(row) < 4:
        raise CaseParseError("gencost row too short: %r" % (row,))
    model, n = _whole(row, 0, "gencost"), _whole(row, 3, "gencost")
    size = 2 * n if model == 1 else n
    vals = row[4:4 + size]
    if n < 0 or len(vals) < size:
        raise CaseParseError("gencost row %r declares %d values, has %d"
                             % (row, size, len(row) - 4))
    if model == 2:
        # pad to quadratic, rescale MW-domain coefficients to pu domain;
        # CostFunction rejects the terms above c2 of a higher degree
        *higher, c2, c1, c0 = [0.0] * (3 - n) + vals
        return CostFunction(kind="polynomial", coefficients=(
            *higher, c2 * base * base, c1 * base, c0))
    if model == 1:
        pts = tuple((vals[2 * i] / base, vals[2 * i + 1]) for i in range(n))
        return CostFunction(kind="pwl", breakpoints=pts)
    raise CaseParseError("unknown gencost model %d" % model)


def parse_case_file(path, name: str | None = None) -> CaseData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CaseParseError("case file is not UTF-8 text: %s" % exc)
    if name is None:
        name = re.sub(r"\.m$", "", str(path).rsplit("/", 1)[-1])
    return parse_case(text, name=name)


def serialize_case(case: CaseData) -> str:
    """Render CaseData back to MATPOWER text (parse round-trip identity)."""
    base = case.base_mva
    out = ["function mpc = %s" % case.name,
           "mpc.version = '2';",
           "mpc.baseMVA = %.12g;" % base]

    out.append("mpc.bus = [")
    for b in case.buses:
        out.append("\t%d 1 %.12g %.12g %.12g %.12g 1 1 0 0 1 %.12g %.12g;"
                   % (b.id, b.p_load * base, b.q_load * base,
                      b.shunt_g * base, b.shunt_b * base, b.v_max, b.v_min))
    out.append("];")

    out.append("mpc.gen = [")
    for g in case.generators:
        out.append("\t%d 0 0 %.12g %.12g 1 %.12g %d %.12g %.12g;"
                   % (g.bus, g.q_max * base, g.q_min * base, base, g.status,
                      g.p_max * base, g.p_min * base))
    out.append("];")

    out.append("mpc.branch = [")
    for br in case.branches:
        rate = br.rate_a * base if br.rate_a is not None else 0.0
        tap = 0.0 if br.tap == 1.0 else br.tap
        out.append("\t%d %d %.12g %.12g %.12g %.12g 0 0 %.12g %.12g %d -360 360;"
                   % (br.from_bus, br.to_bus, br.r, br.x, br.b_charge, rate,
                      tap, math.degrees(br.shift), br.status))
    out.append("];")

    out.append("mpc.gencost = [")
    for g in case.generators:
        c = g.cost
        if c.kind == "polynomial":
            c2, c1, c0 = c.coefficients
            out.append("\t2 0 0 3 %.12g %.12g %.12g;"
                       % (c2 / (base * base), c1 / base, c0))
        else:
            flat = " ".join("%.12g %.12g" % (p * base, f)
                            for p, f in c.breakpoints)
            out.append("\t1 0 0 %d %s;" % (len(c.breakpoints), flat))
    out.append("];")
    return "\n".join(out) + "\n"


def perturb_loads(case: CaseData, seed: int, mu_frac: float,
                  sigma_frac: float) -> CaseData:
    """Gaussian load perturbation, clipped at zero, power factor preserved.

    Each nonzero active load P becomes P' = P + N(mu*P, (sigma*P)^2), with a
    generator seeded deterministically, clipped toward zero without crossing
    it: max(0, P') for a positive load, min(0, P') for a negative one (a net
    injection).  The reactive load is scaled by the same factor P'/P.  Zero
    loads are untouched, and mu = sigma = 0 leaves the case as it is.
    """
    if not (0.0 <= mu_frac < math.inf and 0.0 <= sigma_frac < math.inf):
        raise ValueError("perturbation fractions must be finite and >= 0")
    # one draw per bus keeps the stream bus-aligned
    draws = np.random.default_rng(seed).normal(size=len(case.buses)).tolist()
    buses = []
    for b, draw in zip(case.buses, draws):
        if b.p_load == 0.0:
            buses.append(b)
            continue
        new_p = b.p_load + mu_frac * b.p_load \
            + sigma_frac * abs(b.p_load) * draw
        new_p = max(0.0, new_p) if b.p_load > 0.0 else min(0.0, new_p)
        factor = new_p / b.p_load
        buses.append(Bus(b.id, new_p, b.q_load * factor, b.v_min, b.v_max,
                         b.shunt_g, b.shunt_b))
    return replace(case, buses=tuple(buses))
