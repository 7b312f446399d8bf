"""MATPOWER case ingestion, per-unit normalization, and load perturbation.

Parses the `.m` case format (matrices ``mpc.bus``, ``mpc.gen``, ``mpc.branch``,
``mpc.gencost`` plus scalar ``mpc.baseMVA``) into immutable per-unit data.
All MW/MVAr quantities are divided by baseMVA on ingestion; cost coefficients
are rescaled so that they apply to per-unit power arguments while keeping the
original cost units.
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
            c2 = self.coefficients[0]
            if c2 < 0:
                raise CaseValidationError(
                    "nonconvex polynomial cost: leading coefficient %g" % c2)
        elif self.kind == "pwl":
            pts = self.breakpoints
            if len(pts) < 2:
                raise CaseValidationError("pwl cost needs >= 2 breakpoints")
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


@dataclass(frozen=True)
class Bus:
    id: int
    p_load: float       # pu
    q_load: float       # pu
    v_min: float        # pu
    v_max: float        # pu
    shunt_g: float = 0.0
    shunt_b: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charge: float
    tap: float = 1.0
    shift: float = 0.0          # radians
    rate_a: float | None = None  # pu thermal limit, None = unlimited
    status: int = 1


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    cost: CostFunction
    status: int = 1


@dataclass(frozen=True)
class CaseData:
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    name: str = "case"

    def bus_by_id(self) -> dict[int, Bus]:
        return {b.id: b for b in self.buses}


_MAT_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.S)
_SCALAR_RE = re.compile(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _parse_matrix(body: str, name: str, first_line: int):
    rows = []
    line_no = first_line
    for chunk in body.replace(";", "\n").splitlines():
        line_no += 1
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([float(tok) for tok in chunk.split()])
        except ValueError:
            raise CaseParseError(
                "malformed row in mpc.%s near line %d: %r"
                % (name, line_no, chunk))
    return rows


def parse_case(text: str, name: str = "case") -> CaseData:
    """Parse MATPOWER case text into per-unit CaseData."""
    clean = _strip_comments(text)

    m = _SCALAR_RE.search(clean)
    if m is None:
        raise CaseParseError("baseMVA scalar absent")
    base = float(m.group(1))
    if base <= 0:
        raise CaseValidationError("baseMVA must be positive, got %g" % base)

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
        bus_id = _whole(row, 0, "bus")
        v_min, v_max = row[12], row[11]
        if not (0 <= v_min <= v_max):
            raise CaseValidationError(
                "bus %d: voltage limits 0 <= %g <= %g violated"
                % (bus_id, v_min, v_max))
        buses.append(Bus(id=bus_id,
                         p_load=row[2] / base, q_load=row[3] / base,
                         v_min=v_min, v_max=v_max,
                         shunt_g=row[4] / base, shunt_b=row[5] / base))
    ids = [b.id for b in buses]
    if len(set(ids)) != len(ids):
        raise CaseValidationError("duplicate bus ids")
    id_set = set(ids)

    gencost = matrices["gencost"]
    if len(gencost) < len(matrices["gen"]):
        raise CaseParseError("gencost has fewer rows than gen")

    generators = []
    for i, row in enumerate(matrices["gen"]):
        if len(row) < _GEN_COLS:
            raise CaseParseError("gen row too short: %r" % (row,))
        bus_id = _whole(row, 0, "gen")
        if bus_id not in id_set:
            raise CaseValidationError("generator references unknown bus %d" % bus_id)
        cost = _parse_cost(gencost[i], base)
        p_min, p_max = row[9] / base, row[8] / base
        q_min, q_max = row[4] / base, row[3] / base
        if p_min > p_max or q_min > q_max:
            raise CaseValidationError("generator at bus %d: empty box" % bus_id)
        generators.append(Generator(bus=bus_id, p_min=p_min, p_max=p_max,
                                    q_min=q_min, q_max=q_max,
                                    cost=cost, status=_whole(row, 7, "gen")))

    branches = []
    for row in matrices["branch"]:
        if len(row) < _BRANCH_COLS:
            raise CaseParseError("branch row too short: %r" % (row,))
        f, t = _whole(row, 0, "branch"), _whole(row, 1, "branch")
        if f not in id_set or t not in id_set:
            raise CaseValidationError("branch %d-%d references unknown bus" % (f, t))
        status = _whole(row, 10, "branch")
        r, x = row[2], row[3]
        if status and r * r + x * x <= 0.0:
            raise CaseValidationError("branch %d-%d has zero impedance" % (f, t))
        tap = row[8] if row[8] != 0.0 else 1.0
        if tap <= 0:
            raise CaseValidationError("branch %d-%d: nonpositive tap" % (f, t))
        rate = row[5] / base if row[5] > 0.0 else None  # 0 encodes +inf
        branches.append(Branch(from_bus=f, to_bus=t, r=r, x=x,
                               b_charge=row[4], tap=tap,
                               shift=math.radians(row[9]),
                               rate_a=rate, status=status))

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
        if n > 3:
            raise CaseValidationError(
                "polynomial cost of degree %d unsupported (max 2)" % (n - 1))
        # pad to quadratic, rescale MW-domain coefficients to pu domain
        coeffs = [0.0] * (3 - n) + list(vals)
        c2, c1, c0 = coeffs
        return CostFunction(kind="polynomial",
                            coefficients=(c2 * base * base, c1 * base, c0))
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

    Each nonzero active load P is replaced by max(0, P + N(mu*P, (sigma*P)^2))
    with a generator seeded deterministically; the reactive load is scaled by
    the same multiplicative factor.  Zero loads are untouched.
    """
    if not (0.0 <= mu_frac < math.inf and 0.0 <= sigma_frac < math.inf):
        raise ValueError("perturbation fractions must be finite and >= 0")
    rng = np.random.default_rng(seed)
    buses = []
    for b in case.buses:
        draw = rng.normal()  # one draw per bus keeps the stream bus-aligned
        if b.p_load == 0.0:
            buses.append(b)
            continue
        new_p = max(0.0, b.p_load + mu_frac * b.p_load
                    + sigma_frac * abs(b.p_load) * draw)
        factor = new_p / b.p_load
        buses.append(replace(b, p_load=new_p, q_load=b.q_load * factor))
    return replace(case, buses=tuple(buses))
