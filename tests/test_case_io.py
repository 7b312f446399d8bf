import math
from dataclasses import replace

import pytest

from opfcuts.case_io import (CostFunction, parse_case, perturb_loads,
                             serialize_case)
from opfcuts.errors import CaseParseError, CaseValidationError

MINI = """
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0    0   0 0 1 1 0 0 1 1.1 0.9;
    2 1 50.0 10  0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 30 -30 1 100 1 200 0;
];
mpc.branch = [
    1 2 0.01 0.1 0.02 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0.25 20 0;
];
"""


def test_case14_counts(case14):
    assert len(case14.buses) == 14
    assert len(case14.branches) == 20
    assert len(case14.generators) == 5
    assert case14.base_mva == 100.0


def test_per_unit_conversion(case14):
    bus = {b.id: b for b in case14.buses}
    assert bus[2].p_load == pytest.approx(0.217)
    assert bus[2].q_load == pytest.approx(0.127)
    # bus 9 shunt susceptance 19 MVAr at V=1 -> 0.19 pu
    assert bus[9].shunt_b == pytest.approx(0.19)


def test_rate_a_zero_is_unlimited(case14):
    assert all(br.rate_a is None for br in case14.branches)


def test_missing_bus_matrix():
    with pytest.raises(CaseParseError, match="bus matrix absent"):
        parse_case("mpc.baseMVA = 100;\nmpc.gen = [];")


def test_malformed_row_reports_line():
    bad = MINI.replace("1 2 0.01 0.1 0.02 0 0 0 0 0 1 -360 360;",
                       "1 2 bogus;")
    with pytest.raises(CaseParseError, match="line"):
        parse_case(bad)


def test_unknown_bus_reference():
    bad = MINI.replace("1 2 0.01", "1 9 0.01")
    with pytest.raises(CaseValidationError):
        parse_case(bad)


def test_gencost_quadratic_rescaled():
    case = parse_case(MINI)
    cost = case.generators[0].cost
    assert cost.kind == "polynomial"
    # 0.4 pu = 40 MW: 0.25*40^2 + 20*40 = 1200 in original cost units
    assert cost.value(0.4) == pytest.approx(1200.0)


def test_nonconvex_polynomial_rejected():
    with pytest.raises(CaseValidationError):
        CostFunction(kind="polynomial", coefficients=(-1.0, 0.0, 0.0))


def test_serialize_round_trip(case14):
    again = parse_case(serialize_case(case14))
    assert again.base_mva == case14.base_mva
    for a, b in zip(again.buses, case14.buses):
        assert a.id == b.id
        assert a.p_load == pytest.approx(b.p_load, abs=1e-12)
        assert a.shunt_b == pytest.approx(b.shunt_b, abs=1e-12)
    for a, b in zip(again.branches, case14.branches):
        assert (a.from_bus, a.to_bus) == (b.from_bus, b.to_bus)
        assert a.x == pytest.approx(b.x, abs=1e-12)
        assert a.tap == pytest.approx(b.tap, abs=1e-12)
    for a, b in zip(again.generators, case14.generators):
        assert a.cost.coefficients == pytest.approx(b.cost.coefficients)


def test_perturb_zero_is_identity(case14):
    same = perturb_loads(case14, seed=3, mu_frac=0.0, sigma_frac=0.0)
    for a, b in zip(same.buses, case14.buses):
        assert a.p_load == b.p_load
        assert a.q_load == b.q_load


def test_perturb_deterministic_and_nonnegative(case14):
    one = perturb_loads(case14, seed=11, mu_frac=0.01, sigma_frac=0.01)
    two = perturb_loads(case14, seed=11, mu_frac=0.01, sigma_frac=0.01)
    for a, b in zip(one.buses, two.buses):
        assert a.p_load == b.p_load
        assert a.p_load >= 0.0


def test_perturb_keeps_zero_loads(case14):
    pert = perturb_loads(case14, seed=5, mu_frac=0.5, sigma_frac=0.5)
    for a, b in zip(pert.buses, case14.buses):
        if b.p_load == 0.0:
            assert a.p_load == 0.0 and a.q_load == b.q_load


def test_perturb_preserves_power_factor(case14):
    pert = perturb_loads(case14, seed=2, mu_frac=0.0, sigma_frac=0.05)
    for a, b in zip(pert.buses, case14.buses):
        if b.p_load > 0.0 and b.q_load != 0.0 and a.p_load > 0.0:
            assert a.q_load / a.p_load == pytest.approx(b.q_load / b.p_load)


def test_perturb_keeps_a_net_injection_negative(case14):
    """A negative load, a net injection, is clipped toward zero and never
    across it: unchanged at sigma = mu = 0, and at sigma = 5 % still
    negative with its power factor."""
    buses = list(case14.buses)
    buses[3] = replace(buses[3], p_load=-0.2, q_load=-0.05)
    case = replace(case14, buses=tuple(buses))
    assert perturb_loads(case, seed=0, mu_frac=0.0, sigma_frac=0.0) == case
    bus = perturb_loads(case, seed=0, mu_frac=0.0, sigma_frac=0.05).buses[3]
    assert bus.p_load < 0.0 and bus.p_load != -0.2
    assert bus.q_load / bus.p_load == pytest.approx(0.25)


def test_perturb_negative_fraction_rejected(case14):
    with pytest.raises(ValueError):
        perturb_loads(case14, seed=0, mu_frac=-0.1, sigma_frac=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fraction", ["mu_frac", "sigma_frac"])
def test_perturb_non_finite_fraction_rejected(case14, fraction, value):
    """max(0, nan) is 0, so a NaN fraction would zero every load; an
    infinite one would hand HiGHS infinite loads."""
    fractions = {"mu_frac": 0.0, "sigma_frac": 0.0, fraction: value}
    with pytest.raises(ValueError, match="finite"):
        perturb_loads(case14, seed=0, **fractions)


@pytest.mark.parametrize("row", ["2 0 0 3 0.0430293;", "2 0 0;",
                                 "2 0 0 -2 0.25 20 0;",
                                 "2 0 0 nan 0.25 20 0;",
                                 "2 0 0 inf 0.25 20 0;",
                                 "2 0 0 2.5 0.25 20 0;",
                                 "nan 0 0 3 0.25 20 0;"],
                         ids=["fewer-values", "no-count", "negative-count",
                              "nan-count", "inf-count", "fractional-count",
                              "nan-model"])
def test_short_gencost_row_rejected(row):
    with pytest.raises(CaseParseError, match="gencost row"):
        parse_case(MINI.replace("2 0 0 3 0.25 20 0;", row))


@pytest.mark.parametrize("old, new, what", [
    ("    1 3 0 ", "    nan 3 0 ", "bus"),
    ("    1 3 0 ", "    1.5 3 0 ", "bus"),
    ("1 0 0 30 -30 1 100 1 200 0;", "1 0 0 30 -30 1 100 inf 200 0;", "gen"),
    ("0 1 -360 360;", "0 0.5 -360 360;", "branch")],
    ids=["nan-bus-id", "fractional-bus-id", "inf-gen-status",
         "fractional-branch-status"])
def test_non_whole_integer_field_rejected(old, new, what):
    assert old in MINI
    with pytest.raises(CaseParseError, match="%s row" % what):
        parse_case(MINI.replace(old, new, 1))


@pytest.mark.parametrize("old, new, error, match", [
    ("1 2 0.01 0.1", "1 2 nan 0.1", CaseParseError,
     "branch row near line 11 holds a NaN"),
    ("2 1 50.0 10", "2 1 NaN 10", CaseParseError,
     "bus row near line 5 holds a NaN"),
    ("3 0.25 20 0;", "3 nan 20 0;", CaseParseError,
     "gencost row near line 14 holds a NaN"),
    ("2 1 50.0 10", "2 1 inf 10", CaseValidationError, "bus 2: p_load"),
    ("1 100 1 200 0;", "1 100 1 Inf 0;", CaseValidationError,
     "generator at bus 1: p_max"),
    ("1 2 0.01 0.1", "1 2 0.01 inf", CaseValidationError, "branch 1-2: x"),
    ("0.02 0 0 0 0", "0.02 -inf 0 0 0", CaseValidationError,
     "branch 1-2: rate_a"),
    ("3 0.25 20 0;", "3 0.25 -inf 0;", CaseValidationError,
     "gencost row 1, generator at bus 1: polynomial cost coefficients")],
    ids=["nan-branch-r", "nan-bus-pd", "nan-gencost-c2", "inf-bus-pd",
         "inf-gen-pmax", "inf-branch-x", "minus-inf-rate-a",
         "minus-inf-gencost-c1"])
def test_non_finite_value_rejected(old, new, error, match):
    """A NaN anywhere is a parse error that names the matrix and the line;
    an infinite value the model would read is a validation error that
    names the element."""
    assert old in MINI
    with pytest.raises(error, match=match):
        parse_case(MINI.replace(old, new, 1))


def test_infinite_rate_a_and_reactive_limits_accepted():
    """rateA = +Inf is unlimited, as 0 is; Qmax and Qmin may be
    infinite."""
    case = parse_case(MINI.replace("0.02 0 0 0 0", "0.02 inf 0 0 0", 1)
                      .replace("1 0 0 30 -30", "1 0 0 Inf -Inf", 1))
    assert case.branches[0].rate_a is None
    assert (case.generators[0].q_max, case.generators[0].q_min) \
        == (math.inf, -math.inf)


def _with_branch_12(case, **changes):
    first = case.branches[0]
    assert (first.from_bus, first.to_bus) == (1, 2)
    return replace(case, branches=(replace(first, **changes),)
                   + case.branches[1:])


def _with_bus_2(case, **changes):
    assert case.buses[1].id == 2
    return replace(case, buses=case.buses[:1]
                   + (replace(case.buses[1], **changes),) + case.buses[2:])


def _with_gen_1(case, **changes):
    return replace(case, generators=(replace(case.generators[0], **changes),)
                   + case.generators[1:])


@pytest.mark.parametrize("build, match", [
    (lambda c: _with_branch_12(c, rate_a=math.inf), "branch 1-2: rate_a"),
    (lambda c: _with_branch_12(c, rate_a=math.nan), "branch 1-2: rate_a"),
    (lambda c: _with_branch_12(c, rate_a=-1.0), "branch 1-2: rate_a"),
    (lambda c: _with_branch_12(c, r=0.0, x=0.0), "branch 1-2 has zero"),
    (lambda c: _with_branch_12(c, to_bus=99), "branch 1-99 references"),
    (lambda c: _with_branch_12(c, tap=0.0), "branch 1-2: nonpositive tap"),
    (lambda c: _with_branch_12(c, to_bus=1), "branch 1-1 joins a bus"),
    (lambda c: _with_bus_2(c, p_load=math.nan), "bus 2: p_load"),
    (lambda c: _with_bus_2(c, v_min=1.2, v_max=0.9), "bus 2: voltage"),
    (lambda c: _with_bus_2(c, id=1), "duplicate bus ids"),
    (lambda c: _with_gen_1(c, p_max=math.inf), "generator at bus 1: p_max")],
    ids=["rate-a-inf", "rate-a-nan", "rate-a-negative", "zero-impedance",
         "unknown-to-bus", "zero-tap", "self-loop", "nan-load",
         "crossed-voltage-limits", "duplicate-bus", "inf-pmax"])
def test_bad_case_built_in_code_rejected(case14, build, match):
    """A case built in code is checked as a parsed one is: each bad record
    or case raises when it is made, before any model is built."""
    with pytest.raises(CaseValidationError, match=match):
        build(case14)


def test_cases_built_by_tiler_and_perturbation_construct(case14, tiler):
    """The benchmark's 8-tile chain and perturbed loads are valid cases."""
    chain = tiler.tile_case(case14, 8, 1)
    assert len(chain.buses) == 8 * len(case14.buses)
    for seed in range(8):
        pert = perturb_loads(chain if seed % 2 else case14, seed=seed,
                             mu_frac=0.0, sigma_frac=0.5)
        assert min(b.p_load for b in pert.buses) >= 0.0


def test_case_rules_beyond_the_records(case14):
    """base_mva must be finite and positive, a polynomial cost quadratic."""
    for base in (0.0, -100.0, math.inf):
        with pytest.raises(CaseValidationError, match="baseMVA"):
            replace(case14, base_mva=base)
    with pytest.raises(CaseValidationError, match="degree 3"):
        parse_case(MINI.replace("2 0 0 3 0.25 20 0;",
                                "2 0 0 4 1.0 0.25 20 0;"))


def test_pwl_cost_has_no_derivative():
    """A pwl cost enters the LP by its segment supports, not by a slope."""
    cost = CostFunction(kind="pwl",
                        breakpoints=((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))
    for p in (0.5, 2.0, 2.5):
        with pytest.raises(ValueError):
            cost.derivative(p)
    assert CostFunction("polynomial", (1.0, 2.0, 0.0)).derivative(1.5) == 5.0


def test_pwl_cost_supports():
    cost = CostFunction(kind="pwl",
                        breakpoints=((0.0, 0.0), (1.0, 2.0), (2.0, 6.0)))
    sup = cost.segment_supports()
    assert len(sup) == 2
    for slope, intercept in sup:
        assert math.isfinite(slope) and math.isfinite(intercept)
    # first segment: slope 2 through origin
    assert sup[0][0] == pytest.approx(2.0)


def test_pwl_gencost_parses_per_unit(case14_pwl):
    """A model 1 gencost row gives its breakpoints with power per unit."""
    cost = case14_pwl.generators[0].cost
    assert cost.kind == "pwl"
    assert cost.breakpoints == ((0.0, 0.0), (1.0, 2500.0), (3.4, 12000.0))


def test_pwl_cost_value(case14_pwl):
    """The value is the breakpoint's cost at a breakpoint and the segment's
    line between two."""
    cost = case14_pwl.generators[0].cost
    assert cost.value(0.0) == 0.0
    assert cost.value(1.0) == 2500.0
    assert cost.value(3.4) == pytest.approx(12000.0, rel=1e-12)
    assert cost.value(0.5) == 1250.0
    assert cost.value(2.2) == pytest.approx(2500.0 + 9500.0 / 2.4 * 1.2,
                                            rel=1e-12)


def test_pwl_serialize_round_trip(case14_pwl):
    again = parse_case(serialize_case(case14_pwl), name=case14_pwl.name)
    assert again.generators[0].cost == case14_pwl.generators[0].cost
    assert again == case14_pwl
