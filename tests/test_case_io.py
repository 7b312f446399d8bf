import math

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
    bus2 = case14.bus_by_id()[2]
    assert bus2.p_load == pytest.approx(0.217)
    assert bus2.q_load == pytest.approx(0.127)
    # bus 9 shunt susceptance 19 MVAr at V=1 -> 0.19 pu
    assert case14.bus_by_id()[9].shunt_b == pytest.approx(0.19)


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


def test_perturb_negative_fraction_rejected(case14):
    with pytest.raises(ValueError):
        perturb_loads(case14, seed=0, mu_frac=-0.1, sigma_frac=0.0)


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
