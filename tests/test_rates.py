"""Rate formulas: relay-side caps, destination-side caps, combination."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from imrc import (
    BadBlockCount,
    ChannelSetup,
    DegenerateRelayChannel,
    PowerAllocation,
    RatePoint,
    RateRegion,
    abundant_power_rates,
    block_penalty,
    example_channel,
    ic_rates,
    mac_rates,
    mac_sum_expanded,
    scheme_rate_point,
)

from helpers import random_setup

EX = example_channel()


def test_mac_rates_example():
    mac = mac_rates(EX, 0.1, 0.1)
    assert mac.R1mac == pytest.approx(math.log2(1.18), rel=1e-14)
    assert mac.R2mac == pytest.approx(math.log2(1.125), rel=1e-14)
    # alpha = det([g1R g2R])^2 = 0.81 for this channel
    expect = math.log2(0.81 * 0.01 + 1.8 * 0.1 + 1.25 * 0.1 + 1.0)
    assert mac.Rsum_mac == pytest.approx(expect, rel=1e-13)
    assert mac_sum_expanded(EX, 0.1, 0.1) == pytest.approx(expect, rel=1e-15)


def test_mac_sum_two_routes_agree():
    # mac_rates takes the written-out form; numpy's determinant of
    # I + G diag(p1, p2) G^T is the independent reference
    rng = np.random.default_rng(29)
    for _ in range(50):
        setup = random_setup(rng)
        g = np.array([setup.g1R, setup.g2R]).T
        for _ in range(5):
            p1, p2 = rng.uniform(0.0, setup.P, size=2)
            det_route = math.log2(np.linalg.det(
                np.eye(2) + g @ np.diag([p1, p2]) @ g.T))
            expanded = mac_rates(setup, p1, p2).Rsum_mac
            assert det_route == pytest.approx(expanded, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("P", [1e160, 1e250])
def test_scheme_rate_finite_at_huge_budgets(P):
    # alpha p1 p2 overflows a double from budgets near 1e154; the sum cap
    # must stay finite and still bind
    setup = ChannelSetup(h11=1.0, h12=0.0, h21=0.0, h22=1.0,
                         g1R=(1.0, 0.3), g2R=(0.2, 1.1), hR1=(1.0, 0.2),
                         hR2=(0.3, 1.0), P=P, PR=P)
    rates = scheme_rate_point(setup, PowerAllocation(p1=0.875 * P,
                                                     p2=0.9 * P, rho1=0.4,
                                                     n1=1, n2=-1))
    assert math.isfinite(rates.Rsum_mac) and math.isfinite(rates.sum_rate)
    # log2(det([g1R g2R])^2 p1 p2) carries the cap at this scale
    expect = math.log2(1.04 ** 2 * 0.875 * 0.9) + 2.0 * math.log2(P)
    assert rates.Rsum_mac == pytest.approx(expect, rel=1e-12)
    assert rates.truncated
    assert rates.sum_rate == pytest.approx(rates.Rsum_mac, rel=1e-12)


def test_mac_product_coefficient_is_squared_det():
    rng = np.random.default_rng(31)
    for _ in range(100):
        g11, g12 = rng.uniform(-2, 2, size=2)
        g21, g22 = rng.uniform(-2, 2, size=2)
        alpha = (g11 * g22) ** 2 + (g21 * g12) ** 2 - 2 * g12 * g21 * g11 * g22
        det = g11 * g22 - g21 * g12
        assert alpha == pytest.approx(det ** 2, rel=1e-12, abs=1e-12)


def test_mac_sum_at_most_individual_sum():
    rng = np.random.default_rng(37)
    for _ in range(100):
        setup = random_setup(rng)
        mac = mac_rates(setup, 0.07, 0.03)
        assert mac.Rsum_mac <= mac.R1mac + mac.R2mac + 1e-12


def test_mac_sum_splits_for_orthogonal_receive_vectors():
    setup = ChannelSetup(h11=1.0, h12=0.3, h21=0.3, h22=1.0,
                         g1R=(0.6, 1.2), g2R=(-1.2, 0.6),
                         hR1=(0.5, 1.0), hR2=(1.0, 2.0), P=0.1, PR=0.1)
    mac = mac_rates(setup, 0.08, 0.05)
    assert mac.Rsum_mac == pytest.approx(mac.R1mac + mac.R2mac, rel=1e-12)


def test_mac_monotone_in_power():
    values = [mac_rates(EX, p1, 0.0).R1mac for p1 in np.linspace(0, 0.1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ic_rates_example_formula():
    alloc = PowerAllocation(p1=0.03, p2=0.02, rho1=0.5)
    ic = ic_rates(EX, alloc)
    # det = 0 pins the direct gains at 0.95 and 0.2 regardless of p_i;
    # cross gains pass through untouched
    expect1 = math.log2(1.0 + 0.95 ** 2 * (0.1 - 0.03) / (1.0 + 0.25 * 0.02))
    assert ic.R1 == pytest.approx(expect1, rel=1e-12)
    expect2 = math.log2(1.0 + 0.2 ** 2 * (0.1 - 0.02) / (1.0 + 0.25 * 0.03))
    assert ic.R2 == pytest.approx(expect2, rel=1e-12)


def test_ic_boundary_matches_abundant_power_formula():
    # at p_i = P the repeated message rides on the relay alone, which is
    # exactly the abundant-power expression
    rng = np.random.default_rng(41)
    for _ in range(50):
        setup = random_setup(rng)
        alloc = PowerAllocation(p1=setup.P, p2=setup.P, rho1=0.6)
        ic = ic_rates(setup, alloc)
        ap = abundant_power_rates(setup, alloc)
        assert ic.R1 == pytest.approx(ap.R1, rel=1e-12, abs=1e-12)
        assert ic.R2 == pytest.approx(ap.R2, rel=1e-12, abs=1e-12)


def test_abundant_power_zero_column_guard():
    setup = ChannelSetup(h11=1.0, h12=0.3, h21=0.3, h22=1.0,
                         g1R=(0.6, 1.2), g2R=(1.0, 0.5),
                         hR1=(0.5, 1.0), hR2=(0.0, 0.0), P=0.1, PR=100.0)
    point = abundant_power_rates(
        setup, PowerAllocation(p1=0.1, p2=0.1, rho1=0.5))
    assert point.R1 == 0.0 and point.R2 == 0.0


def test_scheme_min_of_caps_without_truncation():
    # weak direct links pull user 1's destination cap below its relay cap
    # while user 2 stays relay-limited; the pair clears the sum cap
    setup = ChannelSetup(h11=0.05, h12=EX.h12, h21=EX.h21, h22=0.05,
                         g1R=EX.g1R, g2R=EX.g2R,
                         hR1=EX.hR1, hR2=EX.hR2, P=0.1, PR=0.1)
    alloc = PowerAllocation(p1=0.03, p2=0.02, rho1=0.5)
    rates = scheme_rate_point(setup, alloc)
    assert not rates.truncated
    assert rates.R1 == min(rates.R1mac, rates.R1ic) == rates.R1ic
    assert rates.R2 == min(rates.R2mac, rates.R2ic) == rates.R2mac


def test_scheme_truncation_respects_sum_cap():
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(50):
        setup = random_setup(rng, P=0.05, PR=50.0)
        if abs(setup.relay_det()) < 0.2:
            continue
        alloc = PowerAllocation(p1=setup.P, p2=setup.P, rho1=0.5)
        rates = scheme_rate_point(setup, alloc)
        if not rates.truncated:
            continue
        hits += 1
        pre1 = min(rates.R1mac, rates.R1ic)
        pre2 = min(rates.R2mac, rates.R2ic)
        assert rates.sum_rate == pytest.approx(rates.Rsum_mac, rel=1e-12)
        assert rates.R1 * pre2 == pytest.approx(rates.R2 * pre1, rel=1e-12)
        assert rates.R1 <= pre1 and rates.R2 <= pre2
    assert hits >= 20  # the regime is generic with abundant relay power


@pytest.mark.parametrize("column", ["hR1", "hR2"])
def test_zero_relay_column_is_degenerate(column):
    # no beam cancels the cross link toward a receiver the relay cannot
    # reach; that must surface as the domain error, inside the budget (where
    # the radicand is negative too) and at the p_i = P boundary alike
    setup = replace(EX, **{column: (0.0, 0.0)})
    for p in (0.0, 0.5 * EX.P, EX.P):
        with pytest.raises(DegenerateRelayChannel):
            scheme_rate_point(setup, PowerAllocation(p1=p, p2=p, rho1=0.5))


def test_block_penalty_factor():
    point = RatePoint(R1=1.0, R2=0.5)
    out = block_penalty(point, 2)
    assert (out.R1, out.R2) == (0.5, 0.25)
    out = block_penalty(point, 10)
    assert out.R1 == pytest.approx(0.9, rel=1e-15)
    out = block_penalty(point, np.int64(10))
    assert out.R1 == pytest.approx(0.9, rel=1e-15)


def test_block_penalty_rejects_bad_counts():
    point = RatePoint(R1=1.0, R2=0.5)
    for bad in (1, 0, -3, 2.5, True, "4"):
        with pytest.raises(BadBlockCount):
            block_penalty(point, bad)


def test_rate_point_validation():
    with pytest.raises(ValueError):
        RatePoint(R1=-0.1, R2=0.0)
    with pytest.raises(ValueError):
        RatePoint(R1=0.1, R2=float("nan"))


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_region_contains_square(r1, r2):
    square = RateRegion(vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    if r1 <= 1.0 and r2 <= 1.0:
        assert square.contains(r1, r2)
    elif r1 > 1.0 + 1e-8 or r2 > 1.0 + 1e-8:
        assert not square.contains(r1, r2)


def test_region_degenerate_shapes():
    point = RateRegion(vertices=((0.5, 0.5),))
    assert point.contains(0.5, 0.5)
    assert not point.contains(0.6, 0.5)
    segment = RateRegion(vertices=((0.0, 0.0), (1.0, 0.0)))
    assert segment.contains(0.5, 0.0)
    assert not segment.contains(0.5, 0.1)
    assert not segment.contains(1.5, 0.0)
    assert not RateRegion(vertices=()).contains(0.0, 0.0)
