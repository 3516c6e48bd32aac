"""Low-power expansion: Taylor coefficients, linearized caps, closed forms."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from imrc import (
    ChannelSetup,
    DegenerateAntenna,
    LinearizationInfeasible,
    NoFeasibleRho,
    PowerAllocation,
    best_sign_powers,
    closed_form_phat,
    effective_gains,
    example_channel,
    full_region,
    hull2d,
    linearized_rates,
    load_channel,
    mac_rates,
    region_rho,
    sum_rate_allocation,
    taylor_coeffs,
    validate,
)
from imrc.errors import ImrcError, NonFinite

from helpers import (linearizable_setup, random_setup, reference_best_sign,
                     reference_regions, reference_sum_rate_allocation,
                     swap_users)

EX = example_channel()
LN2 = math.log(2.0)
GOLDEN = Path(__file__).parent / "golden"


def test_example_coefficients_frozen():
    c = taylor_coeffs(EX, 0.5)
    assert c.mu11 == pytest.approx(0.95, abs=1e-12)
    assert c.nu11 == pytest.approx(0.0, abs=1e-15)
    assert c.S1 == pytest.approx(1.5, abs=1e-12)
    assert c.mu22 == pytest.approx(0.2, abs=1e-12)
    assert c.nu22 == pytest.approx(0.0, abs=1e-15)
    assert c.S2 == pytest.approx(math.sqrt(0.375), abs=1e-12)
    assert c.lambda1 == pytest.approx(-(0.95 ** 2) - 1.8, abs=1e-12)
    assert c.lambda2 == pytest.approx(-(0.2 ** 2) - 1.25, abs=1e-12)


def test_example_phat_frozen():
    phat = closed_form_phat(taylor_coeffs(EX, 0.5), EX)
    assert phat.p1 == pytest.approx(0.033395004625346905, abs=1e-15)
    assert phat.p2 == pytest.approx(0.0031007751937984483, abs=1e-15)
    assert not phat.clamped1 and not phat.clamped2


def test_coefficients_match_effective_gain_derivative():
    # mu is the effective gain at p_i = 0; nu its slope in p_i/P,
    # recovered here by Richardson-extrapolated forward differences
    rng = np.random.default_rng(47)
    done = 0
    while done < 25:
        setup = linearizable_setup(rng, det_zero=bool(rng.integers(2)))
        if setup.PR > 1.0:   # keep the expansion's radius of validity wide
            continue
        done += 1
        c = taylor_coeffs(setup, 0.5)
        f = []
        eps = 1e-4
        for frac in (0.0, eps / 2.0, eps):
            alloc = PowerAllocation(p1=frac * setup.P, p2=0.0, rho1=0.5)
            f.append(effective_gains(setup, alloc).f11)
        assert f[0] == pytest.approx(c.mu11, rel=1e-12, abs=1e-12)
        fd_half = (f[1] - f[0]) / (eps / 2.0)
        fd_full = (f[2] - f[0]) / eps
        nu_fd = 2.0 * fd_half - fd_full
        assert nu_fd == pytest.approx(c.nu11, rel=1e-3, abs=1e-6)


def test_swap_users_symmetry():
    rng = np.random.default_rng(53)
    for _ in range(25):
        setup = linearizable_setup(rng)
        rho1 = float(rng.uniform(0.3, 0.7))
        c = taylor_coeffs(setup, rho1, n1=1, n2=-1)
        cs = taylor_coeffs(swap_users(setup), 1.0 - rho1, n1=-1, n2=1)
        assert cs.mu11 == pytest.approx(c.mu22, rel=1e-12, abs=1e-12)
        assert cs.nu11 == pytest.approx(c.nu22, rel=1e-12, abs=1e-12)
        assert cs.S1 == pytest.approx(c.S2, rel=1e-12)
        best = best_sign_powers(setup, rho1)
        best_swapped = best_sign_powers(swap_users(setup), 1.0 - rho1)
        assert best_swapped.p1 == pytest.approx(best.p2, rel=1e-12, abs=1e-15)
        assert best_swapped.p2 == pytest.approx(best.p1, rel=1e-12, abs=1e-15)


def test_linearized_caps_endpoints():
    rng = np.random.default_rng(59)
    for _ in range(25):
        setup = linearizable_setup(rng)
        c = taylor_coeffs(setup, 0.5)
        at_zero = linearized_rates(c, setup, 0.0, 0.0)
        assert at_zero.r1mac == 0.0 and at_zero.r2mac == 0.0
        assert at_zero.r1ic == pytest.approx(c.mu11 ** 2 * setup.P / LN2,
                                             rel=1e-12)
        at_budget = linearized_rates(c, setup, setup.P, setup.P)
        scale = c.mu11 ** 2 * setup.P / LN2
        assert at_budget.r1ic == pytest.approx(0.0, abs=1e-12 * max(scale, 1.0))
        assert at_budget.r1mac == pytest.approx(
            setup.g1R_norm2 * setup.P / LN2, rel=1e-12)


def test_closed_form_sits_on_the_crossing():
    rng = np.random.default_rng(61)
    for _ in range(50):
        setup = linearizable_setup(rng, det_zero=bool(rng.integers(2)))
        c = taylor_coeffs(setup, 0.5,
                          n1=int(rng.choice([-1, 1])),
                          n2=int(rng.choice([-1, 1])))
        phat = closed_form_phat(c, setup)
        if phat.clamped1 or phat.clamped2:
            continue
        lin = linearized_rates(c, setup, phat.p1, phat.p2)
        scale = max(abs(lin.r1mac), abs(lin.r1ic), 1e-12)
        assert abs(lin.r1mac - lin.r1ic) <= 1e-9 * scale
        scale = max(abs(lin.r2mac), abs(lin.r2ic), 1e-12)
        assert abs(lin.r2mac - lin.r2ic) <= 1e-9 * scale
        assert 0.0 <= phat.p1 <= setup.P and 0.0 <= phat.p2 <= setup.P


def test_phat_degenerate_relay_cap():
    # no relay-side constraint: spend everything on the new message
    setup = ChannelSetup(h11=EX.h11, h12=EX.h12, h21=EX.h21, h22=EX.h22,
                         g1R=(0.0, 0.0), g2R=EX.g2R, hR1=EX.hR1, hR2=EX.hR2,
                         P=0.1, PR=0.1)
    phat = closed_form_phat(taylor_coeffs(setup, 0.5), setup)
    assert phat.p1 == setup.P and not phat.clamped1
    assert 0.0 < phat.p2 < setup.P


def test_phat_continuous_as_det_vanishes():
    # the rationalized root formula must not blow up when q = mu*nu -> 0;
    # tilt the parallel relay column by delta (so det = delta*||hR1||^2)
    base = linearizable_setup(np.random.default_rng(67), det_zero=True)
    values = []
    for delta in (1e-2, 1e-5, 1e-8, 0.0):
        tilted = ChannelSetup(
            h11=base.h11, h12=base.h12, h21=base.h21, h22=base.h22,
            g1R=base.g1R, g2R=base.g2R, hR1=base.hR1,
            hR2=(base.hR2[0] - delta * base.hR1[1],
                 base.hR2[1] + delta * base.hR1[0]),
            P=base.P, PR=base.PR)
        values.append(closed_form_phat(taylor_coeffs(tilted, 0.5), tilted).p1)
    assert values[2] == pytest.approx(values[3], abs=1e-6 * base.P)
    assert abs(values[1] - values[3]) <= abs(values[0] - values[3]) + 1e-9


def test_best_sign_never_worse_than_either_branch():
    rng = np.random.default_rng(71)
    for _ in range(25):
        setup = linearizable_setup(rng)
        best = best_sign_powers(setup, 0.5)
        for sign in (1, -1):
            c = taylor_coeffs(setup, 0.5, n1=sign, n2=sign)
            phat = closed_form_phat(c, setup)
            assert best.p1 >= phat.p1 - 1e-15
            assert best.p2 >= phat.p2 - 1e-15
        assert best.n1 in (-1, 1) and best.n2 in (-1, 1)


def test_region_rho_degenerate_user():
    # rho1 = 0.02 starves user 1's zero-forcing margin on the example
    region = region_rho(EX, 0.02)
    assert not region.feasible1 and region.feasible2
    assert region.R1max == 0.0 and region.p1 == 0.0
    assert region.R2max > 0.0
    corners = region.rectangle
    assert corners[0] == (0.0, 0.0)
    assert corners[2] == (region.R1max, region.R2max)


def test_region_rho_example_rates():
    region = region_rho(EX, 0.5)
    assert region.feasible1 and region.feasible2
    assert region.R1max == pytest.approx(1.8 * 0.033395004625346905 / LN2,
                                         rel=1e-12)
    assert region.R2max == pytest.approx(1.25 * 0.0031007751937984483 / LN2,
                                         rel=1e-12)


def test_full_region_example_is_a_rectangle():
    # det = 0 makes the expansion rho-independent, so every feasible split
    # yields the same rectangle and the hull collapses to it
    region = full_region(EX)
    assert len(region.vertices) == 4
    best = region_rho(EX, 0.5)
    for r1, r2 in best.rectangle:
        assert region.contains(r1, r2)
    assert not region.contains(best.R1max * 1.01, best.R2max)


def test_full_region_no_feasible_split():
    setup = ChannelSetup(h11=EX.h11, h12=EX.h12, h21=EX.h21, h22=EX.h22,
                         g1R=EX.g1R, g2R=EX.g2R, hR1=EX.hR1, hR2=EX.hR2,
                         P=0.1, PR=1e-6)
    with pytest.raises(NoFeasibleRho):
        full_region(setup)
    with pytest.raises(NoFeasibleRho):
        sum_rate_allocation(setup)


def test_sum_rate_allocation_example():
    alloc = sum_rate_allocation(EX)
    # all feasible splits tie (det = 0), so the smallest feasible grid
    # point wins; rho1 = 0.05 sits exactly on the margin boundary and
    # comes out (deterministically) on the feasible side in doubles
    assert alloc.rho1 == pytest.approx(0.05, abs=1e-15)
    assert alloc.p1 == pytest.approx(0.033395004625346905, abs=1e-15)
    assert alloc.p2 == pytest.approx(0.0031007751937984483, abs=1e-15)
    assert alloc.n1 == 1 and alloc.n2 == 1


def test_low_power_relay_cap_nearly_tight():
    # at the closed-form powers the linear relay-side caps overshoot the
    # exact sum cap by a margin that vanishes linearly with P
    excesses = []
    for P in (1e-2, 1e-3):
        setup = ChannelSetup(h11=EX.h11, h12=EX.h12, h21=EX.h21, h22=EX.h22,
                             g1R=EX.g1R, g2R=EX.g2R, hR1=EX.hR1, hR2=EX.hR2,
                             P=P, PR=P)
        best = best_sign_powers(setup, 0.5)
        linear_nats = (setup.g1R_norm2 * best.p1 + setup.g2R_norm2 * best.p2)
        exact_nats = LN2 * mac_rates(setup, best.p1, best.p2).Rsum_mac
        excesses.append(linear_nats / exact_nats - 1.0)
    assert 0.0 <= excesses[0] <= 5e-3
    assert excesses[1] <= excesses[0] / 5.0
    assert excesses[1] >= 0.0


def test_taylor_coeffs_validation():
    with pytest.raises(ValueError):
        taylor_coeffs(EX, -0.1)
    with pytest.raises(ValueError):
        taylor_coeffs(EX, 0.5, n1=0)
    with pytest.raises(LinearizationInfeasible):
        taylor_coeffs(EX, 0.0)   # S_1^2 < 0 with no relay power for user 1
    zero_col = ChannelSetup(h11=EX.h11, h12=EX.h12, h21=EX.h21, h22=EX.h22,
                            g1R=EX.g1R, g2R=EX.g2R, hR1=EX.hR1,
                            hR2=(0.0, 0.0), P=0.1, PR=0.1)
    with pytest.raises(DegenerateAntenna):
        taylor_coeffs(zero_col, 0.5)
    no_power = ChannelSetup(h11=EX.h11, h12=EX.h12, h21=EX.h21, h22=EX.h22,
                            g1R=EX.g1R, g2R=EX.g2R, hR1=EX.hR1, hR2=EX.hR2,
                            P=0.0, PR=0.1)
    with pytest.raises(LinearizationInfeasible):
        taylor_coeffs(no_power, 0.5)


def _outcome(f, *args):
    """f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except (ImrcError, ValueError) as exc:
        return type(exc)


def _reference_vertices(regions):
    regions = [r for r in regions if r.feasible1 or r.feasible2]
    if not regions:
        raise NoFeasibleRho("no feasible split")
    return tuple(hull2d([(0.0, 0.0)] + [corner for r in regions
                                         for corner in r.rectangle[1:]]))


def _reference_best_sign_powers(setup, rho1):
    if not 0.0 <= rho1 <= 1.0:
        raise ValueError(f"rho1 must lie in [0, 1], got {rho1!r}")
    (n1, p1), (n2, p2) = (reference_best_sign(setup, rho1, user)
                          for user in (1, 2))
    return n1, n2, p1, p2


def _closed_form_cases():
    """(setup, grid): seeded random channels over the PR/P mix, det(H) = 0
    in 1 of 5, the default grid and 21 points with both ends as a list and
    as an ndarray; channels with a tiny or zero relay-side gain; then the
    edge cases on the paper example."""
    rng = np.random.default_rng(808)
    grids = (None, [k / 20.0 for k in range(21)], np.linspace(0.0, 1.0, 21))
    for k in range(210):
        P = float(10.0 ** rng.uniform(-3.0, 2.0))
        ratio = (1.0, 100.0, 0.25, 0.01)[k % 4]
        yield (random_setup(rng, P=P, PR=ratio * P, det_zero=(k % 5 == 0)),
               grids[k % 3])
    for k in range(12):  # a tiny or zero relay-side cap: crossings at P
        setup = random_setup(rng, P=0.1, PR=(1.0, 100.0, 0.25)[k % 3] * 0.1)
        g1R = (1e-9 * setup.g1R[0], 1e-9 * setup.g1R[1])
        yield (replace(setup, g1R=g1R) if k % 2
               else replace(setup, g2R=(0.0, 0.0))), grids[k % 3]
    for setup in (EX, replace(EX, hR2=(0.0, 0.0)), replace(EX, P=0.0),
                  replace(EX, PR=1e-6), replace(EX, g1R=(0.0, 0.0))):
        for grid in grids:
            yield setup, grid
    for grid in ([0.5], np.array([0.05]), [0.0], np.array([1.0]), [],
                 [0.5, 1.5], np.array([0.5, -0.1])):
        yield EX, grid
    yield random_setup(rng, P=0.5, PR=0.5), [0.3]


def test_batched_closed_form_matches_per_split_reference():
    for setup, grid in _closed_form_cases():
        assert (_outcome(sum_rate_allocation, setup, grid)
                == _outcome(reference_sum_rate_allocation, setup, grid))
        regions = _outcome(reference_regions, setup, grid)
        assert (_outcome(lambda: full_region(setup, grid).vertices)
                == (regions if isinstance(regions, type)
                    else _outcome(_reference_vertices, regions)))
        for rho1 in [0.0, 0.05, 0.5, 1.0] if grid is None else grid[::10]:
            assert (_outcome(region_rho, setup, rho1)
                    == _outcome(lambda: reference_regions(setup, [rho1])[0]))
            got = _outcome(best_sign_powers, setup, rho1)
            expect = _outcome(_reference_best_sign_powers, setup, rho1)
            if isinstance(got, type):
                assert got is expect
            else:
                assert (got.n1, got.n2, got.p1, got.p2) == expect


def _least_refused_budget(setup):
    """The least P, with PR = P, that validate refuses as too large, by
    bisection between 1 and the largest float."""
    def refused(P):
        try:
            validate(replace(setup, P=P, PR=P))
        except NonFinite:
            return True
        return False

    lo, hi = 1.0, sys.float_info.max
    assert refused(hi) and not refused(lo)
    while lo < (mid := lo + (hi - lo) / 2.0) < hi:
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("case", ["paper-example", "det-nonzero"])
def test_closed_form_split_scales_with_the_budget_near_the_float_limit(case):
    # with PR = P the closed-form split is phat_i = c_i P, c_i independent
    # of P; 2 mu^2 P overflowed near the float limit, so phat1 read P on
    # the paper example at 3079.99 dB and on a det(H) != 0 channel just
    # below the least budget the search refuses
    if case == "paper-example":
        setup, P = EX, 10.0 ** 307.999
    else:
        setup = load_channel(GOLDEN / "channel_det_nonzero.txt")
        P = 0.995 * _least_refused_budget(setup)
    low, high = replace(setup, P=1.0, PR=1.0), replace(setup, P=P, PR=P)
    for split in (sum_rate_allocation, lambda s: best_sign_powers(s, 0.5)):
        at_0db, near_limit = split(low), split(high)
        assert math.isclose(near_limit.p1 / P, at_0db.p1, rel_tol=1e-12)
        assert math.isclose(near_limit.p2 / P, at_0db.p2, rel_tol=1e-12)
