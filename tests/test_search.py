"""Grid search, bisection, convex hull, and the budget sweep."""

import math
from dataclasses import replace

import numpy as np
import pytest

from imrc import (
    ChannelSetup,
    GridSpec,
    ImrcError,
    InfeasibleRadicand,
    NoFeasiblePoint,
    NoSignChange,
    PowerAllocation,
    RateRegion,
    SweepPolicy,
    SweepRow,
    SweepTable,
    bisect_intersection,
    closed_form_phat,
    example_channel,
    grid_search_sum_rate,
    hull2d,
    ic_rates,
    linearized_rates,
    mac_rates,
    scheme_rate_point,
    sum_rate_allocation,
    sweep_P,
    taylor_coeffs,
)

from imrc.search import _objective

from helpers import linearizable_setup, random_setup

EX = example_channel()


def brute_force(setup, grid):
    """Plain quintuple loop over the same lattice, same tie-break:
    exact-value ties go to the smallest (rho1, p1, p2, n1, n2)."""
    best_val, best_key = -math.inf, None
    for rho1 in grid.rho_values():
        for p1 in grid.p_values(setup.P):
            for p2 in grid.p_values(setup.P):
                for n1 in (-1, 1):
                    for n2 in (-1, 1):
                        alloc = PowerAllocation(p1=float(p1), p2=float(p2),
                                                rho1=float(rho1), n1=n1, n2=n2)
                        try:
                            val = scheme_rate_point(setup, alloc).sum_rate
                        except ImrcError:
                            continue
                        key = (float(rho1), float(p1), float(p2), n1, n2)
                        if val > best_val or (val == best_val
                                              and key < best_key):
                            best_val, best_key = val, key
    return best_val, best_key


def _brute_force_case(seed, det_zero, relay_ratio, include_boundary=True):
    setup = random_setup(np.random.default_rng(seed), P=0.5,
                         PR=0.5 * relay_ratio, det_zero=det_zero)
    return setup, GridSpec(n_p=7, n_rho=3, include_boundary=include_boundary)


@pytest.mark.parametrize("case", [
    pytest.param(lambda: (EX, GridSpec(n_p=7, n_rho=3)), id="True"),
    pytest.param(lambda: (linearizable_setup(np.random.default_rng(73)),
                          GridSpec(n_p=7, n_rho=3)), id="False"),
    pytest.param(lambda: _brute_force_case(11, False, 100.0), id="pr-abundant"),
    pytest.param(lambda: _brute_force_case(12, False, 0.01), id="pr-scarce"),
    pytest.param(lambda: _brute_force_case(13, False, 0.0), id="pr-zero"),
    pytest.param(lambda: _brute_force_case(14, True, 1.0), id="det-zero"),
    pytest.param(lambda: _brute_force_case(15, True, 0.01), id="det-zero-scarce"),
    pytest.param(lambda: _brute_force_case(16, False, 1.0, False),
                 id="interior-only"),
])
def test_grid_search_matches_brute_force(case):
    setup, grid = case()
    result = grid_search_sum_rate(setup, grid)
    val, key = brute_force(setup, grid)
    assert result.sum_rate == pytest.approx(val, rel=1e-12)
    alloc = result.allocation
    assert (alloc.rho1, alloc.p1, alloc.p2, alloc.n1, alloc.n2) == key


@pytest.mark.parametrize("seed", range(40))
def test_objective_matches_scheme_rate_point(seed):
    # the grid objective and scheme_rate_point are two implementations of
    # the same rate; every cell of a small grid must agree, -inf exactly
    # where the beamforming construction refuses the allocation
    rng = np.random.default_rng(900 + seed)
    ratio = (1.0, 100.0, 0.01, 0.0)[seed % 4]
    P = float(10.0 ** rng.uniform(-1.0, 1.0))
    setup = random_setup(rng, P=P, PR=ratio * P, det_zero=seed % 3 == 0)
    pv = GridSpec(n_p=9).p_values(P)            # ends at the p_i = P boundary
    rhos = GridSpec(n_rho=3).rho_values()
    signs = np.array([-1, 1])
    obj = _objective(setup, rhos[:, None, None, None, None],
                     signs[:, None, None, None], signs[:, None, None], pv, pv)
    assert obj.shape == (3, 2, 2, 9, 9)
    for (r, a, b, i, j), value in np.ndenumerate(obj):
        alloc = PowerAllocation(p1=float(pv[i]), p2=float(pv[j]),
                                rho1=float(rhos[r]), n1=int(signs[a]),
                                n2=int(signs[b]))
        if value == -np.inf:
            with pytest.raises(InfeasibleRadicand):
                scheme_rate_point(setup, alloc)
        else:
            assert value == pytest.approx(
                scheme_rate_point(setup, alloc).sum_rate, rel=1e-12)


def test_grid_search_zero_budget():
    setup = replace(EX, P=0.0)
    result = grid_search_sum_rate(setup, GridSpec(n_p=2, n_rho=3))
    assert result.sum_rate == 0.0
    alloc = result.allocation
    # everything ties at zero; smallest lexicographic key wins
    assert (alloc.rho1, alloc.p1, alloc.p2, alloc.n1, alloc.n2) == \
        (0.25, 0.0, 0.0, -1, -1)


def test_grid_search_no_feasible_point():
    setup = replace(EX, PR=0.0)
    with pytest.raises(NoFeasiblePoint):
        grid_search_sum_rate(setup, GridSpec(n_p=5, n_rho=3,
                                             include_boundary=False))


def test_grid_refinement_never_decreases():
    # the 51-point power grid is a sublattice of the 101-point one
    coarse = grid_search_sum_rate(EX, GridSpec(n_p=51, n_rho=9))
    fine = grid_search_sum_rate(EX, GridSpec(n_p=101, n_rho=9))
    assert fine.sum_rate >= coarse.sum_rate - 1e-12


def test_grid_resolution_stability():
    # quadrupling the power resolution moves the optimum by under 2%
    v101 = grid_search_sum_rate(EX, GridSpec(n_p=101, n_rho=9)).sum_rate
    v401 = grid_search_sum_rate(EX, GridSpec(n_p=401, n_rho=9)).sum_rate
    assert abs(v401 - v101) <= 0.02 * v401


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n_p=1)
    with pytest.raises(ValueError):
        GridSpec(n_rho=0)
    spec = GridSpec(n_p=5, n_rho=4, include_boundary=False)
    assert spec.p_values(1.0).tolist() == [0.0, 0.25, 0.5, 0.75]
    assert spec.rho_values().tolist() == [0.2, 0.4, 0.6, 0.8]
    assert GridSpec(n_p=5, n_rho=4).p_values(1.0).tolist() == \
        [0.0, 0.25, 0.5, 0.75, 1.0]


def test_bisect_synthetic_crossing():
    root = bisect_intersection((lambda p: p, lambda p: 0.1 - p), (0.0, 0.1))
    assert root == pytest.approx(0.05, abs=1e-12)


def test_bisect_returns_coinciding_endpoint():
    root = bisect_intersection((lambda p: 0.0, lambda p: p * p), (0.0, 1.0))
    assert root == 0.0


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect_intersection((lambda p: 1.0, lambda p: 0.0), (0.0, 1.0))


def test_bisect_linearized_crossing_matches_closed_form():
    c = taylor_coeffs(EX, 0.5)
    phat = closed_form_phat(c, EX)

    def relay_cap(p1):
        return linearized_rates(c, EX, p1, 0.0).r1mac

    def destination_cap(p1):
        return linearized_rates(c, EX, p1, 0.0).r1ic

    root = bisect_intersection((relay_cap, destination_cap), (0.0, EX.P))
    assert abs(root - phat.p1) <= 1e-9 * EX.P


def test_bisect_exact_curves_near_linearized_crossing():
    # exact relay/destination caps at p2 = 1e-4 cross close to the
    # first-order prediction (within ~1e-5 at this budget)
    phat = closed_form_phat(taylor_coeffs(EX, 0.5), EX)

    def relay_cap(p1):
        return mac_rates(EX, p1, 1e-4).R1mac

    def destination_cap(p1):
        return ic_rates(EX, PowerAllocation(p1, 1e-4, 0.5)).R1

    root = bisect_intersection((relay_cap, destination_cap), (0.0, EX.P))
    assert abs(root - phat.p1) <= 1e-5


def test_hull_triangle_with_interior_point():
    pts = [(0.0, 0.0), (2.0, 1.0), (1.0, 2.0), (1.0, 1.0)]
    assert hull2d(pts) == [(0.0, 0.0), (2.0, 1.0), (1.0, 2.0)]


def test_hull_drops_collinear_and_duplicates():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (1.0, 1.0)]
    assert hull2d(pts) == [(0.0, 0.0), (3.0, 3.0)]
    assert hull2d([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]
    with pytest.raises(ValueError):
        hull2d([])


def test_hull_idempotent():
    rng = np.random.default_rng(79)
    pts = [tuple(map(float, rng.normal(size=2))) for _ in range(100)]
    hull = hull2d(pts)
    assert hull2d(hull) == hull


def test_hull_contains_every_input_point():
    rng = np.random.default_rng(83)
    pts = [tuple(map(float, rng.uniform(-1, 1, size=2))) for _ in range(1000)]
    region = RateRegion(vertices=tuple(hull2d(pts)))
    assert all(region.contains(x, y, tol=1e-9) for x, y in pts)


def test_sweep_single_budget():
    table = sweep_P(EX, [0.1])
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.P == 0.1
    assert row.R_sum_sqrt is None                 # only defined for P >= 1
    # the zoomed search must dominate the closed-form allocation's value
    assert row.R_sum_exact >= row.R_sum_closed - 1e-12
    assert row.R_sum_exact >= row.R_sum_half - 1e-12
    assert row.phat1 == pytest.approx(0.033395004625346905, abs=1e-15)


def test_sweep_sqrt_split_only_above_unit_budget():
    table = sweep_P(EX, [0.5, 2.0], policy=SweepPolicy(
        grid=GridSpec(n_p=21, n_rho=9)))
    assert table.rows[0].R_sum_sqrt is None
    assert table.rows[1].R_sum_sqrt is not None
    assert table.rows[1].R_sum_exact >= table.rows[1].R_sum_sqrt - 1e-12


def test_sweep_refinement_beats_pure_grid():
    grid = GridSpec(n_p=21, n_rho=9)
    pure = sweep_P(EX, [0.1], policy=SweepPolicy(grid=grid, refine=False))
    zoomed = sweep_P(EX, [0.1], policy=SweepPolicy(grid=grid, refine=True))
    assert zoomed.rows[0].R_sum_exact >= pure.rows[0].R_sum_exact - 1e-15


def test_sweep_relay_budget_policy():
    # needs independent relay rows (det != 0) and strong relay uplinks:
    # otherwise the optimum pins to the relay sum cap and PR drops out
    setup = ChannelSetup(h11=0.4, h12=0.3, h21=0.3, h22=0.4,
                         g1R=(2.0, 1.0), g2R=(1.0, 2.0),
                         hR1=(1.0, 0.0), hR2=(0.0, 1.0), P=0.1, PR=0.1)
    grid = GridSpec(n_p=11, n_rho=5)
    tracking = sweep_P(setup, [0.1], policy=SweepPolicy(grid=grid))
    pinned_same = sweep_P(setup, [0.1], policy=SweepPolicy(grid=grid, PR=0.1))
    assert tracking.rows == pinned_same.rows
    pinned_other = sweep_P(setup, [0.1], policy=SweepPolicy(grid=grid, PR=0.4))
    assert pinned_other.rows != tracking.rows
    assert pinned_other.rows[0].R_sum_exact > tracking.rows[0].R_sum_exact


def test_sweep_rejects_unsorted_budgets():
    with pytest.raises(ValueError):
        sweep_P(EX, [0.2, 0.1])
    with pytest.raises(ValueError):
        sweep_P(EX, [0.1, 0.1])
    with pytest.raises(ValueError):
        sweep_P(EX, [])


def test_sweep_table_validates_rows():
    table = sweep_P(EX, [0.05, 0.1],
                    policy=SweepPolicy(grid=GridSpec(n_p=11, n_rho=3)))
    with pytest.raises(ValueError):
        SweepTable(rows=tuple(reversed(table.rows)))