"""Grid search, bisection, convex hull, and the budget sweep."""

import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imrc import (
    ChannelSetup,
    GridSpec,
    ImrcError,
    InfeasibleRadicand,
    NoFeasiblePoint,
    NonFinite,
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
    load_channel,
    mac_rates,
    scheme_rate_point,
    sum_rate_allocation,
    sweep_P,
    taylor_coeffs,
)

import imrc.search as search_module
from imrc.model import RADICAND_RTOL, branch_sign, zf_radicand
from imrc.search import (_BLOCK, _GROUP, _SIGNS, _ZOOM_ROUNDS, _ZOOM_SHRINK,
                         _best, _box_bound, _coarse, _exponent,
                         _fixed_split_rate, _hull, _peak, _search, _signal,
                         _sum_rate_or_nan, _window_rows, _zoom, best_p1)

from helpers import (linearizable_setup, random_setup, reference_objective,
                     reference_search_p1, reference_zoom)

EX = example_channel()
DET_NONZERO = Path(__file__).parent / "golden" / "channel_det_nonzero.txt"


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


def _brute_force_case(seed, det_zero, relay_ratio):
    setup = random_setup(np.random.default_rng(seed), P=0.5,
                         PR=0.5 * relay_ratio, det_zero=det_zero)
    return setup, GridSpec(n_p=7, n_rho=3)


def _huge_budget_case(P):
    setup = ChannelSetup(h11=1.0, h12=0.0, h21=0.0, h22=1.0,
                         g1R=(1.0, 0.3), g2R=(0.2, 1.1), hR1=(1.0, 0.2),
                         hR2=(0.3, 1.0), P=P, PR=P)
    return setup, GridSpec(n_p=41, n_rho=9)


# numpy warns near the float limit where a sampled signal overflows
NEAR_LIMIT = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")

# g2R = 0.336 g1R: det([g1R g2R])^2 written out rounds to -1.4e-17 here
PARALLEL_UPLINKS = replace(EX, g2R=(0.20170854271356783, 0.40341708542713567),
                           P=1e20, PR=1e20)


@pytest.mark.parametrize("case", [
    pytest.param(lambda: (EX, GridSpec(n_p=7, n_rho=3)), id="True"),
    pytest.param(lambda: (linearizable_setup(np.random.default_rng(73)),
                          GridSpec(n_p=7, n_rho=3)), id="False"),
    pytest.param(lambda: _brute_force_case(11, False, 100.0), id="pr-abundant"),
    pytest.param(lambda: _brute_force_case(12, False, 0.01), id="pr-scarce"),
    pytest.param(lambda: _brute_force_case(13, False, 0.0), id="pr-zero"),
    pytest.param(lambda: _brute_force_case(14, True, 1.0), id="det-zero"),
    pytest.param(lambda: _brute_force_case(15, True, 0.01), id="det-zero-scarce"),
    # A1 A2 and alpha p1 p2 overflow a double from budgets near 1e154; the
    # optimum (rho1 0.4, p ~ (0.875, 0.9) P, n = (+1, -1)) has the MAC sum
    # cap binding, so the scaled objective and the scalar cap both count
    pytest.param(lambda: _huge_budget_case(1e160), id="huge-1e160"),
    pytest.param(lambda: _huge_budget_case(1e250), id="huge-1e250"),
    pytest.param(lambda: (PARALLEL_UPLINKS, GridSpec(n_p=7, n_rho=3)),
                 id="parallel-uplinks"),
    # P >= 2^1023 made _peak's 1 / s overflow, so every bound was NaN and
    # the search raised NoFeasiblePoint; ||g1R||^2 P stays finite here
    pytest.param(lambda: (replace(EX, P=9e307, PR=9e307),
                          GridSpec(n_p=7, n_rho=3)), id="near-limit-9e307"),
    pytest.param(lambda: (replace(EX, g1R=(0.5, 0.5), P=1e308, PR=1e308),
                          GridSpec(n_p=7, n_rho=3)), id="near-limit-1e308"),
    # g1R = 0: alpha = 0 and the scaled p1 p2 overflowed into 0 inf = NaN
    # from budgets near 2e154, in the search and in the MAC sum cap alike
    pytest.param(lambda: (replace(EX, g1R=(0.0, 0.0), P=1e160, PR=1e160),
                          GridSpec(n_p=7, n_rho=3)), id="zero-g1R-1e160"),
    # h12 = 1e-160 squares to c = 1e-320: _peak's r* = K w / c overflowed,
    # a RuntimeWarning, before the clip to the interval replaced it
    pytest.param(lambda: (replace(EX, h12=1e-160, P=1.0, PR=1.0),
                          GridSpec(n_p=7, n_rho=3)), id="tiny-cross-gain",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_grid_search_matches_brute_force(case):
    setup, grid = case()
    result = grid_search_sum_rate(setup, grid)
    val, key = brute_force(setup, grid)
    assert result.sum_rate == pytest.approx(val, rel=1e-12)
    alloc = result.allocation
    assert (alloc.rho1, alloc.p1, alloc.p2, alloc.n1, alloc.n2) == key


@pytest.mark.parametrize("seed", range(60))
def test_parallel_relay_columns_tie_by_smallest_key(seed):
    # det(H) = 0: the beam branch and, among feasible splits, rho1 leave
    # the sum rate unchanged, so the optimum is decided by the tie-break;
    # det(H) is stored as exactly 0, so both searches see exact ties
    setup, grid = _brute_force_case(seed, True, (1.0, 100.0, 0.25)[seed % 3])
    assert setup.relay_det() == 0.0
    alloc = grid_search_sum_rate(setup, grid).allocation
    _, key = brute_force(setup, grid)
    assert (alloc.rho1, alloc.p1, alloc.p2, alloc.n1, alloc.n2) == key


@pytest.mark.parametrize("seed", range(40))
def test_objective_matches_scheme_rate_point(seed):
    # the box routine and scheme_rate_point evaluate the same per-user
    # kernel, one over arrays in the linear domain and one on scalars in
    # bits; every cell of a small grid, each a 1 x 1 box with its own rho1
    # and signs, must agree once the linear value is taken back to bits, 0
    # exactly where zero forcing refuses the allocation
    rng = np.random.default_rng(900 + seed)
    ratio = (1.0, 100.0, 0.01, 0.0)[seed % 4]
    P = float(10.0 ** rng.uniform(-1.0, 1.0))
    setup = random_setup(rng, P=P, PR=ratio * P, det_zero=seed % 3 == 0)
    pv = GridSpec(n_p=9).p_values(P)            # ends at the p_i = P boundary
    rhos = GridSpec(n_rho=3).rho_values()
    signs = np.array([-1, 1])
    r, a, b, i, j = np.indices((3, 2, 2, 9, 9)).reshape(5, -1)
    obj = _best(setup, rhos[r], signs[a], signs[b], pv[None, i],
                pv[None, j])[0].reshape(3, 2, 2, 9, 9)
    assert obj.shape == (3, 2, 2, 9, 9)
    exponent = _exponent(setup)
    for (r, a, b, i, j), value in np.ndenumerate(obj):
        alloc = PowerAllocation(p1=float(pv[i]), p2=float(pv[j]),
                                rho1=float(rhos[r]), n1=int(signs[a]),
                                n2=int(signs[b]))
        if value == 0.0:
            with pytest.raises(InfeasibleRadicand):
                scheme_rate_point(setup, alloc)
        else:
            assert math.log2(value) + exponent == pytest.approx(
                scheme_rate_point(setup, alloc).sum_rate, rel=1e-12)


_POWER_SHARE = st.one_of(st.just(1.0), st.floats(0.0, 1.0))  # p_i = P often


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       P=st.one_of(st.floats(-3.0, 2.0).map(lambda x: 10.0 ** x),
                   st.sampled_from([1e160, 1e250])),
       ratio=st.sampled_from([0.0, 0.01, 0.25, 1.0, 100.0]),
       det_zero=st.booleans(),
       rho1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       share1=_POWER_SHARE, share2=_POWER_SHARE,
       n1=st.sampled_from([-1, 1]), n2=st.sampled_from([-1, 1]))
def test_objective_matches_scheme_rate_point_off_grid(seed, P, ratio,
                                                      det_zero, rho1, share1,
                                                      share2, n1, n2):
    # the same agreement anywhere, not only at grid cells: log2 of the
    # linear value plus e carries the rate, and log2 v ~ -e cancels at tiny
    # rates, so the tolerance has a term absolute in bits that grows with e
    setup = random_setup(np.random.default_rng(seed), P=P, PR=ratio * P,
                         det_zero=det_zero)
    alloc = PowerAllocation(p1=share1 * P, p2=share2 * P, rho1=rho1, n1=n1,
                            n2=n2)
    value = float(_best(setup, rho1, n1, n2, np.array([[alloc.p1]]),
                        np.array([[alloc.p2]]))[0][0])
    if value == 0.0:
        with pytest.raises(InfeasibleRadicand):
            scheme_rate_point(setup, alloc)
        return
    exponent = _exponent(setup)
    rate = scheme_rate_point(setup, alloc).sum_rate
    assert (abs(math.log2(value) + exponent - rate)
            <= 1e-12 * rate + 2.0 ** -50 * exponent)


BOX_KINDS = ("block", "window", "column", "cell")
BOX_COUNTS = (1, 127, 128, 129, 257)


def _boxes(setup, rng, kind, count):
    """(rho1, n1, n2, p1, p2) of count boxes of one kind, each with its own
    rho1: 8 x 8 blocks gathered from a 101-point grid padded with NaN to 13
    blocks a side, branch_sign's signs; 21 x 21 windows by np.linspace,
    window count // 2 with p2 pinned (a zero half-width); 2001 x 1 columns
    at p2 = 0 and n2 = +1; and 1 x 1 cells with per-box signs. Box 0 has
    every row at p1 = P and p2 rising to P (always feasible there), so its
    maximum ties across rows; the last box, when count > 1, has
    rho1 = 1e-12 and p1 <= P/2, so no feasible cell."""
    P = setup.P
    rho1 = rng.uniform(0.0, 1.0, count)
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    if kind == "block":
        pv = np.concatenate([np.linspace(0.0, P, 101), np.full(3, np.nan)])
        row, col = rng.integers(0, 13, (2, count))
        p1, p2 = (pv[x * _BLOCK + np.arange(_BLOCK)[:, None]]
                  for x in (row, col))
    elif kind == "window":
        (c1, c2), half = rng.uniform(0.0, P, (2, count)), 0.05 * P
        half2 = np.where(np.arange(count) == count // 2, 0.0, half)
        p1 = np.linspace(np.maximum(0.0, c1 - half), np.minimum(P, c1 + half),
                         21)
        p2 = np.linspace(np.maximum(0.0, c2 - half2),
                         np.minimum(P, c2 + half2), 21)
    elif kind == "column":
        p1, p2 = rng.uniform(0.0, P, (2001, count)), np.zeros((1, count))
        n2 = 1
    else:
        p1, p2 = rng.uniform(0.0, P, (2, 1, count))
        n1, n2 = _SIGNS[rng.integers(0, 2, (2, count))]
    p1[:, 0], p2[:, 0] = P, np.linspace(0.0, P, len(p2) + 1)[1:]
    if count > 1:
        rho1[-1], p1[:, -1] = 1e-12, np.linspace(0.0, 0.5 * P, len(p1))
    return rho1, n1, n2, p1, p2


@pytest.mark.parametrize("count", BOX_COUNTS)
@pytest.mark.parametrize("kind", BOX_KINDS)
def test_best_matches_reference_boxes(kind, count):
    # every search stage evaluates its cells through _best: each box's
    # value and first row-major argmax must be its outer grid's, bit for
    # bit, across chunks of boxes; a box without a feasible cell gives 0
    # at cell 0, and a tied maximum goes to its first cell
    seed = BOX_KINDS.index(kind) * len(BOX_COUNTS) + BOX_COUNTS.index(count)
    rng = np.random.default_rng(5200 + seed)
    P = float(10.0 ** rng.uniform(-2.0, 1.0))
    setup = random_setup(rng, P=P, PR=(1.0, 100.0)[seed % 2] * P,
                         det_zero=seed % 3 == 0)
    rho1, n1, n2, p1, p2 = _boxes(setup, rng, kind, count)
    best, first = _best(setup, rho1, n1, n2, p1, p2)
    assert best.shape == first.shape == (count,)
    sign1, sign2 = (np.broadcast_to(n, (count,)) for n in (n1, n2))
    grids = [reference_objective(setup, rho1[w], sign1[w], sign2[w], p1[:, w],
                                 p2[:, w]).ravel() for w in range(count)]
    assert np.array_equal(best, [grid.max() for grid in grids])
    assert np.array_equal(first, [grid.argmax() for grid in grids])
    tied = grids[0] == grids[0].max()
    assert best[0] > 0.0 and (tied.sum() > 1 or len(tied) == 1)
    if count > 1:
        assert best[-1] == first[-1] == 0


def _assert_rows_kept_or_skipped(value, arg, top, first):
    """The refined coarse stage's contract per rho1, against each rho1's
    full-grid maximum top and first row-major argmax first: a rho1 it keeps
    (value > 0) has both; a rho1 it skips (value 0) has a maximum below
    value.max(); and every rho1 whose maximum is the overall one is kept."""
    kept = value > 0.0
    assert (value[kept] == top[kept]).all()
    assert (arg[kept] == first[kept]).all()
    assert (top[~kept] < value.max()).all()
    assert kept[top == top.max()].all()


def _sign_case(seed):
    """A random channel over 5 relay budgets, det(H) = 0 in 1 of 3 and
    h21 = 0 in 1 of 4, on a 41 x 9 or a 40 x 9 grid: 6 blocks of 8 with
    the last padded, or 5 unpadded."""
    rng = np.random.default_rng(1300 + seed)
    P = float(10.0 ** rng.uniform(-3.0, 3.0))
    ratio = (1.0, 100.0, 0.25, 0.0, 0.01)[seed % 5]
    setup = random_setup(rng, P=P, PR=ratio * P, det_zero=seed % 3 == 0)
    if seed % 4 == 1:
        setup = replace(setup, h21=0.0)
    grid = GridSpec(n_p=41 if seed % 2 == 0 else 40, n_rho=9)
    return setup, grid.p_values(P), grid.rho_values()


def _all_sign_blocks(setup, pv, rhos):
    """reference_objective over every (rho1, n1, n2) block: (rho1, 2, 2,
    p1, p2)."""
    signs = np.array([-1, 1])
    return reference_objective(setup, rhos[:, None, None, None, None],
                               signs[:, None, None, None],
                               signs[:, None, None], pv, pv)


@pytest.mark.parametrize("seed", range(20))
def test_feasible_cells_form_a_rectangle(seed):
    # each user's zero-forcing feasibility must not depend on the sign and
    # must never fall as p_i grows, so the feasible cells of a rho1 form the
    # rectangle p1 >= k1, p2 >= k2, and in every rho1 it keeps the pruned
    # coarse stage must find what a full evaluation of all four sign blocks
    # finds
    setup, pv, rhos = _sign_case(seed)
    rho1, signs = rhos[:, None, None, None], np.array([-1, 1])[:, None, None]
    for user, p in ((1, pv[:, None]), (2, pv[None, :])):
        _, ok = _signal(setup, user, rho1, signs, p)
        ok = np.broadcast_to(ok, (len(rhos), 2) + p.shape).reshape(
            len(rhos), 2, -1)
        assert (ok == ok[:, :1]).all()
        assert (np.diff(ok.astype(int), axis=-1) >= 0).all()
    flat = _all_sign_blocks(setup, pv, rhos).max(axis=(1, 2)).reshape(
        len(rhos), -1)
    value, arg, _ = _coarse(setup, rhos, pv, branch_sign(setup, 1),
                            branch_sign(setup, 2))
    _assert_rows_kept_or_skipped(value, arg, flat.max(axis=-1),
                                 flat.argmax(axis=-1))


@pytest.mark.parametrize("seed", range(30))
def test_branch_sign_block_is_cellwise_max(seed):
    # the search keeps one sign block per rho1: each user's branch_sign
    # must reach the best of the four blocks at every cell, bit for bit,
    # including det(H) = 0, a zero cross gain and the p_i = P boundary
    setup, pv, rhos = _sign_case(seed)
    if seed % 4 == 3:
        setup = replace(setup, h12=0.0)
    if seed % 5 == 2:
        # a_1 = h11 - h12 (hR1.hR2)/||hR2||^2 is exactly 0: both signs tie
        setup = replace(setup, h11=setup.h12 * setup.hR_dot / setup.hR2_norm2)
        assert branch_sign(setup, 1) == -1
    full = _all_sign_blocks(setup, pv, rhos)
    best = reference_objective(setup, rhos[:, None, None],
                               branch_sign(setup, 1), branch_sign(setup, 2),
                               pv, pv)
    assert (best == full.max(axis=(1, 2))).all()


def test_parallel_uplinks_keep_alpha_nonnegative():
    # a negative alpha made the MAC sum cap's argument negative at large
    # powers, and scheme_rate_point took log2 of it
    setup = PARALLEL_UPLINKS
    assert setup.mac_alpha == 0.0
    half = PowerAllocation(p1=0.5 * setup.P, p2=0.5 * setup.P, rho1=0.5)
    assert math.isfinite(scheme_rate_point(setup, half).sum_rate)


def _grid_case(setup, grid):
    return setup, grid.p_values(setup.P), grid.rho_values()


def _level_bounds(setup, pv, rhos):
    """The dense bounds of the block level and then the group level, each
    shaped (rho1, unit row, unit column) with its number of units a side,
    on pv padded as the unrefined coarse stage pads it: _box_bound on each
    unit's first and last power in pv, NaN for a unit wholly past pv."""
    side = -(-len(pv) // (_GROUP * _BLOCK)) * _GROUP * _BLOCK
    for width in (_BLOCK, _GROUP * _BLOCK):
        start = np.arange(0, side, width)
        real = start < len(pv)
        lo = np.where(real, pv[np.minimum(start, len(pv) - 1)], np.nan)
        hi = np.where(real, pv[np.minimum(start + width, len(pv)) - 1],
                      np.nan)
        bound = _box_bound(setup, rhos[:, None, None], lo[:, None],
                           hi[:, None], lo, hi)
        yield bound, side // width


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda seed=seed: _sign_case(seed), id=f"random-{seed}")
      for seed in range(20)),
    pytest.param(lambda: _grid_case(*_huge_budget_case(1e160)),
                 id="huge-1e160"),
    pytest.param(lambda: _grid_case(*_huge_budget_case(1e250)),
                 id="huge-1e250"),
    pytest.param(lambda: _grid_case(PARALLEL_UPLINKS, GridSpec(41, 9)),
                 id="parallel-uplinks"),
    # 26 blocks of 8 in 7 groups of 4, the last group half padding
    pytest.param(lambda: _grid_case(_workload_channel(2), GridSpec(201, 9)),
                 id="partial-group"),
])
def test_block_bound_is_sound(case):
    # the coarse stage skips a group or a block whose bound is below an
    # incumbent, so each bound must be at least every cell's value in its
    # group or block, bit for bit, and 0 exactly where no cell of it is
    # feasible; padding cells count as infeasible
    setup, pv, rhos = case()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    side = -(-len(pv) // (_GROUP * _BLOCK)) * _GROUP * _BLOCK
    cells = np.zeros((len(rhos), side, side))
    cells[:, :len(pv), :len(pv)] = reference_objective(
        setup, rhos[:, None, None], n1, n2, pv, pv)
    for bound, units in _level_bounds(setup, pv, rhos):
        width = side // units
        top = cells.reshape(len(rhos), units, width, units, width).max(
            axis=(2, 4))
        assert bound.shape == top.shape
        assert (bound >= top).all()
        assert ((bound == 0.0) == (top == 0.0)).all()


@pytest.mark.parametrize("ratio", [0.0, 0.01, 0.25, 1.0, 100.0])
def test_row_bound_covers_every_point(ratio, monkeypatch):
    # the refined coarse stage skips a rho1 whose largest block bound is
    # below the best first-pass value, and the zoom never opens it, so that
    # bound must be at least the value of every point of [0, P]^2 at that
    # rho1, on the grid or off it: 400 uniform points, and points in the
    # gaps between one block's last power and the next block's first; 12
    # random channels on a 41 x 19 grid, det(H) = 0 in 1 of 3, some with
    # their optimum at p_i = P
    bounds = []

    def bound(*args):
        bounds.append(_box_bound(*args))
        return bounds[-1]

    monkeypatch.setattr(search_module, "_box_bound", bound)
    grid, at_budget = GridSpec(n_p=41, n_rho=19), 0
    for seed in range(12):
        rng = np.random.default_rng(5300 + seed)
        P = float(10.0 ** rng.uniform(-3.0, 2.0))
        setup = random_setup(rng, P=P, PR=ratio * P, det_zero=seed % 3 == 0)
        pv, rhos = grid.p_values(P), grid.rho_values()
        n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
        bounds.clear()
        _coarse(setup, rhos, pv, n1, n2)
        assert len(bounds) == 1  # the blocks, shaped (row, column, rho1)
        row = bounds[0].max(axis=(0, 1))
        gaps = pv[_BLOCK - 1:-1:_BLOCK] + np.multiply.outer(
            rng.uniform(size=2), np.diff(pv)[_BLOCK - 1::_BLOCK])
        points = np.concatenate([rng.uniform(0.0, P, 20), gaps.ravel()])
        value = reference_objective(setup, rhos[:, None, None], n1, n2,
                                    points, points)
        assert (value.max(axis=(1, 2)) <= row).all()
        on_grid = reference_objective(setup, rhos[:, None, None], n1, n2,
                                      pv, pv)
        k, i, j = np.unravel_index(on_grid.argmax(), on_grid.shape)
        at_budget += P in (pv[i], pv[j])
    assert at_budget > 0


def _workload_channel(seed):
    """The paper example and a random channel at P = 20 dB with PR = 100 P,
    then random channels over the PR/P mix, det(H) = 0 in 1 of 4."""
    rng = np.random.default_rng(1700 + seed)
    if seed == 0:
        return replace(EX, P=100.0, PR=1e4)
    if seed == 1:
        return random_setup(rng, P=100.0, PR=1e4)
    P = float(10.0 ** rng.uniform(-3.0, 2.0))
    ratio = (1.0, 100.0, 0.25, 0.0, 0.01)[seed % 5]
    return random_setup(rng, P=P, PR=ratio * P, det_zero=seed % 4 == 0)


@pytest.mark.parametrize("n_p", [101, 201])
@pytest.mark.parametrize("seed", range(8))
def test_coarse_prune_matches_full_grid(seed, n_p):
    # at workload size, the pruned coarse stage gives every rho1 it keeps
    # the value and the first row-major argmax of its full grid, and skips
    # only rho1 whose full grid falls short of the best
    setup = _workload_channel(seed)
    grid = GridSpec(n_p=n_p, n_rho=99)
    pv, rhos = grid.p_values(setup.P), grid.rho_values()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    value, arg, _ = _coarse(setup, rhos, pv, n1, n2)
    full = [reference_objective(setup, rho1, n1, n2, pv, pv).ravel()
            for rho1 in rhos]
    _assert_rows_kept_or_skipped(value, arg, np.max(full, axis=1),
                                 np.argmax(full, axis=1))
    # pruned against one overall incumbent, the first argmax over (rho1,
    # cell) is the same
    top, at, _ = _coarse(setup, rhos, pv, n1, n2, overall=True)
    k = top.argmax()
    assert (top[k], k, at[k]) == (value.max(), value.argmax(),
                                  arg[value.argmax()])


@pytest.mark.parametrize("seed, overall", [
    *(pytest.param(seed, False, id=f"{seed}") for seed in range(4)),
    *(pytest.param(seed, True, id=f"{seed}-overall") for seed in range(4)),
])
def test_coarse_keeps_first_row_among_tied_rows(seed, overall):
    # g1R = 0 and h12 = 0: user 1's term is 1 at every p1 and nothing else
    # depends on p1, so all rows of a rho1 tie bit for bit, across block
    # boundaries; the first row, p1 = 0, must win, for every rho1 that is
    # kept or, when pruned against one overall incumbent, for the first
    # argmax over (rho1, cell)
    rng = np.random.default_rng(1800 + seed)
    P = float(10.0 ** rng.uniform(-2.0, 1.0))
    setup = replace(random_setup(rng, P=P, PR=(1.0, 100.0)[seed % 2] * P),
                    g1R=(0.0, 0.0), h12=0.0)
    grid = GridSpec(n_p=101 if seed < 2 else 100, n_rho=9)
    pv, rhos = grid.p_values(P), grid.rho_values()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    value, arg, _ = _coarse(setup, rhos, pv, n1, n2, overall)
    assert (value > 0.0).any()
    full = reference_objective(setup, rhos[:, None, None], n1, n2, pv, pv)
    assert (full == full[:, :1]).all()
    full = full.reshape(len(rhos), -1)
    if overall:
        k = value.argmax()
        assert (k, arg[k]) == np.unravel_index(full.argmax(), full.shape)
        assert arg[k] < len(pv)
        return
    _assert_rows_kept_or_skipped(value, arg, full.max(axis=1),
                                 full.argmax(axis=1))
    assert (arg[value > 0.0] < len(pv)).all()


def _closed_bounds(setup, pv, rhos):
    """The refined coarse stage's dense block bounds, shaped (rho1, block
    row, block column): _box_bound on each block of 8 powers of pv, closed
    from its first power to the next block's, the last one to P."""
    lo = pv[::_BLOCK]
    hi = np.append(lo[1:], setup.P)
    return _box_bound(setup, rhos[:, None, None], lo[:, None], hi[:, None],
                      lo, hi)


def _expected_evaluated(setup, pv, rhos, overall):
    """What _coarse counts, from the dense bounds: per rho1, every block it
    evaluates, once. The first-pass block is the top-bound block of the
    rho1's top-bound group, and its best cell is the rho1's incumbent.
    The first pass runs in every rho1 with a positive bound. When overall,
    groups are of _GROUP x _GROUP open blocks, and the main pass takes the
    blocks whose bound reaches the best incumbent. Otherwise a group is one
    closed block, a rho1 whose bound is below the best incumbent is
    skipped, and the main pass takes the blocks of the others whose bound
    reaches their own incumbent, every block with a positive bound where
    that is 0."""
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    if overall:
        (blocks, nb), (groups, ng) = _level_bounds(setup, pv, rhos)
    else:
        blocks = groups = _closed_bounds(setup, pv, rhos)
        nb = ng = blocks.shape[-1]
    size = nb // ng
    live = groups.max(axis=(1, 2))
    incumbent, first = np.zeros(len(rhos)), {}
    for k in np.flatnonzero(live > 0.0):
        gr, gc = np.multiply(divmod(groups[k].argmax(), ng), size)
        square = blocks[k, gr:gr + size, gc:gc + size]
        br, bc = first[k] = np.add(divmod(square.argmax(), size), (gr, gc))
        cells = np.zeros((nb * _BLOCK,) * 2)
        cells[:len(pv), :len(pv)] = reference_objective(setup, rhos[k], n1,
                                                        n2, pv, pv)
        incumbent[k] = cells[br * _BLOCK:(br + 1) * _BLOCK,
                             bc * _BLOCK:(bc + 1) * _BLOCK].max()
    best, least = incumbent.max(), 5e-324  # the least positive double
    reach = np.maximum(least, np.full(len(rhos), best) if overall
                       else np.where(live >= best, incumbent, np.inf))
    count = (blocks >= reach[:, None, None]).sum(axis=(1, 2))
    for k, (br, bc) in first.items():  # evaluated once, reaching or not
        count[k] += blocks[k, br, bc] < reach[k]
    return count


@pytest.mark.parametrize("overall", [False, True])
@pytest.mark.parametrize("case", [
    *(pytest.param(lambda seed=seed: (_workload_channel(seed),
                                      GridSpec(n_p=101, n_rho=99)),
                   id=f"workload-{seed}") for seed in range(8)),
    pytest.param(lambda: (_workload_channel(2), GridSpec(201, 9)),
                 id="partial-group"),
    pytest.param(lambda: (TIED_AT_SUM_CAP, GridSpec(n_p=17, n_rho=5)),
                 id="rows-tied-at-sum-cap"),
    pytest.param(lambda: (replace(EX, PR=0.0), _BelowBudget(n_p=41, n_rho=9)),
                 id="nothing-feasible"),
    # only p_i = P is feasible, the lone power of the last block: the
    # closed block before it reaches P and is a top-bound block
    pytest.param(lambda: (replace(EX, PR=0.0), GridSpec(n_p=41, n_rho=9)),
                 id="top-block-infeasible"),
])
def test_coarse_counts_blocks_reaching_the_incumbent(case, overall):
    # evaluated counts each block evaluated, once: the first-pass block
    # always, any other when its bound reaches the incumbent
    setup, grid = case()
    pv, rhos = grid.p_values(setup.P), grid.rho_values()
    _, _, evaluated = _coarse(setup, rhos, pv, branch_sign(setup, 1),
                              branch_sign(setup, 2), overall)
    assert (evaluated == _expected_evaluated(setup, pv, rhos, overall)).all()


@pytest.mark.parametrize("P", [0.1, 1.0])
def test_coarse_prunes_most_blocks(P):
    # a count, not a timing: on the paper example at -10 dB and 0 dB the
    # bounds rule out at least 80% of the blocks that hold a feasible cell
    # (433 and 178 of 14,989 are evaluated)
    setup = replace(EX, P=P, PR=P)
    pv, rhos = GridSpec().p_values(P), GridSpec().rho_values()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    live = (next(_level_bounds(setup, pv, rhos))[0] > 0.0).sum()
    _, _, evaluated = _coarse(setup, rhos, pv, n1, n2)
    assert evaluated.sum() <= 0.2 * live


@pytest.mark.parametrize("P", [0.1, 1.0])
def test_overall_incumbent_evaluates_fewer_blocks(P):
    # a count, not a timing: on the paper example, pruning open blocks
    # against the best first-pass value over all rho1 skips at least what
    # the refined stage's closed blocks and rho1 row filter skip
    # (-10 dB: 433 refined, 421 overall; 0 dB: 178 and 177)
    setup = replace(EX, P=P, PR=P)
    pv, rhos = GridSpec().p_values(P), GridSpec().rho_values()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    per_split = _coarse(setup, rhos, pv, n1, n2)[2].sum()
    overall = _coarse(setup, rhos, pv, n1, n2, overall=True)[2].sum()
    assert overall <= per_split


def test_refined_coarse_computes_about_half_the_blocks():
    # a count, not a timing: over the workload channels at 101 x 99 the
    # refined coarse stage computes 1,447 blocks, each once, 293 of them
    # the first-pass blocks of rho1 it then skips; bounding open blocks and
    # finding every rho1's best, the first-pass block evaluated again, it
    # computed 2,762 (792 in the first pass, 1,970 in the main pass)
    grid, total = GridSpec(n_p=101, n_rho=99), 0
    for seed in range(8):
        setup = _workload_channel(seed)
        total += _coarse(setup, grid.rho_values(), grid.p_values(setup.P),
                         branch_sign(setup, 1), branch_sign(setup, 2))[2].sum()
    assert total <= 1447


def _first_argmax(setup, grid):
    """(rho1, p1, p2, n1, n2) of the first maximum of reference_objective
    over the full grid and all four sign pairs, in that key order."""
    pv, rhos = grid.p_values(setup.P), grid.rho_values()
    full = _all_sign_blocks(setup, pv, rhos).transpose(0, 3, 4, 1, 2)
    k, i, j, s1, s2 = np.unravel_index(full.argmax(), full.shape)
    return rhos[k], pv[i], pv[j], _SIGNS[s1], _SIGNS[s2]


# uplinks so weak that min(A1 A2, M) = M, the MAC sum cap, at the optimum
# of all but the first rho1 on a 17 x 5 grid: M does not depend on rho1, so
# those rows tie bit for bit. The second row's first-pass block misses its
# optimum, whose block bound is exactly the optimum's value.
TIED_AT_SUM_CAP = ChannelSetup(
    h11=-0.48, h12=-1.1, h21=-1.35, h22=0.37, g1R=(0.0007, 0.0013),
    g2R=(0.0012, -0.0015), hR1=(-0.9, -1.4), hR2=(0.46, 0.73), P=16.8,
    PR=16.8)
OVERALL_GRIDS = (GridSpec(n_p=41, n_rho=9), GridSpec(n_p=40, n_rho=9),
                 GridSpec(n_p=17, n_rho=5))


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda seed=seed: _sign_case(seed)[0], id=f"random-{seed}")
      for seed in range(20)),
    pytest.param(lambda: _huge_budget_case(1e160)[0], id="huge-1e160"),
    pytest.param(lambda: TIED_AT_SUM_CAP, id="rows-tied-at-sum-cap"),
])
def test_overall_incumbent_finds_first_argmax(case):
    # the unrefined search prunes every rho1's blocks against the best
    # first-pass value over all rho1, so only the overall argmax is sure
    # to be found: it must be the first maximum of the full grid (the
    # random channels cover det(H) = 0, PR/P in {0, 1/100, 1/4, 1, 100}
    # and optima at p_i = P)
    setup = case()
    for grid in OVERALL_GRIDS:
        alloc = _search(setup, grid, refine=False)
        assert ((alloc.rho1, alloc.p1, alloc.p2, alloc.n1, alloc.n2)
                == _first_argmax(setup, grid))


def test_overall_incumbent_cases_are_reached():
    # the cases above hold what they claim to hold: optima at p_i = P, and
    # rows tied at the sum cap where the smallest rho1 wins
    grid = GridSpec(n_p=41, n_rho=9)
    setups = [_sign_case(seed)[0] for seed in range(20)]
    allocs = [_search(setup, grid, refine=False) for setup in setups]
    assert sum(setup.P in (alloc.p1, alloc.p2)
               for setup, alloc in zip(setups, allocs)) >= 5
    grid = OVERALL_GRIDS[2]
    pv, rhos = grid.p_values(TIED_AT_SUM_CAP.P), grid.rho_values()
    full = _all_sign_blocks(TIED_AT_SUM_CAP, pv, rhos).reshape(len(rhos), -1)
    tied = np.flatnonzero(full.max(axis=1) == full.max())
    assert len(tied) > 1
    alloc = _search(TIED_AT_SUM_CAP, grid, refine=False)
    assert alloc.rho1 == rhos[tied[0]]
    assert scheme_rate_point(TIED_AT_SUM_CAP, alloc).truncated


class _BelowBudget(GridSpec):
    """A grid without the p_i = P column, which is always feasible."""

    def p_values(self, P):
        return super().p_values(P)[:-1]


@pytest.mark.parametrize("P", [1e308, 1.7e308])
def test_budget_near_the_float_limit_is_refused(P):
    # ||g1R||^2 P overflows on the paper example, and with it the MAC cap
    # and the search's scale: the search reported NoFeasiblePoint, and the
    # budget is now refused by name before searching
    message = re.escape(f"budget P = {P!r} is too large")
    with pytest.raises(NonFinite, match=message):
        grid_search_sum_rate(replace(EX, P=P, PR=P), GridSpec(n_p=41, n_rho=9))
    with pytest.raises(NonFinite, match=message):
        sweep_P(EX, [P])
    # figure 4's search searched on, and figure 4 wrote the closed form's
    # overflowed phat1 / P = 1 beside it
    with pytest.raises(NonFinite, match=message):
        best_p1(replace(EX, P=P, PR=P), 0.5)


def test_repeat_signal_past_the_float_limit_is_refused():
    # h11 = 10: ||g_iR||^2 P and h_ji^2 P are finite at P = 1e307, but user
    # 1's repeat signal f_11^2 (P - p1) is not; the fixed splits raised
    # "R1 must be finite", and the grid search returned 1020.64 bits
    strong = replace(EX, h11=10.0)
    message = re.escape("budget P = 1e+307 is too large")
    with pytest.raises(NonFinite, match=message):
        grid_search_sum_rate(replace(strong, P=1e307, PR=1e307),
                             GridSpec(n_p=41, n_rho=9))
    with pytest.raises(NonFinite, match=message):
        sweep_P(strong, [1e307])
    # det(H) = -16, ||hRj||^2 = 16: the boundary power rho_i PR det(H)^2 /
    # ||hRj||^2 is finite, but its product before the division was not
    wide = replace(EX, h11=0.01, h22=0.01, hR1=(0.0, 4.0), hR2=(4.0, 0.0))
    with pytest.raises(NonFinite, match=message):
        sweep_P(wide, [1e307])


def test_relay_ratio_past_the_float_limit_is_refused():
    # P = 1e-300 with PR = 1e10: PR / P overflows, and the search raised
    # "R1 must be finite" from RatePoint on this channel
    setup = replace(load_channel(DET_NONZERO), P=1e-300, PR=1e10)
    with pytest.raises(NonFinite, match=re.escape("PR / P overflows")):
        grid_search_sum_rate(setup, GridSpec(n_p=41, n_rho=9))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radicand_past_the_float_limit_is_refused():
    # PR / P is finite, but the radicand's rho_i PR / (P - p_i) ||hRj||^2
    # is not: at P = 0 the kernel's PR ||hR2||^2 = 5e308, and at P = 1e-10
    # with PR = 1e298 its 2^53 (PR / P) ||hR2||^2. The search printed
    # RuntimeWarnings and best_p1 read NaN from 0 * inf; validate now
    # refuses both, and every search validates
    message = "the zero-forcing radicand overflows"
    with pytest.raises(NonFinite, match=message):
        grid_search_sum_rate(replace(EX, P=0.0, PR=1e308),
                             GridSpec(n_p=41, n_rho=9))
    with pytest.raises(NonFinite, match=message):
        sweep_P(EX, [1e-10], SweepPolicy(PR=1e298))
    with pytest.raises(NonFinite, match=message):
        best_p1(replace(EX, P=1e-10, PR=1e298), 0.5)


def test_budget_below_the_float_limit_keeps_its_result():
    # 8e307 lies below 2^1023 and its ||g1R||^2 P is finite: the near-limit
    # refusal and scaling must leave its result as it was
    result = grid_search_sum_rate(replace(EX, P=8e307, PR=8e307),
                                  GridSpec(n_p=41, n_rho=9))
    assert result.sum_rate == 1022.0624355907864
    assert result.allocation == PowerAllocation(p1=2.8e307, p2=0.0, rho1=0.1,
                                                n1=-1, n2=-1)


@NEAR_LIMIT
@pytest.mark.parametrize("P", [9e307, 1.7e308])
def test_peak_is_sound_near_the_float_limit(P):
    # from P = 2^1023 on, _peak's s = 2^-e stops at 2^-1023 so that 1 / s
    # stays finite: _peak must be at least _signal at every feasible p_i
    # in [lo, hi], and never NaN; the paper example and random channels
    # with PR/P in {1/100, 1/4, 1}, on 24 random intervals each
    rng = np.random.default_rng(2990)
    for ratio in (0.01, 0.25, 1.0):
        for case in (replace(EX, P=P, PR=ratio * P),
                     random_setup(rng, P=P, PR=ratio * P),
                     random_setup(rng, P=P, PR=ratio * P, det_zero=True)):
            for user, rho1 in itertools.product((1, 2), (0.01, 0.5, 0.99)):
                ends = np.concatenate([rng.uniform(0.0, P, 8), [0.0, P]])
                lo, hi = np.sort(rng.choice(ends, (2, 24)), axis=0)
                bound, live = _peak(case, user, rho1, lo, hi)
                dense = np.linspace(lo, hi, 257, axis=1)
                for sign in (-1, 1):
                    sig, ok = _signal(case, user, rho1, sign, dense)
                    assert (np.where(ok, sig, 0.0) <= bound[:, None]).all()
                    assert (live == ok.any(axis=1)).all()


def test_overall_incumbent_without_feasible_cell():
    # PR = 0 leaves no zero forcing below p_i = P: the first pass finds no
    # incumbent, the reach is the least positive double rather than 0, and
    # no block is evaluated
    setup = replace(EX, PR=0.0)
    grid = _BelowBudget(n_p=41, n_rho=9)
    assert _search(setup, grid, refine=False) is None
    value, _, evaluated = _coarse(setup, grid.rho_values(),
                                  grid.p_values(setup.P), 1, 1, overall=True)
    assert not value.any() and not evaluated.any()


@pytest.mark.parametrize("grid", [GridSpec(n_p=201, n_rho=99),
                                  GridSpec(n_p=41, n_rho=199)],
                         ids=["201x99", "41x199"])
@pytest.mark.parametrize("case", [
    pytest.param(lambda: EX, id="det-zero"),
    pytest.param(lambda: _zoom_case(5), id="det-nonzero"),
])
def test_refined_search_with_an_infeasible_top_block(case, grid):
    # PR = 0 leaves zero forcing only at p_i = P, the last block's lone
    # power (n_p - 1 is a multiple of 8), so the closed block before it
    # reaches P and can be a rho1's top-bound block without a feasible
    # cell; that rho1 must still be searched, and the refined search must
    # return the unrefined one's cell, p1 = p2 = P, as the zoom finds no
    # other feasible point
    setup = replace(case(), PR=0.0)
    refined = _search(setup, grid, refine=True)
    assert refined == _search(setup, grid, refine=False)
    assert refined.p1 == refined.p2 == setup.P


PEAK_BUDGETS = (5e-324, 1e-300, 1e-3, 1.0, 30.0, 1e160, 1e250)


def _peak_points(setup, user, rho1):
    """Powers p_i where a user's signal is tested: the grid powers of 101
    and 201 points, and the edge points, where they lie in [0, P]: the
    radicand's edge P - K/c with both float neighbours and three powers
    past it that the radicand tolerance admits (K = rho_i PR ||hRj||^2,
    c = h_ij^2; none when c = 0)."""
    rho_i, cross, norm2 = ((rho1, setup.h12, setup.hR2_norm2) if user == 1
                           else (1.0 - rho1, setup.h21, setup.hR1_norm2))
    grid = np.concatenate([np.linspace(0.0, setup.P, 101),
                           np.linspace(0.0, setup.P, 201)])
    edge = np.zeros(0)
    if cross != 0.0:
        reach = rho_i * setup.PR * norm2 / cross ** 2
        past = reach * (1.0 + RADICAND_RTOL * np.array([0.25, 0.5, 0.9]))
        edge = setup.P - np.array([reach, *past])
        edge = np.concatenate([np.nextafter(edge[0], [-np.inf, np.inf]), edge])
        edge = edge[(edge >= 0.0) & (edge <= setup.P)]
    return grid, edge


@pytest.mark.parametrize("P", PEAK_BUDGETS)
def test_peak_is_sound(P):
    # the coarse stage and the zoom skip a unit whose bound is below an
    # incumbent, so _peak must be at least _signal, of either sign, at
    # every feasible p_i in [lo, hi], and feasible exactly when some p_i
    # there is; random channels with PR/P in {0, 1/100, 1/4, 1, 100}, each
    # also with h12 = h21 = 0 (c = 0) and with h11, h22 and hR1 100 times
    # stronger (subnormal signals err most there), and one with det(H) = 0,
    # at rho1 in {0.01, 0.5, 0.99} and a random one, on 24 intervals whose
    # ends are random powers, 0, P and the edge points, each sampled by a
    # dense linspace and at the grid and edge points it holds
    rng = np.random.default_rng(2900 + PEAK_BUDGETS.index(P))
    for ratio in (0.0, 0.01, 0.25, 1.0, 100.0):
        setup = random_setup(rng, P=P, PR=ratio * P)
        strong = replace(setup, h11=100.0 * setup.h11, h22=100.0 * setup.h22,
                         hR1=tuple(100.0 * x for x in setup.hR1))
        for case in (setup, replace(setup, h12=0.0, h21=0.0), strong,
                     random_setup(rng, P=P, PR=ratio * P, det_zero=True)):
            for user, rho1 in itertools.product(
                    (1, 2), (0.01, 0.5, 0.99, float(rng.uniform()))):
                grid, edge = _peak_points(case, user, rho1)
                ends = np.concatenate([rng.uniform(0.0, P, 8), edge, [0.0, P]])
                lo, hi = np.sort(rng.choice(ends, (2, 24)), axis=0)
                bound, live = _peak(case, user, rho1, lo, hi)
                points = np.concatenate([grid, edge])
                inside = (points >= lo[:, None]) & (points <= hi[:, None])
                dense = np.linspace(lo, hi, 257, axis=1)
                for sign in (-1, 1):
                    sig, ok = _signal(case, user, rho1, sign, dense)
                    assert (np.where(ok, sig, 0.0) <= bound[:, None]).all()
                    feasible = ok.any(axis=1)
                    sig, ok = _signal(case, user, rho1, sign, points)
                    ok = ok & inside
                    assert (np.where(ok, sig, 0.0) <= bound[:, None]).all()
                    assert (live == (feasible | ok.any(axis=1))).all()


def _window_case(seed):
    """_sign_case's channels (both signs, det(H) = 0, h21 = 0, PR/P in
    {0, 1/100, 1/4, 1, 100}) and the 1e160 budget, with 64 random windows:
    centers anywhere in [0, P], a quarter of them at p_i = P."""
    if seed == "huge":
        setup, rng = _huge_budget_case(1e160)[0], np.random.default_rng(77)
    else:
        setup, rng = _sign_case(seed)[0], np.random.default_rng(4000 + seed)
    c1, c2 = rng.uniform(0.0, setup.P, (2, 64))
    c1[:16], c2[8:24] = setup.P, setup.P
    rho1 = rng.uniform(0.0, 1.0, 64)
    return setup, rng, rho1, c1, c2


def _hull_points(rng, lo, hi):
    """Both ends of each hull [lo, hi] and 7 random points between them."""
    t = np.concatenate([[0.0], np.sort(rng.uniform(size=7)), [1.0]])
    points = np.minimum(lo[:, None] + (hi - lo)[:, None] * t, hi[:, None])
    points[:, 0] = lo
    return points


@pytest.mark.parametrize("seed", [*range(20), "huge"])
def test_window_bound_is_sound(seed):
    # the zoom drops a window whose bound cannot beat the best, so
    # _box_bound on the window's _hull must be at least the value of every
    # point of the hull, c +/- h (1 + 1/9) in [0, P], 0 only where no point
    # is feasible, and a hull that the zoom's twin check finds feasible for
    # both users at its least powers must have no infeasible point;
    # half-widths h from 1e-4 P to P, and h = 0 on p2 (a zero-width hull),
    # all 64 windows in each of the four sign blocks
    setup, rng, rho1, c1, c2 = _window_case(seed)
    halves = ((1e-4, 1e-3), (0.05, 0.0), (0.3, 0.2), (1.0, 1.0))
    for n1, n2, (half1, half2) in itertools.product((-1, 1), (-1, 1), halves):
        half1, half2 = half1 * setup.P, half2 * setup.P
        lo1, hi1 = _hull(setup.P, c1, half1)
        lo2, hi2 = _hull(setup.P, c2, half2)
        bound = _box_bound(setup, rho1, lo1, hi1, lo2, hi2)
        whole = (_signal(setup, 1, rho1, 1, lo1)[1]
                 & _signal(setup, 2, rho1, 1, lo2)[1])
        reach1, reach2 = half1 * (1.0 + 1.0 / 9.0), half2 * (1.0 + 1.0 / 9.0)
        p1 = _hull_points(rng, np.maximum(0.0, c1 - reach1),
                          np.minimum(setup.P, c1 + reach1))
        p2 = _hull_points(rng, np.maximum(0.0, c2 - reach2),
                          np.minimum(setup.P, c2 + reach2))
        obj = reference_objective(setup, rho1[:, None, None], n1, n2, p1, p2)
        top = obj.max(axis=(1, 2))
        assert (bound >= top).all()
        assert (top[bound == 0.0] == 0.0).all()
        assert (obj[whole] > 0.0).all()


@pytest.mark.parametrize("P", PEAK_BUDGETS)
def test_zoom_samples_stay_in_hull(P):
    # the zoom drops a window by _box_bound on its _hull, so every sample
    # of that round and the later ones must lie in the hull: from random
    # centers, p = 0 and p = P, each round moves the center to the
    # window's first or last sample (the farthest it can go; both ends,
    # and one chosen at random per window) and shrinks the half-width by
    # _ZOOM_SHRINK; half-widths from 1e-4 P to P
    rng = np.random.default_rng(4200 + PEAK_BUDGETS.index(P))
    c0 = np.concatenate([[0.0, P], rng.uniform(0.0, P, 30)])
    last = len(_window_rows(P, c0, 0.0)) - 1
    for half0 in (1e-4 * P, 0.01 * P, 0.3 * P, P):
        lo, hi = _hull(P, c0, half0)
        for pick in (np.zeros(len(c0), np.intp), np.full(len(c0), last),
                     rng.integers(0, 2, len(c0)) * last):
            c, half = c0, half0
            for _ in range(_ZOOM_ROUNDS):
                rows = _window_rows(P, c, half)
                assert ((rows >= lo) & (rows <= hi)).all()
                c, half = rows[pick, np.arange(len(c0))], half / _ZOOM_SHRINK


def _zoom_case(case):
    """Channels for the zoom checks: the paper example at -10 and 0 dB
    (det(H) = 0), random det(H) = 0 channels whose equal starts have hulls
    not wholly feasible (cases 2 and 9), a PR = 100 P channel whose optimum
    has p1 = p2 = P, a det(H) != 0 channel whose two sign columns of p1 at
    p2 = 0 peak apart, and random channels over the PR/P mix."""
    if case < 2:
        return replace(EX, P=(0.1, 1.0)[case], PR=(0.1, 1.0)[case])
    seed, top, ratio, det_zero = {
        2: (2300, 1.0, 0.01, True), 3: (2100, 2.0, 100.0, False),
        4: (2201, 1.0, 1.0, False), 5: (2105, 1.0, 1.0, False),
        6: (2106, 1.0, 100.0, False), 7: (2107, 1.0, 0.25, False),
        8: (2108, 1.0, 0.01, False), 9: (2302, 1.0, 0.25, True)}[case]
    rng = np.random.default_rng(seed)
    P = float(10.0 ** rng.uniform(-1.0, top))
    return random_setup(rng, P=P, PR=ratio * P, det_zero=det_zero)


@pytest.mark.parametrize("case", range(10))
def test_pruned_zoom_matches_reference(case, monkeypatch):
    # dropping windows that cannot win and det(H) = 0 twins leaves the
    # refined search bit for bit as an unpruned zoom
    setup = _zoom_case(case)
    if case == 3:
        alloc = _search(setup, GridSpec(), refine=True)
        assert alloc.p1 == alloc.p2 == setup.P

    def run():
        return (_search(setup, GridSpec(), refine=True),
                _search(setup, GridSpec(n_p=41, n_rho=9), refine=True))

    pruned = run()
    monkeypatch.setattr(search_module, "_zoom", reference_zoom)
    assert run() == pruned


def _p1_case(case):
    """Channels for best_p1 against the both-sign search: 30 random ones (P
    from 1e-3 to 1e2, PR/P in {0, 1/100, 1/4, 1, 100}, det(H) = 0 in 1 of
    3), _zoom_case(4), whose sign columns peak apart, and three with
    det(H) != 0 and a tie or an edge: a_1 = h11 - h12 (hR1 . hR2)/||hR2||^2
    = 0, so the two signs tie bit for bit; h12 = 0; and PR = 0."""
    if case == "zoom4":
        return _zoom_case(4)
    if isinstance(case, int):
        rng = np.random.default_rng(2500 + case)
        P = float(10.0 ** rng.uniform(-3.0, 2.0))
        ratio = (0.0, 0.01, 0.25, 1.0, 100.0)[case % 5]
        return random_setup(rng, P=P, PR=ratio * P, det_zero=case % 3 == 0)
    setup = _zoom_case(5)
    if case == "a1=0":
        offset = setup.h12 * setup.hR_dot / setup.hR2_norm2
        return replace(setup, h11=offset)  # a_1 = offset - offset = 0
    return replace(setup, **{"h12=0": {"h12": 0.0}, "PR=0": {"PR": 0.0}}[case])


def _p1_value(setup, rho1, p1):
    """The linear-domain scheme sum rate at (p1, p2 = 0), n2 = +1, the
    better of both signs n1."""
    return max(reference_objective(setup, rho1, n1, 1, np.array([p1]),
                                   np.zeros(1))[0, 0] for n1 in (-1, 1))


@pytest.mark.parametrize("case", [*range(30), "zoom4", "a1=0", "h12=0",
                                  "PR=0"])
def test_search_p1_matches_both_sign_search(case):
    # best_p1, exact, against zooming both signs' columns of n_p points
    # and keeping the better (reference_search_p1): NaN exactly where the
    # search finds no feasible p1, elsewhere a rate at least the search's
    # up to rounding and a p1 within the zoom's last spacing,
    # P / (1000 (n_p - 1)), of the search's: 1e-5 P down to 5e-7 P
    setup = _p1_case(case)
    assert setup.hR_det != 0.0 or case in range(0, 30, 3)
    if case == "zoom4":
        pv = np.linspace(0.0, setup.P, 101)
        column = reference_objective(setup, 0.5, _SIGNS[:, None, None], 1,
                                     pv, np.zeros(1))
        assert column[0].argmax() != column[1].argmax()
    for rho1, n_p in itertools.product((0.2, 0.5, 0.8), (101, 401, 2001)):
        exact, searched = best_p1(setup, rho1), reference_search_p1(
            setup, rho1, n_p)
        assert math.isnan(exact) == (searched is None)
        if searched is not None:
            p1 = exact * setup.P
            assert (_p1_value(setup, rho1, p1)
                    >= _p1_value(setup, rho1, searched) * (1.0 - 2.0 ** -48))
            assert abs(p1 - searched) <= setup.P / (1000.0 * (n_p - 1))


@pytest.mark.parametrize("setup", [
    replace(EX, g1R=(0.0, 0.0), PR=0.25 * EX.P),  # ||g1R||^2 = 0
    replace(EX, h11=0.25, PR=0.25 * EX.P),  # a_1 = 0 and det(H) = 0: g = 0
], ids=["G=0", "g=0"])
def test_best_p1_takes_the_least_p1_where_every_p1_ties(setup):
    # user 1's rate is 0 at every feasible p1, which starts where the
    # radicand does, at p1 / P = 1 - K / c = 0.9 (K = rho1 (PR / P)
    # ||hR2||^2 = 0.025 at rho1 = 0.02, c = h12^2 = 0.25): the kernel finds
    # it feasible and 1e-9 P below it not, and the search's first argmax
    # is the grid point there
    rho1 = 0.02
    least = best_p1(setup, rho1)
    assert least == pytest.approx(0.9, rel=1e-15)
    for p1, feasible in ((least, True), (least - 1e-9, False)):
        remaining = setup.P * (1.0 - p1)
        assert zf_radicand(setup, 1, rho1, remaining)[1] == feasible
    assert reference_search_p1(setup, rho1, 101) == pytest.approx(
        least * setup.P, rel=1e-15)


@pytest.mark.parametrize("setup, rho1", [
    (EX, 0.99),  # user 2's relay share misses h21^2 at p2 = 0
    (replace(EX, P=0.0, PR=0.0), 0.5),
], ids=["user2-infeasible", "P=0"])
def test_best_p1_without_a_feasible_p1(setup, rho1):
    assert math.isnan(best_p1(setup, rho1))
    assert setup.P == 0.0 or reference_search_p1(setup, rho1, 101) is None


def test_best_p1_crossing_without_cancellation():
    # det(H) = 0, so b_1 = 0 and the crossing of ||g1R||^2 (1 - u) with
    # a_1^2 u is u = G / (G + a_1^2): p1 / P = a_1^2 / (G + a_1^2) =
    # 0.5625 / 2.3625 = 5/21 here. Its discriminant B^2 - 4AC is exactly 0,
    # so sqrt(B^2 - 4AC) kept only the rounding of B^2 and 4AC and gave
    # 0.2380952488, 4.5e-8 off
    setup = replace(EX, h11=1.0)
    assert best_p1(setup, 0.5) == pytest.approx(5.0 / 21.0, rel=1e-15)


@pytest.mark.parametrize("P", [0.1, 1.0])
def test_zoom_skips_most_window_rounds(P, monkeypatch):
    # a count, not a timing: on the paper example at -10 dB and 0 dB the
    # window bounds and the det(H) = 0 rule leave at most 10% of the
    # window-rounds an unpruned zoom runs (24 and 9 of 297)
    counts = []

    def both(*args):
        result = _zoom(*args)
        counts.append((result[3], reference_zoom(*args)[3]))
        return result

    monkeypatch.setattr(search_module, "_zoom", both)
    _search(replace(EX, P=P, PR=P), GridSpec(), refine=True)
    (runs, unpruned), = counts
    assert runs <= 0.1 * unpruned


@pytest.mark.parametrize("P", [0.1, 1.0])
def test_zoom_bounds_its_windows_once(P, monkeypatch):
    # the round-0 hull holds a window's cells of every round, so the zoom
    # bounds its windows in one _box_bound call before the first round and
    # none inside the loop; on the paper example at -10 dB and 0 dB more
    # than two windows pass that bound, so a zoom that bounded every round
    # of more than two windows would call it twice
    calls, counts = [], []

    def bound(*args):
        calls.append(args)
        return _box_bound(*args)

    def zoom(*args):
        before = len(calls)
        result = _zoom(*args)
        counts.append(len(calls) - before)
        return result

    monkeypatch.setattr(search_module, "_box_bound", bound)
    monkeypatch.setattr(search_module, "_zoom", zoom)
    _search(replace(EX, P=P, PR=P), GridSpec(), refine=True)
    assert counts == [1]


# Sizing sample: 60 channels (seeds 7000-7059) gave a largest continuous
# gain of 2.0e-4; the test runs the first 20 to keep the suite short.
@pytest.mark.parametrize("seed", range(7000, 7020))
def test_refined_search_near_continuous_optimum(seed):
    # a continuous optimizer started at the refined grid optimum, over
    # (p1, p2) in [0, P]^2 at its rho1 and per sign pair, must not beat it
    # by more than a relative 2e-3
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    P = float(10.0 ** rng.uniform(-3.0, 1.0))
    setup = random_setup(rng, P=P, PR=(1.0, 100.0, 0.25)[seed % 3] * P,
                         det_zero=seed % 5 == 0)
    alloc = _search(setup, GridSpec(), refine=True)
    found = scheme_rate_point(setup, alloc).sum_rate
    start = np.array([alloc.p1, alloc.p2]) / P  # optimize over p / P
    step = np.where(start > 0.5, -0.05, 0.05)
    simplex = [start, start + [step[0], 0.0], start + [0.0, step[1]]]
    best = found
    for n1 in (-1, 1):
        for n2 in (-1, 1):
            def loss(u, n1=n1, n2=n2):
                p1, p2 = np.clip(u, 0.0, 1.0) * P
                try:
                    return -scheme_rate_point(setup, PowerAllocation(
                        p1, p2, alloc.rho1, n1, n2)).sum_rate
                except ImrcError:
                    return 0.0  # zero forcing fails: no rate
            res = optimize.minimize(loss, start, method="Nelder-Mead",
                                    options=dict(initial_simplex=simplex,
                                                 xatol=1e-10, fatol=1e-14,
                                                 maxiter=600))
            best = max(best, -res.fun)
    assert best - found <= 2e-3 * found


def test_grid_search_zero_budget():
    setup = replace(EX, P=0.0)
    result = grid_search_sum_rate(setup, GridSpec(n_p=2, n_rho=3))
    assert result.sum_rate == 0.0
    alloc = result.allocation
    # everything ties at zero; smallest lexicographic key wins
    assert (alloc.rho1, alloc.p1, alloc.p2, alloc.n1, alloc.n2) == \
        (0.25, 0.0, 0.0, -1, -1)


def test_grid_search_no_feasible_point():
    # p_i = P is always on the grid and always feasible, so only a zero
    # relay column, which leaves a user no beam, admits no grid point
    setup = replace(EX, hR2=(0.0, 0.0))
    with pytest.raises(NoFeasiblePoint):
        grid_search_sum_rate(setup, GridSpec(n_p=5, n_rho=3))


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
    spec = GridSpec(n_p=5, n_rho=4)
    assert spec.p_values(1.0).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert spec.rho_values().tolist() == [0.2, 0.4, 0.6, 0.8]


def test_bisect_synthetic_crossing():
    root = bisect_intersection((lambda p: p, lambda p: 0.1 - p), (0.0, 0.1))
    assert root == pytest.approx(0.05, abs=1e-12)


def test_bisect_returns_coinciding_endpoint():
    root = bisect_intersection((lambda p: 0.0, lambda p: p * p), (0.0, 1.0))
    assert root == 0.0


def test_bisect_returns_coinciding_upper_endpoint():
    root = bisect_intersection((lambda p: p, lambda p: 1.0), (0.0, 1.0))
    assert root == 1.0


@pytest.mark.parametrize("interval", [(1.0, 1.0), (1.0, 0.0)])
def test_bisect_requires_ascending_interval(interval):
    with pytest.raises(ValueError, match="lo < hi"):
        bisect_intersection((lambda p: p, lambda p: 0.5), interval)


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


@pytest.mark.parametrize("column", ["hR1", "hR2"])
def test_search_p1_on_zero_relay_column(column):
    # a zero hRj leaves user i no zero-forcing beam, so no p1 is feasible:
    # best_p1 is NaN, and the both-sign search finds nothing
    setup = replace(EX, **{column: (0.0, 0.0)})
    assert math.isnan(best_p1(setup, 0.5))
    assert reference_search_p1(setup, 0.5, 101) is None


def test_sweep_on_zero_relay_column():
    # hR2 = 0 leaves user 1 no zero-forcing beam: the strategies' cells are
    # NaN (written empty) rather than an error, and since no grid cell
    # serves both users the row itself is refused with NoFeasiblePoint
    setup = replace(EX, hR2=(0.0, 0.0))
    assert math.isnan(_fixed_split_rate(setup, 0.5 * setup.P))
    closed = sum_rate_allocation(setup, GridSpec(n_rho=9).rho_values())
    assert closed.p1 == 0.0 and closed.p2 > 0.0  # user 2 alone is served
    assert math.isnan(_sum_rate_or_nan(setup, closed))
    with pytest.raises(NoFeasiblePoint):
        sweep_P(setup, [0.1], SweepPolicy(grid=GridSpec(n_p=11, n_rho=3)))


# at p = sqrt(P) with rho1 = 1/2 the MAC sum cap truncates, and rescaling
# the rates leaves (+1, -1) 1 ulp above branch_sign's pair (-1, -1)
ULP_ABOVE_BRANCH_SIGN = ChannelSetup(
    h11=1.3396318452274005, h12=0.7367650244655668, h21=-1.411306000466496,
    h22=0.9376370786307795, g1R=(0.7865662358045253, 0.440854456288456),
    g2R=(-0.9941594200342581, -1.2642519732203983),
    hR1=(-0.5410682670988747, -1.1361644079247775),
    hR2=(0.6140745651519917, 1.447913058845769), P=21.34568665933849,
    PR=2134.568665933849)


def test_fixed_split_rate_takes_best_of_four_sign_pairs():
    setup = ULP_ABOVE_BRANCH_SIGN
    p = math.sqrt(setup.P)
    assert (branch_sign(setup, 1), branch_sign(setup, 2)) == (-1, -1)
    points = {signs: scheme_rate_point(setup, PowerAllocation(
        p1=p, p2=p, rho1=0.5, n1=signs[0], n2=signs[1]))
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))}
    assert points[-1, -1].truncated and points[1, -1].truncated
    assert points[-1, -1].sum_rate == 4.542828007521951
    assert points[1, -1].sum_rate == 4.542828007521952
    assert _fixed_split_rate(setup, p) == 4.542828007521952


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