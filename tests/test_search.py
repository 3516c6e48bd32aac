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

import imrc.search as search_module
from imrc.model import branch_sign
from imrc.search import (_BLOCK, _GROUP, _SIGNS, _bound, _cells, _coarse,
                         _coarser, _exponent, _fixed_split_rate, _objective,
                         _search, _signal, _sum_rate_or_nan, _window_bound,
                         _zoom, search_p1)

from helpers import linearizable_setup, random_setup, reference_zoom

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


def _brute_force_case(seed, det_zero, relay_ratio):
    setup = random_setup(np.random.default_rng(seed), P=0.5,
                         PR=0.5 * relay_ratio, det_zero=det_zero)
    return setup, GridSpec(n_p=7, n_rho=3)


def _huge_budget_case(P):
    setup = ChannelSetup(h11=1.0, h12=0.0, h21=0.0, h22=1.0,
                         g1R=(1.0, 0.3), g2R=(0.2, 1.1), hR1=(1.0, 0.2),
                         hR2=(0.3, 1.0), P=P, PR=P)
    return setup, GridSpec(n_p=41, n_rho=9)


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
    # the grid objective and scheme_rate_point evaluate the same per-user
    # kernel, one over arrays in the linear domain and one on scalars in
    # bits; every cell of a small grid must agree once the linear value is
    # taken back to bits, 0 exactly where zero forcing refuses the allocation
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
    """_objective over every (rho1, n1, n2) block: (rho1, 2, 2, p1, p2)."""
    signs = np.array([-1, 1])
    return _objective(setup, rhos[:, None, None, None, None],
                      signs[:, None, None, None], signs[:, None, None], pv, pv)


@pytest.mark.parametrize("seed", range(20))
def test_feasible_cells_form_a_rectangle(seed):
    # each user's zero-forcing feasibility must not depend on the sign and
    # must never fall as p_i grows, so the feasible cells of a rho1 form the
    # rectangle p1 >= k1, p2 >= k2, and the pruned coarse stage must find
    # what a full evaluation of all four sign blocks finds
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
    assert (arg[value > 0.0] == flat.argmax(axis=-1)[value > 0.0]).all()
    assert (value == flat.max(axis=-1)).all()


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
    best = _objective(setup, rhos[:, None, None], branch_sign(setup, 1),
                      branch_sign(setup, 2), pv, pv)
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


def _level_bounds(setup, pv, rhos, n1, n2):
    """The dense bounds of the block level and then the group level, each
    shaped (rho1, unit row, unit column) with its number of units a side,
    on pv padded as the unrefined coarse stage pads it."""
    level = _cells(setup, rhos, pv, n1, n2, _GROUP * _BLOCK)
    for size in (_BLOCK, _GROUP):
        level = _coarser(level, size)
        unit = np.arange(len(level[4]))
        bound = _bound(setup, level, np.arange(len(rhos))[:, None, None],
                       unit[:, None], unit[None])
        yield bound, len(level[4])


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
    cells[:, :len(pv), :len(pv)] = _objective(setup, rhos[:, None, None], n1,
                                              n2, pv, pv)
    for bound, units in _level_bounds(setup, pv, rhos, n1, n2):
        width = side // units
        top = cells.reshape(len(rhos), units, width, units, width).max(
            axis=(2, 4))
        assert bound.shape == top.shape
        assert (bound >= top).all()
        assert ((bound == 0.0) == (top == 0.0)).all()


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
    # at workload size, the pruned coarse stage gives every rho1 the value
    # and the first row-major argmax of its full grid
    setup = _workload_channel(seed)
    grid = GridSpec(n_p=n_p, n_rho=99)
    pv, rhos = grid.p_values(setup.P), grid.rho_values()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    value, arg, _ = _coarse(setup, rhos, pv, n1, n2)
    for k, rho1 in enumerate(rhos):
        full = _objective(setup, rho1, n1, n2, pv, pv).ravel()
        assert value[k] == full.max()
        assert value[k] == 0.0 or arg[k] == full.argmax()
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
    # boundaries; the first row, p1 = 0, must win, for every rho1 or, when
    # pruned against one overall incumbent, for the first argmax over
    # (rho1, cell)
    rng = np.random.default_rng(1800 + seed)
    P = float(10.0 ** rng.uniform(-2.0, 1.0))
    setup = replace(random_setup(rng, P=P, PR=(1.0, 100.0)[seed % 2] * P),
                    g1R=(0.0, 0.0), h12=0.0)
    grid = GridSpec(n_p=101 if seed < 2 else 100, n_rho=9)
    pv, rhos = grid.p_values(P), grid.rho_values()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    value, arg, _ = _coarse(setup, rhos, pv, n1, n2, overall)
    assert (value > 0.0).any()
    full = _objective(setup, rhos[:, None, None], n1, n2, pv, pv)
    assert (full == full[:, :1]).all()
    full = full.reshape(len(rhos), -1)
    if overall:
        k = value.argmax()
        assert (k, arg[k]) == np.unravel_index(full.argmax(), full.shape)
        assert arg[k] < len(pv)
        return
    for k in range(len(rhos)):
        assert value[k] == full[k].max()
        assert value[k] == 0.0 or arg[k] == full[k].argmax() < len(pv)


def _expected_evaluated(setup, pv, rhos, overall):
    """What _coarse counts, from the dense bounds: per rho1, the blocks
    whose bound reaches the incumbent, the best cell of the top-bound
    block of the rho1's top-bound group (of one block unless overall) or,
    when overall, the largest such value over all rho1."""
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    (blocks, nb), (groups, ng) = _level_bounds(setup, pv, rhos, n1, n2)
    size = _GROUP if overall else 1
    first = np.zeros(len(rhos))
    for k, rho1 in enumerate(rhos):
        if not blocks[k].any():
            continue
        if overall:
            gr, gc = np.multiply(divmod(groups[k].argmax(), ng), size)
        else:
            gr, gc = divmod(blocks[k].argmax(), nb)
        square = blocks[k, gr:gr + size, gc:gc + size]
        br, bc = np.add(divmod(square.argmax(), size), (gr, gc)) * _BLOCK
        cells = np.zeros((nb * _BLOCK,) * 2)
        cells[:len(pv), :len(pv)] = _objective(setup, rho1, n1, n2, pv, pv)
        first[k] = cells[br:br + _BLOCK, bc:bc + _BLOCK].max()
    incumbent = np.full(len(rhos), first.max()) if overall else first
    reach = np.where(incumbent > 0.0, incumbent, np.inf)
    return (blocks >= reach[:, None, None]).sum(axis=(1, 2))


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
])
def test_coarse_counts_blocks_reaching_the_incumbent(case, overall):
    # evaluated counts each block once when its bound reaches the
    # incumbent, the first-pass block included only then
    setup, grid = case()
    pv, rhos = grid.p_values(setup.P), grid.rho_values()
    _, _, evaluated = _coarse(setup, rhos, pv, branch_sign(setup, 1),
                              branch_sign(setup, 2), overall)
    assert (evaluated == _expected_evaluated(setup, pv, rhos, overall)).all()


@pytest.mark.parametrize("P", [0.1, 1.0])
def test_coarse_prunes_most_blocks(P):
    # a count, not a timing: on the paper example at -10 dB and 0 dB the
    # bounds rule out at least 80% of the blocks that hold a feasible cell
    # (465 and 208 of 14,989 are evaluated)
    setup = replace(EX, P=P, PR=P)
    pv, rhos = GridSpec().p_values(P), GridSpec().rho_values()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    live = (next(_level_bounds(setup, pv, rhos, n1, n2))[0] > 0.0).sum()
    _, _, evaluated = _coarse(setup, rhos, pv, n1, n2)
    assert evaluated.sum() <= 0.2 * live


@pytest.mark.parametrize("P", [0.1, 1.0])
def test_overall_incumbent_evaluates_fewer_blocks(P):
    # a count, not a timing: pruning against the best first-pass value
    # over all rho1 skips at least what each rho1's own value skips
    # (-10 dB: 465 per split, 406 overall; 0 dB: 208 and 158)
    setup = replace(EX, P=P, PR=P)
    pv, rhos = GridSpec().p_values(P), GridSpec().rho_values()
    n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    per_split = _coarse(setup, rhos, pv, n1, n2)[2].sum()
    overall = _coarse(setup, rhos, pv, n1, n2, overall=True)[2].sum()
    assert overall <= per_split


def _first_argmax(setup, grid):
    """(rho1, p1, p2, n1, n2) of the first maximum of _objective over the
    full grid and all four sign pairs, in that key order."""
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


def test_overall_incumbent_without_feasible_cell():
    # PR = 0 leaves no zero forcing below p_i = P: the first pass finds no
    # incumbent, the reach is inf rather than 0, and no block is evaluated
    setup = replace(EX, PR=0.0)
    grid = _BelowBudget(n_p=41, n_rho=9)
    assert _search(setup, grid, refine=False) is None
    value, _, evaluated = _coarse(setup, grid.rho_values(),
                                  grid.p_values(setup.P), 1, 1, overall=True)
    assert not value.any() and not evaluated.any()


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
    n1, n2 = rng.choice([-1, 1], (2, 64))
    return setup, rng, rho1, n1, n2, c1, c2


def _hull_points(rng, lo, hi):
    """Both ends of each hull [lo, hi] and 7 random points between them."""
    t = np.concatenate([[0.0], np.sort(rng.uniform(size=7)), [1.0]])
    points = np.minimum(lo[:, None] + (hi - lo)[:, None] * t, hi[:, None])
    points[:, 0] = lo
    return points


@pytest.mark.parametrize("seed", [*range(20), "huge"])
def test_window_bound_is_sound(seed):
    # the zoom drops a window whose bound cannot beat the best, so the
    # bound must be at least _objective at every point of the window's
    # hull, c +/- h (1 + 1/9) in [0, P], 0 only where no point is feasible,
    # and a hull reported wholly feasible must have no infeasible point;
    # half-widths h from 1e-4 P to P, and h = 0 pinning p2 as in search_p1
    setup, rng, rho1, n1, n2, c1, c2 = _window_case(seed)
    for half1, half2 in ((1e-4, 1e-3), (0.05, 0.0), (0.3, 0.2), (1.0, 1.0)):
        half1, half2 = half1 * setup.P, half2 * setup.P
        bound, whole = _window_bound(setup, rho1, n1, n2, c1, c2, half1,
                                     half2)
        reach1, reach2 = half1 * (1.0 + 1.0 / 9.0), half2 * (1.0 + 1.0 / 9.0)
        p1 = _hull_points(rng, np.maximum(0.0, c1 - reach1),
                          np.minimum(setup.P, c1 + reach1))
        p2 = _hull_points(rng, np.maximum(0.0, c2 - reach2),
                          np.minimum(setup.P, c2 + reach2))
        obj = _objective(setup, rho1[:, None, None], n1[:, None, None],
                         n2[:, None, None], p1, p2)
        top = obj.max(axis=(1, 2))
        assert (bound >= top).all()
        assert (top[bound == 0.0] == 0.0).all()
        assert (obj[whole] > 0.0).all()


def _zoom_case(case):
    """Channels for the zoom checks: the paper example at -10 and 0 dB
    (det(H) = 0), random det(H) = 0 channels whose equal starts have hulls
    not wholly feasible (cases 2 and 9), a PR = 100 P channel whose optimum
    has p1 = p2 = P, a det(H) != 0 channel whose two search_p1 sign windows
    start apart, and random channels over the PR/P mix."""
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
    # refined search and search_p1 bit for bit as an unpruned zoom
    setup = _zoom_case(case)
    if case == 3:
        alloc = _search(setup, GridSpec(), refine=True)
        assert alloc.p1 == alloc.p2 == setup.P
    if case == 4:
        pv = np.linspace(0.0, setup.P, 101)
        column = _objective(setup, 0.5, _SIGNS[:, None, None], 1, pv,
                            np.zeros(1))
        assert column[0].argmax() != column[1].argmax()

    def run():
        return (_search(setup, GridSpec(), refine=True),
                _search(setup, GridSpec(n_p=41, n_rho=9), refine=True),
                [search_p1(setup, rho1, 101) for rho1 in (0.2, 0.5, 0.8)])

    pruned = run()
    monkeypatch.setattr(search_module, "_zoom", reference_zoom)
    assert run() == pruned


@pytest.mark.parametrize("P", [0.1, 1.0])
def test_zoom_skips_most_window_rounds(P, monkeypatch):
    # a count, not a timing: on the paper example at -10 dB and 0 dB the
    # window bounds and the det(H) = 0 rule leave at most 10% of the
    # window-rounds an unpruned zoom runs (11 and 5 of 297)
    counts = []

    def both(*args):
        result = _zoom(*args)
        counts.append((result[3], reference_zoom(*args)[3]))
        return result

    monkeypatch.setattr(search_module, "_zoom", both)
    _search(replace(EX, P=P, PR=P), GridSpec(), refine=True)
    (runs, unpruned), = counts
    assert runs <= 0.1 * unpruned


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
    # a zero hRj leaves user i no zero-forcing beam, so no p1 is feasible
    assert search_p1(replace(EX, **{column: (0.0, 0.0)}), 0.5, 101) is None


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