"""Brute-force and root-finding oracles.

The grid search trusts no closed-form shortcut: it finds the best exact
scheme sum rate over every (p1, p2, rho1, n1, n2) combination of the grid,
and bisection finds curve intersections by sign changes alone. These are
the references the analytical results are checked against.

One sign block per rho1 suffices: model.branch_sign gives each user the
n_i with the larger |f_ii| at every cell, bit for bit, and A_i and
min(A1 A2, M) below never fall as |f_ii| grows, so that block is the
cellwise maximum of the four. The signs are resolved at the chosen cell
alone, over all four pairs, so exact ties still go to the smallest (n1, n2).

One broadcast objective serves every search. It evaluates model's per-user
kernel -- the radicand with its feasibility tolerance, f_ii and the
boundary power, the same functions scheme_rate_point calls on scalars --
over whole arrays of rho1 (and sign) blocks, never materializing beam
vectors. It compares cells in the linear domain: user i's term is
A_i = 1 + min(||g_iR||^2 p_i, SINR_i), or 0 where zero forcing fails, and
a cell's value is min(A1 A2, M) with M the MAC sum cap's argument
alpha p1 p2 + ||g1R||^2 p1 + ||g2R||^2 p2 + 1 (rates.mac_sum_argument).
_value is that formula, for every cell and every bound below alike.
log2 is monotone, so min(log2 a, log2 b) = log2 min(a, b) and the order
of cells is the order of their sum rates; no cell takes a log2, and the
bits come from scheme_rate_point on the chosen allocation alone. Every
feasible value is positive and every infeasible one is 0, so an
infeasible cell never wins. A1 and M are scaled by the power of two 2^-e
with 2^e > 1 + ||g1R||^2 P, which keeps A1 A2 finite at budgets where it
would overflow; a power of two does not round, so no comparison changes.

The coarse stage computes the MAC sum cap once per grid and each user's
signal power and feasibility once per grid and rho1, and bounds each 8 x 8
block of cells with the cells' own operations at the block's largest
signal and own power and the other user's least power. A_i never falls as
its signal or p_i grows, never rises as p_j grows, M never falls as a
power grows (alpha >= 0), and IEEE + - * / and min round monotonically,
so the bound is at least every cell's rounded value; it is 0 for a block
without a feasible cell. A group of G x G blocks is bounded the same way
from its blocks' largest signals and powers and least powers, so its
bound is at least each of its blocks' bounds. Each user's per-block and
per-group signal maximum and feasibility come from strided pairwise steps
over the (rho1, p) tables, padded to whole groups with infeasible cells.
All groups are bounded first. The best cell of the top-bound block of
each rho1's top-bound group sets an incumbent; then, in the groups whose
bound reaches the incumbent, every block whose bound reaches it is
evaluated and counted, the first-pass block again when it does. A cell
is a unit of the finest level, whose least and largest power are both
its p, so its bound is its own value, bit for bit: cells are evaluated
by the same bound as blocks and groups. There are two incumbents:
- unrefined (grid_search_sum_rate, SweepPolicy(refine=False)), G = 4.
  Only the first argmax over all rho1 is read, so the incumbent is the
  largest first-pass value over all rho1 (inf when none is feasible), a
  cell's value and so at most the maximum. A block that holds the
  maximum, and its group, have bounds of at least the maximum, so that
  block is evaluated; other rows may keep less than their best, or
  nothing, and np.argmax over rows still takes the least rho1;
- refined, G = 1, so a group is a block. Each rho1's best cell starts a
  zoom, so each rho1 keeps its own first-pass value as its incumbent and
  finds its own best. That value must come from its own top-bound block:
  the top block of a larger group is a weaker incumbent, and more blocks
  pass it (G = 4 evaluates 1.5 times as many on the sweep benchmark).
Either way a skipped block cannot hold a maximum that is read, and a tie
is still evaluated: each block keeps its first row-major maximum, and one
reduction per rho1 then takes the best value and the least cell index
reaching it. Units are evaluated on the innermost axis of a (side, side,
unit) array, so each ufunc loop runs over many units rather than 8 cells.

The zoom stage advances the windows of all rho1 together, one evaluation
per round, each window sampled by np.linspace. A window's cells from a
round of half-width h on lie in its hull, within h + h/10 + ... <
h (1 + 1/9) of its center. f_ii is monotone in p_i, so the kernel at the
hull's ends bounds every cell's signal (+inf where the hull reaches P)
and gives a bound U as for a block. Before a round of more than two
windows, a window is dropped when U < max(best), as it cannot win the
argmax, or U <= its own best, as only a strictly better cell replaces
that. det(H) = 0 is stored exactly, so f_ii then has no rho1 or sign
term: windows with one start and a hull feasible for both users tie
throughout, and only the first, which the argmax keeps on a tie, is
zoomed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateRelayChannel, InfeasibleRadicand,
                     NoFeasiblePoint, NoFeasibleRho, NoSignChange)
from .lowpower import sum_rate_allocation
from .model import (ChannelSetup, PowerAllocation, boundary_signal,
                    branch_sign, own_signal, validate, zf_radicand)
from .rates import mac_sum_argument, scheme_rate_point

__all__ = [
    "GridSpec",
    "SearchResult",
    "SweepPolicy",
    "SweepRow",
    "SweepTable",
    "grid_search_sum_rate",
    "bisect_intersection",
    "search_p1",
    "sweep_P",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform search grid: n_p points per power axis on [0, P], both ends
    included, and n_rho interior points k/(n_rho + 1) on (0, 1)."""

    n_p: int = 101
    n_rho: int = 99

    def __post_init__(self):
        if self.n_p < 2:
            raise ValueError(f"n_p must be >= 2, got {self.n_p}")
        if self.n_rho < 1:
            raise ValueError(f"n_rho must be >= 1, got {self.n_rho}")

    def p_values(self, P: float) -> np.ndarray:
        return np.linspace(0.0, float(P), self.n_p)

    def rho_values(self) -> np.ndarray:
        return np.arange(1, self.n_rho + 1, dtype=float) / (self.n_rho + 1.0)


@dataclass(frozen=True)
class SearchResult:
    allocation: PowerAllocation
    sum_rate: float


@dataclass(frozen=True)
class SweepPolicy:
    """How each sweep row is computed: the coarse grid, whether each rho1's
    best cell (of its dominant sign block) is sharpened by a nested zoom,
    and the relay budget rule (None means PR = P row by row)."""

    grid: GridSpec = GridSpec()
    refine: bool = True
    PR: float | None = None


@dataclass(frozen=True)
class SweepRow:
    """One budget point: the searched optimum, the closed-form low-power
    allocation, and the exact scheme sum rates of all strategies. The
    sqrt split is only defined for P >= 1 (None otherwise). A strategy's
    rate is NaN where its split leaves a user without zero forcing, and
    phat too where no relay split admits the closed form."""

    P: float
    best_alloc: PowerAllocation
    phat1: float
    phat2: float
    R_sum_exact: float
    R_sum_closed: float
    R_sum_half: float
    R_sum_sqrt: float | None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        budgets = [row.P for row in self.rows]
        if any(b <= a for a, b in zip(budgets, budgets[1:])):
            raise ValueError("sweep rows must be strictly increasing in P")


_SIGNS = np.array([-1, 1])  # branch signs in key order: -1 sorts first

# Zoom refinement: each round re-grids a window of +/- half around the
# current best with _ZOOM_POINTS samples per axis. A round evaluates all
# its windows at once: at most one per rho1, so 99 x 21 x 21 = 43,659
# cells on the default grid.
_ZOOM_ROUNDS = 3
_ZOOM_POINTS = 21
_ZOOM_SHRINK = (_ZOOM_POINTS - 1) // 2  # a window's half-width over spacing

# The coarse grid is bounded in _BLOCK x _BLOCK blocks of cells, in the
# unrefined search first in _GROUP x _GROUP groups of blocks, and its
# surviving blocks are evaluated _COARSE_CHUNK at a time (8,192 cells):
# evaluating them all at once took perfbench's sweep peak RSS from 39.1 to
# 48.7-49.0 MB.
_BLOCK = 8
_GROUP = 4
_COARSE_CHUNK = 128


def _signal(setup: ChannelSetup, user: int, rho1, sign, p
            ) -> tuple[np.ndarray, np.ndarray]:
    """User i's received power and zero-forcing feasibility, broadcast over
    rho1, the branch sign and p_i: model's per-user kernel, as in
    scheme_rate_point, with the boundary value (always feasible) at p_i = P.
    Raises DegenerateRelayChannel where hRj = 0, as zf_radicand does.
    The radicand's array becomes the root, and the results are built in
    place, so a (rho1, p) table costs a few arrays of its size."""
    rho_i = rho1 if user == 1 else 1.0 - rho1
    boundary = p >= setup.P
    remaining = np.where(boundary, 1.0, setup.P - p)
    rad, feasible = zf_radicand(setup, user, rho_i, remaining)
    root = np.asarray(rad)  # a new array (numpy gives 0-d results as scalars)
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    sig = np.asarray(own_signal(setup, user, sign, root, remaining))
    np.copyto(sig, boundary_signal(setup, user, rho_i), where=boundary)
    feasible |= boundary
    return sig, feasible


def _exponent(setup: ChannelSetup) -> int:
    """e with 2^e > 1 + ||g1R||^2 P, so 2^e bounds user 1's term A1."""
    return math.frexp(1.0 + setup.g1R_norm2 * setup.P)[1]


def _scale(setup: ChannelSetup) -> float:
    """2^-e: scaling A1 by it keeps A1 A2 below A2, and does not round."""
    return math.ldexp(1.0, -_exponent(setup))


def _capped_term(setup: ChannelSetup, user: int, sig, p_own,
                 p_other) -> np.ndarray:
    """1 + min(||g_iR||^2 p_i, SINR_i), the linear form of
    min(R_i^mac, R_i^ic), for user i given its _signal power over p_own.
    It ignores feasibility; _value zeroes infeasible cells.
    The arguments broadcast, so the result's axes are the caller's."""
    if user == 1:
        gain2, cross2 = setup.g1R_norm2, setup.h21 ** 2
    else:
        gain2, cross2 = setup.g2R_norm2, setup.h12 ** 2
    term = sig / (1.0 + cross2 * p_other)
    np.minimum(term, gain2 * p_own, out=term)
    term += 1.0
    return term


def _value(setup: ChannelSetup, sig1, sig2, hi1, hi2, lo1, lo2,
           ok) -> np.ndarray:
    """min(A1 A2, M) scaled by _scale(setup), 0 where ok is false, with A_i
    user i's _capped_term at signal sig_i, own power hi_i and the other
    user's power lo_j, and M mac_sum_argument at (hi1, hi2). A cell passes
    hi = lo = p; a block or window bound passes each user's largest signal
    and power as hi and least power as lo. The arguments broadcast, sig1
    and sig2 possibly to different shapes, so A1 A2 is a new array."""
    scale = _scale(setup)  # a power of two: exact
    total = (scale * _capped_term(setup, 1, sig1, hi1, lo2)
             * _capped_term(setup, 2, sig2, hi2, lo1))
    np.minimum(total, mac_sum_argument(setup, hi1, hi2, scale), out=total)
    np.copyto(total, 0.0, where=~ok)
    return total


def _objective(setup: ChannelSetup, rho1, n1, n2, p1: np.ndarray,
               p2: np.ndarray) -> np.ndarray:
    """Linear-domain scheme sum rate on the outer grid p1 (rows) x p2
    (columns): _value at each cell, 0 where zero forcing fails for either
    user. Leading axes of p1 and p2 broadcast against rho1, n1 and n2, one
    block per index. log2 of a value plus _exponent(setup) agrees with
    scheme_rate_point up to rounding: sum-cap truncation preserves the
    sum, so the rate is simply min(R1 + R2, Rsum_mac)."""
    rows, cols = p1[..., :, None], p2[..., None, :]
    sig1, ok1 = _signal(setup, 1, rho1, n1, rows)
    sig2, ok2 = _signal(setup, 2, rho1, n2, cols)
    return _value(setup, sig1, sig2, rows, cols, rows, cols, ok1 & ok2)


def _cells(setup: ChannelSetup, rhos: np.ndarray, pv: np.ndarray, n1: int,
           n2: int, size: int) -> tuple:
    """The finest level, one unit per cell: each user's _signal and
    feasibility over (rho1, padded p), and the padded p as both the least
    and the largest power, so that _bound on a cell is _value at the cell,
    its value bit for bit. pv (ascending) is padded with its last value to
    a whole number of runs of size cells, infeasible past pv."""
    pp = np.concatenate([pv, np.full(-len(pv) % size, pv[-1])])
    sig1, ok1 = _signal(setup, 1, rhos[:, None], n1, pp)
    sig2, ok2 = _signal(setup, 2, rhos[:, None], n2, pp)
    ok1[:, len(pv):] = ok2[:, len(pv):] = False
    return sig1, sig2, ok1, ok2, pp, pp


def _coarser(level: tuple, size: int) -> tuple:
    """The level whose units are runs of size (a power of two) units of
    level along p: each user's largest signal and whether any cell is
    feasible, shaped (rho1, unit), and each unit's least and largest power.
    log2(size) strided pairwise steps: numpy reduces a short axis slowly.
    An infeasible cell's signal is finite, so counting it only loosens."""
    s1, s2, live1, live2, lo, hi = level
    for _ in range(size.bit_length() - 1):
        s1, s2 = (np.maximum(x[:, 0::2], x[:, 1::2]) for x in (s1, s2))
        live1, live2 = (x[:, 0::2] | x[:, 1::2] for x in (live1, live2))
        lo, hi = lo[0::2], hi[1::2]
    return s1, s2, live1, live2, lo, hi


def _bound(setup: ChannelSetup, level: tuple, k, rows, cols) -> np.ndarray:
    """The bound of the square of units (rows, cols) of a level at rho1
    indices k, all three broadcast: _value at each user's largest signal
    and power and the other user's least power, 0 where a user has no
    feasible cell. On _cells a unit is one cell, and its bound is its
    value. Each table is read by flat take: on a 128-block chunk of cells
    that gathers about twice as fast as s1[k, rows]."""
    s1, s2, live1, live2, lo, hi = level
    at1, at2 = k * len(lo) + rows, k * len(lo) + cols
    return _value(setup, s1.take(at1), s2.take(at2), hi[rows], hi[cols],
                  lo[rows], lo[cols], live1.take(at1) & live2.take(at2))


def _coarse(setup: ChannelSetup, rhos: np.ndarray, pv: np.ndarray, n1: int,
            n2: int, overall: bool = False) -> tuple:
    """Best cell of the (n1, n2) block for every rho1 on the grid pv x pv
    (pv ascending): the linear value (0 when no block was evaluated), the
    first row-major argmax, and how many _BLOCK x _BLOCK blocks were
    evaluated, all shaped (rho1,). Groups of size x size blocks are bounded
    first: size = _GROUP when overall, else 1, as each rho1's incumbent
    must then be its own top-bound block. The incumbent is the best cell
    of the top-bound block of its rho1's top-bound group or, when overall,
    the largest such value over all rho1; then only the first argmax over
    (rho1, cell) is sure to be found, and the other rows' values may fall
    short of their best (see the module docstring for why either, and
    branch_sign's block, is exact). evaluated counts the blocks whose
    bound reaches the incumbent; the first-pass block is evaluated again
    among them when its bound reaches it, always unless overall. Cells
    are bounded as units of one cell, which is their value bit for bit."""
    n, b, n_rho = len(pv), _BLOCK, len(rhos)
    size = _GROUP if overall else 1
    cells = _cells(setup, rhos, pv, n1, n2, size * b)
    blocks = _coarser(cells, b)
    groups = _coarser(blocks, size)
    nb, ng = len(blocks[4]), len(groups[4])

    def inside(level, side, k, outer, across):
        # the bounds of the side x side units of level inside the units
        # outer (row-major, across a side) of the level above at rho1 k,
        # shaped (unit inside, outer) so that each ufunc loop runs over
        # many units, and each unit's row-major index in level
        rows, cols = (x * side for x in np.divmod(outer, across))
        rows = rows + np.arange(side)[:, None, None]
        cols = cols + np.arange(side)[:, None]
        bound = _bound(setup, level, k, rows, cols).reshape(side * side, -1)
        return bound, (rows * across * side + cols).reshape(side * side, -1)

    # every group, as the units of the one square that is the whole grid
    gbound = inside(groups, ng, np.arange(n_rho), np.zeros(n_rho, np.intp),
                    1)[0].T

    def members(k, g):  # bounds and indices of the blocks of groups g of k
        if size == 1:  # the group bound is the block bound; bounding the
            # block again made the refined _search 1-8% slower (30
            # interleaved rounds in one process, three channel sets)
            return gbound[k, g][None], g[None]
        return inside(blocks, size, k, g, ng)

    # first pass: the best cell of the top-bound block of each rho1's
    # top-bound group (none for a rho1 with no feasible cell) sets the
    # incumbent, inf when nothing is feasible
    k = np.flatnonzero(gbound.max(axis=1) > 0.0)
    bound, block = members(k, gbound.argmax(axis=1)[k])
    top = block[bound.argmax(axis=0), np.arange(len(k))]
    incumbent = np.zeros(n_rho)
    incumbent[k] = inside(cells, b, k, top, nb)[0].max(axis=0)
    reach = np.where(incumbent > 0.0,
                     incumbent.max() if overall else incumbent, np.inf)
    # main pass, in (rho1, group, block) order: every block whose bound
    # reaches the incumbent, in a group whose bound reaches it
    k, g = np.divmod(np.flatnonzero(gbound >= reach[:, None]), ng * ng)
    bound, block = members(k, g)
    i, j = np.nonzero((bound >= reach[k]).T)
    k, block = k[i], block[j, i]
    best, cell = np.empty(len(k)), np.empty(len(k), dtype=np.intp)
    for start in range(0, len(k), _COARSE_CHUNK):
        end = start + _COARSE_CHUNK
        v, at = inside(cells, b, k[start:end], block[start:end], nb)
        first = v.argmax(axis=0)  # the first maximum, row-major in a block
        idx = np.arange(len(first))
        best[start:end], cell[start:end] = v[first, idx], at[first, idx]
    # per rho1: the best value, then the least cell index reaching it
    head = np.flatnonzero(np.diff(k, prepend=-1))
    side = len(cells[4])  # padded cells a side
    value, arg = np.zeros(n_rho), np.zeros(n_rho, dtype=np.intp)
    value[k[head]] = np.maximum.reduceat(best, head)
    arg[k[head]] = np.minimum.reduceat(
        np.where(best == value[k], cell, side * side), head)
    row, col = np.divmod(arg, side)  # padded to n x n cell indices
    return value, row * n + col, np.bincount(k, minlength=n_rho)


def _window_rows(P: float, c: np.ndarray, half: float) -> np.ndarray:
    """_ZOOM_POINTS samples by np.linspace on each window c[w] +/- half,
    clamped to [0, P]; np.linspace sets the last sample to the window's
    end exactly, so p = P stays reachable."""
    return np.linspace(np.maximum(0.0, c - half), np.minimum(P, c + half),
                       _ZOOM_POINTS, axis=1)


def _window_bound(setup: ChannelSetup, rho1, n1, n2, c1, c2, half1: float,
                  half2: float) -> tuple[np.ndarray, np.ndarray]:
    """Each window's bound on the cells of its hull, c_i +/- half_i (1 + 1/9)
    in [0, P], and whether both users are feasible on the whole hull."""
    reach = 1.0 + 1.0 / (_ZOOM_SHRINK - 1)  # > 1 + 1/10 + 1/100 + ...
    reach1, reach2 = half1 * reach, half2 * reach
    lo1, hi1 = np.maximum(0.0, c1 - reach1), np.minimum(setup.P, c1 + reach1)
    lo2, hi2 = np.maximum(0.0, c2 - reach2), np.minimum(setup.P, c2 + reach2)
    sig, whole, live = [], True, True
    for user, lo, hi, sign in ((1, lo1, hi1, n1), (2, lo2, hi2, n2)):
        p = np.stack([lo, hi])
        # at p_i = P take f_ii as at p_i = 0: finite, then replaced by +inf
        remaining = np.where(p >= setup.P, setup.P or 1.0, setup.P - p)
        rad, ok = zf_radicand(setup, user, rho1 if user == 1 else 1.0 - rho1,
                              remaining)
        root = np.sqrt(np.maximum(rad, 0.0))  # f_ii at both ends, P - lo
        top = own_signal(setup, user, sign, root, remaining[0]).max(axis=0)
        sig.append(np.where(hi >= setup.P, np.inf, top))
        ok |= p >= setup.P  # feasibility never falls as p_i grows
        whole, live = whole & ok[0], live & ok[1]
    return _value(setup, sig[0], sig[1], hi1, hi2, lo1, lo2, live), whole


def _zoom(setup: ChannelSetup, rho1: np.ndarray, n1: np.ndarray,
          n2: np.ndarray, value: np.ndarray, c1: np.ndarray, c2: np.ndarray,
          half1: float, half2: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sharpen each window's coarse best cell (value at c1, c2) by a
    deterministic zoom: re-grid +/- half per axis around the current
    center (_window_rows), move the center to the argmax, shrink the
    half-widths to the new spacing, repeat; a zero half-width pins that
    axis. Only a strictly better cell replaces the best. A window is not
    zoomed while its value is 0 or it cannot change the first argmax of
    best (module docstring). Returns best, p1, p2 and the window-rounds."""
    best, best1, best2 = value.copy(), c1.copy(), c2.copy()
    c1, c2 = c1.copy(), c2.copy()
    live = np.flatnonzero(value > 0.0)
    runs = 0
    for round_ in range(_ZOOM_ROUNDS):
        if len(live) > 2:  # two windows zoom faster than they are bounded
            bound, whole = _window_bound(setup, rho1[live], n1[live],
                                         n2[live], c1[live], c2[live], half1,
                                         half2)
            keep = (bound >= best.max()) & (bound > best[live])
            if round_ == 0 and setup.hR_det == 0.0:
                twins = np.flatnonzero(whole)
                _, first = np.unique(np.stack([c1, c2], axis=1)[live[twins]],
                                     axis=0, return_index=True)
                keep[np.delete(twins, first)] = False  # the later twins
            live = live[keep]
        if not len(live):
            break
        runs += len(live)
        p1w = _window_rows(setup.P, c1[live], half1)
        p2w = _window_rows(setup.P, c2[live], half2)
        obj = _objective(setup, rho1[live, None, None], n1[live, None, None],
                         n2[live, None, None], p1w, p2w).reshape(len(live), -1)
        row = np.arange(len(live))
        at = obj.argmax(axis=1)  # first maximum, row-major
        top = obj[row, at]
        i, j = np.divmod(at, _ZOOM_POINTS)
        c1[live], c2[live] = p1w[row, i], p2w[row, j]
        gain = top > best[live]
        won = live[gain]
        best[won], best1[won], best2[won] = top[gain], c1[won], c2[won]
        half1 /= _ZOOM_SHRINK
        half2 /= _ZOOM_SHRINK
    return best, best1, best2, runs


def _search(setup: ChannelSetup, grid: GridSpec, refine: bool
            ) -> PowerAllocation | None:
    """Maximize the exact scheme sum rate over the grid and both signs per
    user, in each rho1's dominant sign block, optionally zooming on its
    best cell (replaced only by a strictly better zoom cell). Exact-value
    ties go to the smallest (rho1, p1, p2), then to the first sign pair,
    -1 first, reaching the value there; None when nothing is feasible."""
    try:
        n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    except DegenerateRelayChannel:
        return None  # a zero relay column hRj leaves user i no beam
    pv = grid.p_values(setup.P)
    rhos = grid.rho_values()
    value, arg, _ = _coarse(setup, rhos, pv, n1, n2, overall=not refine)
    k = np.flatnonzero(value > 0.0)
    if not len(k):
        return None
    value, rho1 = value[k], rhos[k]
    c1, c2 = pv[arg[k] // len(pv)], pv[arg[k] % len(pv)]
    step = float(pv[1] - pv[0])
    if refine and step > 0.0:
        value, c1, c2, _ = _zoom(setup, rho1, np.full(len(k), n1),
                                 np.full(len(k), n2), value, c1, c2, step,
                                 step)
    t = int(np.argmax(value))  # one cell per rho1: the first is smallest
    rho, p1, p2 = float(rho1[t]), float(c1[t]), float(c2[t])
    cell = _objective(setup, rho, _SIGNS[:, None, None, None],
                      _SIGNS[:, None, None], np.array([p1]), np.array([p2]))
    s1, s2 = divmod(int(cell.argmax()), 2)
    return PowerAllocation(p1=p1, p2=p2, rho1=rho, n1=int(_SIGNS[s1]),
                           n2=int(_SIGNS[s2]))


def grid_search_sum_rate(setup: ChannelSetup,
                         grid: GridSpec | None = None) -> SearchResult:
    """Maximize the exact scheme sum rate over the full grid x both sign
    choices per user. Each rho1's dominant sign block, the four blocks'
    cellwise maximum, is searched, skipping the blocks of cells whose bound
    shows they cannot win (see the module docstring for why both are
    exact). Deterministic: exact-value ties resolve to the smallest
    (rho1, p1, p2, n1, n2)."""
    validate(setup)
    alloc = _search(setup, grid or GridSpec(), refine=False)
    if alloc is None:
        raise NoFeasiblePoint("no grid point admits zero-forcing for both users")
    return SearchResult(allocation=alloc,
                        sum_rate=scheme_rate_point(setup, alloc).sum_rate)


def search_p1(setup: ChannelSetup, rho1: float, n_p: int) -> float | None:
    """Best new-message power p1 of user 1 with p2 = 0 and n2 = +1: the
    exact sum rate on np.linspace(0, P, n_p), zoomed around the argmax,
    maximized over n1 with +1 kept on ties. None when no p1 is feasible,
    or when a zero relay column hRj leaves a user no beam."""
    pv = np.linspace(0.0, setup.P, n_p)
    n1 = _SIGNS[::-1]
    try:
        column = _objective(setup, rho1, n1[:, None, None], 1, pv,
                            np.zeros(1))[:, :, 0]
    except DegenerateRelayChannel:
        return None
    at = column.argmax(axis=1)
    step = float(pv[1] - pv[0])
    value, c1, _, _ = _zoom(setup, np.full(2, rho1), n1,
                            np.ones(2, dtype=int), column[np.arange(2), at],
                            pv[at], np.zeros(2), step, 0.0)
    return float(c1[value.argmax()]) if value.any() else None


def bisect_intersection(curve_pair, interval, tol: float = 1e-12) -> float:
    """Intersection of two scalar curves on an interval by bisection on
    their difference. An endpoint where the curves already coincide is
    returned as-is; otherwise the difference must change sign across the
    interval. The returned abscissa is within tol * (initial width) of the
    crossing."""
    curve_a, curve_b = curve_pair
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"interval must satisfy lo < hi, got [{lo}, {hi}]")
    d_lo = curve_a(lo) - curve_b(lo)
    d_hi = curve_a(hi) - curve_b(hi)
    if d_lo == 0.0:
        return lo
    if d_hi == 0.0:
        return hi
    if (d_lo > 0.0) == (d_hi > 0.0):
        raise NoSignChange(
            f"curve difference has the same sign at both endpoints "
            f"({d_lo:.3e} and {d_hi:.3e})")
    span = hi - lo
    for _ in range(200):  # hard stop well past float resolution
        if hi - lo <= tol * span:
            break
        mid = 0.5 * (lo + hi)
        d_mid = curve_a(mid) - curve_b(mid)
        if d_mid == 0.0:
            return mid
        if (d_mid > 0.0) == (d_lo > 0.0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sum_rate_or_nan(setup: ChannelSetup, alloc: PowerAllocation) -> float:
    """Exact scheme sum rate, NaN where zero forcing is infeasible."""
    try:
        return scheme_rate_point(setup, alloc).sum_rate
    except (InfeasibleRadicand, DegenerateRelayChannel):
        return float("nan")


def _fixed_split_rate(setup: ChannelSetup, p: float) -> float:
    """Exact scheme sum rate at p1 = p2 = p with rho1 = 1/2, maximized over
    the four sign pairs; NaN when zero-forcing is infeasible at that split.
    branch_sign's pair alone is not enough: where the MAC sum cap
    truncates, rescaling the rates can leave another pair 1 ulp higher."""
    best = float("nan")
    for n1, n2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        alloc = PowerAllocation(p1=p, p2=p, rho1=0.5, n1=n1, n2=n2)
        value = _sum_rate_or_nan(setup, alloc)
        if math.isnan(best) or value > best:
            best = value
    return best


def _sweep_row(setup: ChannelSetup, policy: SweepPolicy) -> SweepRow:
    grid = policy.grid
    best_alloc = _search(setup, grid, policy.refine)
    if best_alloc is None:
        raise NoFeasiblePoint(f"no feasible allocation at P = {setup.P}")
    r_exact = scheme_rate_point(setup, best_alloc).sum_rate

    try:
        closed_alloc = sum_rate_allocation(setup, grid.rho_values().tolist())
        phat1, phat2 = closed_alloc.p1, closed_alloc.p2
        # undefined when the split zero-forces only one user
        r_closed = _sum_rate_or_nan(setup, closed_alloc)
    except NoFeasibleRho:
        phat1 = phat2 = r_closed = float("nan")

    r_half = _fixed_split_rate(setup, 0.5 * setup.P)
    r_sqrt = (_fixed_split_rate(setup, math.sqrt(setup.P))
              if setup.P >= 1.0 else None)
    return SweepRow(P=setup.P, best_alloc=best_alloc, phat1=phat1,
                    phat2=phat2, R_sum_exact=r_exact, R_sum_closed=r_closed,
                    R_sum_half=r_half, R_sum_sqrt=r_sqrt)


def sweep_P(setup_template: ChannelSetup, P_values,
            policy: SweepPolicy | None = None) -> SweepTable:
    """One SweepRow per budget P, ascending. Each row re-derives the setup
    with that P (and PR = P unless the policy pins PR), then runs the grid
    search, the closed-form low-power allocation, and the fixed splits
    p = P/2 and -- when P >= 1 -- p = sqrt(P)."""
    if policy is None:
        policy = SweepPolicy()
    budgets = [float(v) for v in P_values]
    if not budgets:
        raise ValueError("P_values must be nonempty")
    if any(b <= a for a, b in zip(budgets, budgets[1:])):
        raise ValueError("P_values must be strictly increasing")
    rows = []
    for big_p in budgets:
        relay_p = big_p if policy.PR is None else policy.PR
        setup = validate(replace(setup_template, P=big_p, PR=relay_p))
        rows.append(_sweep_row(setup, policy))
    return SweepTable(rows=tuple(rows))
