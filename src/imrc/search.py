"""Brute-force and root-finding oracles.

The grid search trusts no closed-form shortcut: it finds the best exact
scheme sum rate over every (p1, p2, rho1, n1, n2) combination of the grid,
and bisection finds curve intersections by sign changes alone. These are
the references the analytical results are checked against. best_p1,
figure 4's best p1 with p2 = 0, needs no search: it is exact, from the
concave signal g derived below.

One sign block per rho1 suffices: model.branch_sign gives each user the
n_i with the larger |f_ii| at every cell, bit for bit, and A_i and
min(A1 A2, M) below never fall as |f_ii| grows, so that block is the
cellwise maximum of the four. That one block serves the coarse stage and
the zoom; only the chosen cell of a grid search is resolved over all four
pairs, so exact ties still go to the smallest (n1, n2).

One box routine, _best, serves every search stage. Each stage asks the
same of a box of cells p1 x p2 at one (rho1, n1, n2): its best value and
the first cell, row-major, that gives it. The boxes are the coarse
stage's 8 x 8 blocks, the zoom's 21 x 21 windows and the four sign pairs
of a grid search's chosen cell, each a 1 x 1 box.
_best evaluates model's per-user kernel -- the radicand with its
feasibility tolerance, f_ii and the boundary power, the same functions
scheme_rate_point calls on scalars -- over many boxes at once, boxes on
the innermost axis, never materializing beam vectors. It compares cells
in the linear domain: user i's term is
A_i = 1 + min(||g_iR||^2 p_i, SINR_i), or 0 where zero forcing fails, and
a cell's value is min(A1 A2, M) with M the MAC sum cap's argument
alpha p1 p2 + ||g1R||^2 p1 + ||g2R||^2 p2 + 1 (rates.mac_sum_argument).
_value is that formula, for every cell and every bound below alike.
log2 is monotone, so min(log2 a, log2 b) = log2 min(a, b) and the order
of cells is the order of their sum rates; no cell takes a log2, and the
bits come from scheme_rate_point on the chosen allocation alone. Every
feasible value is positive and every infeasible one is 0, so an
infeasible cell never wins. A1 and M are scaled by the power of two 2^-e
with 2^e > 1 + max(||g1R||^2, 1) P, which keeps A1 A2 and M's alpha p1 p2
finite at budgets where they would overflow; a power of two does not
round, so no comparison changes. A budget where ||g_iR||^2 P, h_ji^2 P
or a bound on a user's signal itself overflows lies outside the domain
model.validate admits.

One bound routine, _box_bound, serves every stage that prunes: it bounds
the coarse stage's 8 x 8 blocks of cells and G x G groups of blocks and
the zoom's window hulls, each a box [lo1, hi1] x [lo2, hi2] at one rho1,
by the cells' own operations (_value) at each user's largest signal and
own power and the other user's least power. A_i never falls as its signal
or p_i grows, never rises as p_j grows, M never falls as a power grows
(alpha >= 0), and IEEE + - * / and min round monotonically, so the bound
is at least every cell's rounded value once the signal is at least every
cell's rounded signal; it is 0 for a box without a feasible cell. That
signal is _peak's closed form, so no table of signals is built. With
r = P - p_i, K = rho_i PR ||hRj||^2, c = h_ij^2 and
f_ii = a_i + n_i b_i sqrt(rad_i), rad_i = K / r - c, the signal f_ii^2 r
is at most g(r) = (|a_i| sqrt(r) + |b_i| sqrt(K - c r))^2, with equality
for branch_sign's n_i, and g(0) is the boundary power at p_i = P.
Expanded, g = (a_i^2 - b_i^2 c) r + b_i^2 K + 2 |a_i b_i| sqrt(r (K - c r)),
a linear term plus a geometric mean of two linear terms, so g is concave
and its maximum over an interval is g at r* = K a_i^2 / (c (a_i^2 +
b_i^2 c)) clipped to it (its top when c = 0): one evaluation per interval.
_peak's docstring derives the slack that keeps it above every rounded
cell. Feasibility never falls as p_i grows, so a user's interval is live
exactly when the kernel finds its largest power feasible. All groups are
bounded first. The best cell of the top-bound block of each rho1's
top-bound group is that rho1's first-pass value; let I be the best of
them, a cell's value and so at most the maximum. One row filter serves
both searches: a rho1 whose group bounds are all below I is dropped,
value 0. In each other rho1, every block whose bound reaches the
incumbent, in a group whose bound reaches it, is evaluated. Each block is
evaluated once: the first-pass block's value and cell join the reduction
below, where the main pass would evaluate it again. A block's cells are
evaluated by _best on its 8 + 8 powers, so each cell's value is the one a
full grid gives, bit for bit. There are two incumbents:
- unrefined (grid_search_sum_rate, SweepPolicy(refine=False)), G = 4:
  I in every row. Only the first argmax over all rho1 is read. A block
  that holds the maximum, and its group, have bounds of at least the
  maximum, so that block is evaluated; other rows may keep less than
  their best, or nothing, and np.argmax over rows still takes the least
  rho1. Here the row filter drops no block the incumbent keeps;
- refined, G = 1, so a group is a block, and blocks are closed: each
  runs from its own first power to the next block's, the last one to P,
  so a rho1's blocks cover [0, P]^2 and bound every point the zoom can
  sample. A dropped rho1 is never zoomed: each of its points, on the
  grid or off it, is below I, and the zoom never lowers the maximum, so
  it can neither be the argmax nor start a window that wins. (A det(H) =
  0 twin of a dropped rho1 ties it, so it stays below I too.) Each kept
  rho1's best cell starts a zoom, so its incumbent is its own first-pass
  value, and it finds its own best. That value must come from its own
  top-bound block: the top block of a larger group is a weaker
  incumbent, and more blocks pass it (G = 4 evaluated 1.5 times as many
  on the sweep benchmark). A closed block whose only feasible point is
  the next block's first power is live without a feasible cell (PR = 0
  leaves only p_i = P, alone in the last block when n_p - 1 is a
  multiple of 8): a rho1 whose first-pass value is 0 takes every block
  with a positive bound.
Either way a skipped block cannot hold a maximum that is read, and a tie
is still evaluated: each block keeps its first row-major maximum, and one
reduction per rho1 then takes the best value and the least cell index
reaching it. Units and blocks lie on the innermost axis of a (side, side,
unit) array, so each ufunc loop runs over many of them rather than 8.

The zoom stage selects its windows once, then advances all of them
together, one evaluation per round, each window sampled by np.linspace.
A window's cells over all rounds lie in its hull, within h + h/10 + ... <
h (1 + 1/9) of its center, h the first half-width (_hull), and _box_bound
on that hull gives a bound U. Before the first round, a window is dropped
when U < max(best), as it cannot win the argmax, or U <= its own best, as
only a strictly better cell replaces that; the hull holds every round,
so no round bounds again. det(H) = 0 is stored exactly, so f_ii then has
no rho1 or sign term: windows with one start and a hull feasible for both
users tie throughout, and only the first, which the argmax keeps on a
tie, is zoomed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateRelayChannel, InfeasibleRadicand,
                     NoFeasiblePoint, NoFeasibleRho, NoSignChange)
from .lowpower import sum_rate_allocation
from .model import (RADICAND_RTOL, ChannelSetup, PowerAllocation,
                    boundary_signal, branch_sign, own_gain, own_signal,
                    validate, zf_radicand)
from .rates import mac_sum_argument, scheme_rate_point

__all__ = [
    "GridSpec",
    "SearchResult",
    "SweepPolicy",
    "SweepRow",
    "SweepTable",
    "grid_search_sum_rate",
    "best_p1",
    "bisect_intersection",
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
# unrefined search first in _GROUP x _GROUP groups of blocks. _best runs
# _value on _CHUNK boxes at a time (8,192 cells of blocks, 56,448 of zoom
# windows): evaluating every surviving block at once took perfbench's
# sweep peak RSS from 39.1 to 48.7-49.0 MB.
_BLOCK = 8
_GROUP = 4
_CHUNK = 128

_BISECT_TOL = 1e-12  # bisect_intersection's width, relative to the interval


def _signal(setup: ChannelSetup, user: int, rho1, sign, p
            ) -> tuple[np.ndarray, np.ndarray]:
    """User i's received power and zero-forcing feasibility, broadcast over
    rho1, the branch sign and p_i: model's per-user kernel, as in
    scheme_rate_point, with the boundary value (always feasible) at p_i = P.
    Raises DegenerateRelayChannel where hRj = 0, as zf_radicand does.
    The radicand's new array becomes the root, and the boundary values and
    feasibility are written into the kernel's new arrays."""
    rho_i = rho1 if user == 1 else 1.0 - rho1
    boundary = p >= setup.P
    # P stands in for P - p at p_i = P, where the value is replaced: no cell
    # has more left than P, so it overflows only where p_i = 0 does (P = 0
    # makes every cell a boundary cell, hence the 1.0)
    remaining = np.where(boundary, setup.P or 1.0, setup.P - p)
    rad, feasible = zf_radicand(setup, user, rho_i, remaining)
    # in place, like _capped_term and _value: see _value for why
    root = np.asarray(rad)  # a new array (numpy gives 0-d results as scalars)
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    sig = np.asarray(own_signal(setup, user, sign, root, remaining))
    np.copyto(sig, boundary_signal(setup, user, rho_i), where=boundary)
    feasible |= boundary
    return sig, feasible


def _exponent(setup: ChannelSetup) -> int:
    """e with 2^e > 1 + max(||g1R||^2, 1) P, so 2^e bounds user 1's term
    A1, and 2^-e p1 p2 < P in mac_sum_argument even where alpha = 0."""
    return math.frexp(1.0 + max(setup.g1R_norm2, 1.0) * setup.P)[1]


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
    np.minimum(term, gain2 * p_own, out=term)  # in place: see _value
    term += 1.0
    return term


def _value(setup: ChannelSetup, sig1, sig2, hi1, hi2, lo1, lo2,
           ok) -> np.ndarray:
    """min(A1 A2, M) scaled by 2^-_exponent(setup), 0 where ok is false,
    with A_i user i's _capped_term at signal sig_i, own power hi_i and the
    other user's power lo_j, and M mac_sum_argument at (hi1, hi2). A cell
    passes hi = lo = p; a block or window bound passes each user's largest
    signal and power as hi and least power as lo. The arguments broadcast,
    sig1 and sig2 possibly to different shapes, so A1 A2 is a new array."""
    # scaling A1 by 2^-e keeps A1 A2 below A2, and does not round
    scale = math.ldexp(1.0, -_exponent(setup))
    total = (scale * _capped_term(setup, 1, sig1, hi1, lo2)
             * _capped_term(setup, 2, sig2, hi2, lo1))
    # in place here, in _signal and _capped_term: plain read sweep 1.033x
    # and grid 1.010x as slow (tools/ab_time.py, seed 5151, 20 rounds; A/A
    # 1.002 and 0.997)
    np.minimum(total, mac_sum_argument(setup, hi1, hi2, scale), out=total)
    np.copyto(total, 0.0, where=~ok)
    return total


def _best(setup: ChannelSetup, rho1, n1, n2, p1: np.ndarray,
          p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each box's best linear-domain scheme sum rate and its first
    row-major argmax. Box w holds the cells p1[:, w] (rows) x p2[:, w]
    (columns) at rho1, n1 and n2, each a scalar or one value per box. A
    cell's value is _value, 0 where zero forcing fails for either user, so
    a box without a feasible cell gives value 0 at cell 0. log2 of a value
    plus _exponent(setup) agrees with scheme_rate_point up to rounding:
    sum-cap truncation preserves the sum, so the rate is simply
    min(R1 + R2, Rsum_mac). Each user's _signal covers all boxes at once;
    _value runs _CHUNK boxes at a time, boxes innermost on (row, column,
    box) arrays."""
    sig1, ok1 = _signal(setup, 1, rho1, n1, p1)
    sig2, ok2 = _signal(setup, 2, rho1, n2, p2)
    best = np.empty(p1.shape[1])
    first = np.empty(p1.shape[1], dtype=np.intp)
    for at in range(0, len(best), _CHUNK):
        c = slice(at, at + _CHUNK)
        rows = p1[:, None, c]
        v = _value(setup, sig1[:, None, c], sig2[:, c], rows, p2[:, c], rows,
                   p2[:, c], ok1[:, None, c] & ok2[:, c])
        v = v.reshape(-1, v.shape[-1])
        first[c], best[c] = v.argmax(axis=0), v.max(axis=0)
    return best, first


def _peak(setup: ChannelSetup, user: int, rho1, lo, hi
          ) -> tuple[np.ndarray, np.ndarray]:
    """At least user i's largest _signal, of either sign, over p_i in
    [lo, hi], and whether any p_i there is feasible, broadcast over rho1 and
    the intervals: g at r* clipped to [P - hi, P - lo] (module docstring),
    and the kernel's feasibility at hi.
    Slack: a feasible cell has c r <= K (1 + RADICAND_RTOL + 2^-50) (the
    radicand tolerance, and the rounding of K / r), its radicand rounds
    at most 2^-50 K / r above K / r - c, and its signal takes about a
    dozen more roundings of at most 2^-53, as g does. So K enters as
    K (1 + 2 RADICAND_RTOL), and g is multiplied by 1 + RADICAND_RTOL
    (about 2^-40). g(s r, s K) = s g(r, K), and g is evaluated at
    s = 2^-e with s P in [1/2, 1) (s at most 2^1000, and at least 2^-1023,
    so that 1 / s is finite: s P < 2 from P = 2^1023), where nothing
    underflows. Only a subnormal result rounds by an absolute 2^-1075: g's
    last step, the cell's last product and the three steps of the boundary
    power, scaled by up to (1 + |det(H)|) / ||hRj||^2, which the added
    2^-1074 (2 + (1 + |det(H)|) / ||hRj||^2) covers."""
    rho_i, c, norm2 = ((rho1, setup.h12 ** 2, setup.hR2_norm2) if user == 1
                       else (1.0 - rho1, setup.h21 ** 2, setup.hR1_norm2))
    top, rest = hi >= setup.P, setup.P - hi
    # P stands in for P - hi at hi = P, as in _signal
    live = zf_radicand(setup, user, rho_i, np.where(top, setup.P or 1.0, rest))[1]
    s = math.ldexp(1.0, min(1000, max(-1023, -math.frexp(setup.P)[1])))
    a, b = abs(own_gain(setup, user, 1, 0.0)), abs(setup.hR_det) / norm2
    K = rho_i * setup.PR * (s * norm2 * (1.0 + 2.0 * RADICAND_RTOL))
    r = (setup.P - lo) * s  # r* when c = 0, as g then rises with r
    if c > 0.0:  # r* clipped to [P - hi, P - lo]
        w = a * a / (a * a + b * b * c) if a * a > 0.0 else 0.0
        # r < 2, so a K w past 2 c clips to r either way; 2 c / c = 2
        # exactly, where K w / c could overflow for a tiny c
        r = np.minimum(np.maximum(np.minimum(K * w, 2.0 * c) / c, rest * s), r)
    scale = math.sqrt((1.0 + RADICAND_RTOL) / s)  # g's factor, on a and b
    g = b * scale * np.sqrt(np.maximum(K - c * r, 0.0)) + a * scale * np.sqrt(r)
    return g * g + math.ldexp(2.0 + b + 1.0 / norm2, -1074), live | top


def _box_bound(setup: ChannelSetup, rho1, lo1, hi1, lo2, hi2) -> np.ndarray:
    """The bound of every box [lo1, hi1] x [lo2, hi2] at rho1, all six
    broadcast: _value at each user's _peak and largest power and the other
    user's least power, 0 where a user has no feasible power in its
    interval, so at least every cell's value in the box (module
    docstring). A side with NaN edges holds no cell: _peak finds it not
    live. Each user's _peak keeps its own arguments' shape."""
    (s1, live1), (s2, live2) = (_peak(setup, 1, rho1, lo1, hi1),
                                _peak(setup, 2, rho1, lo2, hi2))
    return _value(setup, s1, s2, hi1, hi2, lo1, lo2, live1 & live2)


def _coarse(setup: ChannelSetup, rhos: np.ndarray, pv: np.ndarray, n1: int,
            n2: int, overall: bool = False) -> tuple:
    """Best cell of the (n1, n2) block for every rho1 on the grid pv x pv
    (pv ascending): the linear value (0 when no block was evaluated), the
    first row-major argmax, and how many _BLOCK x _BLOCK blocks were
    evaluated, each once, all shaped (rho1,). Groups of size x size blocks
    are bounded first: size = _GROUP when overall, else 1, as each rho1's
    incumbent must then be its own top-bound block. The incumbent is the
    best cell of the top-bound block of its rho1's top-bound group or,
    when overall, the largest such value over all rho1; then only the
    first argmax over (rho1, cell) is sure to be found, and the other
    rows' values may fall short of their best. Either way a rho1 whose
    bound is below that largest value is dropped: it gets value 0. Unless
    overall, blocks are closed, to the next block's first power and the
    last to P, and every rho1 that is kept gets its best (see the module
    docstring for why either, and branch_sign's block, is exact). Groups
    and blocks are bounded by _box_bound on their edges in the padded
    grid; a block's cells are evaluated by _best on its 8 + 8 powers, bit
    for bit as on a full grid."""
    n, b, n_rho = len(pv), _BLOCK, len(rhos)
    size = _GROUP if overall else 1
    span = -(-n // (size * b)) * size * b  # cells a side, in whole groups
    nb, ng = span // b, span // (size * b)
    pp = np.concatenate([pv, np.full(span - n, np.nan)])  # NaN: infeasible
    # each block's and group's least and largest p, NaN for one wholly
    # past pv
    (lo, hi), (glo, ghi) = ((pp[::w],
                             np.fmax.reduceat(pp, np.arange(0, span, w)))
                            for w in (b, size * b))
    if not overall:  # closed blocks, none wholly past pv; closing the
        # unrefined search's too read grid 1.079x as slow (tools/ab_time.py,
        # seed 5151, 20 rounds; A/A 1.004)
        ghi = np.append(glo[1:], setup.P)

    # every group, shaped (group row, group column, rho1), then (rho1, group)
    gbound = _box_bound(setup, rhos, glo[:, None, None], ghi[:, None, None],
                        glo[:, None], ghi[:, None]).reshape(ng * ng, -1).T

    def members(k, g):
        # the _box_bound of the size x size blocks of groups g at rho1 k,
        # shaped (block inside, group) so that each ufunc loop runs over
        # many blocks, and each block's row-major index
        if size == 1:  # the group bound is the block bound; bounding the
            # block again made the refined _search 1-8% slower (30
            # interleaved rounds in one process, three channel sets)
            return gbound[k, g][None], g[None]
        rows = g // ng * size + np.arange(size)[:, None, None]
        cols = g % ng * size + np.arange(size)[:, None]
        bound = _box_bound(setup, rhos[k], lo[rows], hi[rows], lo[cols],
                           hi[cols])
        return (bound.reshape(size * size, -1),
                (rows * nb + cols).reshape(size * size, -1))

    def evaluate(k, block):
        # each block's best cell at rho1 k and that cell's row-major index
        # in the n x n grid (never a padded cell: those are 0, and a block
        # whose best is 0 gives its corner), b * _CHUNK blocks to a _best
        # call: each user's signals for b chunks of blocks at once (as many
        # values as a chunk has cells)
        row, col = np.divmod(block, nb)
        best, first = np.empty(len(k)), np.empty(len(k), dtype=np.intp)
        for start in range(0, len(k), b * _CHUNK):
            c = slice(start, start + b * _CHUNK)
            best[c], first[c] = _best(setup, rhos[k[c]], n1, n2,
                                      pp[row[c] * b + np.arange(b)[:, None]],
                                      pp[col[c] * b + np.arange(b)[:, None]])
        return best, (row * b + first // b) * n + col * b + first % b

    # first pass in every rho1 with a positive bound; a rho1 whose bound is
    # below the best first-pass value is then dropped (reach inf). A
    # closed top block may hold no feasible cell: its rho1 then takes
    # every block with a feasible cell, whose bound reaches the least
    # positive double.
    live = gbound.max(axis=1)
    k = np.flatnonzero(live > 0.0)
    bound, block = members(k, gbound.argmax(axis=1)[k])
    first = np.full(n_rho, -1)
    first[k] = block[bound.argmax(axis=0), np.arange(len(k))]
    incumbent, at = np.zeros(n_rho), np.zeros(n_rho, dtype=np.intp)
    incumbent[k], at[k] = evaluate(k, first[k])
    top = incumbent.max()
    reach = np.maximum(5e-324, np.where(live >= top, top if overall
                                        else incumbent, np.inf))
    # main pass, in (rho1, group, block) order: every block whose bound
    # reaches the incumbent, in a group whose bound reaches it, the
    # first-pass block by its first-pass result
    k, g = np.divmod(np.flatnonzero(gbound >= reach[:, None]), ng * ng)
    bound, block = members(k, g)
    i, j = np.nonzero((bound >= reach[k]).T)
    k, block = k[i], block[j, i]
    new = block != first[k]
    best, cell = incumbent[k], at[k]
    best[new], cell[new] = evaluate(k[new], block[new])
    # per rho1: the best value, then the least cell index reaching it
    head = np.flatnonzero(np.diff(k, prepend=-1))
    value, arg = np.zeros(n_rho), np.zeros(n_rho, dtype=np.intp)
    value[k[head]] = np.maximum.reduceat(best, head)
    arg[k[head]] = np.minimum.reduceat(
        np.where(best == value[k], cell, n * n), head)
    return value, arg, np.bincount(k[new], minlength=n_rho) + (first >= 0)


def _window_rows(P: float, c: np.ndarray, half: float) -> np.ndarray:
    """_ZOOM_POINTS samples by np.linspace on each window c[w] +/- half,
    clamped to [0, P], shaped (point, window) as _best takes them;
    np.linspace sets the last sample to the window's end exactly, so
    p = P stays reachable."""
    return np.linspace(np.maximum(0.0, c - half), np.minimum(P, c + half),
                       _ZOOM_POINTS)


def _hull(P: float, c: np.ndarray, half: float) -> tuple:
    """The hull of each window c[w] +/- half, c +/- half (1 + 1/9)
    clipped to [0, P], as its least and largest p: it holds the window's
    cells from the first round on (module docstring)."""
    reach = half * (1.0 + 1.0 / (_ZOOM_SHRINK - 1))  # > 1 + 1/10 + ...
    return np.maximum(0.0, c - reach), np.minimum(P, c + reach)


def _zoom(setup: ChannelSetup, rho1: np.ndarray, n1: int, n2: int,
          value: np.ndarray, c1: np.ndarray, c2: np.ndarray, half: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sharpen each window's best cell (value at c1, c2) in the (n1, n2)
    sign block by a deterministic zoom: re-grid +/- half on both axes
    around the current center (_window_rows), move the center to the
    window's first argmax by _best, shrink the half-width to the new
    spacing, repeat. Only a strictly better cell replaces the best. The
    windows are selected once, before the first round: one whose value is
    0, whose _hull bound cannot change the first argmax of best, or that
    is a later det(H) = 0 twin is not zoomed (module docstring). Returns
    best, p1, p2 and the window-rounds."""
    best, best1, best2 = value.copy(), c1.copy(), c2.copy()
    c1, c2 = c1.copy(), c2.copy()
    live = np.flatnonzero(value > 0.0)
    rho = rho1[live]
    lo1, hi1 = _hull(setup.P, c1[live], half)
    lo2, hi2 = _hull(setup.P, c2[live], half)
    bound = _box_bound(setup, rho, lo1, hi1, lo2, hi2)
    keep = (bound >= best.max()) & (bound > best[live])
    if setup.hR_det == 0.0:
        # feasibility never falls as p_i grows: a hull feasible for both
        # users at its least powers is wholly feasible
        twins = np.flatnonzero(_signal(setup, 1, rho, 1, lo1)[1]
                               & _signal(setup, 2, rho, 1, lo2)[1])
        _, first = np.unique(np.stack([c1, c2], axis=1)[live[twins]],
                             axis=0, return_index=True)
        keep[np.delete(twins, first)] = False  # the later twins
    live = live[keep]
    window = np.arange(len(live))
    for _ in range(_ZOOM_ROUNDS):
        p1w = _window_rows(setup.P, c1[live], half)
        p2w = _window_rows(setup.P, c2[live], half)
        top, at = _best(setup, rho1[live], n1, n2, p1w, p2w)
        i, j = np.divmod(at, _ZOOM_POINTS)
        c1[live], c2[live] = p1w[i, window], p2w[j, window]
        gain = top > best[live]
        won = live[gain]
        best[won], best1[won], best2[won] = top[gain], c1[won], c2[won]
        half /= _ZOOM_SHRINK
    return best, best1, best2, _ZOOM_ROUNDS * len(live)


def _search(setup: ChannelSetup, grid: GridSpec, refine: bool
            ) -> PowerAllocation | None:
    """Maximize the exact scheme sum rate over the grid and both signs per
    user, in each rho1's dominant sign block, optionally zooming on its
    best cell (replaced only by a strictly better zoom cell). Exact-value
    ties go to the smallest (rho1, p1, p2), then to the first sign pair,
    -1 first, reaching the value there; None when nothing is feasible.
    The setup must have passed model.validate, as its callers check."""
    try:
        n1, n2 = branch_sign(setup, 1), branch_sign(setup, 2)
    except DegenerateRelayChannel:
        return None  # a zero relay column hRj leaves user i no beam
    pv, rhos = grid.p_values(setup.P), grid.rho_values()
    value, arg, _ = _coarse(setup, rhos, pv, n1, n2, overall=not refine)
    if not value.max() > 0.0:
        return None
    c1, c2 = pv[arg // len(pv)], pv[arg % len(pv)]
    step = float(pv[1] - pv[0])
    if refine and step > 0.0:  # _zoom skips the value-0 rows
        value, c1, c2, _ = _zoom(setup, rhos, n1, n2, value, c1, c2, step)
    t = int(np.argmax(value))  # one cell per rho1: the first is smallest
    rho, p1, p2 = float(rhos[t]), float(c1[t]), float(c2[t])
    # the chosen cell's four sign pairs, (-1, -1) first, as 1 x 1 boxes
    sign1, sign2 = np.repeat(_SIGNS, 2), np.tile(_SIGNS, 2)
    s = int(_best(setup, rho, sign1, sign2, np.full((1, 4), p1),
                  np.full((1, 4), p2))[0].argmax())
    return PowerAllocation(p1=p1, p2=p2, rho1=rho, n1=int(sign1[s]),
                           n2=int(sign2[s]))


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


def best_p1(setup: ChannelSetup, rho1: float) -> float:
    """p1/P of the least p1 that maximizes user 1's exact rate with p2 = 0
    and n2 = +1, over both signs n1; NaN where P = 0, where a relay column
    is zero, or where user 2 has no zero forcing at p2 = 0. With p2 = 0 no
    interference is left and the MAC sum cap never binds, so the rate is
    log2(1 + min(G p1, f_11^2 (P - p1))), G = ||g1R||^2. Over P and in
    u = 1 - p1/P, that is the falling line G (1 - u) against the module
    docstring's concave g at K = rho1 (PR / P) ||hR2||^2, a = |a_1| and
    b = |b_1|, on [0, top = min(1, K / c)]. The answer is g's clipped peak
    u* where the line lies on or above g there; else u = 0 where the line
    starts below g (d0 = G - b^2 K <= 0); else their crossing, the smaller
    root of (d0 - d1 u)^2 = 4 a^2 b^2 u (K - c u), d1 = G + a^2 - b^2 c,
    written without the cancellation of sqrt(B^2 - 4AC), which is exactly
    0 where det(H) = 0. Where G = 0, or g = 0 at its peak, every feasible
    p1 ties, and the least is 1 - top. Raises NonFinite or NegativePower
    where model.validate refuses the setup."""
    validate(setup)
    if (setup.P == 0.0 or setup.hR1_norm2 == 0.0 or setup.hR2_norm2 == 0.0
            or not zf_radicand(setup, 2, 1.0 - rho1, setup.P)[1]):
        return math.nan
    G, c, norm2 = setup.g1R_norm2, setup.h12 ** 2, setup.hR2_norm2
    a, b = abs(own_gain(setup, 1, 1, 0.0)), abs(setup.hR_det) / norm2
    K = rho1 * (setup.PR / setup.P) * norm2
    top = min(1.0, K / c) if c > 0.0 else 1.0
    w = a * a / (a * a + b * b * c) if a * a > 0.0 else 0.0
    peak = min(K * w / c, top) if c > 0.0 else top  # g rises when c = 0
    g = a * math.sqrt(peak) + b * math.sqrt(max(K - c * peak, 0.0))
    if G == 0.0 or g == 0.0:
        return 1.0 - top
    if G * (1.0 - peak) >= g * g:
        return 1.0 - peak
    d0, d1, abK = G - b * b * K, G + a * a - b * b * c, a * b * K
    if d0 <= 0.0:
        return 1.0
    root = math.sqrt(max(d0 * d1 * K + abK * abK - c * d0 * d0, 0.0))
    return 1.0 - 2.0 * d0 * d0 / (2.0 * d0 * d1 + 4.0 * a * b * (abK + root))


def bisect_intersection(curve_pair, interval) -> float:
    """Intersection of two scalar curves on an interval by bisection on
    their difference. An endpoint where the curves already coincide is
    returned as-is; otherwise the difference must change sign across the
    interval. The returned abscissa is within _BISECT_TOL * (initial width)
    of the crossing."""
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
        if hi - lo <= _BISECT_TOL * span:
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
    the four sign pairs; NaN when zero-forcing is infeasible at that split,
    which no sign changes, so the four are NaN together or numbers together.
    branch_sign's pair alone is not enough: where the MAC sum cap
    truncates, rescaling the rates can leave another pair 1 ulp higher."""
    return max(_sum_rate_or_nan(setup, PowerAllocation(p1=p, p2=p, rho1=0.5,
                                                       n1=n1, n2=n2))
               for n1, n2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)))


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
