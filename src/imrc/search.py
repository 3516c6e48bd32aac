"""Brute-force and root-finding oracles.

Everything here is deliberately assumption-free: the grid search evaluates
the exact scheme sum rate at every (p1, p2, rho1, n1, n2) combination
rather than trusting any closed-form shortcut, bisection finds curve
intersections by sign changes alone, and the hull is plain monotone chain.
These are the references the analytical results are checked against.

One broadcast objective serves every search: it mirrors beam_vector /
effective_gains / scheme_rate_point arithmetically -- including the
radicand feasibility tolerance -- over whole arrays of (rho1, n1, n2)
blocks, never materializing beam vectors. The coarse stage shares what a
block does not depend on (the MAC sum cap once per grid, user 1's capped
rate once per (rho1, n1), user 2's once per (rho1, n2)); the zoom stage
advances all live windows together, round by round, in fixed-size chunks.
This is exact, not approximate: each cell sees the same IEEE operations
in the same order as a one-block evaluation, an infeasible user's -inf
passes unchanged through the sum and the minimum, argmax keeps the first
row-major maximum, and the windows repeat np.linspace's arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateRelayChannel, InfeasibleRadicand,
                     NoFeasiblePoint, NoFeasibleRho, NoSignChange)
from .lowpower import sum_rate_allocation
from .model import RADICAND_RTOL, ChannelSetup, PowerAllocation, validate
from .rates import scheme_rate_point

__all__ = [
    "GridSpec",
    "SearchResult",
    "SweepPolicy",
    "SweepRow",
    "SweepTable",
    "grid_search_sum_rate",
    "bisect_intersection",
    "hull2d",
    "search_p1",
    "sweep_P",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform search grid: n_p points per power axis on [0, P] (the last
    one dropped when include_boundary is false) and n_rho interior points
    k/(n_rho + 1) on (0, 1)."""

    n_p: int = 101
    n_rho: int = 99
    include_boundary: bool = True

    def __post_init__(self):
        if self.n_p < 2:
            raise ValueError(f"n_p must be >= 2, got {self.n_p}")
        if self.n_rho < 1:
            raise ValueError(f"n_rho must be >= 1, got {self.n_rho}")

    def p_values(self, P: float) -> np.ndarray:
        values = np.linspace(0.0, float(P), self.n_p)
        return values if self.include_boundary else values[:-1]

    def rho_values(self) -> np.ndarray:
        return np.arange(1, self.n_rho + 1, dtype=float) / (self.n_rho + 1.0)


@dataclass(frozen=True)
class SearchResult:
    allocation: PowerAllocation
    sum_rate: float


@dataclass(frozen=True)
class SweepPolicy:
    """How each sweep row is computed: the coarse grid, whether each sign
    block's best cell is sharpened by a nested zoom around its argmax, and
    the relay budget rule (None means PR = P row by row)."""

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
# current best with _ZOOM_POINTS samples per axis. Windows are evaluated
# _ZOOM_CHUNK at a time, so every temporary holds about 8k cells
# (18 x 21 x 21 = 7,938). Bigger chunks cut call overhead but grow peak
# RSS: 146 windows (64k cells) added 1.5 MB over a 600-row sweep.
_ZOOM_ROUNDS = 3
_ZOOM_POINTS = 21
_ZOOM_CHUNK = 18


def _signal(setup: ChannelSetup, user: int, rho1, sign, p
            ) -> tuple[np.ndarray, np.ndarray]:
    """Received power of user i's repeated message and its zero-forcing
    feasibility, broadcast over rho1, the branch sign and p_i. Entries at
    p_i = P use the boundary construction (always feasible); interior
    entries replicate the beam-vector algebra in closed form:

        f_ii = h_ii - h_ij (hRi.hRj)/||hRj||^2 +/- n_i sqrt(rad) det(H)/||hRj||^2
    """
    if user == 1:
        h_own, h_cross, norm2 = setup.h11, setup.h12, setup.hR2_norm2
        rho_i, orient = rho1, 1.0
    else:
        h_own, h_cross, norm2 = setup.h22, setup.h21, setup.hR1_norm2
        rho_i, orient = 1.0 - rho1, -1.0
    if norm2 == 0.0:
        # no direction cancels the cross link; nothing is feasible
        shape = np.broadcast_shapes(np.shape(rho_i), np.shape(sign),
                                    np.shape(p))
        return np.zeros(shape), np.zeros(shape, dtype=bool)
    det = setup.relay_det()
    boundary = p >= setup.P
    remaining = np.where(boundary, 1.0, setup.P - p)
    scale = norm2 * (rho_i * setup.PR / remaining)
    rad = scale - h_cross ** 2
    feasible = rad >= -RADICAND_RTOL * np.abs(scale)
    root = np.sqrt(np.maximum(rad, 0.0))
    f_own = (h_own - h_cross * setup.relay_dot() / norm2
             + orient * sign * det * root / norm2)
    sig = np.where(boundary, rho_i * setup.PR * det * det / norm2,
                   f_own * f_own * remaining)
    return sig, boundary | feasible


def _capped_rate(setup: ChannelSetup, user: int, signal, p_own, p_other
                 ) -> np.ndarray:
    """min(R_i^mac, R_i^ic) for user i given its _signal over p_own, -inf
    where zero forcing fails; the arguments broadcast, so the result's
    axes are the caller's."""
    sig, ok = signal
    if user == 1:
        gain2, cross2 = setup.g1R_norm2, setup.h21 ** 2
    else:
        gain2, cross2 = setup.g2R_norm2, setup.h12 ** 2
    # an infeasible p_i caps the rate at -inf; r_ic is finite there
    cap = np.where(ok, np.log2(1.0 + gain2 * p_own), -np.inf)
    rate = np.divide(sig, 1.0 + cross2 * p_other)
    rate += 1.0
    np.log2(rate, out=rate)
    return np.minimum(cap, rate, out=rate)


def _mac_sum(setup: ChannelSetup, p1, p2) -> np.ndarray:
    g11, g12 = setup.g1R
    g21, g22 = setup.g2R
    alpha = (g11 * g22) ** 2 + (g21 * g12) ** 2 - 2.0 * g12 * g21 * g11 * g22
    return np.log2(alpha * (p1 * p2) + setup.g1R_norm2 * p1
                   + setup.g2R_norm2 * p2 + 1.0)


def _objective(setup: ChannelSetup, rho1, n1, n2, p1: np.ndarray,
               p2: np.ndarray) -> np.ndarray:
    """Exact scheme sum rate on the outer grid p1 (rows) x p2 (columns),
    -inf where zero forcing fails for either user. Leading axes of p1 and
    p2 broadcast against rho1, n1 and n2, one block per index. Agrees with
    scheme_rate_point up to rounding: sum-cap truncation preserves the
    sum, so the objective is simply min(R1 + R2, Rsum_mac)."""
    rows, cols = p1[..., :, None], p2[..., None, :]
    total = (_capped_rate(setup, 1, _signal(setup, 1, rho1, n1, rows),
                          rows, cols)
             + _capped_rate(setup, 2, _signal(setup, 2, rho1, n2, cols),
                            cols, rows))
    return np.minimum(total, _mac_sum(setup, rows, cols), out=total)


def _coarse(setup: ChannelSetup, rhos: np.ndarray, pv: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Best cell of every (rho1, n1, n2) block on the grid pv x pv: the
    value (-inf when nothing is feasible) and the first row-major argmax,
    both shaped (rho1, n1, n2). Terms a block does not depend on are
    shared: the MAC sum cap once per grid, each user's capped rate once
    per (rho1, own sign)."""
    rows, cols = pv[:, None], pv[None, :]
    rho1, signs = rhos[:, None, None, None], _SIGNS[:, None, None]
    sig1, ok1 = _signal(setup, 1, rho1, signs, rows)  # (rho1, n1, p1, 1)
    sig2, ok2 = _signal(setup, 2, rho1, signs, cols)  # (rho1, n2, 1, p2)
    rsum = _mac_sum(setup, rows, cols)
    blocks = np.empty((2, 2, len(pv), len(pv)))
    flat = blocks.reshape(4, -1)
    value = np.empty((len(rhos), 4))
    arg = np.empty((len(rhos), 4), dtype=np.intp)
    for k in range(len(rhos)):
        term1 = _capped_rate(setup, 1, (sig1[k], ok1[k]), rows, cols)
        term2 = _capped_rate(setup, 2, (sig2[k], ok2[k]), cols, rows)
        np.add(term1[:, None], term2[None, :], out=blocks)
        np.minimum(blocks, rsum, out=blocks)
        arg[k] = flat.argmax(axis=1)
        value[k] = flat[np.arange(4), arg[k]]
    return value.reshape(-1, 2, 2), arg.reshape(-1, 2, 2)


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, points: int) -> np.ndarray:
    """np.linspace(lo[w], hi[w], points) for every row w, with its exact
    arithmetic: arange * step + lo, or (arange / div) * delta + lo where
    the step underflows to zero, and the last sample set to hi."""
    div = points - 1
    ramp = np.arange(points, dtype=float)
    delta = (hi - lo)[:, None]
    step = delta / div
    rows = np.where(step == 0.0, ramp / div * delta, ramp * step)
    rows += lo[:, None]
    rows[:, -1] = hi
    return rows


def _zoom(setup: ChannelSetup, rho1: np.ndarray, n1: np.ndarray,
          n2: np.ndarray, value: np.ndarray, c1: np.ndarray, c2: np.ndarray,
          half1: float, half2: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sharpen each window's coarse best cell (value at c1, c2) by a
    deterministic zoom: re-grid +/- half per axis around the current
    center, move the center to the argmax, shrink the half-widths to the
    new sample spacing, repeat. Windows are clamped to [0, P] with exact
    endpoints so p = P stays reachable; a zero half-width pins that axis.
    A zoom cell replaces the best only when strictly better, so the result
    never falls below the coarse value. A window stops at the first round
    that finds no feasible cell, and a window whose coarse value is -inf
    is not zoomed. All live windows advance together, round by round."""
    best, best1, best2 = value.copy(), c1.copy(), c2.copy()
    c1, c2 = c1.copy(), c2.copy()
    live = np.flatnonzero(value > -np.inf)
    cells = _ZOOM_POINTS * _ZOOM_POINTS
    for _ in range(_ZOOM_ROUNDS):
        found = np.zeros(len(live), dtype=bool)
        for start in range(0, len(live), _ZOOM_CHUNK):
            w = live[start:start + _ZOOM_CHUNK]
            p1w = _linspace_rows(np.maximum(0.0, c1[w] - half1),
                                 np.minimum(setup.P, c1[w] + half1),
                                 _ZOOM_POINTS)
            p2w = _linspace_rows(np.maximum(0.0, c2[w] - half2),
                                 np.minimum(setup.P, c2[w] + half2),
                                 _ZOOM_POINTS)
            obj = _objective(setup, rho1[w, None, None], n1[w, None, None],
                             n2[w, None, None], p1w, p2w).reshape(-1, cells)
            row = np.arange(len(w))
            at = obj.argmax(axis=1)  # first maximum, row-major
            top = obj[row, at]
            found[start:start + len(w)] = top > -np.inf
            i, j = np.divmod(at, _ZOOM_POINTS)
            c1[w], c2[w] = p1w[row, i], p2w[row, j]
            gain = top > best[w]
            won = w[gain]
            best[won], best1[won], best2[won] = top[gain], c1[won], c2[won]
        live = live[found]  # a window that found nothing stops here
        half1 /= 10.0  # the sampled spacing of a 21-point +/-half window
        half2 /= 10.0
    return best, best1, best2


def _search(setup: ChannelSetup, grid: GridSpec, refine: bool
            ) -> PowerAllocation | None:
    """Maximize the exact scheme sum rate over the grid and both signs per
    user, optionally zooming on each block's best cell (the zoom result
    replaces the cell only when strictly better). Exact-value ties resolve
    to the smallest (rho1, p1, p2, n1, n2); None when nothing is
    feasible."""
    pv = grid.p_values(setup.P)
    rhos = grid.rho_values()
    value, arg = _coarse(setup, rhos, pv)
    k, a, b = np.nonzero(value > -np.inf)
    if not len(k):
        return None
    value, arg = value[k, a, b], arg[k, a, b]
    rho1, n1, n2 = rhos[k], _SIGNS[a], _SIGNS[b]
    c1, c2 = pv[arg // len(pv)], pv[arg % len(pv)]
    step = float(pv[1] - pv[0]) if len(pv) > 1 else 0.0
    if refine and step > 0.0:
        value, c1, c2 = _zoom(setup, rho1, n1, n2, value, c1, c2, step, step)
    ties = np.flatnonzero(value == value.max())
    key = min((float(rho1[t]), float(c1[t]), float(c2[t]), int(n1[t]),
               int(n2[t])) for t in ties)
    rho, p1, p2, s1, s2 = key
    return PowerAllocation(p1=p1, p2=p2, rho1=rho, n1=s1, n2=s2)


def grid_search_sum_rate(setup: ChannelSetup,
                         grid: GridSpec | None = None) -> SearchResult:
    """Maximize the exact scheme sum rate over the full grid x both sign
    choices per user. Pure enumeration -- every grid point is evaluated,
    no structure assumed. Deterministic: exact-value ties resolve to the
    smallest (rho1, p1, p2, n1, n2)."""
    validate(setup)
    alloc = _search(setup, grid or GridSpec(), refine=False)
    if alloc is None:
        raise NoFeasiblePoint("no grid point admits zero-forcing for both users")
    return SearchResult(allocation=alloc,
                        sum_rate=scheme_rate_point(setup, alloc).sum_rate)


def search_p1(setup: ChannelSetup, rho1: float, n_p: int) -> float | None:
    """Best new-message power p1 of user 1 with p2 = 0 and n2 = +1: the
    exact sum rate on np.linspace(0, P, n_p), zoomed around the argmax,
    maximized over n1 with +1 kept on ties. None when no p1 is feasible."""
    pv = np.linspace(0.0, setup.P, n_p)
    n1 = _SIGNS[::-1]
    column = _objective(setup, rho1, n1[:, None, None], 1, pv,
                        np.zeros(1))[:, :, 0]
    at = column.argmax(axis=1)
    step = float(pv[1] - pv[0])
    value, c1, _ = _zoom(setup, np.full(2, rho1), n1, np.ones(2, dtype=int),
                         column[np.arange(2), at], pv[at], np.zeros(2),
                         step, 0.0)
    k = int(np.argmax(value))
    return None if value[k] == -np.inf else float(c1[k])


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


def hull2d(points) -> list[tuple[float, float]]:
    """Convex hull by monotone chain: counterclockwise vertex list starting
    from the lexicographically smallest point, collinear points dropped.
    Degenerate inputs (single point, segment, all collinear) come back as
    the 1 or 2 extreme points."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if not pts:
        raise ValueError("hull2d needs at least one point")
    if len(pts) <= 2:
        return pts

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _sum_rate_or_nan(setup: ChannelSetup, alloc: PowerAllocation) -> float:
    """Exact scheme sum rate, NaN where zero forcing is infeasible."""
    try:
        return scheme_rate_point(setup, alloc).sum_rate
    except (InfeasibleRadicand, DegenerateRelayChannel):
        return float("nan")


def _fixed_split_rate(setup: ChannelSetup, p: float) -> float:
    """Exact scheme sum rate at p1 = p2 = p with rho1 = 1/2, maximized over
    the four sign pairs ((+1,+1) kept on ties); NaN when zero-forcing is
    infeasible at that split."""
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
