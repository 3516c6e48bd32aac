"""Exact achievable-rate formulas.

Decoding happens in two places. The relay decodes both new messages like a
two-user multiple access channel over its two antennas, capping each rate
and the sum rate (mac_rates). Each destination treats the residual cross
interference as noise after the relay's zero forcing, capping the rate a
second time (ic_rates). A user's rate is the minimum of its two caps, and
the pair is additionally held under the MAC sum cap (scheme_rate_point).
All rates are in bits per channel use; noise power is 1 everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBlockCount, DegenerateRelayChannel
from .model import (ChannelSetup, PowerAllocation, boundary_signal,
                    own_signal, zf_root)

__all__ = [
    "RatePoint",
    "MacRates",
    "SchemeRates",
    "RateRegion",
    "hull2d",
    "mac_rates",
    "mac_sum_expanded",
    "ic_rates",
    "abundant_power_rates",
    "scheme_rate_point",
    "block_penalty",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class RatePoint:
    """An achievable rate pair, bits per channel use."""

    R1: float
    R2: float

    def __post_init__(self):
        for name, value in (("R1", self.R1), ("R2", self.R2)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class MacRates:
    """Relay-side decoding caps: per-user rates and the sum rate."""

    R1mac: float
    R2mac: float
    Rsum_mac: float


@dataclass(frozen=True)
class SchemeRates:
    """Full rate breakdown at one allocation. R1, R2 is the achievable
    pair after the per-user min and the sum-cap truncation."""

    R1: float
    R2: float
    R1mac: float
    R2mac: float
    Rsum_mac: float
    R1ic: float
    R2ic: float
    truncated: bool

    @property
    def point(self) -> RatePoint:
        return RatePoint(self.R1, self.R2)

    @property
    def sum_rate(self) -> float:
        return self.R1 + self.R2


@dataclass(frozen=True)
class RateRegion:
    """A convex polygon of achievable rate pairs, vertices in
    counterclockwise order starting from the lexicographically smallest."""

    vertices: tuple[tuple[float, float], ...]

    def contains(self, r1: float, r2: float, tol: float = 1e-9) -> bool:
        """Point-in-convex-polygon test with absolute slack scaled by the
        polygon's extent. Handles degenerate (point/segment) polygons."""
        verts = self.vertices
        if not verts:
            return False
        extent = max(max(abs(x), abs(y)) for x, y in verts)
        eps = tol * (1.0 + extent)
        if len(verts) == 1:
            return abs(r1 - verts[0][0]) <= eps and abs(r2 - verts[0][1]) <= eps
        if len(verts) == 2:
            (x0, y0), (x1, y1) = verts
            dx, dy = x1 - x0, y1 - y0
            length = math.hypot(dx, dy)
            if length == 0.0:
                return abs(r1 - x0) <= eps and abs(r2 - y0) <= eps
            dist = abs(dx * (r2 - y0) - dy * (r1 - x0)) / length
            t = ((r1 - x0) * dx + (r2 - y0) * dy) / (length * length)
            return dist <= eps and -tol <= t <= 1.0 + tol
        n = len(verts)
        for k in range(n):
            x0, y0 = verts[k]
            x1, y1 = verts[(k + 1) % n]
            if (x1 - x0) * (r2 - y0) - (y1 - y0) * (r1 - x0) < -eps:
                return False
        return True


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


def mac_rates(setup: ChannelSetup, p1: float, p2: float) -> MacRates:
    """Relay-side caps: R_i = log2(1 + ||g_iR||^2 p_i) and
    Rsum = log2 det(I + G diag(p1, p2) G^T) with G = [g1R g2R], the
    determinant written out by mac_sum_expanded."""
    r1 = math.log2(1.0 + setup.g1R_norm2 * p1)
    r2 = math.log2(1.0 + setup.g2R_norm2 * p2)
    return MacRates(R1mac=r1, R2mac=r2,
                    Rsum_mac=mac_sum_expanded(setup, p1, p2))


def mac_sum_argument(setup: ChannelSetup, p1, p2, scale: float = 1.0):
    """scale * (alpha p1 p2 + ||g1R||^2 p1 + ||g2R||^2 p2 + 1), the MAC sum
    cap's argument, with alpha = det([g1R g2R])^2 (setup.mac_alpha). Plain
    arithmetic, so floats and numpy arrays both pass; scaling p1 first
    keeps alpha p1 p2 finite, and a power-of-two scale does not round."""
    p1 = p1 * scale
    return (setup.mac_alpha * (p1 * p2) + setup.g1R_norm2 * p1
            + setup.g2R_norm2 * p2 * scale + scale)


def mac_sum_expanded(setup: ChannelSetup, p1: float, p2: float) -> float:
    """The sum cap log2(alpha p1 p2 + ||g1R||^2 p1 + ||g2R||^2 p2 + 1), see
    mac_sum_argument. Finite wherever the per-user caps are: where alpha p1
    p2 overflows (budgets above about 1e154), p1's binary exponent is taken
    out first."""
    value = mac_sum_argument(setup, p1, p2)
    if not math.isfinite(value):  # alpha = 0 makes it 0 inf = NaN
        exp = math.frexp(p1)[1]
        return math.log2(mac_sum_argument(setup, p1, p2,
                                          math.ldexp(1.0, -exp))) + exp
    return math.log2(value)


def check_budget(setup: ChannelSetup, user: int, p_i: float) -> None:
    """Raise ValueError where user i's power p_i exceeds the budget P."""
    if p_i > setup.P:
        raise ValueError(f"p{user} = {p_i} exceeds the power budget P = {setup.P}")


def _signal(setup: ChannelSetup, alloc: PowerAllocation, user: int) -> float:
    """The repeated message's received power at user i, from model's
    per-user kernel: f_ii^2 (P - p_i) below the budget, the relay-only
    value at p_i = P. Raises where zero forcing fails."""
    p_i, rho_i, n_i = alloc.user(user)
    check_budget(setup, user, p_i)
    if p_i == setup.P:
        return boundary_signal(setup, user, rho_i)
    remaining = setup.P - p_i
    return own_signal(setup, user, n_i, zf_root(setup, user, rho_i, remaining),
                      remaining)


def ic_rates(setup: ChannelSetup, alloc: PowerAllocation) -> RatePoint:
    """Destination-side caps with interference treated as noise:
    R_i = log2(1 + f_ii^2 (P - p_i) / (1 + h_ji^2 p_j)); zero forcing
    leaves the cross gains untouched."""
    s1 = _signal(setup, alloc, 1)
    s2 = _signal(setup, alloc, 2)
    r1 = math.log2(1.0 + s1 / (1.0 + setup.h21 ** 2 * alloc.p2))
    r2 = math.log2(1.0 + s2 / (1.0 + setup.h12 ** 2 * alloc.p1))
    return RatePoint(R1=r1, R2=r2)


def abundant_power_rates(setup: ChannelSetup, alloc: PowerAllocation) -> RatePoint:
    """Destination-side rates in the abundant-relay-power regime PR >> P:
    R_i = log2(1 + det^2(H) rho_i PR / (||hRj||^2 (1 + h_ji^2 p_j))),
    H = [hR1 hR2], the kernel's boundary signal over the interference.
    Computed for any input; meaningful when PR >> P."""
    rates = []
    for user, rho_i, h_in, p_other in ((1, alloc.rho1, setup.h21, alloc.p2),
                                       (2, alloc.rho2, setup.h12, alloc.p1)):
        try:
            signal = boundary_signal(setup, user, rho_i)
        except DegenerateRelayChannel:
            signal = 0.0  # det(H) = 0 too; the relay path carries nothing
        rates.append(math.log2(1.0 + signal / (1.0 + h_in ** 2 * p_other)))
    return RatePoint(R1=rates[0], R2=rates[1])


def scheme_rate_point(setup: ChannelSetup, alloc: PowerAllocation) -> SchemeRates:
    """Achievable pair at one allocation: per-user min of the relay-side and
    destination-side caps, then held under the MAC sum cap by scaling both
    rates down proportionally (the scheme does not prescribe a corner)."""
    mac = mac_rates(setup, alloc.p1, alloc.p2)
    ic = ic_rates(setup, alloc)
    r1 = min(mac.R1mac, ic.R1)
    r2 = min(mac.R2mac, ic.R2)
    total = r1 + r2
    truncated = total > mac.Rsum_mac
    if truncated:
        scale = mac.Rsum_mac / total
        r1 *= scale
        r2 *= scale
    return SchemeRates(R1=r1, R2=r2, R1mac=mac.R1mac, R2mac=mac.R2mac,
                       Rsum_mac=mac.Rsum_mac, R1ic=ic.R1, R2ic=ic.R2,
                       truncated=truncated)


def block_penalty(point: RatePoint, B) -> RatePoint:
    """Account for the B-block transmission: the last block carries no new
    message, so both rates scale by (B-1)/B."""
    if isinstance(B, bool) or not isinstance(B, (int, np.integer)) or B < 2:
        raise BadBlockCount(f"block count must be an integer >= 2, got {B!r}")
    factor = (B - 1) / B
    return RatePoint(R1=point.R1 * factor, R2=point.R2 * factor)
