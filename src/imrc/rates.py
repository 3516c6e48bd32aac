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

from . import beamforming
from .errors import BadBlockCount
from .model import ChannelSetup, PowerAllocation

__all__ = [
    "RatePoint",
    "MacRates",
    "SchemeRates",
    "RateRegion",
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


def mac_rates(setup: ChannelSetup, p1: float, p2: float) -> MacRates:
    """Relay-side caps: R_i = log2(1 + ||g_iR||^2 p_i) and
    Rsum = log2 det(I + G diag(p1, p2) G^T) with G = [g1R g2R], the
    determinant written out by mac_sum_expanded."""
    r1 = math.log2(1.0 + setup.g1R_norm2 * p1)
    r2 = math.log2(1.0 + setup.g2R_norm2 * p2)
    return MacRates(R1mac=r1, R2mac=r2,
                    Rsum_mac=mac_sum_expanded(setup, p1, p2))


def mac_sum_expanded(setup: ChannelSetup, p1: float, p2: float) -> float:
    """The sum cap written out as log2(alpha*p1*p2 + beta*p1 + gamma*p2 + 1)
    with alpha = (g11 g22)^2 + (g21 g12)^2 - 2 g12 g21 g11 g22 (the squared
    2x2 determinant of [g1R g2R]), beta = ||g1R||^2, gamma = ||g2R||^2.
    Finite wherever the per-user caps are: where alpha p1 p2 overflows
    (budgets above about 1e154), p1's binary exponent is taken out first."""
    g11, g12 = setup.g1R
    g21, g22 = setup.g2R
    alpha = (g11 * g22) ** 2 + (g21 * g12) ** 2 - 2.0 * g12 * g21 * g11 * g22
    beta = setup.g1R_norm2
    gamma = setup.g2R_norm2
    value = alpha * p1 * p2 + beta * p1 + gamma * p2 + 1.0
    if math.isinf(value):
        mant, exp = math.frexp(p1)
        unit = math.ldexp(1.0, -exp)
        return math.log2(alpha * mant * p2 + beta * mant
                         + gamma * p2 * unit + unit) + exp
    return math.log2(value)


def _ic_signal(setup: ChannelSetup, alloc: PowerAllocation,
               effective: beamforming.EffectiveChannel, user: int) -> float:
    """Numerator of the destination-side SINR for `user`: the repeated
    message's received power. Away from p_i = P that is f_ii^2 (P - p_i);
    at the boundary the relay alone sends it with unit-normalized f_ii^2."""
    if user == 1:
        f_own, p_own = effective.f11, alloc.p1
    else:
        f_own, p_own = effective.f22, alloc.p2
    factor = 1.0 if p_own >= setup.P else setup.P - p_own
    return f_own ** 2 * factor


def ic_rates(setup: ChannelSetup, alloc: PowerAllocation,
             effective: beamforming.EffectiveChannel | None = None) -> RatePoint:
    """Destination-side caps with interference treated as noise:
    R_i = log2(1 + f_ii^2 (P - p_i) / (1 + f_ji^2 p_j))."""
    if effective is None:
        effective = beamforming.effective_gains(setup, alloc)
    s1 = _ic_signal(setup, alloc, effective, 1)
    s2 = _ic_signal(setup, alloc, effective, 2)
    r1 = math.log2(1.0 + s1 / (1.0 + effective.f21 ** 2 * alloc.p2))
    r2 = math.log2(1.0 + s2 / (1.0 + effective.f12 ** 2 * alloc.p1))
    return RatePoint(R1=r1, R2=r2)


def abundant_power_rates(setup: ChannelSetup, alloc: PowerAllocation) -> RatePoint:
    """Destination-side rates in the abundant-relay-power regime PR >> P:
    R_i = log2(1 + det^2(H) rho_i PR / (||hRj||^2 (1 + h_ji^2 p_j))),
    H = [hR1 hR2]. Computed for any input; meaningful when PR >> P."""
    det = setup.relay_det()
    rates = []
    for rho_i, norm2_other, h_in, p_other in (
            (alloc.rho1, setup.hR2_norm2, setup.h21, alloc.p2),
            (alloc.rho2, setup.hR1_norm2, setup.h12, alloc.p1)):
        if norm2_other == 0.0:
            rates.append(0.0)  # det(H) = 0 too; the relay path carries nothing
            continue
        gain = det ** 2 * rho_i * setup.PR / (norm2_other * (1.0 + h_in ** 2 * p_other))
        rates.append(math.log2(1.0 + gain))
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
