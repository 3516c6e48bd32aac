"""First-order low-power analysis and the closed-form power split.

As the node budget P shrinks with PR/P held fixed, both decoding caps admit
expansions that are linear in the powers: user i's relay-side cap grows like
||g_iR||^2 p_i / ln 2, while its destination-side cap falls off linearly
from mu_ii^2 P / ln 2 as p_i grows, since power moved into the new-message
slot is power taken from the repeated message. To first order the cross
interference drops out entirely, so the two users decouple and the best
split for each is simply the crossing of one increasing and one decreasing
curve in p_i -- a quadratic equation with a closed-form root.

The expansion of the effective own-channel gain around p_i = 0 is

    f_ii ~ mu_ii + nu_ii * p_i / P,

where mu_ii collects the direct gain, the zero-forcing projection loss and
the sign-dependent relay contribution, and nu_ii is the first derivative of
the square-root term. Both require S_i^2 = rho_i PR ||hRj||^2 / P - h_ij^2
to be strictly positive: that is exactly the condition for the relay to
have enough power to zero-force at p_i = 0 with margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (DegenerateAntenna, DegenerateRelayChannel,
                     LinearizationInfeasible, NoFeasibleRho)
from .model import ChannelSetup, PowerAllocation, own_gain, zf_radicand
from .rates import LN2, RateRegion, hull2d

__all__ = [
    "ApproxCoeffs",
    "LinearizedRates",
    "ClosedFormPowers",
    "BestSignPowers",
    "RhoRegion",
    "taylor_coeffs",
    "linearized_rates",
    "closed_form_phat",
    "best_sign_powers",
    "region_rho",
    "full_region",
    "sum_rate_allocation",
]


@dataclass(frozen=True)
class ApproxCoeffs:
    """First-order coefficients of both users' caps at one (rho1, n1, n2)."""

    rho1: float
    n1: int
    n2: int
    mu11: float
    nu11: float
    S1: float
    mu22: float
    nu22: float
    S2: float
    lambda1: float
    lambda2: float
    # mu^2 and q = mu nu, read by every linearized_rates call
    mu11_sq: float = field(init=False, repr=False, compare=False)
    q11: float = field(init=False, repr=False, compare=False)
    mu22_sq: float = field(init=False, repr=False, compare=False)
    q22: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mu11_sq", self.mu11 * self.mu11)
        object.__setattr__(self, "q11", self.mu11 * self.nu11)
        object.__setattr__(self, "mu22_sq", self.mu22 * self.mu22)
        object.__setattr__(self, "q22", self.mu22 * self.nu22)


class LinearizedRates(NamedTuple):
    """Both caps for both users, first order, nats scaled to bits. A named
    tuple, not a frozen dataclass: bisection builds one per evaluation, and
    a frozen dataclass costs four times as much to build."""

    r1mac: float
    r2mac: float
    r1ic: float
    r2ic: float


@dataclass(frozen=True)
class ClosedFormPowers:
    """Crossing-point powers; clamped_i marks a root pulled back into [0, P]."""

    p1: float
    p2: float
    clamped1: bool
    clamped2: bool


@dataclass(frozen=True)
class BestSignPowers:
    """Per-user best beam-branch signs and the powers they achieve."""

    n1: int
    n2: int
    p1: float
    p2: float


@dataclass(frozen=True)
class RhoRegion:
    """First-order rate rectangle at a fixed relay power split rho1.

    An infeasible user (relay cannot zero-force for it even at p_i = 0)
    contributes a degenerate zero edge rather than an error, so a single
    bad user still yields the other user's segment."""

    rho1: float
    R1max: float
    R2max: float
    p1: float
    p2: float
    n1: int
    n2: int
    feasible1: bool
    feasible2: bool

    @property
    def rectangle(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, 0.0), (self.R1max, 0.0),
                (self.R1max, self.R2max), (0.0, self.R2max))


def _user_expansion(setup: ChannelSetup, rho1: float, user: int,
                    sign: int) -> tuple[float, float, float]:
    """(mu, nu, S) for one user at one beam-branch sign.

    Raises DegenerateAntenna if the other user's relay column vanishes and
    LinearizationInfeasible if S^2 <= 0 (no zero-forcing margin at p_i = 0).
    """
    rho_i, orient = (rho1, 1.0) if user == 1 else (1.0 - rho1, -1.0)
    if setup.P <= 0.0:
        raise LinearizationInfeasible("expansion needs P > 0")
    try:
        s_sq, _ = zf_radicand(setup, user, rho_i, setup.P)  # the p_i = 0 radicand
    except DegenerateRelayChannel as exc:
        raise DegenerateAntenna(
            f"relay column for user {3 - user} is zero; cannot zero-force") from exc
    if s_sq <= 0.0:
        raise LinearizationInfeasible(
            f"user {user}: rho_i*PR*||hRj||^2/P - h_ij^2 = {s_sq:.6g} <= 0")
    s_val = math.sqrt(s_sq)
    mu = own_gain(setup, user, sign, s_val)
    nu = (orient * sign * rho_i * setup.PR * setup.hR_det
          / (2.0 * setup.P * s_val))
    return mu, nu, s_val


def _check_rho(rho1: float) -> float:
    if not 0.0 <= rho1 <= 1.0:
        raise ValueError(f"rho1 must lie in [0, 1], got {rho1!r}")
    return rho1


def taylor_coeffs(setup: ChannelSetup, rho1: float,
                  n1: int = 1, n2: int = 1) -> ApproxCoeffs:
    """First-order coefficients for both users at the given split and signs."""
    _check_rho(rho1)
    if n1 not in (-1, 1) or n2 not in (-1, 1):
        raise ValueError("beam-branch signs must be -1 or 1")
    mu11, nu11, s1 = _user_expansion(setup, rho1, 1, n1)
    mu22, nu22, s2 = _user_expansion(setup, rho1, 2, n2)
    lambda1 = 2.0 * mu11 * nu11 - mu11 ** 2 - setup.g1R_norm2
    lambda2 = 2.0 * mu22 * nu22 - mu22 ** 2 - setup.g2R_norm2
    return ApproxCoeffs(rho1=rho1, n1=n1, n2=n2, mu11=mu11, nu11=nu11, S1=s1,
                        mu22=mu22, nu22=nu22, S2=s2,
                        lambda1=lambda1, lambda2=lambda2)


def linearized_rates(coeffs: ApproxCoeffs, setup: ChannelSetup,
                     p1: float, p2: float) -> LinearizedRates:
    """First-order caps at (p1, p2). The destination-side cap of user i
    depends only on p_i; cross interference is second order and dropped.
    Exactly zero at p_i = P: all budget on the new message leaves nothing
    to repeat."""
    r1mac = setup.g1R_norm2 * p1 / LN2
    r2mac = setup.g2R_norm2 * p2 / LN2
    r1ic = _linear_ic(coeffs.mu11_sq, coeffs.q11, setup.P, p1)
    r2ic = _linear_ic(coeffs.mu22_sq, coeffs.q22, setup.P, p2)
    return LinearizedRates(r1mac, r2mac, r1ic, r2ic)


def _linear_ic(mu_sq: float, q: float, big_p: float, p: float) -> float:
    return (mu_sq * big_p + (2.0 * q - mu_sq) * p
            - 2.0 * q * p * p / big_p) / LN2


def _phat_user(mu_sq: float, q: float, g_norm2: float,
               big_p: float) -> tuple[float, bool]:
    """Crossing of the two first-order caps in [0, P] for one user.

    The crossing solves 2q p^2/P - lambda p - mu^2 P = 0 with q = mu*nu and
    lambda = 2q - mu^2 - ||g||^2; the rationalized root 2 mu^2 P / (sqrt(
    lambda^2 + 8 mu^2 q) - lambda) is the one in [0, P] for either sign of
    q and stays stable as q -> 0."""
    if mu_sq == 0.0:
        # destination-side cap is identically zero; only p = 0 avoids waste
        return 0.0, False
    if g_norm2 == 0.0:
        # relay-side cap is identically zero; the crossing degenerates to P
        return big_p, False
    lam = 2.0 * q - mu_sq - g_norm2
    disc = lam * lam + 8.0 * mu_sq * q
    denom = math.sqrt(max(disc, 0.0)) - lam
    if denom <= 0.0:
        return 0.0, True
    p = 2.0 * mu_sq * big_p / denom
    if p < 0.0:
        return 0.0, True
    if p > big_p:
        return big_p, True
    return p, False


def closed_form_phat(coeffs: ApproxCoeffs, setup: ChannelSetup) -> ClosedFormPowers:
    """Both users' crossing-point powers for the signs baked into coeffs."""
    p1, c1 = _phat_user(coeffs.mu11_sq, coeffs.q11, setup.g1R_norm2, setup.P)
    p2, c2 = _phat_user(coeffs.mu22_sq, coeffs.q22, setup.g2R_norm2, setup.P)
    return ClosedFormPowers(p1=p1, p2=p2, clamped1=c1, clamped2=c2)


def _best_sign_user(setup: ChannelSetup, rho1: float,
                    user: int) -> tuple[int, float]:
    """Beam-branch sign maximizing the crossing power; ties keep +1.
    S is sign-independent, so feasibility never depends on the branch."""
    g_norm2 = setup.g1R_norm2 if user == 1 else setup.g2R_norm2
    best_sign, best_p = 0, -1.0
    for sign in (1, -1):
        mu, nu, _ = _user_expansion(setup, rho1, user, sign)
        p, _ = _phat_user(mu * mu, mu * nu, g_norm2, setup.P)
        if p > best_p:
            best_sign, best_p = sign, p
    return best_sign, best_p


def best_sign_powers(setup: ChannelSetup, rho1: float) -> BestSignPowers:
    """Maximize each user's crossing power over its beam-branch sign.

    The users decouple (p_i depends on n_i only), so the joint optimum is
    two independent one-bit choices."""
    _check_rho(rho1)
    n1, p1 = _best_sign_user(setup, rho1, 1)
    n2, p2 = _best_sign_user(setup, rho1, 2)
    return BestSignPowers(n1=n1, n2=n2, p1=p1, p2=p2)


def region_rho(setup: ChannelSetup, rho1: float) -> RhoRegion:
    """First-order rectangle at one relay split, degenerate per infeasible
    user instead of raising: R_i^max = ||g_iR||^2 p~_i / ln 2."""
    _check_rho(rho1)
    found = []
    for user in (1, 2):
        try:
            sign, p = _best_sign_user(setup, rho1, user)
            found.append((sign, p, True))
        except (DegenerateAntenna, LinearizationInfeasible):
            found.append((1, 0.0, False))
    (n1, p1, f1), (n2, p2, f2) = found
    return RhoRegion(rho1=rho1,
                     R1max=setup.g1R_norm2 * p1 / LN2,
                     R2max=setup.g2R_norm2 * p2 / LN2,
                     p1=p1, p2=p2, n1=n1, n2=n2, feasible1=f1, feasible2=f2)


def _feasible_regions(setup: ChannelSetup, rho_grid) -> list[RhoRegion]:
    """region_rho over a grid of relay splits (default 0.01, ..., 0.99),
    keeping the splits where at least one user is feasible."""
    if rho_grid is None:
        rho_grid = [k / 100.0 for k in range(1, 100)]
    regions = [region_rho(setup, float(rho1)) for rho1 in rho_grid]
    regions = [r for r in regions if r.feasible1 or r.feasible2]
    if not regions:
        raise NoFeasibleRho(
            "no relay split in the grid leaves zero-forcing margin for either user")
    return regions


def full_region(setup: ChannelSetup, rho_grid=None) -> RateRegion:
    """Union of the per-rho rectangles over a grid of relay splits, returned
    as the convex hull of their corners (time sharing fills the rest)."""
    points = [(0.0, 0.0)]
    for region in _feasible_regions(setup, rho_grid):
        points.extend(region.rectangle[1:])
    return RateRegion(vertices=tuple(hull2d(points)))


def sum_rate_allocation(setup: ChannelSetup, rho_values=None) -> PowerAllocation:
    """Relay split, signs and powers maximizing the first-order sum rate
    ( ||g1R||^2 p~_1 + ||g2R||^2 p~_2 ) / ln 2 over a grid of splits.

    Ties keep the earliest split in the grid, the smallest rho1 on an
    ascending grid. A split where only one user is feasible still competes
    with that user's term alone."""
    region = max(_feasible_regions(setup, rho_values),
                 key=lambda r: setup.g1R_norm2 * r.p1 + setup.g2R_norm2 * r.p2)
    return PowerAllocation(p1=region.p1, p2=region.p2, rho1=region.rho1,
                           n1=region.n1, n2=region.n2)
