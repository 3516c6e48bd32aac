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

_user_expansion and _phat_user take numpy arrays, branching by np.where, so
one pass serves a whole grid of relay splits and the scalar functions alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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


def _user_expansion(setup: ChannelSetup, rho1, user: int, sign):
    """(mu, nu, S, S^2) for one user at arrays (or scalars) of rho1 and the
    beam-branch sign, broadcast. mu, nu and S are NaN where S^2 <= 0 (no
    zero-forcing margin at p_i = 0); _expansion raises there.

    Raises DegenerateAntenna if the other user's relay column vanishes and
    LinearizationInfeasible if P <= 0, for every rho1 alike.
    """
    rho_i, orient = (rho1, 1.0) if user == 1 else (1.0 - rho1, -1.0)
    if setup.P <= 0.0:
        raise LinearizationInfeasible("expansion needs P > 0")
    try:
        s_sq, _ = zf_radicand(setup, user, rho_i, setup.P)  # the p_i = 0 radicand
    except DegenerateRelayChannel as exc:
        raise DegenerateAntenna(
            f"relay column for user {3 - user} is zero; cannot zero-force") from exc
    s_val = np.sqrt(np.where(s_sq > 0.0, s_sq, np.nan))
    mu = own_gain(setup, user, sign, s_val)
    nu = (orient * sign * rho_i * setup.PR * setup.hR_det
          / (2.0 * setup.P * s_val))
    return mu, nu, s_val, s_sq


def _expansion(setup: ChannelSetup, rho1: float, user: int,
               sign: int) -> tuple[float, float, float]:
    """(mu, nu, S) at one split; LinearizationInfeasible where S^2 <= 0."""
    mu, nu, s_val, s_sq = _user_expansion(setup, rho1, user, sign)
    if s_sq <= 0.0:
        raise LinearizationInfeasible(
            f"user {user}: rho_i*PR*||hRj||^2/P - h_ij^2 = {s_sq:.6g} <= 0")
    return float(mu), float(nu), float(s_val)


def _check_rho(rho1: float) -> None:
    if not 0.0 <= rho1 <= 1.0:
        raise ValueError(f"rho1 must lie in [0, 1], got {rho1!r}")


def taylor_coeffs(setup: ChannelSetup, rho1: float,
                  n1: int = 1, n2: int = 1) -> ApproxCoeffs:
    """First-order coefficients for both users at the given split and signs."""
    _check_rho(rho1)
    if n1 not in (-1, 1) or n2 not in (-1, 1):
        raise ValueError("beam-branch signs must be -1 or 1")
    mu11, nu11, s1 = _expansion(setup, rho1, 1, n1)
    mu22, nu22, s2 = _expansion(setup, rho1, 2, n2)
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


def _phat_user(mu_sq, q, g_norm2, big_p):
    """Crossing of the two first-order caps in [0, P] for one user, and
    whether a clamp pulled it there.

    The crossing solves 2q p^2/P - lambda p - mu^2 P = 0 with q = mu*nu and
    lambda = 2q - mu^2 - ||g||^2; the rationalized root 2 mu^2 P / (sqrt(
    lambda^2 + 8 mu^2 q) - lambda) is the one in [0, P] for either sign of
    q and stays stable as q -> 0. mu^2 = 0 makes the destination-side cap
    identically zero, so only p = 0 avoids waste; ||g||^2 = 0 does so for
    the relay-side cap, and the crossing degenerates to P."""
    lam = 2.0 * q - mu_sq - g_norm2
    disc = lam * lam + 8.0 * mu_sq * q
    denom = np.sqrt(np.maximum(disc, 0.0)) - lam
    low = denom <= 0.0
    p = 2.0 * mu_sq * big_p / np.where(low, 1.0, denom)
    low |= p < 0.0
    high = p > big_p
    p = np.where(low, 0.0, np.where(high, big_p, p))
    p = np.where(mu_sq == 0.0, 0.0, np.where(g_norm2 == 0.0, big_p, p))
    return p, (low | high) & (mu_sq != 0.0) & (g_norm2 != 0.0)


def closed_form_phat(coeffs: ApproxCoeffs, setup: ChannelSetup) -> ClosedFormPowers:
    """Both users' crossing-point powers for the signs baked into coeffs."""
    p1, c1 = _phat_user(coeffs.mu11_sq, coeffs.q11, setup.g1R_norm2, setup.P)
    p2, c2 = _phat_user(coeffs.mu22_sq, coeffs.q22, setup.g2R_norm2, setup.P)
    return ClosedFormPowers(p1=float(p1), p2=float(p2),
                            clamped1=bool(c1), clamped2=bool(c2))


def best_sign_powers(setup: ChannelSetup, rho1: float) -> BestSignPowers:
    """Maximize each user's crossing power over its beam-branch sign.

    The users decouple (p_i depends on n_i only), so the joint optimum is
    two independent one-bit choices. Raises where region_rho would report
    a user infeasible."""
    _check_rho(rho1)
    for user in (1, 2):
        _expansion(setup, rho1, user, 1)
    region = region_rho(setup, rho1)
    return BestSignPowers(n1=region.n1, n2=region.n2, p1=region.p1,
                          p2=region.p2)


def _splits(setup: ChannelSetup, rho_grid):
    """rho_grid as an array and, per user, (n, p, feasible) arrays in one
    pass: n maximizes the crossing power, +1 on ties (S, and so feasibility,
    does not depend on the branch); a user left unserved gets n = 1, p = 0."""
    rho = np.asarray(rho_grid, dtype=float)
    outside = ~((rho >= 0.0) & (rho <= 1.0))
    if outside.any():
        _check_rho(float(rho[outside][0]))
    signs = np.array([[1], [-1]])  # both beam branches per split, +1 first
    users = []
    for user, g_norm2 in ((1, setup.g1R_norm2), (2, setup.g2R_norm2)):
        try:
            mu, nu, _, s_sq = _user_expansion(setup, rho, user, signs)
        except (DegenerateAntenna, LinearizationInfeasible):
            mu = nu = np.full((2,) + rho.shape, np.nan)
            s_sq = np.zeros(rho.shape)  # no split serves the user
        p, _ = _phat_user(mu * mu, mu * nu, g_norm2, setup.P)
        minus = p[1] > p[0]  # +1 keeps ties; False where p is NaN
        feasible = ~(s_sq <= 0.0)
        users.append((np.where(minus, -1, 1),
                      np.where(feasible, np.where(minus, p[1], p[0]), 0.0),
                      feasible))
    return rho, users


def region_rho(setup: ChannelSetup, rho1: float) -> RhoRegion:
    """First-order rectangle at one relay split, degenerate per infeasible
    user instead of raising: R_i^max = ||g_iR||^2 p~_i / ln 2."""
    _check_rho(rho1)
    _, ((n1, p1, f1), (n2, p2, f2)) = _splits(setup, [rho1])
    p1, p2 = float(p1[0]), float(p2[0])
    return RhoRegion(rho1=rho1,
                     R1max=setup.g1R_norm2 * p1 / LN2,
                     R2max=setup.g2R_norm2 * p2 / LN2,
                     p1=p1, p2=p2, n1=int(n1[0]), n2=int(n2[0]),
                     feasible1=bool(f1[0]), feasible2=bool(f2[0]))


def _feasible_regions(setup: ChannelSetup, rho_grid):
    """rho1, n1, n2, p1, p2 arrays over a grid of relay splits (default
    0.01, ..., 0.99), keeping the splits where at least one user is
    feasible."""
    if rho_grid is None:
        rho_grid = np.arange(1, 100) / 100.0
    rho, ((n1, p1, f1), (n2, p2, f2)) = _splits(setup, rho_grid)
    keep = f1 | f2
    if not keep.any():
        raise NoFeasibleRho(
            "no relay split in the grid leaves zero-forcing margin for either user")
    return rho[keep], n1[keep], n2[keep], p1[keep], p2[keep]


def full_region(setup: ChannelSetup, rho_grid=None) -> RateRegion:
    """Union of the per-rho rectangles over a grid of relay splits, returned
    as the convex hull of their corners (time sharing fills the rest)."""
    _, _, _, p1, p2 = _feasible_regions(setup, rho_grid)
    r1, r2 = setup.g1R_norm2 * p1 / LN2, setup.g2R_norm2 * p2 / LN2
    zero = np.zeros_like(r1)
    corners = zip(np.r_[r1, r1, zero], np.r_[zero, r2, r2])
    return RateRegion(vertices=tuple(hull2d([(0.0, 0.0), *corners])))


def sum_rate_allocation(setup: ChannelSetup, rho_values=None) -> PowerAllocation:
    """Relay split, signs and powers maximizing the first-order sum rate
    ( ||g1R||^2 p~_1 + ||g2R||^2 p~_2 ) / ln 2 over a grid of splits.

    Ties keep the earliest split in the grid, the smallest rho1 on an
    ascending grid. A split where only one user is feasible still competes
    with that user's term alone."""
    rho, n1, n2, p1, p2 = _feasible_regions(setup, rho_values)
    k = int(np.argmax(setup.g1R_norm2 * p1 + setup.g2R_norm2 * p2))
    return PowerAllocation(p1=float(p1[k]), p2=float(p2[k]),
                           rho1=float(rho[k]), n1=int(n1[k]), n2=int(n2[k]))
