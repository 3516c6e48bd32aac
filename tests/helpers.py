"""Shared builders for randomized tests.

Channel draws keep gains in [0.3, 1.5] with random signs so nothing is
accidentally tiny or huge; feasibility is then arranged by construction
(scaling PR) rather than by rejection, so instance counts stay exact.
"""

import math

import numpy as np

from imrc import ChannelSetup, PowerAllocation, RhoRegion
from imrc.errors import (DegenerateAntenna, DegenerateRelayChannel,
                         LinearizationInfeasible, NoFeasibleRho)
from imrc.model import own_gain, zf_radicand
from imrc.rates import LN2
from imrc.search import _signal, _value


def _signed(rng, size=None):
    mag = rng.uniform(0.3, 1.5, size=size)
    return mag * rng.choice([-1.0, 1.0], size=size)


def _vec(rng):
    v = _signed(rng, 2)
    return (float(v[0]), float(v[1]))


def random_setup(rng, P=0.1, PR=0.1, det_zero=False):
    """A random channel. det_zero forces parallel relay columns
    (det(H) = 0), the degenerate case with its own code paths."""
    hR1 = _vec(rng)
    if det_zero:
        factor = float(_signed(rng))
        hR2 = (factor * hR1[0], factor * hR1[1])
    else:
        hR2 = _vec(rng)
    return ChannelSetup(
        h11=float(_signed(rng)), h12=float(_signed(rng)),
        h21=float(_signed(rng)), h22=float(_signed(rng)),
        g1R=_vec(rng), g2R=_vec(rng), hR1=hR1, hR2=hR2, P=P, PR=PR)


def feasible_instance(rng, det_zero=False):
    """(setup, alloc) with both users' zero-forcing radicands strictly
    positive: PR is bumped to twice the level each user needs."""
    setup = random_setup(rng, det_zero=det_zero)
    rho1 = float(rng.uniform(0.1, 0.9))
    p1 = float(rng.uniform(0.0, 0.5) * setup.P)
    p2 = float(rng.uniform(0.0, 0.5) * setup.P)
    need1 = setup.h12 ** 2 * (setup.P - p1) / (rho1 * setup.hR2_norm2)
    need2 = setup.h21 ** 2 * (setup.P - p2) / ((1.0 - rho1) * setup.hR1_norm2)
    setup = ChannelSetup(h11=setup.h11, h12=setup.h12, h21=setup.h21,
                         h22=setup.h22, g1R=setup.g1R, g2R=setup.g2R,
                         hR1=setup.hR1, hR2=setup.hR2, P=setup.P,
                         PR=2.0 * max(need1, need2, setup.P))
    alloc = PowerAllocation(p1=p1, p2=p2, rho1=rho1,
                            n1=int(rng.choice([-1, 1])),
                            n2=int(rng.choice([-1, 1])))
    return setup, alloc


def linearizable_setup(rng, det_zero=False, P=0.1):
    """A random channel whose low-power expansion exists for both users at
    rho1 = 1/2: PR scaled so S_i^2 > 0 with margin."""
    setup = random_setup(rng, P=P, det_zero=det_zero)
    need1 = 2.0 * setup.h12 ** 2 * setup.P / (0.5 * setup.hR2_norm2)
    need2 = 2.0 * setup.h21 ** 2 * setup.P / (0.5 * setup.hR1_norm2)
    return ChannelSetup(h11=setup.h11, h12=setup.h12, h21=setup.h21,
                        h22=setup.h22, g1R=setup.g1R, g2R=setup.g2R,
                        hR1=setup.hR1, hR2=setup.hR2, P=setup.P,
                        PR=max(need1, need2, setup.P))


def swap_users(setup):
    """Relabel user 1 <-> user 2 (and the relay columns with them)."""
    return ChannelSetup(h11=setup.h22, h12=setup.h21, h21=setup.h12,
                        h22=setup.h11, g1R=setup.g2R, g2R=setup.g1R,
                        hR1=setup.hR2, hR2=setup.hR1, P=setup.P, PR=setup.PR)


def reference_objective(setup, rho1, n1, n2, p1, p2):
    """The linear-domain scheme sum rate of every cell of the outer grid
    p1 (rows) x p2 (columns), by search's _signal and _value: leading axes
    of p1 and p2 broadcast against rho1, n1 and n2, one grid per index.
    search._best is this grid's best value and first argmax, box by box."""
    rows, cols = p1[..., :, None], p2[..., None, :]
    sig1, ok1 = _signal(setup, 1, rho1, n1, rows)
    sig2, ok2 = _signal(setup, 2, rho1, n2, cols)
    return _value(setup, sig1, sig2, rows, cols, rows, cols, ok1 & ok2)


def reference_zoom(setup, rho1, n1, n2, value, c1, c2, half1, half2=None,
                   rounds=3, points=21):
    """search._zoom without pruning: every window with a positive value,
    every round, one window at a time on np.linspace grids, all in the
    (n1, n2) sign block. Each round re-grids +/- half around the center,
    clamped to [0, P], moves the center to the first row-major argmax,
    keeps it when strictly better, and divides the half-widths by 10.
    half2 is p2's half-width, half1 when None as in _zoom; 0 pins p2.
    Returns the same tuple as _zoom: best value, p1 and p2 per window, and
    the window-rounds run."""
    half2 = half1 if half2 is None else half2
    best = np.array(value, dtype=float)
    best1, best2 = np.array(c1, dtype=float), np.array(c2, dtype=float)
    runs = 0
    for w in np.flatnonzero(best > 0.0):
        a, b, h1, h2 = c1[w], c2[w], half1, half2
        for _ in range(rounds):
            p1 = np.linspace(max(0.0, a - h1), min(setup.P, a + h1), points)
            p2 = np.linspace(max(0.0, b - h2), min(setup.P, b + h2), points)
            obj = reference_objective(setup, rho1[w], n1, n2, p1, p2)
            i, j = divmod(int(obj.argmax()), points)
            a, b = p1[i], p2[j]
            if obj[i, j] > best[w]:
                best[w], best1[w], best2[w] = obj[i, j], a, b
            runs += 1
            h1, h2 = h1 / 10.0, h2 / 10.0
    return best, best1, best2, runs


def reference_search_p1(setup, rho1, n_p):
    """Best p1 with p2 = 0 and n2 = +1 by search, over both signs n1: each
    sign's column on the same np.linspace grid of n_p points, each zoomed
    from its first argmax by reference_zoom with p2 pinned, the best kept
    with +1 first on ties; None when neither is feasible or a relay column
    is zero. search.best_p1 is its exact counterpart."""
    pv = np.linspace(0.0, setup.P, n_p)
    best, best_p1 = 0.0, None
    for n1 in (1, -1):
        try:
            column = reference_objective(setup, rho1, n1, 1, pv,
                                         np.zeros(1))[:, 0]
        except DegenerateRelayChannel:
            return None
        at = int(column.argmax())
        value, c1, _, _ = reference_zoom(setup, np.array([rho1]), n1, 1,
                                         [column[at]], [pv[at]], [0.0],
                                         float(pv[1] - pv[0]), 0.0)
        if value[0] > best:
            best, best_p1 = value[0], float(c1[0])
    return best_p1


def _reference_expansion(setup, rho1, user, sign):
    """lowpower._user_expansion on scalars, raising where it returns NaN."""
    rho_i, orient = (rho1, 1.0) if user == 1 else (1.0 - rho1, -1.0)
    if setup.P <= 0.0:
        raise LinearizationInfeasible("expansion needs P > 0")
    try:
        s_sq, _ = zf_radicand(setup, user, rho_i, setup.P)
    except DegenerateRelayChannel as exc:
        raise DegenerateAntenna("zero relay column") from exc
    if s_sq <= 0.0:
        raise LinearizationInfeasible(f"S^2 = {s_sq} <= 0")
    s_val = math.sqrt(s_sq)
    mu = own_gain(setup, user, sign, s_val)
    nu = orient * sign * rho_i * (setup.PR / setup.P) * setup.hR_det / (2.0 * s_val)
    return mu, nu


def _reference_phat(mu_sq, q, g_norm2, big_p):
    """lowpower._phat_user on scalars, one branch at a time."""
    if mu_sq == 0.0:
        return 0.0
    if g_norm2 == 0.0:
        return big_p
    lam = 2.0 * q - mu_sq - g_norm2
    disc = lam * lam + 8.0 * mu_sq * q
    denom = math.sqrt(max(disc, 0.0)) - lam
    if denom <= 0.0:
        return 0.0
    x = 2.0 * mu_sq / denom  # phat / P
    return (0.0 if x < 0.0 else min(x, 1.0)) * big_p


def reference_best_sign(setup, rho1, user):
    """(n, p) of one user at one split, both signs in turn, +1 on ties;
    raises where the expansion does not exist."""
    g_norm2 = setup.g1R_norm2 if user == 1 else setup.g2R_norm2
    best_sign, best_p = 0, -1.0
    for sign in (1, -1):
        mu, nu = _reference_expansion(setup, rho1, user, sign)
        p = _reference_phat(mu * mu, mu * nu, g_norm2, setup.P)
        if p > best_p:
            best_sign, best_p = sign, p
    return best_sign, best_p


def reference_regions(setup, rho_grid=None):
    """lowpower.region_rho one split at a time over the grid (default
    0.01, ..., 0.99): a RhoRegion per split, a user without the expansion
    as (n = 1, p = 0, infeasible)."""
    if rho_grid is None:
        rho_grid = [k / 100.0 for k in range(1, 100)]
    regions = []
    for rho1 in rho_grid:
        rho1 = float(rho1)
        if not 0.0 <= rho1 <= 1.0:
            raise ValueError(f"rho1 must lie in [0, 1], got {rho1!r}")
        found = []
        for user in (1, 2):
            try:
                found.append(reference_best_sign(setup, rho1, user) + (True,))
            except (DegenerateAntenna, LinearizationInfeasible):
                found.append((1, 0.0, False))
        (n1, p1, f1), (n2, p2, f2) = found
        regions.append(RhoRegion(rho1=rho1, R1max=setup.g1R_norm2 * p1 / LN2,
                                 R2max=setup.g2R_norm2 * p2 / LN2, p1=p1,
                                 p2=p2, n1=n1, n2=n2, feasible1=f1,
                                 feasible2=f2))
    return regions


def reference_sum_rate_allocation(setup, rho_values=None):
    """lowpower.sum_rate_allocation as a per-split loop: the feasible split
    with the largest first-order sum rate, the earliest on ties."""
    regions = [r for r in reference_regions(setup, rho_values)
               if r.feasible1 or r.feasible2]
    if not regions:
        raise NoFeasibleRho("no feasible split")
    region = max(regions,
                 key=lambda r: setup.g1R_norm2 * r.p1 + setup.g2R_norm2 * r.p2)
    return PowerAllocation(p1=region.p1, p2=region.p2, rho1=region.rho1,
                           n1=region.n1, n2=region.n2)
