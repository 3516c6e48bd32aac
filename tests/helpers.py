"""Shared builders for randomized tests.

Channel draws keep gains in [0.3, 1.5] with random signs so nothing is
accidentally tiny or huge; feasibility is then arranged by construction
(scaling PR) rather than by rejection, so instance counts stay exact.
"""

import numpy as np

from imrc import ChannelSetup, PowerAllocation
from imrc.search import _objective


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


def reference_zoom(setup, rho1, n1, n2, value, c1, c2, half1, half2,
                   rounds=3, points=21):
    """search._zoom without pruning: every window with a positive value,
    every round, one window at a time on np.linspace grids. Each round
    re-grids +/- half around the center, clamped to [0, P], moves the
    center to the first row-major argmax, keeps it when strictly better,
    and divides the half-widths by 10. Returns the same tuple as _zoom:
    best value, p1 and p2 per window, and the window-rounds run."""
    best = np.array(value, dtype=float)
    best1, best2 = np.array(c1, dtype=float), np.array(c2, dtype=float)
    runs = 0
    for w in np.flatnonzero(best > 0.0):
        a, b, h1, h2 = c1[w], c2[w], half1, half2
        for _ in range(rounds):
            p1 = np.linspace(max(0.0, a - h1), min(setup.P, a + h1), points)
            p2 = np.linspace(max(0.0, b - h2), min(setup.P, b + h2), points)
            obj = _objective(setup, rho1[w], n1[w], n2[w], p1, p2)
            i, j = divmod(int(obj.argmax()), points)
            a, b = p1[i], p2[j]
            if obj[i, j] > best[w]:
                best[w], best1[w], best2[w] = obj[i, j], a, b
            runs += 1
            h1, h2 = h1 / 10.0, h2 / 10.0
    return best, best1, best2, runs
