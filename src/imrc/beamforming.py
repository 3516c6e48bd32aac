"""Relay zero-forcing beamforming and the resulting effective channel.

For user i the relay's (scaled) beam vector t_i0 must cancel the residual
cross interference at the unintended receiver j,

    h_ij + hRj . t_i0 = 0,

while spending exactly the user's relay power share,

    ||t_i0||^2 = rho_i * PR / (P - p_i).

Geometrically that intersects a line with a circle: two solutions, labeled
by the branch sign n_i. Writing the solution as the line's closest point to
the origin plus a signed displacement along the line direction gives

    t_i0 = (-h_ij * hRj + n_i * sqrt(radicand) * [hRj2, -hRj1]) / ||hRj||^2,
    radicand = -h_ij^2 + ||hRj||^2 * rho_i*PR/(P - p_i),

valid for every nonzero hRj (no special case for a zero component).

At the boundary p_i = P the source spends nothing on the repeated message,
the relay alone carries it, and zero forcing degenerates to orthogonality:
t_i0 = n_i * sqrt(rho_i*PR) * (unit vector perpendicular to hRj), giving the
abundant-relay-power gain |hRi . t_i0|^2 = rho_i*PR*det^2(H)/||hRj||^2.

The radicand comes from model's per-user kernel. These vectors are the
geometric reference construction: the rates take f_ii from the kernel's
closed form, and the tests check the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lowpower import _expansion
from .model import ChannelSetup, PowerAllocation, _user, zf_root

__all__ = [
    "BeamVectors",
    "EffectiveChannel",
    "beam_vector",
    "boundary_beam_vector",
    "beam_vectors",
    "effective_gains",
    "zero_forcing_residual",
    "approx_beam_vector",
]


@dataclass(frozen=True)
class BeamVectors:
    """Both users' scaled beam vectors plus which construction was used."""

    t10: tuple[float, float]
    t20: tuple[float, float]
    boundary1: bool
    boundary2: bool


@dataclass(frozen=True)
class EffectiveChannel:
    """Gains of the equivalent interference channel after beamforming.
    Cross gains are untouched: f12 = h12 and f21 = h21 exactly."""

    f11: float
    f22: float
    f12: float
    f21: float


def _zero_forcing_vector(h_cross: float, hRj: tuple[float, float],
                         norm2: float, root: float, sign: int) -> np.ndarray:
    """The zero-forcing line's closest point to the origin, displaced by
    sign * root along the line, all over norm2 = ||hRj||^2 (nonzero)."""
    return np.array([
        (-h_cross * hRj[0] + sign * root * hRj[1]) / norm2,
        (-h_cross * hRj[1] - sign * root * hRj[0]) / norm2,
    ])


def beam_vector(setup: ChannelSetup, alloc: PowerAllocation, user: int) -> np.ndarray:
    """Scaled beam vector t_i0 for `user` with p_i < P.

    Satisfies h_ij + hRj.t_i0 = 0 and ||t_i0||^2 = rho_i*PR/(P - p_i);
    the branch is chosen by the allocation's sign n_i.
    """
    p_i, rho_i, n_i = alloc.user(user)
    if p_i >= setup.P:  # p_i = P is boundary_beam_vector's case
        raise ValueError(f"p{user} = {p_i} is not below the budget P = {setup.P}")
    _, h_cross, norm2, _, _, hRj = _user(setup, user)
    root = zf_root(setup, user, rho_i, setup.P - p_i)
    return _zero_forcing_vector(h_cross, hRj, norm2, root, n_i)


def boundary_beam_vector(setup: ChannelSetup, rho_i: float, user: int,
                         sign: int = 1) -> np.ndarray:
    """Beam vector for the p_i = P boundary: orthogonal to hRj with
    ||t_i0||^2 = rho_i*PR. The default sign +1 picks the orientation with
    hRi . t_i0 >= 0 (coherent with the direct link)."""
    _, _, norm2, _, hRi, hRj = _user(setup, user)
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    unit = np.array([hRj[1], -hRj[0]]) / math.sqrt(norm2)
    if hRi[0] * unit[0] + hRi[1] * unit[1] < 0.0:
        unit = -unit
    return sign * math.sqrt(rho_i * setup.PR) * unit


def beam_vectors(setup: ChannelSetup, alloc: PowerAllocation) -> BeamVectors:
    """Both users' beam vectors, dispatching to the boundary construction
    for any user with p_i = P."""
    vectors, flags = [], []
    for user in (1, 2):
        p_i, rho_i, n_i = alloc.user(user)
        boundary = p_i == setup.P  # beam_vector refuses p_i > P
        vec = (boundary_beam_vector(setup, rho_i, user, n_i) if boundary
               else beam_vector(setup, alloc, user))
        vectors.append((float(vec[0]), float(vec[1])))
        flags.append(boundary)
    return BeamVectors(vectors[0], vectors[1], flags[0], flags[1])


def effective_gains(setup: ChannelSetup, alloc: PowerAllocation,
                    vectors: BeamVectors | None = None) -> EffectiveChannel:
    """Effective gains after beamforming: f_ii = h_ii + hRi.t_i0 away from
    the boundary; at p_i = P the source contributes nothing to the repeated
    message, so f_ii = hRi.t_i0 alone."""
    if vectors is None:
        vectors = beam_vectors(setup, alloc)
    relay1 = setup.hR1[0] * vectors.t10[0] + setup.hR1[1] * vectors.t10[1]
    relay2 = setup.hR2[0] * vectors.t20[0] + setup.hR2[1] * vectors.t20[1]
    f11 = relay1 if vectors.boundary1 else setup.h11 + relay1
    f22 = relay2 if vectors.boundary2 else setup.h22 + relay2
    return EffectiveChannel(f11=f11, f22=f22, f12=setup.h12, f21=setup.h21)


def zero_forcing_residual(setup: ChannelSetup, alloc: PowerAllocation,
                          user: int) -> float:
    """Leftover interference at the unintended receiver: h_ij + hRj.t_i0
    away from the boundary, hRj.t_i0 at it. Zero up to rounding by
    construction; exposed for tests and diagnostics."""
    vectors = beam_vectors(setup, alloc)
    _, h_cross, _, _, _, hRj = _user(setup, user)
    t = vectors.t10 if user == 1 else vectors.t20
    boundary = vectors.boundary1 if user == 1 else vectors.boundary2
    projection = hRj[0] * t[0] + hRj[1] * t[1]
    return projection if boundary else h_cross + projection


def approx_beam_vector(setup: ChannelSetup, alloc: PowerAllocation,
                       user: int) -> np.ndarray:
    """First-order (in p_i/P) approximation of beam_vector, obtained by
    expanding the square root around p_i = 0:

        sqrt(radicand(p_i)) ~ S_i + ||hRj||^2 * rho_i*(PR/P) * (p_i/P) / (2 S_i),

    with S_i the p_i = 0 value, from the low-power expansion (which raises
    LinearizationInfeasible where S_i^2 <= 0). Exact at p_i = 0; a rough
    approximation as p_i approaches P."""
    p_i, rho_i, n_i = alloc.user(user)
    _, h_cross, norm2, _, _, hRj = _user(setup, user)
    s_i = _expansion(setup, alloc.rho1, user, n_i)[2]
    root = s_i + norm2 * rho_i * (setup.PR / setup.P) * (p_i / setup.P) / (2.0 * s_i)
    return _zero_forcing_vector(h_cross, hRj, norm2, root, n_i)
