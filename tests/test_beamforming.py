"""Zero-forcing beam vectors: exact construction, boundary case, expansion."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imrc import (
    ChannelSetup,
    DegenerateRelayChannel,
    InfeasibleRadicand,
    LinearizationInfeasible,
    PowerAllocation,
    approx_beam_vector,
    beam_vector,
    beam_vectors,
    boundary_beam_vector,
    effective_gains,
    example_channel,
    zero_forcing_residual,
)
from imrc.model import boundary_signal, own_gain, zf_root

from helpers import feasible_instance, random_setup

EX = example_channel()


def oracle_vectors(h_cross, hRj, target):
    """Independent two-constraint solver: intersect the line
    h_cross + hRj.t = 0 with the circle ||t||^2 = target by
    parameterizing the line and handing the quadratic to np.roots."""
    hRj = np.asarray(hRj, dtype=float)
    norm2 = float(hRj @ hRj)
    foot = -h_cross * hRj / norm2          # closest point of the line to 0
    direction = np.array([hRj[1], -hRj[0]])
    # ||foot + s*direction||^2 = target, foot orthogonal to direction
    roots = np.roots([norm2, 0.0, h_cross ** 2 / norm2 - target])
    return [foot + float(s.real) * direction for s in roots]


def test_example_beam_vectors_frozen():
    alloc = PowerAllocation(p1=0.0, p2=0.0, rho1=0.5, n1=1)
    t = beam_vector(EX, alloc, 1)
    assert t == pytest.approx([0.5, -0.5], abs=1e-12)
    alloc = PowerAllocation(p1=0.0, p2=0.0, rho1=0.5, n1=-1)
    t = beam_vector(EX, alloc, 1)
    assert t == pytest.approx([-0.7, 0.1], abs=1e-12)


def test_example_effective_gain_sign_independent():
    # det([hR1 hR2]) = 0 here, so both branches give the same direct gain
    for n1 in (1, -1):
        alloc = PowerAllocation(p1=0.0, p2=0.0, rho1=0.5, n1=n1)
        eff = effective_gains(EX, alloc)
        assert eff.f11 == pytest.approx(0.95, abs=1e-12)
        assert eff.f12 == EX.h12 and eff.f21 == EX.h21


def test_matches_two_constraint_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        setup, alloc = feasible_instance(rng)
        for user in (1, 2):
            t = beam_vector(setup, alloc, user)
            h_cross = setup.h12 if user == 1 else setup.h21
            hRj = setup.hR2 if user == 1 else setup.hR1
            rho = alloc.rho1 if user == 1 else alloc.rho2
            p = alloc.p1 if user == 1 else alloc.p2
            target = rho * setup.PR / (setup.P - p)
            candidates = oracle_vectors(h_cross, hRj, target)
            dist = min(np.linalg.norm(t - c) for c in candidates)
            assert dist <= 1e-9 * (1.0 + np.linalg.norm(t))


def test_branch_sign_selects_root():
    # +1 takes the root displaced along (hRj_2, -hRj_1); -1 the other one
    rng = np.random.default_rng(12)
    setup, alloc = feasible_instance(rng)
    plus = beam_vector(
        setup, PowerAllocation(alloc.p1, alloc.p2, alloc.rho1, 1, 1), 1)
    minus = beam_vector(
        setup, PowerAllocation(alloc.p1, alloc.p2, alloc.rho1, -1, 1), 1)
    direction = np.array([setup.hR2[1], -setup.hR2[0]])
    assert (plus - minus) @ direction >= 0.0


def test_residual_and_norm_constraints():
    rng = np.random.default_rng(13)
    for _ in range(300):
        setup, alloc = feasible_instance(rng, det_zero=bool(rng.integers(2)))
        for user in (1, 2):
            assert abs(zero_forcing_residual(setup, alloc, user)) <= 1e-9
            t = beam_vector(setup, alloc, user)
            rho = alloc.rho1 if user == 1 else alloc.rho2
            p = alloc.p1 if user == 1 else alloc.p2
            target = rho * setup.PR / (setup.P - p)
            assert float(t @ t) == pytest.approx(target, rel=1e-9)


@settings(deadline=None)
@given(h_cross=st.floats(-2.0, 2.0),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
       rho1=st.floats(0.05, 0.95), frac=st.floats(0.0, 0.9),
       PR=st.floats(0.01, 10.0))
def test_zero_forcing_properties(h_cross, a, b, rho1, frac, PR):
    assume(a * a + b * b > 1e-6)
    setup = ChannelSetup(h11=EX.h11, h12=h_cross, h21=EX.h21, h22=EX.h22,
                         g1R=EX.g1R, g2R=EX.g2R, hR1=EX.hR1, hR2=(a, b),
                         P=0.1, PR=PR)
    p1 = frac * setup.P
    target = rho1 * PR / (setup.P - p1)
    radicand = (a * a + b * b) * target - h_cross ** 2
    assume(radicand > 1e-9 * (a * a + b * b) * target)
    alloc = PowerAllocation(p1=p1, p2=0.0, rho1=rho1)
    t = beam_vector(setup, alloc, 1)
    assert abs(h_cross + setup.hR2[0] * t[0] + setup.hR2[1] * t[1]) <= 1e-9
    assert float(t @ t) == pytest.approx(target, rel=1e-9)


def test_radicand_tolerance_window():
    # scale = ||hR2||^2 * rho*PR/P = 0.5; sit just inside, then just
    # outside, the relative tolerance band around zero
    base = dict(h11=1.0, h21=0.5, h22=1.0, g1R=(1.0, 0.0), g2R=(0.0, 1.0),
                hR1=(0.0, 1.0), hR2=(1.0, 0.0), P=0.1, PR=0.1)
    alloc = PowerAllocation(p1=0.0, p2=0.0, rho1=0.5)
    inside = ChannelSetup(h12=math.sqrt(0.5 * (1.0 + 5e-13)), **base)
    t = beam_vector(inside, alloc, 1)   # clamped to the tangent point
    assert abs(inside.h12 + t[0]) <= 1e-12
    outside = ChannelSetup(h12=math.sqrt(0.5 * (1.0 + 5e-12)), **base)
    with pytest.raises(InfeasibleRadicand):
        beam_vector(outside, alloc, 1)


def test_degenerate_relay_column():
    setup = ChannelSetup(h11=EX.h11, h12=EX.h12, h21=EX.h21, h22=EX.h22,
                         g1R=EX.g1R, g2R=EX.g2R, hR1=EX.hR1, hR2=(0.0, 0.0),
                         P=0.1, PR=0.1)
    alloc = PowerAllocation(p1=0.0, p2=0.0, rho1=0.5)
    with pytest.raises(DegenerateRelayChannel):
        beam_vector(setup, alloc, 1)
    with pytest.raises(DegenerateRelayChannel):
        boundary_beam_vector(setup, 0.5, 1)


def test_interior_requires_p_below_budget():
    alloc = PowerAllocation(p1=EX.P, p2=0.0, rho1=0.5)
    with pytest.raises(ValueError):
        beam_vector(EX, alloc, 1)
    alloc = PowerAllocation(p1=2.0 * EX.P, p2=0.0, rho1=0.5)
    with pytest.raises(ValueError):
        beam_vector(EX, alloc, 1)
    with pytest.raises(ValueError):
        beam_vectors(EX, alloc)


def test_boundary_vector_constraints():
    rng = np.random.default_rng(17)
    for _ in range(100):
        setup = random_setup(rng)
        rho1 = float(rng.uniform(0.05, 0.95))
        for user, hRj, hRi in ((1, setup.hR2, setup.hR1),
                               (2, setup.hR1, setup.hR2)):
            rho = rho1 if user == 1 else 1.0 - rho1
            t = boundary_beam_vector(setup, rho, user)
            assert abs(hRj[0] * t[0] + hRj[1] * t[1]) <= 1e-12
            assert float(t @ t) == pytest.approx(rho * setup.PR, rel=1e-12)
            assert hRi[0] * t[0] + hRi[1] * t[1] >= 0.0
            flipped = boundary_beam_vector(setup, rho, user, sign=-1)
            assert flipped == pytest.approx(-t, rel=1e-12)


def test_boundary_gain_magnitude():
    # |f_ii|^2 = rho_i * PR * det^2 / ||hRj||^2 when p_i = P
    rng = np.random.default_rng(19)
    for _ in range(100):
        setup, alloc = feasible_instance(rng)
        if abs(setup.relay_det()) < 1e-2:
            continue
        at_budget = PowerAllocation(p1=setup.P, p2=alloc.p2, rho1=alloc.rho1,
                                    n1=alloc.n1, n2=alloc.n2)
        vecs = beam_vectors(setup, at_budget)
        assert vecs.boundary1 and not vecs.boundary2
        eff = effective_gains(setup, at_budget, vecs)
        expect = (alloc.rho1 * setup.PR * setup.relay_det() ** 2
                  / setup.hR2_norm2)
        assert eff.f11 ** 2 == pytest.approx(expect, rel=1e-12)


def test_interior_converges_to_boundary():
    # f_ii^2 (P - p_i) -> rho_i PR det^2 / ||hRj||^2 as p_i -> P
    rng = np.random.default_rng(23)
    setup, alloc = feasible_instance(rng)
    assert abs(setup.relay_det()) > 1e-3
    target = alloc.rho1 * setup.PR * setup.relay_det() ** 2 / setup.hR2_norm2
    errors = []
    for k in (3, 5, 7):
        p1 = setup.P * (1.0 - 10.0 ** -k)
        nearly = PowerAllocation(p1=p1, p2=alloc.p2, rho1=alloc.rho1,
                                 n1=alloc.n1, n2=alloc.n2)
        signal = effective_gains(setup, nearly).f11 ** 2 * (setup.P - p1)
        errors.append(abs(signal - target) / target)
    # the gap closes like sqrt(P - p1): one decade in k is one in error
    assert errors[-1] <= 5e-3
    assert all(b <= 0.2 * a for a, b in zip(errors, errors[1:]))


def test_single_antenna_direction():
    # relay column along one axis: formulas must not assume both
    # components are nonzero
    setup = ChannelSetup(h11=1.0, h12=0.4, h21=0.3, h22=1.1,
                         g1R=(0.8, 0.2), g2R=(0.5, 0.9),
                         hR1=(0.0, 0.7), hR2=(1.3, 0.0), P=0.1, PR=0.2)
    alloc = PowerAllocation(p1=0.02, p2=0.01, rho1=0.5)
    for user in (1, 2):
        assert abs(zero_forcing_residual(setup, alloc, user)) <= 1e-12


def test_approx_matches_exact_at_origin():
    alloc = PowerAllocation(p1=0.0, p2=0.0, rho1=0.5, n1=-1)
    exact = beam_vector(EX, alloc, 1)
    approx = approx_beam_vector(EX, alloc, 1)
    assert approx == pytest.approx(exact, abs=1e-15)


def test_approx_needs_zero_forcing_margin_at_origin():
    # S_i^2 = rho_i PR ||hRj||^2 / P - h_ij^2 must be positive: here it is
    # 0.5 - 1 < 0 for user 1, and exactly 0 for user 2 at rho2 = 0, h21 = 0
    setup = ChannelSetup(h11=1.0, h12=1.0, h21=0.0, h22=1.0,
                         g1R=(1.0, 0.0), g2R=(0.0, 1.0),
                         hR1=(0.0, 1.0), hR2=(1.0, 0.0), P=0.1, PR=0.1)
    with pytest.raises(LinearizationInfeasible):
        approx_beam_vector(setup, PowerAllocation(p1=0.01, p2=0.0, rho1=0.5),
                           1)
    with pytest.raises(LinearizationInfeasible):
        approx_beam_vector(setup, PowerAllocation(p1=0.0, p2=0.01, rho1=1.0),
                           2)
    with pytest.raises(LinearizationInfeasible):  # no expansion at P = 0
        approx_beam_vector(replace(setup, P=0.0),
                           PowerAllocation(p1=0.0, p2=0.0, rho1=0.5), 1)
    with pytest.raises(DegenerateRelayChannel):
        approx_beam_vector(replace(setup, hR2=(0.0, 0.0)),
                           PowerAllocation(p1=0.01, p2=0.0, rho1=0.5), 1)


def test_approx_error_is_second_order():
    errs = []
    for p1 in (0.008, 0.004, 0.002):
        alloc = PowerAllocation(p1=p1, p2=0.0, rho1=0.5)
        err = np.linalg.norm(approx_beam_vector(EX, alloc, 1)
                             - beam_vector(EX, alloc, 1))
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_kernel_gain_matches_beam_vectors():
    # model's closed-form f_ii, which the rates and the grid search use,
    # against this module's geometric construction: h_ii + hRi.t_i0 inside,
    # and the received power (hRi.t_i0)^2 at the p_i = P boundary
    rng = np.random.default_rng(47)
    for k in range(1000):
        setup, alloc = feasible_instance(rng, det_zero=k % 5 == 0)
        if k % 4 == 1:
            alloc = PowerAllocation(setup.P, alloc.p2, alloc.rho1,
                                    alloc.n1, alloc.n2)
        elif k % 4 == 3:
            alloc = PowerAllocation(alloc.p1, setup.P, alloc.rho1,
                                    alloc.n1, alloc.n2)
        vecs = beam_vectors(setup, alloc)
        for user, t, boundary, h_own, hRi in (
                (1, vecs.t10, vecs.boundary1, setup.h11, setup.hR1),
                (2, vecs.t20, vecs.boundary2, setup.h22, setup.hR2)):
            p_i, rho_i, n_i = alloc.user(user)
            relay = hRi[0] * t[0] + hRi[1] * t[1]
            if boundary:
                assert boundary_signal(setup, user, rho_i) == pytest.approx(
                    relay ** 2, rel=1e-12)
            else:
                root = zf_root(setup, user, rho_i, setup.P - p_i)
                assert own_gain(setup, user, n_i, root) == pytest.approx(
                    h_own + relay, rel=1e-12)
