"""Channel/allocation containers, validation, and the channel-file parser."""

import math
from dataclasses import replace

import numpy as np
import pytest

from imrc import (
    ChannelSetup,
    DegenerateRelayChannel,
    NegativePower,
    NonFinite,
    PowerAllocation,
    example_channel,
    feasibility,
    load_channel,
    parse_channel_text,
    resolve_channel,
    validate,
)
from imrc.model import own_gain, zf_radicand

from helpers import random_setup


def test_example_channel_values():
    ch = example_channel()
    assert (ch.h11, ch.h12, ch.h21, ch.h22) == (1.2, 0.5, 0.5, 1.2)
    assert ch.g1R == (0.6, 1.2)
    assert ch.g2R == (1.0, 0.5)
    assert ch.hR1 == (0.5, 1.0)
    assert ch.hR2 == (1.0, 2.0)
    assert ch.P == 0.1 and ch.PR == 0.1


def test_example_channel_derived_quantities():
    ch = example_channel()
    assert ch.g1R_norm2 == pytest.approx(1.8, rel=1e-15)
    assert ch.g2R_norm2 == pytest.approx(1.25, rel=1e-15)
    assert ch.hR1_norm2 == pytest.approx(1.25, rel=1e-15)
    assert ch.hR2_norm2 == pytest.approx(5.0, rel=1e-15)
    # relay columns are parallel in the running example
    assert ch.relay_det() == pytest.approx(0.0, abs=1e-15)
    assert ch.hR_dot == pytest.approx(2.5, rel=1e-15)


def test_validate_passthrough():
    ch = example_channel()
    assert validate(ch) is ch


def test_validate_rejects_nonfinite():
    ch = example_channel()
    bad = ChannelSetup(h11=float("nan"), h12=ch.h12, h21=ch.h21, h22=ch.h22,
                       g1R=ch.g1R, g2R=ch.g2R, hR1=ch.hR1, hR2=ch.hR2,
                       P=ch.P, PR=ch.PR)
    with pytest.raises(NonFinite):
        validate(bad)
    bad = ChannelSetup(h11=ch.h11, h12=ch.h12, h21=ch.h21, h22=ch.h22,
                       g1R=(float("inf"), 0.0), g2R=ch.g2R, hR1=ch.hR1,
                       hR2=ch.hR2, P=ch.P, PR=ch.PR)
    with pytest.raises(NonFinite):
        validate(bad)


def test_validate_rejects_negative_power():
    ch = example_channel()
    for field in ("P", "PR"):
        kwargs = dict(h11=ch.h11, h12=ch.h12, h21=ch.h21, h22=ch.h22,
                      g1R=ch.g1R, g2R=ch.g2R, hR1=ch.hR1, hR2=ch.hR2,
                      P=ch.P, PR=ch.PR)
        kwargs[field] = -0.1
        with pytest.raises(NegativePower):
            validate(ChannelSetup(**kwargs))


def test_allocation_validation():
    PowerAllocation(p1=0.0, p2=0.0, rho1=0.0)   # closed endpoints allowed
    PowerAllocation(p1=0.0, p2=0.0, rho1=1.0)
    with pytest.raises(ValueError):
        PowerAllocation(p1=0.0, p2=0.0, rho1=-0.1)
    with pytest.raises(ValueError):
        PowerAllocation(p1=0.0, p2=0.0, rho1=1.1)
    with pytest.raises(ValueError):
        PowerAllocation(p1=-1e-9, p2=0.0, rho1=0.5)
    with pytest.raises(ValueError):
        PowerAllocation(p1=0.0, p2=0.0, rho1=0.5, n1=0)
    with pytest.raises(ValueError):
        PowerAllocation(p1=0.0, p2=0.0, rho1=0.5, n2=2)
    for p1, p2 in ((math.nan, 0.0), (0.0, math.nan)):  # fails p < 0 too
        with pytest.raises(ValueError, match="nonnegative"):
            PowerAllocation(p1=p1, p2=p2, rho1=0.5)


def test_allocation_rho2():
    alloc = PowerAllocation(p1=0.01, p2=0.02, rho1=0.3)
    assert alloc.rho2 == pytest.approx(0.7, rel=1e-15)


def test_kernel_user_mapping():
    ch = example_channel()
    alloc = PowerAllocation(p1=0.01, p2=0.02, rho1=0.3, n1=1, n2=-1)
    assert alloc.user(1) == (0.01, 0.3, 1)
    assert alloc.user(2) == (0.02, 0.7, -1)
    # user 1 nulls h12 along hR2, user 2 nulls h21 along hR1
    assert zf_radicand(ch, 1, 0.3, 0.5)[0] == pytest.approx(
        ch.hR2_norm2 * 0.3 * ch.PR / 0.5 - ch.h12 ** 2, rel=1e-15)
    assert zf_radicand(ch, 2, 0.7, 0.5)[0] == pytest.approx(
        ch.hR1_norm2 * 0.7 * ch.PR / 0.5 - ch.h21 ** 2, rel=1e-15)
    # det(H) = 0: f_ii = h_ii - h_ij (hR1.hR2)/||hRj||^2 for any root
    assert own_gain(ch, 1, 1, 3.0) == pytest.approx(0.95, rel=1e-15)
    assert own_gain(ch, 2, -1, 3.0) == pytest.approx(0.2, rel=1e-14)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            alloc.user(bad)
        with pytest.raises(ValueError):
            zf_radicand(ch, bad, 0.5, ch.P)


def test_radicands_at_example_point():
    ch = example_channel()
    # p_i = 0: the exact radicand is the low-power expansion's S_i^2
    # 0.5 * 0.1 * 5 / 0.1 - 0.25
    rad, feasible = zf_radicand(ch, 1, 0.5, ch.P)
    assert rad == pytest.approx(2.25, rel=1e-15) and feasible
    # 0.5 * 0.1 * 1.25 / 0.1 - 0.25
    rad, feasible = zf_radicand(ch, 2, 0.5, ch.P)
    assert rad == pytest.approx(0.375, rel=1e-15) and feasible


def test_parallel_relay_columns_store_zero_det():
    # columns built parallel leave rounding noise in a*d - b*c; it is
    # stored as exactly 0, while a genuine determinant is kept as computed
    rng = np.random.default_rng(5)
    for _ in range(200):
        assert random_setup(rng, det_zero=True).relay_det() == 0.0
        ch = random_setup(rng)
        (a, c), (b, d) = ch.hR1, ch.hR2
        assert ch.relay_det() == a * d - b * c
        assert ch.hR_dot == a * b + c * d


def test_feasibility_report_flags():
    ch = example_channel()
    rep = feasibility(ch, PowerAllocation(p1=0.0, p2=0.0, rho1=0.5))
    assert rep.exact1 and rep.exact2
    assert rep.linear1 and rep.linear2
    assert not rep.boundary1 and not rep.boundary2
    # rho1 too small starves user 1 of relay power
    rep = feasibility(ch, PowerAllocation(p1=0.0, p2=0.0, rho1=0.01))
    assert not rep.exact1 and rep.exact2


def test_feasibility_boundary():
    ch = example_channel()
    rep = feasibility(ch, PowerAllocation(p1=ch.P, p2=0.0, rho1=0.5))
    assert rep.boundary1 and not rep.boundary2
    assert rep.exact1  # boundary beam always exists
    assert math.isnan(rep.radicand1)


def test_feasibility_zero_relay_column():
    # hR2 = 0 leaves user 1 no beam at all, the p_i = P one included
    # (beam_vectors raises DegenerateRelayChannel); user 2 is unaffected
    ch = replace(example_channel(), hR2=(0.0, 0.0))
    for p1 in (0.0, ch.P):
        rep = feasibility(ch, PowerAllocation(p1=p1, p2=0.0, rho1=0.5))
        assert not rep.exact1 and not rep.linear1
        assert math.isnan(rep.radicand1) and math.isnan(rep.s_radicand1)
        assert rep.boundary1 == (p1 == ch.P)
        assert rep.exact2 and rep.linear2


def test_feasibility_more_own_power_helps():
    # larger p_i leaves less interference power to null, so once feasible
    # at p_i = 0 the interior construction stays feasible for all p_i < P
    rng = np.random.default_rng(7)
    for _ in range(50):
        ch = random_setup(rng)
        base = feasibility(ch, PowerAllocation(p1=0.0, p2=0.0, rho1=0.5))
        bigger = feasibility(
            ch, PowerAllocation(p1=0.09, p2=0.09, rho1=0.5))
        if base.exact1:
            assert bigger.exact1
        if base.exact2:
            assert bigger.exact2


EXAMPLE_TEXT = """\
# running example
h11 = 1.2
h12 = 0.5
h21 = 0.5
h22 = 1.2
g1R = 0.6, 1.2
g2R = 1.0 0.5
hR1 = 0.5,1.0
hR2 = 1.0 2.0
P = 0.1
PR = 0.1
"""


def test_parse_channel_text_roundtrip():
    assert parse_channel_text(EXAMPLE_TEXT) == example_channel()


def test_parse_channel_text_errors():
    with pytest.raises(ValueError, match="duplicate"):
        parse_channel_text(EXAMPLE_TEXT + "\nh11 = 2.0\n")
    with pytest.raises(ValueError, match="missing"):
        parse_channel_text(EXAMPLE_TEXT.replace("PR = 0.1\n", ""))
    with pytest.raises(ValueError, match="unknown"):
        parse_channel_text(EXAMPLE_TEXT + "\nbogus = 1\n")
    with pytest.raises(ValueError):
        parse_channel_text(EXAMPLE_TEXT.replace("g1R = 0.6, 1.2",
                                                "g1R = 0.6"))
    with pytest.raises(ValueError):
        parse_channel_text("h11\n")


def test_load_channel(tmp_path):
    path = tmp_path / "chan.txt"
    path.write_text(EXAMPLE_TEXT)
    assert load_channel(path) == example_channel()


def test_resolve_channel(tmp_path):
    assert resolve_channel("paper-example") == example_channel()
    path = tmp_path / "chan.txt"
    path.write_text(EXAMPLE_TEXT)
    assert resolve_channel(str(path)) == example_channel()
    with pytest.raises(OSError):
        resolve_channel(str(tmp_path / "nope.txt"))
