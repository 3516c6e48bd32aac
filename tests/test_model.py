"""Channel/allocation containers, validation, and the channel-file parser."""

import math
import sys
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
from imrc.model import boundary_signal, own_gain, own_signal, zf_radicand
from imrc.search import _signal

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


@pytest.mark.parametrize("changes, key", [
    (dict(h12=1e200), "h12"),
    (dict(g1R=(1e200, 1.2)), "g1R"),
    (dict(hR2=(1e154, 1e154)), "hR2"),  # each square finite, not the sum
    (dict(g1R=(1e100, 1e100), g2R=(1e100, 1e100)), "g1R and g2R"),
])
def test_validate_rejects_a_gain_whose_square_overflows(changes, key):
    # float ** 2 raises OverflowError from about 1.34e154 on: building the
    # setup, or the kernel's h_ij ** 2, ended in a traceback. The last
    # case's norms are finite, but its MAC term det([g1R g2R])^2 is not
    setup = replace(example_channel(), **changes)
    with pytest.raises(NonFinite, match=rf"^{key} (is|are) too large"):
        validate(setup)


def test_validate_rejects_negative_power():
    ch = example_channel()
    for field in ("P", "PR"):
        kwargs = dict(h11=ch.h11, h12=ch.h12, h21=ch.h21, h22=ch.h22,
                      g1R=ch.g1R, g2R=ch.g2R, hR1=ch.hR1, hR2=ch.hR2,
                      P=ch.P, PR=ch.PR)
        kwargs[field] = -0.1
        with pytest.raises(NegativePower):
            validate(ChannelSetup(**kwargs))


def test_validate_bounds_the_radicand_at_its_least_remaining_power():
    # the kernel forms rho_i PR / (P - p_i) ||hRj||^2. On the paper example
    # at P = 1, PR = 1e300, (PR / P) ||hR2||^2 = 5e300 is finite, but at
    # p1 = 1 - 2^-53 the radicand is inf: validate refuses the pair
    hole = replace(example_channel(), P=1.0, PR=1e300)
    assert zf_radicand(hole, 1, 1.0, 1.0 - 0.9999999999999999)[0] == math.inf
    with pytest.raises(NonFinite, match=r"^the zero-forcing radicand "
                       r"overflows: PR = 1e\+300, P = 1\.0$"):
        validate(hole)
    # a float p_i < P leaves P - p_i >= 2^-53 P, so with ||hRj||^2 = 1 the
    # largest PR / P admitted is the largest float over 2^53, and at it
    # the least P - p_i gives a finite radicand
    unit = replace(example_channel(), hR1=(1.0, 0.0), hR2=(0.0, 1.0), P=1.0)
    top = math.ldexp(sys.float_info.max, -53)
    assert validate(replace(unit, PR=top)).PR == top
    assert math.isfinite(zf_radicand(replace(unit, PR=top), 1, 1.0,
                                     math.ldexp(1.0, -53))[0])
    with pytest.raises(NonFinite, match="radicand overflows"):
        validate(replace(unit, PR=math.nextafter(top, math.inf)))
    # at P = 0 the kernel puts 1 in the place of P - p_i: PR ||hRj||^2
    # must be finite, here with ||hRj||^2 = 2 (parallel columns, det = 0)
    twin = replace(example_channel(), hR1=(1.0, 1.0), hR2=(1.0, 1.0), P=0.0)
    half = sys.float_info.max / 2.0
    assert validate(replace(twin, PR=half)).PR == half
    with pytest.raises(NonFinite, match="radicand overflows"):
        validate(replace(twin, PR=math.nextafter(half, math.inf)))
    # zero relay columns leave no radicand to bound
    bare = replace(example_channel(), hR1=(0.0, 0.0), hR2=(0.0, 0.0))
    assert validate(replace(bare, P=1.0, PR=1e300)).PR == 1e300


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


def _scalar_signal(setup, user, rho1, sign, p):
    """search._signal at one cell, from model's kernel on Python floats."""
    rho_i = rho1 if user == 1 else 1.0 - rho1
    if p >= setup.P:
        return boundary_signal(setup, user, rho_i), True
    rad, feasible = zf_radicand(setup, user, rho_i, setup.P - p)
    return (own_signal(setup, user, sign, math.sqrt(max(rad, 0.0)),
                       setup.P - p), feasible)


def _assert_kernel_matches_scalars(array_fn, scalar_fn, *args):
    """array_fn on arrays that broadcast equals scalar_fn on each
    element's Python numbers, bit for bit. The arrays are read-only, so an
    augmented assignment into one raises, and they must be unchanged."""
    arrays = [np.array(a) for a in args]
    before = [a.copy() for a in arrays]
    for a in arrays:
        a.flags.writeable = False
    out = array_fn(*arrays)
    out = out if isinstance(out, tuple) else (out,)
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    assert np.broadcast_shapes(shape, *(np.shape(x) for x in out)) == shape
    for idx in np.ndindex(shape):
        want = scalar_fn(*(np.broadcast_to(a, shape)[idx].item()
                           for a in arrays))
        want = want if isinstance(want, tuple) else (want,)
        for got, exp in zip(out, want):
            got = np.broadcast_to(got, shape)[idx]
            assert np.array(got).tobytes() == np.array(exp, got.dtype).tobytes()
    assert all((a == b).all() for a, b in zip(arrays, before))


@pytest.mark.parametrize("seed", range(8))
def test_kernel_on_arrays_matches_scalars(seed):
    # the array kernel returns new arrays, which search._signal writes
    # into; it must equal the scalar kernel element by element, bit for
    # bit, and never write an argument, whichever argument is the largest,
    # on 0-d arrays, with det(H) = 0 and at p_i = P
    rng = np.random.default_rng(2600 + seed)
    P = float(10.0 ** rng.uniform(-3.0, 3.0))
    setup = random_setup(rng, P=P, PR=(1.0, 100.0, 0.01, 0.0)[seed % 4] * P,
                         det_zero=seed % 2 == 1)
    assert (setup.hR_det == 0.0) == (seed % 2 == 1)
    rho = rng.uniform(0.0, 1.0, 3)
    remaining = rng.uniform(0.0, 1.0, (4, 1, 1)) * P + 1e-3 * P
    p = np.concatenate([rng.uniform(0.0, P, 4), [0.0, P]])  # p_i = P too
    sign = np.array([-1, 1])
    root = rng.uniform(0.0, 3.0, (2, 3))
    for user in (1, 2):
        def check(fn, scalar_fn, *args):
            _assert_kernel_matches_scalars(
                lambda *a: fn(setup, user, *a),
                lambda *a: scalar_fn(setup, user, *a), *args)

        check(zf_radicand, zf_radicand, rho[:, None], remaining[0, 0, 0])
        check(zf_radicand, zf_radicand, rho[:, None], remaining)  # remaining
        check(zf_radicand, zf_radicand, rho[1], remaining[2, 0, 0])  # 0-d
        check(own_gain, own_gain, sign[:, None, None], root[0])  # sign
        check(own_gain, own_gain, sign, root[:, :, None])  # root
        check(own_gain, own_gain, sign[0], root[1, 2])  # 0-d
        for largest in range(3):
            args = [sign[:, None], root[:, 1:], remaining[:2, :, 0]]
            args[largest] = args[largest][..., None, None]
            check(own_signal, own_signal, *args)
        check(own_signal, own_signal, sign[1], root[0, 0], remaining[1, 0, 0])
        check(_signal, _scalar_signal, rho[:, None, None], sign[:, None], p)
        check(_signal, _scalar_signal, rho, sign[:, None, None, None],
              p[:, None])
        check(_signal, _scalar_signal, rho[0], sign[1], p[:, None, None])
        check(_signal, _scalar_signal, rho[2], sign[0], p[-1])  # 0-d, P


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
    with pytest.raises(ValueError, match="line 11: PR takes one number"):
        parse_channel_text(EXAMPLE_TEXT.replace("PR = 0.1", "PR = 0.1 0.2"))


def test_parse_channel_text_refuses_a_gain_whose_square_overflows():
    with pytest.raises(NonFinite, match="h12 is too large"):
        parse_channel_text(EXAMPLE_TEXT.replace("h12 = 0.5", "h12 = 1e200"))


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
