"""Print every search result of a fixed, seeded set of inputs, one line each.

Two source trees give the same output exactly when their searches agree bit
for bit (floats are printed with repr, which round-trips), so a diff of two
dumps checks that a change to the search leaves every result unchanged:

    python tools/search_dump.py [SRC_DIR] > dump.txt   # SRC_DIR: src

The set: 150 random channels (P = 10^U(-3, 2), PR/P cycling through 1, 100,
1/4, 0 and 1/100, det(H) = 0 in 1 of 3), each searched with and without the
zoom on the 101x99, 201x99, 37x11 and 41x199 grids, by grid_search_sum_rate
on the default grid, and figure 4's best_p1 at rho1 in {0.2, 0.5, 0.8};
the 41x199 grid zooms up to 199 windows a round, more than
the search._CHUNK evaluated at a time. Then every field of the paper
example's sweep rows from -30 to 20 dB with PR = P and PR = 100 P, and of
the first SWEPT random channels' rows at their own P and PR on the default
grid (det(H) != 0 on two in three: the closed form and the fixed splits
with their branch signs); then edge channels searched
the same way on the 2x1, 3x2, 17x5, 65x7 and 129x5 grids (one to 17 blocks
of 8, padded to whole blocks and groups): one channel at P in {0, 5e-324,
1e-300, 1e160, 1e250} x PR/P in {0, 1/100, 1, 100}, and at P = PR = 1 with
a zero hR2, with parallel relay columns, and with g1R = 0 and h12 = 0
(every p1 ties); and at P = 1, PR = 1/4 with hR2 = (1, 0), where user 1's
radicand is exactly 0 at rho1 = p1 = 1/2, a cell of the 17x5, 65x7 and
129x5 grids. Last, the low-power layer of the paper example and of
tests/golden/channel_det_nonzero.txt at P = PR in {1e-3, 1, 1e200}, at
rho1 in {0.2, 0.5, 0.8} and every sign pair: taylor_coeffs (mu, nu and S of
each user), closed_form_phat, linearized_rates at p1 = p2 = P/3 and both
users' approx_beam_vector at p1 = p2 = P/2. A refused input prints the
exception's name, an overflow's too.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

CHANNELS = 150
SWEPT = 10
GRIDS = ((101, 99), (201, 99), (37, 11), (41, 199))
RELAY_RATIOS = (1.0, 100.0, 0.25, 0.0, 0.01)
EDGE_GRIDS = ((2, 1), (3, 2), (17, 5), (65, 7), (129, 5))
EDGE_BUDGETS = (0.0, 5e-324, 1e-300, 1e160, 1e250)
EDGE_RATIOS = (0.0, 0.01, 1.0, 100.0)
P1_SPLITS = (0.2, 0.5, 0.8)
LOWPOWER_BUDGETS = (1e-3, 1.0, 1e200)
SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
ROOT = Path(__file__).resolve().parent.parent


def _channel(imrc, rng: np.random.Generator, k: int):
    def signed(size=None):
        return rng.uniform(0.3, 1.5, size) * rng.choice([-1.0, 1.0], size)

    def vec():
        return tuple(float(x) for x in signed(2))

    P = float(10.0 ** rng.uniform(-3.0, 2.0))
    hR1 = vec()
    if k % 3 == 0:
        factor = float(signed())
        hR2 = (factor * hR1[0], factor * hR1[1])
    else:
        hR2 = vec()
    return imrc.ChannelSetup(
        h11=float(signed()), h12=float(signed()), h21=float(signed()),
        h22=float(signed()), g1R=vec(), g2R=vec(), hR1=hR1, hR2=hR2, P=P,
        PR=RELAY_RATIOS[k % len(RELAY_RATIOS)] * P)


def _alloc(alloc) -> str:
    if alloc is None:
        return "None"
    return (f"rho1={alloc.rho1!r} p1={alloc.p1!r} p2={alloc.p2!r} "
            f"n1={alloc.n1} n2={alloc.n2}")


def _row(imrc, setup, P: float, PR) -> str:
    """Every field of sweep_P's row at budget P (PR = P when PR is None)."""
    r = imrc.sweep_P(setup, [P], imrc.SweepPolicy(PR=PR)).rows[0]
    return (f"P={r.P!r} {_alloc(r.best_alloc)} exact={r.R_sum_exact!r} "
            f"closed={r.R_sum_closed!r} phat=({r.phat1!r}, {r.phat2!r}) "
            f"half={r.R_sum_half!r} sqrt={r.R_sum_sqrt!r}")


def _attempt(call, refusal) -> str:
    try:
        return call()
    except refusal as exc:  # an input a search refuses is a result too
        return type(exc).__name__


def _edge_channels(imrc):
    """(label, setup) of the edge channels, det(H) != 0 unless made 0."""
    base = imrc.ChannelSetup(h11=1.2, h12=0.5, h21=-0.7, h22=0.9,
                             g1R=(0.6, 1.2), g2R=(1.0, -0.5), hR1=(0.5, 1.0),
                             hR2=(1.0, -0.4), P=1.0, PR=1.0)
    for P in EDGE_BUDGETS:
        for ratio in EDGE_RATIOS:
            yield f"P={P!r} PR/P={ratio!r}", replace(base, P=P, PR=ratio * P)
    yield "zero-hR2", replace(base, hR2=(0.0, 0.0))
    yield "parallel-relay", replace(base, hR2=(-0.65, -1.3))
    yield "g1R=0 h12=0", replace(base, g1R=(0.0, 0.0), h12=0.0)
    yield "zero-radicand", replace(base, hR2=(1.0, 0.0), PR=0.25)


def _search_lines(imrc, label: str, setup, grids):
    """Every search of one channel: _search with and without the zoom on
    each grid, grid_search_sum_rate on the default grid, and best_p1 at
    each split."""
    from imrc.search import _search, best_p1

    for n_p, n_rho in grids:
        grid = imrc.GridSpec(n_p=n_p, n_rho=n_rho)
        for refine in (False, True):
            line = _attempt(lambda: _alloc(_search(setup, grid, refine)),
                            imrc.ImrcError)
            print(f"{label} search {n_p}x{n_rho} refine={refine}: {line}")

    def oracle():
        result = imrc.grid_search_sum_rate(setup)
        return f"{_alloc(result.allocation)} sum_rate={result.sum_rate!r}"

    print(f"{label} grid_search_sum_rate: {_attempt(oracle, imrc.ImrcError)}")
    for rho1 in P1_SPLITS:
        line = _attempt(lambda: repr(best_p1(setup, rho1)), imrc.ImrcError)
        print(f"{label} best_p1 rho1={rho1}: {line}")


def _lowpower_lines(imrc, label: str, setup) -> None:
    """The low-power layer of one channel at each split and sign pair."""
    refusal = (imrc.ImrcError, ArithmeticError)
    for rho1 in P1_SPLITS:
        for n1, n2 in SIGN_PAIRS:
            def taylor():
                return imrc.taylor_coeffs(setup, rho1, n1, n2)

            def coeffs():
                c = taylor()
                return (f"mu=({c.mu11!r}, {c.mu22!r}) nu=({c.nu11!r}, "
                        f"{c.nu22!r}) S=({c.S1!r}, {c.S2!r})")

            def phat():
                c = imrc.closed_form_phat(taylor(), setup)
                return (f"p=({c.p1!r}, {c.p2!r}) "
                        f"clamped=({c.clamped1}, {c.clamped2})")

            def linear():
                p = setup.P / 3.0
                r = imrc.linearized_rates(taylor(), setup, p, p)
                return (f"mac=({r.r1mac!r}, {r.r2mac!r}) "
                        f"ic=({r.r1ic!r}, {r.r2ic!r})")

            def beam():
                p = setup.P / 2.0
                alloc = imrc.PowerAllocation(p1=p, p2=p, rho1=rho1, n1=n1,
                                             n2=n2)
                t1, t2 = (imrc.approx_beam_vector(setup, alloc, user).tolist()
                          for user in (1, 2))
                return (f"t10=({t1[0]!r}, {t1[1]!r}) "
                        f"t20=({t2[0]!r}, {t2[1]!r})")

            key = f"lowpower {label} rho1={rho1} n=({n1}, {n2})"
            for field, call in (("taylor_coeffs", coeffs),
                                ("closed_form_phat", phat),
                                ("linearized_rates", linear),
                                ("approx_beam_vector", beam)):
                print(f"{key} {field}: {_attempt(call, refusal)}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(Path(args[0] if args else "src").resolve()))
    import imrc

    rng = np.random.default_rng(20091)
    channels = [_channel(imrc, rng, k) for k in range(CHANNELS)]
    for k, setup in enumerate(channels):
        _search_lines(imrc, str(k), setup, GRIDS)

    example = imrc.example_channel()
    budgets = [10.0 ** (db / 10.0) for db in range(-30, 21)]
    for label, ratio in (("PR=P", None), ("PR=100P", 100.0)):
        for db, P in zip(range(-30, 21), budgets):
            PR = None if ratio is None else ratio * P
            line = _attempt(lambda: _row(imrc, example, P, PR), imrc.ImrcError)
            print(f"example {label} {db} dB: {line}")
    for k, setup in enumerate(channels[:SWEPT]):
        line = _attempt(lambda: _row(imrc, setup, setup.P, setup.PR),
                        imrc.ImrcError)
        print(f"{k} sweep: {line}")
    for label, setup in _edge_channels(imrc):
        _search_lines(imrc, f"edge {label}", setup, EDGE_GRIDS)
    det_nonzero = imrc.load_channel(
        str(ROOT / "tests" / "golden" / "channel_det_nonzero.txt"))
    for P in LOWPOWER_BUDGETS:
        for label, setup in (("example", example), ("det-nonzero", det_nonzero)):
            _lowpower_lines(imrc, f"{label} P=PR={P!r}",
                            replace(setup, P=P, PR=P))
    return 0


if __name__ == "__main__":
    sys.exit(main())
