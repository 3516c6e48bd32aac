"""Print every search result of a fixed, seeded set of inputs, one line each.

Two source trees give the same output exactly when their searches agree bit
for bit (floats are printed with repr, which round-trips), so a diff of two
dumps checks that a change to the search leaves every result unchanged:

    python tools/search_dump.py [SRC_DIR] > dump.txt   # SRC_DIR: src

The set: 150 random channels (P = 10^U(-3, 2), PR/P cycling through 1, 100,
1/4, 0 and 1/100, det(H) = 0 in 1 of 3), each searched with and without the
zoom on the 101x99, 201x99 and 37x11 grids, by grid_search_sum_rate on the
default grid and by search_p1 at rho1 = 0.5 on 2001 points; then the paper
example's sweep rows from -30 to 20 dB with PR = P and PR = 100 P; then
edge channels searched the same way on the 2x1, 3x2, 17x5, 65x7 and 129x5
grids (one to 17 blocks of 8, padded to whole blocks and groups): one
channel at P in {0, 5e-324, 1e-300, 1e160, 1e250} x PR/P in {0, 1/100, 1,
100}, and at P = PR = 1 with a zero hR2, with parallel relay columns, and
with g1R = 0 and h12 = 0 (every p1 ties).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

CHANNELS = 150
GRIDS = ((101, 99), (201, 99), (37, 11))
RELAY_RATIOS = (1.0, 100.0, 0.25, 0.0, 0.01)
EDGE_GRIDS = ((2, 1), (3, 2), (17, 5), (65, 7), (129, 5))
EDGE_BUDGETS = (0.0, 5e-324, 1e-300, 1e160, 1e250)
EDGE_RATIOS = (0.0, 0.01, 1.0, 100.0)


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


def _attempt(call, refusal: type[Exception]) -> str:
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


def _search_lines(imrc, label: str, setup, grids):
    """Every search of one channel: _search with and without the zoom on
    each grid, grid_search_sum_rate on the default grid, and search_p1."""
    from imrc.search import _search, search_p1

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
    line = _attempt(lambda: repr(search_p1(setup, 0.5, 2001)), imrc.ImrcError)
    print(f"{label} search_p1: {line}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(Path(args[0] if args else "src").resolve()))
    import imrc

    rng = np.random.default_rng(20091)
    for k in range(CHANNELS):
        _search_lines(imrc, str(k), _channel(imrc, rng, k), GRIDS)

    example = imrc.example_channel()
    budgets = [10.0 ** (db / 10.0) for db in range(-30, 21)]
    for label, ratio in (("PR=P", None), ("PR=100P", 100.0)):
        for db, P in zip(range(-30, 21), budgets):
            PR = None if ratio is None else ratio * P
            policy = imrc.SweepPolicy(PR=PR)

            def row():
                r = imrc.sweep_P(example, [P], policy).rows[0]
                return (f"{_alloc(r.best_alloc)} exact={r.R_sum_exact!r} "
                        f"closed={r.R_sum_closed!r} phat=({r.phat1!r}, "
                        f"{r.phat2!r})")

            print(f"example {label} {db} dB: "
                  f"{_attempt(row, imrc.ImrcError)}")
    for label, setup in _edge_channels(imrc):
        _search_lines(imrc, f"edge {label}", setup, EDGE_GRIDS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
