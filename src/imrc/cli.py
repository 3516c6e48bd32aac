"""Command-line front end.

Subcommands wrap the library one computation each: `validate`, `beam`,
`rates`, `phat`, `region`, `sweep`, and `figure {2|3|4|5}` (CSV data behind
the standard plots). Output goes to stdout as plain `name = value` lines;
`--out FILE` additionally writes a CSV (header row, comma separated,
12 significant digits, LF endings -- byte-stable across runs).

Exit codes: 0 success, 1 usage/input error, 2 infeasible computation.
Power flags accept linear values or decibels: `--P 0.1` or `--P -10dB`.
`main` builds the argument parser once per process and reuses it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from . import beamforming
from .errors import (ImrcError, LinearizationInfeasible, NegativePower,
                     NonFinite)
from .lowpower import (best_sign_powers, full_region, linearized_rates,
                       taylor_coeffs)
from .model import (ChannelSetup, PowerAllocation, feasibility,
                    resolve_channel, validate)
from .rates import block_penalty, ic_rates, mac_rates, scheme_rate_point
from .search import (GridSpec, SweepPolicy, bisect_intersection, search_p1,
                     sweep_P)

DEFAULT_DB_RANGE = "-30:20:1"


class UsageError(Exception):
    """Bad command line or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit itself
        raise UsageError(message)


def parse_power(text: str) -> float:
    """`0.5` -> 0.5 linear; `-10dB` -> 10**(-1). NaN and infinity are
    rejected as out of range."""
    s = text.strip()
    try:
        value = (10.0 ** (float(s[:-2]) / 10.0) if s.lower().endswith("db")
                 else float(s))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"power must be finite, got {text!r}")
    return value


def parse_grid(text: str) -> GridSpec:
    left, sep, right = text.partition("x")
    if not sep:
        raise ValueError(f"grid must look like 101x99, got {text!r}")
    return GridSpec(n_p=int(left), n_rho=int(right))


def parse_db_range(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be MIN:MAX:STEP in dB, got {text!r}")
    lo, hi, step = (float(x) for x in parts)
    if not (0.0 < step < math.inf and -math.inf < lo <= hi < math.inf):
        raise ValueError(f"range must be finite, ascending, step > 0: {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return tuple(lo + k * step for k in range(count))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if math.isnan(value):
        return ""  # undefined here
    return format(float(value), ".12g")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _setup(config: argparse.Namespace) -> ChannelSetup:
    """The channel with the budget overrides applied; an out-of-range gain
    or budget is a usage error."""
    try:
        setup = resolve_channel(config.channel)
        if config.P is not None:
            setup = replace(setup, P=config.P)
        if config.PR is not None:
            setup = replace(setup, PR=config.PR)
        return validate(setup)
    except (NegativePower, NonFinite) as exc:
        raise UsageError(str(exc)) from exc


def _alloc(config: argparse.Namespace) -> PowerAllocation:
    try:
        return PowerAllocation(p1=config.p1, p2=config.p2, rho1=config.rho,
                               n1=config.n1, n2=config.n2)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_validate(config: argparse.Namespace) -> int:
    setup = _setup(config)
    for name in ("h11", "h12", "h21", "h22", "g1R", "g2R", "hR1", "hR2",
                 "P", "PR"):
        print(f"{name} = {getattr(setup, name)}")
    for name in ("g1R", "g2R", "hR1", "hR2"):
        print(f"||{name}||^2 = {_fmt(getattr(setup, name + '_norm2'))}")
    print(f"det(H) = {_fmt(setup.relay_det())}")
    report = feasibility(setup, _alloc(config))
    print(f"zero-forcing feasible: user1={report.exact1} user2={report.exact2}")
    print(f"low-power expansion:   user1={report.linear1} user2={report.linear2}")
    print("channel ok")
    return 0


def cmd_beam(config: argparse.Namespace) -> int:
    setup = _setup(config)
    alloc = _alloc(config)
    vectors = beamforming.beam_vectors(setup, alloc)
    print(f"t10 = [{_fmt(vectors.t10[0])}, {_fmt(vectors.t10[1])}]")
    print(f"t20 = [{_fmt(vectors.t20[0])}, {_fmt(vectors.t20[1])}]")
    res1 = beamforming.zero_forcing_residual(setup, alloc, 1)
    res2 = beamforming.zero_forcing_residual(setup, alloc, 2)
    print(f"residual1 = {_fmt(res1)}")
    print(f"residual2 = {_fmt(res2)}")
    if config.out:
        write_csv(config.out, ["user", "t_1", "t_2", "boundary"],
                  [(1, vectors.t10[0], vectors.t10[1], vectors.boundary1),
                   (2, vectors.t20[0], vectors.t20[1], vectors.boundary2)])
        print(f"wrote {config.out}")
    return 0


def cmd_rates(config: argparse.Namespace) -> int:
    setup = _setup(config)
    alloc = _alloc(config)
    rates = scheme_rate_point(setup, alloc)
    for name in ("R1", "R2", "R1mac", "R2mac", "Rsum_mac", "R1ic", "R2ic"):
        print(f"{name} = {_fmt(getattr(rates, name))}")
    print(f"truncated = {rates.truncated}")
    if config.B is not None:
        with_blocks = block_penalty(rates.point, config.B)
        print(f"R1 x (B-1)/B = {_fmt(with_blocks.R1)}")
        print(f"R2 x (B-1)/B = {_fmt(with_blocks.R2)}")
    if config.out:
        write_csv(config.out,
                  ["R1", "R2", "R1mac", "R2mac", "Rsum_mac", "R1ic", "R2ic",
                   "truncated"],
                  [(rates.R1, rates.R2, rates.R1mac, rates.R2mac,
                    rates.Rsum_mac, rates.R1ic, rates.R2ic, rates.truncated)])
        print(f"wrote {config.out}")
    return 0


def cmd_phat(config: argparse.Namespace) -> int:
    setup = _setup(config)
    best = best_sign_powers(setup, config.rho)
    print(f"phat1 = {_fmt(best.p1)} (n1 = {best.n1:+d})")
    print(f"phat2 = {_fmt(best.p2)} (n2 = {best.n2:+d})")
    if config.out:
        write_csv(config.out, ["rho1", "phat1", "phat2", "n1", "n2"],
                  [(config.rho, best.p1, best.p2, best.n1, best.n2)])
        print(f"wrote {config.out}")
    return 0


def cmd_region(config: argparse.Namespace) -> int:
    setup = _setup(config)
    rho_grid = config.grid.rho_values().tolist() if config.grid else None
    region = full_region(setup, rho_grid)
    print(f"vertices = {len(region.vertices)}")
    for r1, r2 in region.vertices:
        print(f"  ({_fmt(r1)}, {_fmt(r2)})")
    if config.out:
        write_csv(config.out, ["R1", "R2"], list(region.vertices))
        print(f"wrote {config.out}")
    return 0


def _budgets(db_values) -> list[float]:
    return [10.0 ** (db / 10.0) for db in db_values]


def _sqrt_cell(value: float | None):
    """The sweep CSV's R_sum_sqrt cell. It is empty below 0 dB, where the
    strategy is undefined. A split that is infeasible at P >= 1 is written
    as `nan`, not empty, because perfbench's sweep row check still reads an
    empty cell as P < 1."""
    if value is not None and math.isnan(value):
        return "nan"
    return value


def cmd_sweep(config: argparse.Namespace) -> int:
    setup = _setup(config)
    policy = SweepPolicy(grid=config.grid or GridSpec(), PR=config.PR)
    table = sweep_P(setup, _budgets(config.p_db), policy)
    for db, row in zip(config.p_db, table.rows):
        line = (f"P = {db:g} dB: exact = {_fmt(row.R_sum_exact)}, "
                f"closed = {_fmt(row.R_sum_closed) or 'undefined'}, "
                f"half = {_fmt(row.R_sum_half) or 'undefined'}")
        if row.R_sum_sqrt is not None:
            line += f", sqrt = {_fmt(row.R_sum_sqrt) or 'undefined'}"
        print(line)
    if config.out:
        rows = [(db, row.best_alloc.rho1, row.best_alloc.p1, row.best_alloc.p2,
                 row.best_alloc.n1, row.best_alloc.n2, row.phat1, row.phat2,
                 row.R_sum_exact, row.R_sum_closed, row.R_sum_half,
                 _sqrt_cell(row.R_sum_sqrt))
                for db, row in zip(config.p_db, table.rows)]
        write_csv(config.out,
                  ["P_dB", "rho1", "p1", "p2", "n1", "n2", "phat1", "phat2",
                   "R_sum_exact", "R_sum_closed", "R_sum_half", "R_sum_sqrt"],
                  rows)
        print(f"wrote {config.out}")
    return 0


def figure2_rows(setup: ChannelSetup, rho1: float, n1: int) -> list[tuple]:
    """Beam vector components, exact vs first-order, as p1 sweeps [0, 0.99P]."""
    rows = []
    for k in range(100):
        frac = k / 100.0
        alloc = PowerAllocation(p1=frac * setup.P, p2=0.0, rho1=rho1, n1=n1)
        exact = beamforming.beam_vector(setup, alloc, 1)
        approx = beamforming.approx_beam_vector(setup, alloc, 1)
        rows.append((frac, exact[0], exact[1], approx[0], approx[1]))
    return rows


def figure3_rows(setup: ChannelSetup, rho1: float, n1: int,
                 p2: float) -> tuple[list[tuple], float]:
    """User 1's two caps, linearized and exact, on the same p1 sweep, plus
    the linearized curves' intersection (the closed-form optimum)."""
    coeffs = taylor_coeffs(setup, rho1, n1=n1)
    rows = []
    for k in range(100):
        frac = k / 100.0
        p1 = frac * setup.P
        lin = linearized_rates(coeffs, setup, p1, p2)
        mac = mac_rates(setup, p1, p2)
        ic = ic_rates(setup, PowerAllocation(p1=p1, p2=p2, rho1=rho1, n1=n1))
        rows.append((frac, lin.r1mac, lin.r1ic, mac.R1mac, ic.R1))
    crossing = bisect_intersection(
        (lambda p: linearized_rates(coeffs, setup, p, p2).r1mac,
         lambda p: linearized_rates(coeffs, setup, p, p2).r1ic),
        (0.0, setup.P))
    return rows, crossing


def figure4_rows(setup_template: ChannelSetup, db_values, PR: float | None,
                 rho1: float, n_p: int) -> list[tuple]:
    """Best p1/P with p2 = 0 across budgets: refined 1-D exhaustive search
    vs the closed form, both maximized over the branch sign. A cell is NaN
    where its method has no feasible p1."""
    rows = []
    for db in db_values:
        big_p = 10.0 ** (db / 10.0)
        setup = validate(replace(setup_template, P=big_p,
                                 PR=big_p if PR is None else PR))
        best = search_p1(setup, rho1, n_p)
        try:
            closed = best_sign_powers(setup, rho1).p1 / big_p
        except LinearizationInfeasible:  # no zero-forcing margin at rho1
            closed = float("nan")
        rows.append((db, float("nan") if best is None else best / big_p,
                     closed))
    return rows


def figure5_rows(setup_template: ChannelSetup, db_values, PR: float | None,
                 grid: GridSpec | None) -> list[tuple]:
    """Sum rates of the four strategies, each normalized by
    log2(1 + h11^2 P) + log2(1 + h22^2 P)."""
    policy = SweepPolicy(grid=grid or GridSpec(), PR=PR)
    table = sweep_P(setup_template, _budgets(db_values), policy)
    rows = []
    for db, row in zip(db_values, table.rows):
        norm = (math.log2(1.0 + setup_template.h11 ** 2 * row.P)
                + math.log2(1.0 + setup_template.h22 ** 2 * row.P))
        rows.append((db, row.R_sum_exact / norm, row.R_sum_closed / norm,
                     row.R_sum_half / norm,
                     None if row.R_sum_sqrt is None else row.R_sum_sqrt / norm))
    return rows


def cmd_figure(config: argparse.Namespace) -> int:
    setup = _setup(config)
    out = config.out or f"fig{config.which}.csv"
    if config.which == 2:
        header = ["p1_over_P", "t10_1_exact", "t10_2_exact",
                  "t10_1_approx", "t10_2_approx"]
        rows = figure2_rows(setup, config.rho, config.n1)
    elif config.which == 3:
        header = ["p1_over_P", "r1_mac", "r1_ic", "R1_mac_exact", "R1_ic_exact"]
        rows, crossing = figure3_rows(setup, config.rho, config.n1,
                                      config.p2 if config.p2 > 0.0 else 1e-4)
        print(f"intersection p1 = {_fmt(crossing)}")
    elif config.which == 4:
        header = ["P_dB", "phat1_grid_over_P", "phat1_closed_over_P"]
        n_p = config.grid.n_p if config.grid else 2001
        rows = figure4_rows(setup, config.p_db, config.PR, config.rho, n_p)
    else:
        header = ["P_dB", "norm_sum_grid", "norm_sum_closed",
                  "norm_sum_half", "norm_sum_sqrt"]
        rows = figure5_rows(setup, config.p_db, config.PR, config.grid)
    write_csv(out, header, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "beam": cmd_beam,
    "rates": cmd_rates,
    "phat": cmd_phat,
    "region": cmd_region,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
}


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="imrc",
                     description="Two-user interference channel with a "
                                 "two-antenna relay: rates, beamforming, "
                                 "power allocation, figure data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "figure":
            p.add_argument("which", type=int, choices=(2, 3, 4, 5),
                           help="figure number to reproduce")
        p.add_argument("--channel", default="paper-example",
                       help="channel config file, or the built-in 'paper-example'")
        p.add_argument("--rho", type=float, default=0.5,
                       help="relay power share of user 1 (default 0.5)")
        p.add_argument("--p1", type=float, default=0.0)
        p.add_argument("--p2", type=float, default=0.0)
        p.add_argument("--n1", type=int, choices=(-1, 1), default=1)
        p.add_argument("--n2", type=int, choices=(-1, 1), default=1)
        p.add_argument("--B", type=int, default=None,
                       help="block count; reported rates get the (B-1)/B factor")
        p.add_argument("--P", type=parse_power, default=None, metavar="VAL[dB]",
                       help="override node power budget")
        p.add_argument("--PR", type=parse_power, default=None, metavar="VAL[dB]",
                       help="override relay power budget (sweeps: pin PR instead of PR = P)")
        p.add_argument("--grid", type=parse_grid, default=None, metavar="NPxNRHO")
        p.add_argument("--p-db-range", type=parse_db_range, dest="p_db",
                       default=parse_db_range(DEFAULT_DB_RANGE), metavar="MIN:MAX:STEP",
                       help=f"budget sweep in dB (default {DEFAULT_DB_RANGE})")
        p.add_argument("--out", default=None, help="write CSV here")
    return parser


def _config(args: argparse.Namespace) -> argparse.Namespace:
    """The checked flags, dB already linear; None P/PR keep the file's."""
    if args.B is not None and args.B < 2:
        raise UsageError(f"--B must be an integer >= 2, got {args.B}")
    return args


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](_config(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ImrcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
