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
from .lowpower import (best_sign_powers, closed_form_phat, full_region,
                       linearized_rates, taylor_coeffs)
from .model import (ChannelSetup, PowerAllocation, feasibility,
                    resolve_channel, validate)
from .rates import (block_penalty, check_budget, ic_rates, mac_rates,
                    scheme_rate_point)
from .search import GridSpec, SweepPolicy, best_p1, sweep_P

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


def parse_grid(text: str) -> tuple[int, int]:
    """`101x99` -> (101, 99): NP and NRHO. Each subcommand checks the halves
    it reads by building its GridSpec."""
    left, sep, right = text.partition("x")
    if not sep:
        raise ValueError(f"grid must look like 101x99, got {text!r}")
    return int(left), int(right)


def parse_db_range(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be MIN:MAX:STEP in dB, got {text!r}")
    lo, hi, step = (float(x) for x in parts)
    if not (0.0 < step < math.inf and -math.inf < lo <= hi < math.inf):
        raise ValueError(f"range must be finite, ascending, step > 0: {text!r}")
    span = (hi - lo) / step + 1e-9
    if not span < 1e6:  # inf and NaN too, before any budget is built
        raise ValueError(f"range has too many points: {text!r}")
    values = tuple(lo + k * step for k in range(math.floor(span) + 1))
    try:
        _budgets(values[-1:])
    except OverflowError:
        raise ValueError(f"range's top budget overflows: {text!r}") from None
    return values


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.bool_, np.integer)):  # bool is an int
        return str(int(value))
    if not math.isfinite(value):
        return ""  # undefined here, or past the largest float
    return format(float(value), ".12g")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write(config: argparse.Namespace, header, rows) -> None:
    """The CSV behind a subcommand's printout, when --out names a file."""
    if config.out:
        write_csv(config.out, header, rows)
        print(f"wrote {config.out}")


def _setup(config: argparse.Namespace) -> ChannelSetup:
    """The channel with the budget overrides applied, validated."""
    setup = resolve_channel(config.channel)
    return validate(replace(setup, P=setup.P if config.P is None else config.P,
                            PR=setup.PR if config.PR is None else config.PR))


def _alloc(config: argparse.Namespace) -> PowerAllocation:
    try:
        return PowerAllocation(p1=config.p1, p2=config.p2, rho1=config.rho,
                               n1=config.n1, n2=config.n2)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_validate(config: argparse.Namespace) -> int:
    setup = _setup(config)
    alloc = _alloc(config)
    for user in (1, 2):  # refused as rates refuses it, before any output
        check_budget(setup, user, alloc.user(user)[0])
    for name in ("h11", "h12", "h21", "h22", "g1R", "g2R", "hR1", "hR2",
                 "P", "PR"):
        print(f"{name} = {getattr(setup, name)}")
    for name in ("g1R", "g2R", "hR1", "hR2"):
        print(f"||{name}||^2 = {_fmt(getattr(setup, name + '_norm2'))}")
    print(f"det(H) = {_fmt(setup.relay_det())}")
    report = feasibility(setup, alloc)
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
    for user in (1, 2):
        residual = beamforming.zero_forcing_residual(setup, alloc, user)
        print(f"residual{user} = {_fmt(residual)}")
    _write(config, ["user", "t_1", "t_2", "boundary"],
           [(1, vectors.t10[0], vectors.t10[1], vectors.boundary1),
            (2, vectors.t20[0], vectors.t20[1], vectors.boundary2)])
    return 0


def cmd_rates(config: argparse.Namespace) -> int:
    if config.B is not None and config.B < 2:
        raise UsageError(f"--B must be an integer >= 2, got {config.B}")
    setup = _setup(config)
    alloc = _alloc(config)
    rates = scheme_rate_point(setup, alloc)
    names = ("R1", "R2", "R1mac", "R2mac", "Rsum_mac", "R1ic", "R2ic")
    for name in names:
        print(f"{name} = {_fmt(getattr(rates, name))}")
    print(f"truncated = {rates.truncated}")
    if config.B is not None:
        with_blocks = block_penalty(rates.point, config.B)
        print(f"R1 x (B-1)/B = {_fmt(with_blocks.R1)}")
        print(f"R2 x (B-1)/B = {_fmt(with_blocks.R2)}")
    header = names + ("truncated",)
    _write(config, header, [[getattr(rates, name) for name in header]])
    return 0


def cmd_phat(config: argparse.Namespace) -> int:
    setup = _setup(config)
    best = best_sign_powers(setup, config.rho)
    print(f"phat1 = {_fmt(best.p1)} (n1 = {best.n1:+d})")
    print(f"phat2 = {_fmt(best.p2)} (n2 = {best.n2:+d})")
    _write(config, ["rho1", "phat1", "phat2", "n1", "n2"],
           [(config.rho, best.p1, best.p2, best.n1, best.n2)])
    return 0


def cmd_region(config: argparse.Namespace) -> int:
    setup = _setup(config)
    rho_grid = (GridSpec(n_rho=config.grid[1]).rho_values().tolist()
                if config.grid else None)
    region = full_region(setup, rho_grid)
    print(f"vertices = {len(region.vertices)}")
    for r1, r2 in region.vertices:
        print(f"  ({_fmt(r1)}, {_fmt(r2)})")
    _write(config, ["R1", "R2"], region.vertices)
    return 0


def _budgets(db_values) -> list[float]:
    return [10.0 ** (db / 10.0) for db in db_values]


def _over(value: float, scale: float) -> float:
    """value / scale, NaN where scale is 0: a rate or power normalized by a
    budget that underflowed to 0 is undefined."""
    return value / scale if scale else math.nan


def _sqrt_cell(value: float | None):
    """The sweep CSV's R_sum_sqrt cell. It is empty below 0 dB, where the
    strategy is undefined. A split that is infeasible at P >= 1 is written
    as `nan`, not empty, because perfbench's sweep row check still reads an
    empty cell as P < 1."""
    if value is not None and math.isnan(value):
        return "nan"
    return value


def cmd_sweep(config: argparse.Namespace) -> int:
    setup = resolve_channel(config.channel)  # sweep_P validates every row
    policy = SweepPolicy(grid=GridSpec(*config.grid or ()), PR=config.PR)
    table = sweep_P(setup, _budgets(config.p_db), policy)
    for db, row in zip(config.p_db, table.rows):
        line = (f"P = {db:g} dB: exact = {_fmt(row.R_sum_exact)}, "
                f"closed = {_fmt(row.R_sum_closed) or 'undefined'}, "
                f"half = {_fmt(row.R_sum_half) or 'undefined'}")
        if row.R_sum_sqrt is not None:
            line += f", sqrt = {_fmt(row.R_sum_sqrt) or 'undefined'}"
        print(line)
    _write(config,
           ["P_dB", "rho1", "p1", "p2", "n1", "n2", "phat1", "phat2",
            "R_sum_exact", "R_sum_closed", "R_sum_half", "R_sum_sqrt"],
           [(db, row.best_alloc.rho1, row.best_alloc.p1, row.best_alloc.p2,
             row.best_alloc.n1, row.best_alloc.n2, row.phat1, row.phat2,
             row.R_sum_exact, row.R_sum_closed, row.R_sum_half,
             _sqrt_cell(row.R_sum_sqrt))
            for db, row in zip(config.p_db, table.rows)])
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
    the linearized curves' crossing, closed_form_phat's p1."""
    coeffs = taylor_coeffs(setup, rho1, n1=n1)
    rows = []
    for k in range(100):
        frac = k / 100.0
        p1 = frac * setup.P
        lin = linearized_rates(coeffs, setup, p1, p2)
        mac = mac_rates(setup, p1, p2)
        ic = ic_rates(setup, PowerAllocation(p1=p1, p2=p2, rho1=rho1, n1=n1))
        rows.append((frac, lin.r1mac, lin.r1ic, mac.R1mac, ic.R1))
    return rows, closed_form_phat(coeffs, setup).p1


def figure4_rows(setup_template: ChannelSetup, db_values, PR: float | None,
                 rho1: float) -> list[tuple]:
    """Best p1/P with p2 = 0 across budgets: the exact optimum vs the
    closed form, both maximized over the branch sign. A cell is NaN where
    its method has no feasible p1."""
    rows = []
    for db, big_p in zip(db_values, _budgets(db_values)):
        setup = validate(replace(setup_template, P=big_p,
                                 PR=big_p if PR is None else PR))
        try:
            closed = _over(best_sign_powers(setup, rho1).p1, big_p)
        except LinearizationInfeasible:  # no zero-forcing margin at rho1
            closed = float("nan")
        rows.append((db, best_p1(setup, rho1), closed))
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
        rows.append((db, _over(row.R_sum_exact, norm),
                     _over(row.R_sum_closed, norm),
                     _over(row.R_sum_half, norm),
                     None if row.R_sum_sqrt is None
                     else _over(row.R_sum_sqrt, norm)))
    return rows


def cmd_figure(config: argparse.Namespace) -> int:
    if not config.p2 >= 0.0:
        raise UsageError(f"--p2 must be nonnegative, got {config.p2}")
    out = config.out or f"fig{config.which}.csv"
    # figures 4 and 5 ignore --P: they validate every budget they run
    if config.which == 2:
        header = ["p1_over_P", "t10_1_exact", "t10_2_exact",
                  "t10_1_approx", "t10_2_approx"]
        rows = figure2_rows(_setup(config), config.rho, config.n1)
    elif config.which == 3:
        header = ["p1_over_P", "r1_mac", "r1_ic", "R1_mac_exact", "R1_ic_exact"]
        rows, crossing = figure3_rows(_setup(config), config.rho, config.n1,
                                      config.p2 or 1e-4)
        print(f"intersection p1 = {_fmt(crossing)}")
    elif config.which == 4:
        header = ["P_dB", "phat1_grid_over_P", "phat1_closed_over_P"]
        rows = figure4_rows(resolve_channel(config.channel), config.p_db,
                            config.PR, config.rho)
    else:
        header = ["P_dB", "norm_sum_grid", "norm_sum_closed",
                  "norm_sum_half", "norm_sum_sqrt"]
        rows = figure5_rows(resolve_channel(config.channel), config.p_db,
                            config.PR, GridSpec(*config.grid or ()))
    write_csv(out, header, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# every flag's add_argument keywords; _COMMANDS names the flags each
# subcommand reads besides _COMMON_FLAGS, so any other flag is a usage error;
# sweep reads no --P, as it runs only the budgets of its --p-db-range
_FLAGS = {
    "--channel": dict(default="paper-example",
                      help="channel config file, or the built-in 'paper-example'"),
    "--rho": dict(type=float, default=0.5,
                  help="relay power share of user 1 (default 0.5)"),
    "--p1": dict(type=float, default=0.0),
    "--p2": dict(type=float, default=0.0,
                 help="user 2's new-message power (figure 3: 0 means 1e-4)"),
    "--n1": dict(type=int, choices=(-1, 1), default=1),
    "--n2": dict(type=int, choices=(-1, 1), default=1),
    "--B": dict(type=int, default=None,
                help="block count; reported rates get the (B-1)/B factor"),
    "--P": dict(type=parse_power, default=None, metavar="VAL[dB]",
                help="override node power budget (figures 4 and 5 ignore it)"),
    "--PR": dict(type=parse_power, default=None, metavar="VAL[dB]",
                 help="override relay power budget (sweeps: pin PR instead of PR = P)"),
    "--grid": dict(type=parse_grid, default=None, metavar="NPxNRHO"),
    "--p-db-range": dict(type=parse_db_range, dest="p_db",
                         default=parse_db_range(DEFAULT_DB_RANGE), metavar="MIN:MAX:STEP",
                         help=f"budget sweep in dB (default {DEFAULT_DB_RANGE})"),
    "--out": dict(default=None, help="write CSV here"),
}
_COMMON_FLAGS = ("--channel", "--PR")
_ALLOC_FLAGS = ("--P", "--rho", "--p1", "--p2", "--n1", "--n2")

_COMMANDS = {
    "validate": (cmd_validate, _ALLOC_FLAGS),
    "beam": (cmd_beam, _ALLOC_FLAGS + ("--out",)),
    "rates": (cmd_rates, _ALLOC_FLAGS + ("--B", "--out")),
    "phat": (cmd_phat, ("--P", "--rho", "--out")),
    "region": (cmd_region, ("--P", "--grid", "--out")),
    "sweep": (cmd_sweep, ("--grid", "--p-db-range", "--out")),
    "figure": (cmd_figure, ("--P", "--rho", "--n1", "--p2", "--grid",
                            "--p-db-range", "--out")),
}


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="imrc",
                     description="Two-user interference channel with a "
                                 "two-antenna relay: rates, beamforming, "
                                 "power allocation, figure data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        # no abbreviations: sweep's --P would otherwise set --PR
        p = sub.add_parser(name, allow_abbrev=False)
        if name == "figure":
            p.add_argument("which", type=int, choices=(2, 3, 4, 5),
                           help="figure number to reproduce")
        for flag in _COMMON_FLAGS + flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (UsageError, NegativePower, NonFinite) as exc:
        # only model.validate raises the last two: out-of-range input
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
