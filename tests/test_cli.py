"""Command-line surface: parsing, output formats, exit codes, CSV files."""

import csv
import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import imrc
from imrc import (
    GridSpec,
    PowerAllocation,
    beam_vector,
    closed_form_phat,
    example_channel,
    full_region,
    taylor_coeffs,
)
from imrc.cli import (figure2_rows, figure3_rows, main, parse_db_range,
                      parse_grid, parse_power, resolve_channel)

EX = example_channel()
DET_NONZERO = str(Path(__file__).parent / "golden" / "channel_det_nonzero.txt")

CHANNEL_TEXT = """\
h11 = 1.2
h12 = 0.5
h21 = 0.5
h22 = 1.2
g1R = 0.6, 1.2
g2R = 1.0, 0.5
hR1 = 0.5, 1.0
hR2 = 1.0, 2.0
P = 0.1
PR = 0.1
"""


# At PR = P the closed-form split of this channel zero-forces only one
# user, so its exact rate is undefined while the grid search succeeds.
REFUSED_CLOSED_FORM_TEXT = """\
h11 = 1.03
h12 = 0.95
h21 = -1.42
h22 = 0.3
g1R = 1.33, 0.34
g2R = -0.51, 1.34
hR1 = -1.06, -0.62
hR2 = 0.32, 1.28
P = 0.1
PR = 0.1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_power():
    assert parse_power("0.5") == 0.5
    assert parse_power("0dB") == 1.0
    assert parse_power("-10dB") == pytest.approx(0.1, rel=1e-15)
    assert parse_power("-10db") == parse_power("-10dB")
    assert parse_power(" 3 ") == 3.0
    with pytest.raises(ValueError):
        parse_power("xdB")


def test_parse_grid():
    assert parse_grid("101x99") == (101, 99)
    with pytest.raises(ValueError):
        parse_grid("101")


@pytest.mark.parametrize("argv, code", [
    (["region", "--grid", "1x5"], 0),  # region reads only NRHO
    (["figure", "4", "--grid", "2001x0", "--p-db-range=-10:-10:1"], 0),
    (["sweep", "--grid", "1x9"], 1),  # n_p too small
    (["figure", "5", "--grid", "11x0"], 1),  # n_rho too small
])
def test_grid_is_checked_only_where_it_is_read(capsys, tmp_path, monkeypatch,
                                               argv, code):
    # figure 4 reads neither half, as its p1 is exact; sweep and figure 5
    # read both halves and refuse either one before any output
    monkeypatch.chdir(tmp_path)  # figure writes figN.csv here by default
    got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert out == ""
        assert "must be >= " in err
        assert list(tmp_path.iterdir()) == []
    elif argv[0] == "region":
        vertices = full_region(EX, GridSpec(n_rho=5).rho_values()).vertices
        assert f"vertices = {len(vertices)}" in out
    else:
        assert (tmp_path / "fig4.csv").exists()


def test_parse_db_range():
    values = parse_db_range("-30:20:1")
    assert len(values) == 51
    assert values[0] == -30.0 and values[-1] == 20.0
    assert parse_db_range("0:1:0.5") == (0.0, 0.5, 1.0)
    for bad in ("5:1:1", "1:2", "0:1:0", "a:b:c", "-inf:0:1", "0:inf:1",
                "0:1:inf", "nan:0:1", "-1e308:1e308:1", "0:1e308:1e-300",
                "0:1:1e-6"):
        with pytest.raises(ValueError):
            parse_db_range(bad)


def test_beam_prints_example_vector(capsys):
    code, out, _ = run(capsys, "beam", "--channel", "paper-example",
                       "--rho", "0.5", "--p1", "0", "--n1", "1")
    assert code == 0
    assert "t10 = [0.5, -0.5]" in out
    code, out, _ = run(capsys, "beam", "--n1", "-1")
    assert code == 0
    assert "t10 = [-0.7, 0.1]" in out


def test_db_and_linear_budgets_agree(capsys):
    code_db, out_db, _ = run(capsys, "validate", "--P", "0dB")
    code_lin, out_lin, _ = run(capsys, "validate", "--P", "1.0")
    assert code_db == code_lin == 0
    assert out_db == out_lin
    # "=" keeps the leading dash out of argparse's option detection
    code_db, out_db, _ = run(capsys, "rates", "--P=-10dB", "--p1", "0.02")
    code_lin, out_lin, _ = run(capsys, "rates", "--P", "0.1", "--p1", "0.02")
    assert code_db == code_lin == 0
    assert out_db == out_lin


def test_validate_output(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "channel ok" in out
    assert "det(H) = 0" in out
    assert "||g1R||^2 = 1.8" in out


def test_rates_block_penalty(capsys):
    code, out, _ = run(capsys, "rates", "--p1", "0.02", "--p2", "0.01",
                       "--B", "10")
    assert code == 0
    assert "R1 x (B-1)/B" in out
    lines = dict(line.split(" = ", 1) for line in out.strip().splitlines()
                 if " = " in line)
    assert float(lines["R1 x (B-1)/B"]) == pytest.approx(
        0.9 * float(lines["R1"]), rel=1e-10)


def test_block_count_below_two_is_usage_error(capsys):
    code, out, err = run(capsys, "rates", "--p1", "0.02", "--B", "1")
    assert code == 1
    assert out == ""
    assert "--B" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--rho", "0.9"],
    ["phat", "--n1=-1"],
    ["region", "--p-db-range=0:1:1"],
    ["validate", "--out", "x.csv"],
    ["figure", "5", "--B", "3"],
    ["beam", "--grid", "11x3"],
    ["figure", "2", "--p1", "0.01"],
])
def test_flag_a_subcommand_does_not_read_is_usage_error(capsys, tmp_path,
                                                        monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # figure writes figN.csv here by default
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--P=nan", "--P=inf", "--PR=nan",
                                  "--PR=infdB", "--P=4000dB"])
def test_nonfinite_budget_is_usage_error(capsys, flag):
    code, out, _ = run(capsys, "rates", flag)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("text", ["-inf:0:1", "0:inf:1", "0:1e308:1e-300"])
def test_nonfinite_db_range_is_usage_error(capsys, text):
    # an infinite bound, or finite bounds whose point count overflows to
    # inf, made math.floor raise OverflowError, a traceback
    code, out, err = run(capsys, "sweep", f"--p-db-range={text}")
    assert (code, out) == (1, "")
    assert "--p-db-range" in err


@pytest.mark.parametrize("command", [["sweep"], ["figure", "4"],
                                     ["figure", "5"]])
def test_overflowing_db_range_is_usage_error(tmp_path, capsys, command):
    # 10^(3090/10) overflows a float: the budgets raised OverflowError, a
    # traceback, where --P=3090dB is refused as a usage error
    out_path = tmp_path / "f.csv"
    code, out, err = run(capsys, *command, "--p-db-range=3090:3090:1",
                         "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "--p-db-range" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", [["sweep"], ["figure", "5"],
                                     ["figure", "4"]])
@pytest.mark.parametrize("db", ["3080", "3082.3045"])  # P = 1e308, 1.7e308
def test_budget_near_the_float_limit_is_refused(tmp_path, capsys, command,
                                                db):
    # ||g1R||^2 P overflows on the paper example: the search exited 2 with
    # NoFeasiblePoint, and the budget is now refused before any output;
    # figure 4 wrote the closed form's overflowed phat1 / P = 1 there
    out_path = tmp_path / "f.csv"
    code, out, err = run(capsys, *command, f"--p-db-range={db}:{db}:1",
                         "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith("usage error: budget P = 1") and "e+308 is too" in err
    assert not out_path.exists()


def test_repeat_signal_past_the_float_limit_is_refused(tmp_path, capsys):
    # h11 = 10: f_11^2 (P - p1) overflows at P = 1e307 though ||g_iR||^2 P
    # and h_ji^2 P do not, and the fixed splits raised "R1 must be finite"
    channel = tmp_path / "strong.txt"
    channel.write_text(CHANNEL_TEXT.replace("h11 = 1.2", "h11 = 10"))
    code, out, err = run(capsys, "sweep", "--channel", str(channel),
                         "--p-db-range=3070:3070:1")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: budget P = 1e+307 is too large")


@pytest.mark.parametrize("command, line, huge, key", [
    ("rates", "h12 = 0.5", "h12 = 1e200", "h12"),
    ("validate", "g1R = 0.6, 1.2", "g1R = 1e200, 1.2", "g1R"),
])
def test_gain_whose_square_overflows_is_usage_error(tmp_path, capsys,
                                                    command, line, huge, key):
    # float ** 2 raised OverflowError, a traceback, from about 1.34e154 on
    channel = tmp_path / "huge.txt"
    channel.write_text(CHANNEL_TEXT.replace(line, huge))
    code, out, err = run(capsys, command, "--channel", str(channel))
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and f"{key} is too large" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--p-db-range=3079.5:3079.5:1"],
    ["figure", "4", "--p-db-range=3079.99:3079.99:1"],
    ["figure", "5", "--p-db-range=3079.5:3079.5:1", "--grid", "21x9"],
], ids=["sweep", "figure4", "figure5"])
def test_near_limit_runs_print_no_warning(tmp_path, argv):
    # the search evaluated the kernel at remaining = 1 for the p_i = P cells,
    # where PR ||hRj||^2 overflows, before replacing those values: numpy
    # printed RuntimeWarnings on runs that succeed
    src = str(Path(imrc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "imrc", *argv,
         "--out", str(tmp_path / "f.csv")],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("argv", [
    ["phat", "--P", "1e-300"],
    ["sweep", "--p-db-range=-3000:-3000:1"],
    ["figure", "4", "--p-db-range=-3000:-3000:1"],
    ["figure", "5", "--p-db-range=-3000:-3000:1"],
], ids=["phat", "sweep", "figure4", "figure5"])
def test_relay_ratio_past_the_float_limit_is_usage_error(tmp_path, argv):
    # PR / P = 1e10 / 1e-300 overflows, and the kernel forms it: phat and
    # figure 4 wrote empty cells, sweep and figure 5 exited 2 with
    # NoFeasiblePoint, each with RuntimeWarnings; the budget pair is now
    # refused by name before any output
    out_path = tmp_path / "f.csv"
    src = str(Path(imrc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "imrc", *argv,
         "--PR", "1e10", "--out", str(out_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("usage error: PR / P overflows: "
                           "PR = 10000000000.0, P = 1e-300\n")
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["figure", "4"],
    ["figure", "5", "--grid", "21x9"],
], ids=["figure4", "figure5"])
def test_sweeps_check_only_the_budgets_they_run(tmp_path, capsys, argv):
    # the figures validated the channel at --P = 1e-300 with the pinned
    # PR = 1e10, where PR / P overflows, and exited 1, though their one row
    # runs at P = 1; they ignore --P now, and sweep does not read it
    out_path = tmp_path / "f.csv"
    code, _, err = run(capsys, *argv, "--P", "1e-300", "--PR", "1e10",
                       "--p-db-range=0:0:1", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert out_path.read_text().splitlines()[1].startswith("0,")
    code, out, err = run(capsys, "sweep", "--P", "1e-300", "--PR", "1e10",
                         "--p-db-range=0:0:1")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --P 1e-300" in err


EDGE_COMMANDS = (["validate"], ["beam"], ["rates"], ["phat"], ["region"],
                 ["sweep", "--grid", "21x9"], ["figure", "2"], ["figure", "3"],
                 ["figure", "4"], ["figure", "5", "--grid", "21x9"])
EDGE_BUDGETS = (5e-324, 1e-300, 1.0, 1e300, 9e307)
EDGE_RATIOS = (0.0, 1.0, 1e10)  # PR / P


def _edge_run(capsys, tmp_path, argv):
    """(exit code, stderr) of one in-process run, a RuntimeWarning raised
    as an error; a run that fails writes no output."""
    out_path = tmp_path / "edge.csv"
    if argv[0] != "validate":
        argv = [*argv, "--out", str(out_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    if code == 0:
        out_path.unlink(missing_ok=True)
    else:
        assert out == "" and not out_path.exists()
    return code, err


@pytest.mark.parametrize("command", EDGE_COMMANDS,
                         ids=[" ".join(c[:2]) for c in EDGE_COMMANDS])
def test_budgets_at_both_ends_run_or_are_refused_by_name(tmp_path, capsys,
                                                         command):
    # every subcommand over P in EDGE_BUDGETS x PR / P in EDGE_RATIOS,
    # where PR is a float: a run succeeds, or exits 1 naming a budget, or
    # exits 2 with a domain error; it never raises or warns. Sweeps run
    # their budget from --p-db-range, with PR = P unless pinned
    sweeps = command[0] == "sweep" or command[1:2] in (["4"], ["5"])
    for P, ratio in itertools.product(EDGE_BUDGETS, EDGE_RATIOS):
        PR = ratio * P
        if math.isinf(PR):
            continue
        if sweeps:
            db = 10.0 * math.log10(P)
            argv = [*command, f"--p-db-range={db!r}:{db!r}:1"]
            argv += [] if ratio == 1.0 else [f"--PR={PR!r}"]
        else:
            argv = [*command, f"--P={P!r}", f"--PR={PR!r}"]
        code, err = _edge_run(capsys, tmp_path, argv)
        if code == 1:
            assert " P = " in err, argv
        elif code == 2:
            name = err.split(":")[1].strip()
            assert issubclass(getattr(imrc.errors, name), imrc.ImrcError)
        else:
            assert code == 0, argv


@pytest.mark.parametrize("argv", [
    ["rates", "--P", "1", "--PR", "1e300", "--p1", "0.9999999999999999"],
    ["sweep", "--PR", "1e298", "--p-db-range=-100:-100:1"],
    ["figure", "4", "--PR", "1e298", "--p-db-range=-100:-100:1"],
    ["phat", "--P", "0", "--PR", "1e308"],
], ids=["rates", "sweep", "figure4", "phat-P0"])
def test_radicand_past_the_float_limit_is_usage_error(tmp_path, capsys, argv):
    # PR / P is finite but the radicand's rho_i PR / (P - p_i) ||hRj||^2
    # is not: rates exited 1 with "R1 must be finite", sweep exited 2 with
    # NoFeasiblePoint and figure 4 wrote empty cells, after RuntimeWarnings
    code, err = _edge_run(capsys, tmp_path, argv)
    assert code == 1
    assert err.startswith("usage error: the zero-forcing radicand overflows")


def test_figure3_at_huge_budgets_scales_the_smaller_run(tmp_path, capsys):
    # _linear_ic's 2q p p / P overflowed from P ~ 1.3e154: at 1e200, 99 of
    # the 100 r1_ic cells were -inf and the intersection was 4.5e187
    out_path = tmp_path / "fig3.csv"
    code, out, _ = run(capsys, "figure", "3", "--channel", DET_NONZERO,
                       "--P", "1e200", "--PR", "1e200", "--out", str(out_path))
    assert code == 0
    cells = [cell for row in csv.reader(out_path.read_text().splitlines()[1:])
             for cell in row]
    assert len(cells) == 500
    assert all(cell and math.isfinite(float(cell)) for cell in cells)
    setup = resolve_channel(DET_NONZERO)
    rows, crossing = figure3_rows(replace(setup, P=1e200, PR=1e200), 0.5, 1,
                                  1e-4)
    base, base_crossing = figure3_rows(replace(setup, P=1e150, PR=1e150),
                                       0.5, 1, 1e-4)
    for row, ref in zip(rows, base):  # the linearized columns scale with P
        assert row[1:3] == pytest.approx([1e50 * x for x in ref[1:3]],
                                         rel=1e-12)
    assert crossing / 1e200 == pytest.approx(base_crossing / 1e150, rel=1e-12)
    line = next(l for l in out.splitlines() if l.startswith("intersection"))
    assert float(line.split("=")[1]) == pytest.approx(crossing, rel=1e-11)


def test_figure3_near_the_float_limit_writes_no_inf(tmp_path, capsys):
    # ||g1R||^2 p1 / ln 2 is past the largest float from p1 / P = 0.77 on,
    # inside the budget domain: the r1_mac column held 23 "inf" cells, and
    # a value past the largest float is now an empty cell, as undefined
    out_path = tmp_path / "fig3.csv"
    code, _, err = run(capsys, "figure", "3", "--P", "9e307", "--PR", "9e307",
                       "--out", str(out_path))
    assert (code, err) == (0, "")
    rows = list(csv.reader(out_path.read_text().splitlines()[1:]))
    assert len(rows) == 100
    assert not any("inf" in cell for row in rows for cell in row)
    assert sum(row[1] == "" for row in rows) == 23


def test_figure2_at_huge_budgets_matches_unit_budgets(tmp_path, capsys):
    # approx_beam_vector's P ** 2 raised OverflowError, a traceback, from
    # P ~ 1.3e154; the beam vectors depend on P and PR only through PR / P
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run(capsys, "figure", "2", "--P", "1e200", "--PR", "1e200",
                     "--out", str(out_path))
    assert code == 0
    rows = figure2_rows(replace(EX, P=1e200, PR=1e200), 0.5, 1)
    base = figure2_rows(replace(EX, P=1.0, PR=1.0), 0.5, 1)
    assert len(rows) == 100
    for row, ref in zip(rows, base):
        assert row == pytest.approx(ref, rel=1e-12)


def test_sweep_writes_nan_for_an_infeasible_sqrt_split(tmp_path, capsys):
    # at PR = 0.01 and 10 dB the split p = sqrt(P) leaves a user without
    # zero forcing: the README's one `nan` cell, which perfbench's row
    # check tells apart from the empty cell below 0 dB
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--PR", "0.01",
                       "--p-db-range=10:10:1", "--out", str(out_path))
    assert code == 0 and "sqrt = undefined" in out
    header, row = list(csv.reader(out_path.read_text().splitlines()))
    assert dict(zip(header, row))["R_sum_sqrt"] == "nan"


@pytest.mark.parametrize("which", ["4", "5"])
def test_underflowing_budget_writes_empty_figure_cells(tmp_path, capsys,
                                                       which):
    # 10^(-3300/10) underflows to P = 0, where figure 4's p1/P and figure
    # 5's rates over log2(1 + h11^2 P) + log2(1 + h22^2 P) = 0 are
    # undefined: they raised ZeroDivisionError, and are now empty cells
    out_path = tmp_path / "f.csv"
    code, _, err = run(capsys, "figure", which, "--p-db-range=-3300:-3300:1",
                       "--out", str(out_path))
    assert (code, err) == (0, "")
    header, row = out_path.read_text().splitlines()
    assert row.split(",") == ["-3300"] + [""] * header.count(",")


def test_out_of_range_inputs_are_usage_errors(tmp_path, capsys):
    # NegativePower and NonFinite from input validation exit 1 before any
    # output, like every other out-of-range parameter
    code, out, err = run(capsys, "validate", "--P=-1")
    assert (code, out) == (1, "")
    assert "P must be >= 0" in err
    channel = tmp_path / "nan.txt"
    channel.write_text(CHANNEL_TEXT.replace("P = 0.1", "P = nan"))
    code, out, err = run(capsys, "validate", "--channel", str(channel))
    assert (code, out) == (1, "")
    assert "not finite" in err


def test_missing_channel_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "--channel", "/nope/chan.txt")
    assert code == 1
    assert "error" in err.lower()


def test_bad_rho_is_usage_error(capsys):
    code, _, _ = run(capsys, "rates", "--rho", "1.5")
    assert code == 1
    code, _, _ = run(capsys, "phat", "--rho", "1.5")
    assert code == 1
    # validate printed the channel's 15 lines before refusing the split
    code, out, err = run(capsys, "validate", "--rho", "1.5")
    assert (code, out) == (1, "")
    assert "rho1 must lie in [0, 1]" in err


@pytest.mark.parametrize("command", ["rates", "beam", "validate"])
def test_nan_power_is_usage_error(capsys, command):
    # NaN passed the p < 0 check and reached the zero-forcing radicand,
    # which reported an infeasible beam (exit 2)
    code, out, err = run(capsys, command, "--p1", "nan")
    assert (code, out) == (1, "")
    assert "nonnegative" in err


@pytest.mark.parametrize("flag", ["--p1", "--p2"])
@pytest.mark.parametrize("power", ["5", "inf"])
def test_validate_refuses_power_above_budget(capsys, flag, power):
    # p_i >= P passed as the always-feasible boundary, so validate printed
    # "channel ok" and exited 0 where rates refuses the allocation
    code, out, err = run(capsys, "validate", flag, power)
    assert (code, out) == (1, "")
    assert err == run(capsys, "rates", flag, power)[2]
    assert f"p{flag[-1]} = {float(power)} exceeds the power budget" in err


def test_infeasible_instance_is_exit_2(capsys):
    code, _, err = run(capsys, "phat", "--rho", "0.001")
    assert code == 2
    assert "error:" in err
    code, _, _ = run(capsys, "beam", "--PR", "1e-9")
    assert code == 2


def test_unknown_figure_is_usage_error(capsys):
    code, _, _ = run(capsys, "figure", "7")
    assert code == 1


def test_channel_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "chan.txt"
    path.write_text(CHANNEL_TEXT)
    code, out, _ = run(capsys, "validate", "--channel", str(path))
    assert code == 0
    assert "channel ok" in out
    path.write_text(CHANNEL_TEXT + "h11 = 9\n")
    code, _, err = run(capsys, "validate", "--channel", str(path))
    assert code == 1
    assert "duplicate" in err


def test_beam_csv(tmp_path, capsys):
    out_path = tmp_path / "beam.csv"
    code, _, _ = run(capsys, "beam", "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["user", "t_1", "t_2", "boundary"]
    assert rows[1] == ["1", "0.5", "-0.5", "0"]


def test_region_csv_matches_library(tmp_path, capsys):
    out_path = tmp_path / "region.csv"
    code, out, _ = run(capsys, "region", "--out", str(out_path))
    assert code == 0
    assert "vertices = 4" in out
    rows = list(csv.reader(out_path.read_text().splitlines()))
    region = full_region(EX)
    assert rows[0] == ["R1", "R2"]
    parsed = [(float(a), float(b)) for a, b in rows[1:]]
    for got, expect in zip(parsed, region.vertices):
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_sweep_csv_layout(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--grid", "11x3",
                     "--p-db-range=-20:-10:10", "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["P_dB", "rho1", "p1", "p2", "n1", "n2", "phat1",
                       "phat2", "R_sum_exact", "R_sum_closed", "R_sum_half",
                       "R_sum_sqrt"]
    assert len(rows) == 3
    assert rows[1][0] == "-20" and rows[2][0] == "-10"
    assert rows[1][-1] == "" and rows[2][-1] == ""   # sqrt undefined below 0 dB


def test_figure_csv_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "figure", "2", "--out", str(a))[0] == 0
    assert run(capsys, "figure", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n") and "\r" not in text


def test_figure2_csv_reevaluates_identically(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    run(capsys, "figure", "2", "--out", str(out_path))
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["p1_over_P", "t10_1_exact", "t10_2_exact",
                       "t10_1_approx", "t10_2_approx"]
    assert len(rows) == 101
    for row in rows[1:None:25]:
        frac = float(row[0])
        alloc = PowerAllocation(p1=frac * EX.P, p2=0.0, rho1=0.5, n1=1)
        t = beam_vector(EX, alloc, 1)
        assert format(float(t[0]), ".12g") == row[1]
        assert format(float(t[1]), ".12g") == row[2]


def test_figure3_reports_intersection(tmp_path, capsys):
    out_path = tmp_path / "fig3.csv"
    code, out, _ = run(capsys, "figure", "3", "--out", str(out_path))
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("intersection p1 = "))
    crossing = float(line.split("=")[1])
    assert crossing == pytest.approx(0.033395004625346905, abs=1e-9)
    assert figure3_rows(EX, 0.5, 1, 1e-4)[1] == closed_form_phat(
        taylor_coeffs(EX, 0.5), EX).p1
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["p1_over_P", "r1_mac", "r1_ic",
                       "R1_mac_exact", "R1_ic_exact"]
    assert len(rows) == 101


@pytest.mark.parametrize("p2", ["-1", "-1e-300", "nan"])
def test_figure3_negative_p2_is_usage_error(capsys, tmp_path, monkeypatch,
                                            p2):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "figure", "3", f"--p2={p2}")
    assert (code, out) == (1, "")
    assert "--p2" in err
    assert list(tmp_path.iterdir()) == []


def test_figure3_zero_p2_runs_at_1e_4(tmp_path, capsys):
    zero, small = tmp_path / "zero.csv", tmp_path / "small.csv"
    assert run(capsys, "figure", "3", "--p2", "0", "--out", str(zero))[0] == 0
    assert run(capsys, "figure", "3", "--p2", "1e-4",
               "--out", str(small))[0] == 0
    assert zero.read_bytes() == small.read_bytes()


def test_phat_prints_readme_example(tmp_path, capsys):
    out_path = tmp_path / "phat.csv"
    code, out, _ = run(capsys, "phat", "--rho", "0.5", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[:2] == ["phat1 = 0.0333950046253 (n1 = +1)",
                                    "phat2 = 0.0031007751938 (n2 = +1)"]
    assert out_path.read_text() == ("rho1,phat1,phat2,n1,n2\n"
                                    "0.5,0.0333950046253,0.0031007751938,1,1\n")


def test_sweep_leaves_undefined_closed_form_empty(tmp_path, capsys):
    channel = tmp_path / "chan.txt"
    channel.write_text(REFUSED_CLOSED_FORM_TEXT)
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--channel", str(channel),
                       "--grid", "11x9", "--p-db-range=-10:-10:1",
                       "--out", str(out_path))
    assert code == 0
    assert "closed = undefined" in out
    header, row = list(csv.reader(out_path.read_text().splitlines()))
    cells = dict(zip(header, row))
    assert cells["R_sum_closed"] == ""
    assert float(cells["R_sum_exact"]) > 0.0
    assert "nan" not in out_path.read_text()


def test_figure4_leaves_undefined_closed_form_empty(tmp_path, capsys):
    # the closed form has no zero-forcing margin on this channel at rho = 0.5;
    # each row keeps its budget with the undefined cells empty
    channel = tmp_path / "refused.txt"
    channel.write_text(REFUSED_CLOSED_FORM_TEXT)
    out_path = tmp_path / "fig4.csv"
    code, out, _ = run(capsys, "figure", "4", "--channel", str(channel),
                       "--p-db-range=-30:0:10", "--out", str(out_path))
    assert code == 0
    assert "(4 rows)" in out
    header, *rows = list(csv.reader(out_path.read_text().splitlines()))
    assert header[2] == "phat1_closed_over_P"
    assert [row[0] for row in rows] == ["-30", "-20", "-10", "0"]
    assert all(row[2] == "" for row in rows)


def test_python_m_imrc_runs_the_cli():
    src = str(Path(imrc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", "imrc", "validate"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "channel ok" in done.stdout


def test_repeated_main_matches_fresh_processes(tmp_path, capsys):
    # main reuses one parser per process: a flag given to one call must not
    # leak into the next, nor a usage error spoil the parser
    commands = [
        ["sweep", "--PR=0.01", "--p-db-range=-10:0:5", "--grid", "21x9"],
        ["sweep", "--p-db-range=-10:0:5", "--grid", "21x9"],
        ["figure", "4", "--grid", "41x9"],
        ["figure", "4"],
        ["rates", "--B", "1"],
        ["rates", "--p1", "0.02"],
    ]
    paths = [tmp_path / f"out{k}.csv" for k in range(len(commands))]
    in_process = []
    for argv, path in zip(commands, paths):
        code = main(argv + ["--out", str(path)])
        captured = capsys.readouterr()
        data = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
        in_process.append((code, captured.out, captured.err, data))
    assert [result[0] for result in in_process] == [0, 0, 0, 0, 1, 0]

    src = str(Path(imrc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    fresh = [subprocess.Popen([sys.executable, "-m", "imrc", *argv, "--out",
                               str(path)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
             for argv, path in zip(commands, paths)]
    try:
        for proc, path, expect in zip(fresh, paths, in_process):
            out, err = proc.communicate(timeout=60)
            data = path.read_bytes() if path.exists() else None
            assert (proc.returncode, out, err, data) == expect
    finally:
        for proc in fresh:
            proc.kill()  # a no-op for a process that has exited
            proc.communicate()
