"""The repository's tools."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring,
over two lines."""

import math  # a comment after code counts as code


# a comment-only line
def f(x):
    """A function docstring."""

    total = (x +
             math.pi)
    label = "not a docstring"
    """Nor is this string,
    which spans two lines."""
    return total, label


class C:
    """A class docstring."""
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, def, the two lines of total, label, the two lines of the
    # later string, return and class: 9 code lines
    assert _tool("code_lines").code_lines(SOURCE) == 9


def test_search_dump_prints_every_search_of_a_channel(capsys):
    # the dump is the cross-tree bit-identity check of every search, so a
    # signature it calls must not change under it unnoticed: one edge
    # channel prints each search's line, a refusal as the exception's name
    import imrc

    dump = _tool("search_dump")
    setup = dict(dump._edge_channels(imrc))["zero-hR2"]
    dump._search_lines(imrc, "edge zero-hR2", setup, ((17, 5),))
    labels = [f"search 17x5 refine={refine}" for refine in (False, True)]
    labels.append("grid_search_sum_rate")
    labels += [f"best_p1 rho1={rho1}" for rho1 in dump.P1_SPLITS]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        f"edge zero-hR2 {label}" for label in labels]
    results = [line.split(": ")[1] for line in lines]
    assert results[:3] == ["None", "None", "NoFeasiblePoint"]
    assert set(results[3:]) == {"nan"}


def test_search_dump_prints_the_low_power_layer(capsys):
    # each split and sign pair prints the four low-power fields, a refusal
    # by the exception's name; at P = PR = 1e200 approx_beam_vector's
    # P ** 2 raised OverflowError
    import imrc
    from dataclasses import replace

    dump = _tool("search_dump")
    setup = replace(imrc.example_channel(), P=1e200, PR=1e200)
    dump._lowpower_lines(imrc, "example", setup)
    lines = capsys.readouterr().out.splitlines()
    fields = ("taylor_coeffs", "closed_form_phat", "linearized_rates",
              "approx_beam_vector")
    assert [line.split(": ")[0] for line in lines] == [
        f"lowpower example rho1={rho1} n=({n1}, {n2}) {field}"
        for rho1 in dump.P1_SPLITS for n1, n2 in dump.SIGN_PAIRS
        for field in fields]
    results = [line.split(": ")[1] for line in lines]
    assert "OverflowError" not in results
    assert all("=" in result for result in results[16:32])  # rho1 = 0.5


def test_ab_time_reports_each_tree_against_the_first():
    # the repository's tree against itself, one round on two items of
    # each pool: one row per pool and tree, the first tree's ratio 1
    import imrc

    src = str(Path(imrc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(TOOLS / "ab_time.py"), src, src, "--rounds", "1",
         "--items", "2"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split()[:4] == ["pool", "tree", "sum_min_ms", "ratio"]
    rows = [line.split() for line in lines[1:-1]]
    assert [(row[0], row[1]) for row in rows] == [
        (pool, tree) for pool in ("sweep", "grid") for tree in "01"]
    ratios = [float(row[3]) for row in rows]
    assert ratios[0] == ratios[2] == 1.0 and ratios[1] > 0 and ratios[3] > 0
    assert lines[-1].startswith("peak RSS ")
