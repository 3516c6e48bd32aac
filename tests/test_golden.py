"""Golden outputs: the figure and sweep CSVs and the edge channels'
searches, regenerated byte for byte.

Each CSV under tests/golden/ was written by the CLI command listed next to
it, and search_edges.txt by tools/search_dump.py's edge_lines. A change
that moves any printed digit of these outputs fails here; such a change
must regenerate the files in a commit of its own that says why.
"""

import importlib.util
from pathlib import Path

import pytest

import imrc
from imrc.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "figure2.csv": ["figure", "2"],
    "figure3.csv": ["figure", "3"],
    "figure4.csv": ["figure", "4"],
    "figure5.csv": ["figure", "5"],
    "sweep_paper_example.csv": ["sweep", "--p-db-range=-30:0:1"],
    # det(H) != 0 with PR pinned: both beam sign branches and p_i = P optima
    "sweep_det_nonzero.csv": ["sweep", "--channel",
                              str(GOLDEN / "channel_det_nonzero.txt"),
                              "--PR", "1", "--p-db-range=-20:0:2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv_is_byte_identical(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_figure4_exact_optimum_is_the_closed_form_where_det_is_zero():
    # the paper example has det(H) = 0, where the paper's linearization of
    # f_11 in p1 is exact, so the closed form's phat1 / P is the exact
    # optimum's in every row: 0.333950046253, where the 2001-point search
    # wrote 0.33395
    header, *rows = (GOLDEN / "figure4.csv").read_text().splitlines()
    assert header == "P_dB,phat1_grid_over_P,phat1_closed_over_P"
    assert len(rows) == 51
    for row in rows:
        _, grid, closed = row.split(",")
        assert grid == closed == "0.333950046253"


def test_search_edges_are_byte_identical(capsys):
    # every search of the dump's edge channels (budgets from 0 to 1e250,
    # zero and parallel relay columns, the budget domain's ends), bit for
    # bit: the near-limit searches that no other golden file reaches
    path = Path(__file__).resolve().parent.parent / "tools" / "search_dump.py"
    spec = importlib.util.spec_from_file_location("search_dump", path)
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    dump.edge_lines(imrc)
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "search_edges.txt").read_bytes()
