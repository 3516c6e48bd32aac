"""Golden outputs: the figure and sweep CSVs, regenerated byte for byte.

Each file under tests/golden/ was written by the CLI command listed next to
it. A change that moves any printed digit of these outputs fails here; such
a change must regenerate the files in a commit of its own that says why.
"""

from pathlib import Path

import pytest

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
