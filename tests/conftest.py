"""pytest hooks shared by the test modules."""

from pathlib import Path

import imrc


def pytest_report_header(config):
    """The directory of the imrc package under test: `-o pythonpath=...`
    chooses it, and `PYTHONPATH` alone does not (pyproject.toml's
    pythonpath goes first)."""
    return f"imrc under test: {Path(imrc.__file__).resolve().parent}"
