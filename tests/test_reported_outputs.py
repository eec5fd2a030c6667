"""The README examples' CSVs and the ``scaling`` stdout against values recorded
from an earlier version.

A change that moves a reported number fails here and has to update the
reference file in ``tests/data`` on purpose.  Integers and flags must match
exactly; other numbers to 1e-10 relative, or 1e-15 absolute for the
rounding-noise corrections of order 1e-16.
"""

import hashlib
from pathlib import Path

import pytest

from cviqp.cli import main

DATA = Path(__file__).parent / "data"

README_COMMANDS = {
    "readme_fourier_gadget.csv": [
        "fourier-gadget", "--sigma", "0.1", "--eta", "0.005,0.01,0.02",
        "--grid-points", "4096", "--extent", "256",
    ],
    "readme_error_correct.csv": [
        "error-correct", "--delta", "0.25", "--eta", "0.4431134627263791", "--u1", "0.2",
        "--trials", "100", "--seed", "7", "--grid-points", "1024", "--extent", "64",
    ],
    "readme_readout.csv": [
        "readout", "--delta", "0.15,0.2,0.25", "--eta", "0.2215567313631895", "--state", "minus",
    ],
}


# integer and flag columns; every other column holds floats
EXACT_COLUMNS = {"trial", "seed", "outcome_k", "threshold_held", "miscorrected"}


def _same_field(column: str, got: str, want: str) -> bool:
    if column in EXACT_COLUMNS:
        return got == want
    g, w = float(got), float(want)
    return abs(g - w) <= max(1e-10 * abs(w), 1e-15)


def _same_token(got: str, want: str) -> bool:
    """A word of free text: integers and words exactly, other numbers as a float column.
    Trailing punctuation is compared apart."""
    g, w = got.rstrip(",:"), want.rstrip(",:")
    if got[len(g):] != want[len(w):]:
        return False
    try:
        float(w)
    except ValueError:
        return g == w
    return g == w if w.lstrip("-").isdigit() else _same_field("", g, w)


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_csv_matches_recorded_values(tmp_path, name):
    out = tmp_path / name
    assert main([*README_COMMANDS[name], "--out", str(out)]) == 0
    got = out.read_text().splitlines()
    want = (DATA / name).read_text().splitlines()
    assert got[:2] == want[:2]  # configuration and column names
    assert len(got) == len(want)
    header = want[1].split(",")
    for line_got, line_want in zip(got[2:], want[2:]):
        fields = list(zip(header, line_got.split(","), line_want.split(",")))
        assert len(fields) == len(header)
        for column, g, w in fields:
            assert _same_field(column, g, w), f"{column}: {g} != {w} in row {line_want}"


def test_readme_scaling_stdout_matches_recorded_values(capsys):
    assert main(["scaling", "--n", "1,10,100,1000", "--solve-ft-error", "1e-6"]) == 0
    got = capsys.readouterr().out.splitlines()
    want = (DATA / "readme_scaling.txt").read_text().splitlines()
    assert len(got) == len(want)
    for line_got, line_want in zip(got, want):
        tokens = list(zip(line_got.split(), line_want.split()))
        assert len(tokens) == len(line_want.split()) == len(line_got.split())
        for g, w in tokens:
            assert _same_token(g, w), f"{g} != {w} in line {line_want!r}"


def test_readme_dv_csv_is_pinned(tmp_path):
    # SHA-256 of the README dv example's file, recorded from numpy's per-trial
    # default_rng(seed + t) draws; one drifted draw of the batched sampler moves it
    out = tmp_path / "dv.csv"
    assert main(["dv", "--mode", "hadamard-gadget", "--trials", "10000", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f942a1b7f5d61dd85a9db4fc56bdd1bc12d1ae74a607c8bef1631fca5bd40a2b"
    )
