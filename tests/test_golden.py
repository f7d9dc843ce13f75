"""Numeric goldens for every figure dataset.

``tests/golden/reproduce/`` holds the 19 CSVs of ``cotf --no-cache
reproduce 1 ... 13`` on the default config (see the README there).  One
run is compared with them: the same file set, headers, shapes, text labels
and NaN positions, and per column |new - golden| <= 1e-10 * max|golden|.
The margin sits between what an exact refactor may move (the BLAS thread
count moves values by ~4e-14 of a column's scale) and what a real change
of the model moves (percent).
"""
import gzip
from pathlib import Path

import numpy as np
import pytest

from cotf.cli import FIGURES, main

GOLDEN = Path(__file__).parent / "golden" / "reproduce"
RTOL = 1e-10


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    out = tmp_path_factory.mktemp("reproduce")
    assert main(["--out", str(out), "--no-cache", "reproduce", *map(str, FIGURES)]) == 0
    return out


def _parse(text: str):
    """(header, values, labels): cells that are not numbers become NaN in
    ``values`` and keep their text in ``labels``."""
    header, *lines = text.splitlines()
    cells = [line.split(",") for line in lines]
    values = np.full((len(cells), len(cells[0])), np.nan)
    labels = {}
    for i, row in enumerate(cells):
        assert len(row) == values.shape[1], f"ragged row {i}"
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                labels[i, j] = cell
    return header, values, labels


def test_reproduce_file_set(reproduced):
    golden = sorted(p.name.removesuffix(".gz") for p in GOLDEN.glob("*.csv.gz"))
    assert len(golden) == 19
    assert sorted(p.name for p in reproduced.glob("*.csv")) == golden


@pytest.mark.parametrize("name", sorted(p.name.removesuffix(".gz") for p in GOLDEN.glob("*.csv.gz")))
def test_reproduce_matches_golden(reproduced, name):
    want_header, want, want_labels = _parse(gzip.decompress((GOLDEN / f"{name}.gz").read_bytes()).decode())
    got_header, got, got_labels = _parse((reproduced / name).read_text())
    assert got_header == want_header
    assert got.shape == want.shape
    assert got_labels == want_labels
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    scale = np.nanmax(np.abs(want), axis=0, initial=0.0)
    error = np.nanmax(np.abs(got - want), axis=0, initial=0.0)
    worst = int(np.argmax(error - RTOL * scale))
    assert np.all(error <= RTOL * scale), (name, worst, error[worst], scale[worst])
