"""Numeric goldens for every figure dataset.

``tests/golden/reproduce/`` holds the 19 CSVs of ``cotf --no-cache
reproduce 1 ... 13`` on the default config (see the README there).  One
run is compared with them: the same file set, headers, shapes, text labels
and NaN positions, and per column |new - golden| <= 1e-10 * max|golden|.
The margin sits between what an exact refactor may move (the BLAS thread
count moves values by ~4e-14 of a column's scale) and what a real change
of the model moves (percent).  The same comparator holds four figures
reproduced under one and under two OpenBLAS threads to each other.
"""
import gzip
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cotf.cli import FIGURES, main

GOLDEN = Path(__file__).parent / "golden" / "reproduce"
SRC = Path(__file__).resolve().parents[1] / "src"
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


def assert_csv_close(got_text: str, want_text: str, name: str) -> None:
    """Same header, shape, labels and NaN positions, and per column
    |got - want| <= RTOL * max|want|."""
    want_header, want, want_labels = _parse(want_text)
    got_header, got, got_labels = _parse(got_text)
    assert got_header == want_header
    assert got.shape == want.shape
    assert got_labels == want_labels
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    scale = np.nanmax(np.abs(want), axis=0, initial=0.0)
    error = np.nanmax(np.abs(got - want), axis=0, initial=0.0)
    worst = int(np.argmax(error - RTOL * scale))
    assert np.all(error <= RTOL * scale), (name, worst, error[worst], scale[worst])


@pytest.mark.parametrize("name", sorted(p.name.removesuffix(".gz") for p in GOLDEN.glob("*.csv.gz")))
def test_reproduce_matches_golden(reproduced, name):
    want = gzip.decompress((GOLDEN / f"{name}.gz").read_bytes()).decode()
    assert_csv_close((reproduced / name).read_text(), want, name)


def test_reproduce_across_blas_thread_counts(tmp_path):
    """Every solve rests on GEMM output, whose summation order may follow
    the BLAS thread count: one and two OpenBLAS threads agree to the golden
    tolerance on the point, cross and sweep figures."""
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "cotf", "--out", str(out), "--no-cache", "reproduce", "2", "3", "10", "11"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        runs[threads] = {p.name: p.read_text() for p in out.glob("*.csv")}
    assert sorted(runs["1"]) == sorted(runs["2"]) and len(runs["1"]) == 6
    for name, text in runs["1"].items():
        assert_csv_close(runs["2"][name], text, name)
