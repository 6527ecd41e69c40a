"""The console commands run as a user runs them, each in its own process:
reruns of the same command write the same bytes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import gimbal

SRC = str(Path(gimbal.__file__).resolve().parents[1])

# the columns of records and predictions that hold no float
NOT_FLOAT = {"index", "id", "branch_codes", "fragile", "ill_posed", "overflow"}


def gimbal_cli(cwd, *args):
    """`gimbal *args` in a fresh interpreter in cwd; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "gimbal.cli", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=600)
    assert proc.returncode == 0, (args, proc.stderr)


def assert_same_bytes(cwd, *pairs):
    for a, b in pairs:
        assert (cwd / a).read_bytes() == (cwd / b).read_bytes(), (a, b)


def assert_float_cells_are_repr(path):
    """Every non-empty cell of a float column is the repr of the float it
    reads back as, reread with the csv module, apart from the writer."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    columns = [i for i, name in enumerate(header) if name not in NOT_FLOAT]
    cells = [row[i] for row in rows for i in columns if row[i]]
    assert cells
    for cell in cells:
        assert cell == repr(float(cell)), (path, cell)


def test_reruns_on_19200_points_are_byte_identical(tmp_path):
    # fit at K = 50, 5 and 200 and predict with a residual correction, each
    # twice; at K=5 most rows sit at fine levels, many cells to a key block,
    # and at K=200 a chunk holds 163 rows: 117 whole chunks and a 129-row tail
    gimbal_cli(tmp_path, "simulate", "--out", "big.csv", "--n", "19200", "--sampling", "gaussian",
               "--rho", "10", "--seed", "1")
    for k, name in (("50", "big_k50"), ("5", "big_k5"), ("200", "big_k200")):
        for run in ("", "_2"):
            gimbal_cli(tmp_path, "fit", "--input", "big.csv", "--out-records", f"{name}{run}.csv",
                       "--out-summary", f"{name}{run}.json", "--k", k)
        assert_same_bytes(tmp_path, (f"{name}.csv", f"{name}_2.csv"), (f"{name}.json", f"{name}_2.json"))
    gimbal_cli(tmp_path, "simulate", "--out", "big_test.csv", "--n", "60", "--seed", "3")
    for run in ("", "2"):
        gimbal_cli(tmp_path, "predict", "--train", "big.csv", "--test", "big_test.csv",
                   "--out", f"big_pred{run}.csv", "--residual-knn", "10", "--k", "50")
    assert_same_bytes(tmp_path, ("big_pred.csv", "big_pred2.csv"))
    for name in ("big_k50.csv", "big_pred.csv"):
        assert_float_cells_are_repr(tmp_path / name)
