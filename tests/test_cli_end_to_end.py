"""The console commands run as a user runs them, each in its own process:
reruns of the same command write the same bytes, and a variant that an
experiment writes together with its others is the file gimbal fit writes
for it alone."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # and at K=200 the rows run in 117 equal chunks of 164 or 165 rows
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


# each experiment's files at seed 1
EXPERIMENT_FILES = {
    "7.1": ["e71_full.csv", "e71_full_strict_eps_phi.csv", "e71_isotropic_proxy.csv", "e71_report.json",
            "e71_theta_off.csv"],
    "7.2": ["e72_full.csv", "e72_isotropic_proxy.csv", "e72_report.json"],
    "7.3": [*(f"e73_n0_{n0}.csv" for n0 in (6, 8, 10, 15, 20, 30, 50, 75, 100)), "e73_report.json"],
    "7.4": ["e74_report.json", "e74_theta_off.csv", "e74_theta_on.csv"],
}


@pytest.fixture(scope="module")
def experiments(tmp_path_factory):
    """A directory holding experiments 7.1-7.4 at seed 1, each run twice:
    e71 and e71b, ..., e74 and e74b."""
    cwd = tmp_path_factory.mktemp("experiments")
    for exp_id in EXPERIMENT_FILES:
        name = "e" + exp_id.replace(".", "")
        for outdir in (name, f"{name}b"):
            gimbal_cli(cwd, "experiment", "--id", exp_id, "--seed", "1", "--outdir", outdir)
    return cwd


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENT_FILES))
def test_experiment_reruns_are_byte_identical(experiments, exp_id):
    name = "e" + exp_id.replace(".", "")
    files = EXPERIMENT_FILES[exp_id]
    assert sorted(path.name for path in (experiments / name).iterdir()) == sorted(files)
    assert_same_bytes(experiments, *((f"{name}/{f}", f"{name}b/{f}") for f in files))


def test_experiment_float_cells_are_repr(experiments):
    for path in sorted((experiments / "e73").glob("*.csv")):
        assert_float_cells_are_repr(path)


def test_e71_and_e73_fitted_standalone_equal_the_experiments_files(experiments):
    # a variant written with the others of its experiment is the file gimbal
    # fit writes for its config on the experiment's dataset: e73's nine n0
    # variants share one orientation stage and the solve's shared terms, and
    # e71's share one distance scale, gamma and eps_kappa over four stages
    cwd = experiments
    gimbal_cli(cwd, "simulate", "--out", "e73_data.csv", "--n", "1200", "--sampling", "gaussian",
               "--extent", "25000", "--rho", "10", "--psi", "0.7853981633974483", "--seed", "1")
    for n0 in ("6", "100"):
        gimbal_cli(cwd, "fit", "--input", "e73_data.csv", "--out-records", f"e73_fit_n0_{n0}.csv",
                   "--out-summary", f"e73_fit_n0_{n0}.json", "--k", "30", "--h", "2000", "--n-min", "12",
                   "--n0", n0)
        assert_same_bytes(cwd, (f"e73_fit_n0_{n0}.csv", f"e73/e73_n0_{n0}.csv"))
    gimbal_cli(cwd, "simulate", "--out", "e71_data.csv", "--n", "1200", "--extent", "40000", "--rho", "1",
               "--psi", "0", "--c-rad", "0", "--seed", "1")
    gimbal_cli(cwd, "fit", "--input", "e71_data.csv", "--out-records", "e71_fit_proxy.csv",
               "--out-summary", "e71_fit_proxy.json", "--phi-mode", "forced_zero", "--theta-z-mode", "off",
               "--eta-mode", "forced_one")
    assert_same_bytes(cwd, ("e71_fit_proxy.csv", "e71/e71_isotropic_proxy.csv"))
    gimbal_cli(cwd, "fit", "--input", "e71_data.csv", "--out-records", "e71_fit_strict.csv",
               "--out-summary", "e71_fit_strict.json", "--eps-phi", "0.3")
    assert_same_bytes(cwd, ("e71_fit_strict.csv", "e71/e71_full_strict_eps_phi.csv"))
