"""The console commands run as a user runs them, each in its own process:
reruns of the same command write the same bytes, a variant that an
experiment writes together with its others is the file gimbal fit writes
for it alone, odd but valid inputs fit to the plain input's bytes, and bad
inputs and settings exit 2 while accepted extreme ones exit 0 with nothing
on stderr."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gimbal

SRC = str(Path(gimbal.__file__).resolve().parents[1])

# the columns of records and predictions that hold no float
NOT_FLOAT = {"index", "id", "branch_codes", "fragile", "ill_posed", "overflow"}


def gimbal_cli(cwd, *args, status=0):
    """`gimbal *args` in a fresh interpreter in cwd; it must exit with
    status. Returns its stderr."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "gimbal.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == status, (args, proc.stderr)
    return proc.stderr


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


# ---- a small fit and prediction, and the files made from their inputs

@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A directory holding a 300-point train.csv and a 60-point test.csv,
    the records.csv and summary.json of fitting train.csv at K=30, and the
    pred.csv of predicting test.csv from it with a residual correction."""
    cwd = tmp_path_factory.mktemp("small")
    gimbal_cli(cwd, "simulate", "--out", "train.csv", "--n", "300", "--seed", "1")
    gimbal_cli(cwd, "simulate", "--out", "test.csv", "--n", "60", "--seed", "2")
    gimbal_cli(cwd, "fit", "--input", "train.csv", "--out-records", "records.csv", "--out-summary",
               "summary.json", "--k", "30")
    gimbal_cli(cwd, "predict", "--train", "train.csv", "--test", "test.csv", "--out", "pred.csv", "--k", "30",
               "--residual-knn", "10")
    return cwd


def edit_cells(src, dst, edit):
    """dst: src with edit(line number from 1, cells) applied to each line's
    comma-separated cells (the last keeping its line ending), as awk -F,
    -v OFS=, would rewrite the file."""
    text = src.read_bytes().decode("utf-8")
    out = []
    for number, line in enumerate(text.removesuffix("\n").split("\n"), 1):
        cells = line.split(",")
        edit(number, cells)
        out.append(",".join(cells) + "\n")
    dst.write_bytes("".join(out).encode("utf-8"))


def test_small_fit_and_predict_reruns_are_byte_identical(small):
    gimbal_cli(small, "fit", "--input", "train.csv", "--out-records", "records2.csv", "--out-summary",
               "summary2.json", "--k", "30")
    assert_same_bytes(small, ("records.csv", "records2.csv"), ("summary.json", "summary2.json"))
    gimbal_cli(small, "predict", "--train", "train.csv", "--test", "test.csv", "--out", "pred2.csv", "--k", "30",
               "--residual-knn", "10")
    assert_same_bytes(small, ("pred.csv", "pred2.csv"))


def test_ids_holding_a_comma_and_quotes_fit(tmp_path):
    (tmp_path / "ids.csv").write_text(
        'id,lat,lon,x,y\n"a,b",35.0,135.0,0.1,1.0\n"say ""hi""",35.01,135.0,-0.4,2.0\n'
        "c,35.0,135.01,1.3,0.5\nd,35.01,135.01,0.7,1.5\ne,35.02,135.0,-1.1,0.2\n", encoding="utf-8")
    gimbal_cli(tmp_path, "fit", "--input", "ids.csv", "--out-records", "ids_records.csv", "--out-summary",
               "ids_summary.json", "--k", "4", "--moran-k", "2")


def without_id(src, dst):
    """src's records with the id field cut from every row, the schema line
    kept."""
    with open(src, newline="", encoding="utf-8") as fh:
        schema = fh.readline()
        rows = list(csv.reader(fh))
    cut = rows[0].index("id")
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        fh.write(schema)
        fh.writelines(",".join(row[:cut] + row[cut + 1:]) + "\r\n" for row in rows)


def test_quoted_ids_after_a_byte_order_mark_fit_to_the_plain_files_bytes(small):
    # train.csv again with a byte order mark and a quoted id column whose ids
    # hold a comma, a quote and a line break: the records equal the plain
    # file's once the id field is cut
    with open(small / "train.csv", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    with open(small / "quoted_ids.csv", "w", newline="", encoding="utf-8-sig") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + rows[0])
        writer.writerows([f'p{i}, "q"\nr'] + row for i, row in enumerate(rows[1:]))
    gimbal_cli(small, "fit", "--input", "quoted_ids.csv", "--out-records", "quoted_records.csv",
               "--out-summary", "quoted_summary.json", "--k", "30")
    without_id(small / "records.csv", small / "records_no_id.csv")
    without_id(small / "quoted_records.csv", small / "quoted_records_no_id.csv")
    assert_same_bytes(small, ("records_no_id.csv", "quoted_records_no_id.csv"),
                      ("summary.json", "quoted_summary.json"))


def test_a_cell_outside_the_number_syntax_exits_2(small):
    def underscore(number, cells):
        if number == 7:
            cells[2] = "3_4.8"

    edit_cells(small / "train.csv", small / "underscore.csv", underscore)
    err = gimbal_cli(small, "fit", "--input", "underscore.csv", "--out-records", "u.csv", "--out-summary",
                     "u.json", "--k", "30", status=2)
    assert "column x is not numeric ('3_4.8')" in err


def test_short_moran_rows_rerun_byte_identical_and_extreme_settings(small):
    gimbal_cli(small, "simulate", "--out", "cl_base.csv", "--n", "200", "--seed", "4")
    # twelve points moved onto the first one's spot, each keeping its x and y
    spot = []

    def cluster(number, cells):
        if number == 3:
            spot[:] = cells[:2]
        if 2 < number <= 14:
            cells[:2] = spot

    edit_cells(small / "cl_base.csv", small / "cluster.csv", cluster)
    for run in ("1", "2"):
        gimbal_cli(small, "fit", "--input", "cluster.csv", "--out-records", f"cluster{run}.csv", "--out-summary",
                   f"cluster{run}.json", "--k", "5", "--moran-k", "8")
    assert_same_bytes(small, ("cluster1.csv", "cluster2.csv"), ("cluster1.json", "cluster2.json"))
    gimbal_cli(small, "fit", "--input", "train.csv", "--out-records", "h.csv", "--out-summary", "h.json", "--k",
               "30", "--h", "1e-300", status=2)
    # accepted extreme settings exit 0 and flag their rows, with no numpy warning
    assert gimbal_cli(small, "fit", "--input", "cl_base.csv", "--out-records", "g.csv", "--out-summary", "g.json",
                      "--gamma", "1e308") == ""
    assert gimbal_cli(small, "fit", "--input", "cl_base.csv", "--out-records", "n0.csv", "--out-summary",
                      "n0.json", "--n0", "5e-324") == ""


def test_unreadable_inputs_exit_2_and_a_byte_order_mark_is_ignored(small, tmp_path):
    # a directory and a file that is not UTF-8 are input errors (exit 2), not
    # internal ones (3)
    (tmp_path / "in_dir").mkdir()
    fit = ["--out-records", "u.csv", "--out-summary", "u.json"]
    gimbal_cli(tmp_path, "fit", "--input", "in_dir", *fit, status=2)
    (tmp_path / "not_utf8.csv").write_bytes(b"lat,lon,x,y\n35.0,135.0,\377,1.0\n")
    gimbal_cli(tmp_path, "fit", "--input", "not_utf8.csv", *fit, status=2)
    assert not (tmp_path / "u.csv").exists()
    # a leading UTF-8 byte order mark, as spreadsheet exports write it, is ignored
    (small / "bom_train.csv").write_bytes(b"\357\273\277" + (small / "train.csv").read_bytes())
    gimbal_cli(small, "fit", "--input", "bom_train.csv", "--out-records", "bom_records.csv", "--out-summary",
               "bom_summary.json", "--k", "30")
    assert_same_bytes(small, ("bom_records.csv", "records.csv"))
    # a config file nested deeper than the JSON decoder can recurse
    (tmp_path / "deep.json").write_text("[" * 200000)
    gimbal_cli(tmp_path, "fit", "--input", str(small / "train.csv"), *fit, "--config", "deep.json", status=2)


def test_an_overflowing_prediction_is_flagged_with_no_warning(tmp_path):
    # an x of +-1e308 overflows beta0 + beta1 * x: the run exits 0 with no
    # numpy warning
    gimbal_cli(tmp_path, "simulate", "--out", "ov_train.csv", "--n", "200", "--delta-beta", "4", "--seed", "1")
    gimbal_cli(tmp_path, "simulate", "--out", "ov_test.csv", "--n", "5", "--seed", "2")

    def big(number, cells):
        if number > 2:
            cells[2] = "1e308" if number % 2 else "-1e308"

    edit_cells(tmp_path / "ov_test.csv", tmp_path / "ov_big.csv", big)
    predict = ["predict", "--train", "ov_train.csv", "--test", "ov_big.csv", "--k", "30"]
    assert gimbal_cli(tmp_path, *predict, "--out", "ov_pred.csv") == ""
    assert gimbal_cli(tmp_path, *predict, "--out", "ov_pred10.csv", "--residual-knn", "10") == ""
    # overflow is set exactly on the rows whose prediction is +-inf, and some are
    for name in ("ov_pred.csv", "ov_pred10.csv"):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        inf = [row["prediction"] != "" and math.isinf(float(row["prediction"])) for row in rows]
        assert [row["overflow"] == "1" for row in rows] == inf, (name, rows)
        assert any(inf), name
