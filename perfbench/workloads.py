"""The benchmark's three workloads: seeded inputs, CLI arguments, output parsing.

Each workload knows how to make its inputs from a seed (the set-up a user pays
before the program runs), which ``gimbal`` CLI arguments run it, how to read
its output files back by column name, and how to score them against the
simulator's ground truth. Nothing here reaches into the package's internals:
inputs come from the public simulator (``gimbal.simgen.generate``) and are
written by this file's own CSV writer, and outputs are read by header name so
that a later schema bump that keeps the column names does not break the check.

Run as a script it performs one set-up and exits; ``run.py`` times that from
process start to exit to measure ``setup_s``:

    python3 perfbench/workloads.py <workload> <seed> <outdir>
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Coefficients may move by reassociation in a later optimisation; anything
# beyond this (absolute, or relative for magnitudes above 1) is a wrong answer.
COEF_TOL = 1e-9

# Columns that hold an estimate exactly when the target is not ill-posed. The
# corrected prediction is left out: it is also empty when a training neighbour
# has no residual.
ESTIMATE_COLUMNS = ("beta0", "beta1", "beta2", "prediction")


def import_gimbal(src=SRC):
    """Import the package and its CLI from ``src`` (this checkout's by default) only."""
    if not (src / "gimbal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'gimbal'}")
    sys.path.insert(0, str(src))
    import gimbal
    import gimbal.cli  # noqa: F401  (binds gimbal.cli)

    if Path(gimbal.__file__).resolve().parent != (src / "gimbal").resolve():
        raise SystemExit(f"perfbench: imported gimbal from {gimbal.__file__}, not {src}")
    return gimbal


def write_dataset(path, dataset):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lat", "lon", "x", "y"])
        for row in zip(dataset.lat.tolist(), dataset.lon.tolist(),
                       dataset.x.tolist(), dataset.y.tolist()):
            writer.writerow([repr(v) for v in row])


def read_table(path):
    """CSV written by the CLI as {column name: list of strings}."""
    with Path(path).open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def _floats(column):
    return np.array([float(v) if v != "" else math.nan for v in column])


def _records_table(path):
    """Per-target coefficients, branch codes and ill-posed flags of a records CSV."""
    t = read_table(path)
    codes = np.array([";".join(sorted(c.split(";"))) if c else "" for c in t["branch_codes"]])
    return {
        "index": np.array([int(v) for v in t["index"]]),
        "beta0": _floats(t["beta0"]),
        "beta1": _floats(t["beta1"]),
        "beta2": _floats(t["beta2"]),
        "codes": codes,
        "ill": np.array(["ill_posed" in c.split(";") for c in codes]),
    }


def _beta1_sq_errors(table, beta1_true):
    ok = ~table["ill"]
    return (table["beta1"][ok] - beta1_true[table["index"][ok]]) ** 2


class FitLarge:
    """``gimbal fit`` on one strongly deformed Gaussian cloud, default config."""

    name = "fit_large"
    targets = 4800

    def __init__(self, gimbal, seed):
        self.gimbal = gimbal
        self.seed = seed

    def setup(self, workdir):
        spec = self.gimbal.simgen.SimSpec(
            n=self.targets, sampling="gaussian", rho=10.0, psi=math.pi / 4.0, seed=self.seed)
        dataset, self.beta1_true = self.gimbal.simgen.generate(spec)
        self.input = Path(workdir) / "data.csv"
        write_dataset(self.input, dataset)

    def argv(self, outdir, threads):
        return ["fit", "--input", str(self.input),
                "--out-records", str(Path(outdir) / "records.csv"),
                "--out-summary", str(Path(outdir) / "summary.json"),
                "--threads", str(threads)]

    def tables(self, outdir):
        return {"records": _records_table(Path(outdir) / "records.csv")}

    def expected_rows(self):
        return {"records": self.targets}

    def estimate_rmse(self, outdir, tables):
        """beta1 RMSE against the simulator's surface over well-posed targets."""
        return float(np.sqrt(np.mean(_beta1_sq_errors(tables["records"], self.beta1_true))))


class ExperimentSweep:
    """``gimbal experiment --id 7.3``: nine n0 variants fitted on one dataset."""

    name = "experiment_sweep"
    targets = 9 * 1200
    variants = ("6", "8", "10", "15", "20", "30", "50", "75", "100")

    def __init__(self, gimbal, seed):
        self.gimbal = gimbal
        self.seed = seed

    def setup(self, workdir):
        # the experiment simulates its own data: the seed is its only input
        pass

    def argv(self, outdir, threads):
        return ["experiment", "--id", "7.3", "--seed", str(self.seed),
                "--outdir", str(outdir), "--threads", str(threads)]

    def tables(self, outdir):
        return {f"n0_{v}": _records_table(Path(outdir) / f"e73_n0_{v}.csv")
                for v in self.variants}

    def expected_rows(self):
        return {f"n0_{v}": 1200 for v in self.variants}

    def estimate_rmse(self, outdir, tables):
        """beta1 RMSE against the simulator's surface, pooled over the variants."""
        report = json.loads((Path(outdir) / "e73_report.json").read_text())
        spec = self.gimbal.simgen.SimSpec(**report["sim_spec"])
        if spec.seed != self.seed:
            raise ValueError(f"experiment report names seed {spec.seed}, expected {self.seed}")
        _, beta1_true = self.gimbal.simgen.generate(spec)
        errors = np.concatenate([_beta1_sq_errors(t, beta1_true) for t in tables.values()])
        return float(np.sqrt(np.mean(errors)))


class PredictPool:
    """``gimbal predict --residual-knn 10``: queries from outside the training pool."""

    name = "predict_pool"
    n_train = 4800
    n_test = 1200
    targets = n_train + n_test

    def __init__(self, gimbal, seed):
        self.gimbal = gimbal
        self.seed = seed

    def setup(self, workdir):
        simgen = self.gimbal.simgen
        train, _ = simgen.generate(simgen.SimSpec(n=self.n_train, seed=self.seed))
        test, _ = simgen.generate(simgen.SimSpec(n=self.n_test, seed=self.seed + 1))
        self.y_test = test.y
        self.train = Path(workdir) / "train.csv"
        self.test = Path(workdir) / "test.csv"
        write_dataset(self.train, train)
        write_dataset(self.test, test)

    def argv(self, outdir, threads):
        return ["predict", "--train", str(self.train), "--test", str(self.test),
                "--out", str(Path(outdir) / "pred.csv"),
                "--residual-knn", "10", "--threads", str(threads)]

    def tables(self, outdir):
        t = read_table(Path(outdir) / "pred.csv")
        return {"predictions": {
            "index": np.array([int(v) for v in t["index"]]),
            "prediction": _floats(t["prediction"]),
            "residual_correction": _floats(t["residual_correction"]),
            "prediction_corrected": _floats(t["prediction_corrected"]),
            "ill": np.array([v == "1" for v in t["ill_posed"]]),
        }}

    def expected_rows(self):
        return {"predictions": self.n_test}

    def estimate_rmse(self, outdir, tables):
        """RMSE of the corrected prediction against the test response."""
        p = tables["predictions"]
        ok = ~p["ill"]
        err = p["prediction_corrected"][ok] - self.y_test[p["index"][ok]]
        return float(np.sqrt(np.mean(err * err)))


WORKLOADS = {w.name: w for w in (FitLarge, ExperimentSweep, PredictPool)}


def compare(table, expected):
    """Indices of expected rows that are missing from ``table`` or differ.

    Float columns agree within COEF_TOL (empty/NaN must match empty/NaN);
    every other column, such as branch codes and ill-posed flags, must be equal.
    """
    pos = {int(i): k for k, i in enumerate(table["index"])}
    bad = set()
    for k, idx in enumerate(expected["index"].tolist()):
        j = pos.get(idx)
        if j is None:
            bad.add(idx)
            continue
        for col, ref in expected.items():
            if col == "index":
                continue
            got = table[col][j]
            want = ref[k]
            if ref.dtype.kind == "f":
                if math.isnan(want) != math.isnan(got):
                    bad.add(idx)
                elif not math.isnan(want) and abs(got - want) > COEF_TOL * max(1.0, abs(want)):
                    bad.add(idx)
            elif got != want:
                bad.add(idx)
    return bad


def structural_faults(table, n_rows):
    """Row indices that break the output contract, whatever the seed.

    Rows must cover 0..n-1 in order, and a target has finite estimates exactly
    when it is not flagged ill-posed.
    """
    if not np.array_equal(table["index"], np.arange(n_rows)):
        return set(range(n_rows))
    estimates = [table[c] for c in ESTIMATE_COLUMNS if c in table]
    finite = np.all([np.isfinite(v) for v in estimates], axis=0)
    return set(np.nonzero(finite == table["ill"])[0].tolist())


if __name__ == "__main__":
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name](import_gimbal(), seed).setup(outdir)
