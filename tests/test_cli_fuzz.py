"""`gimbal fit` and `gimbal predict` on small and extreme inputs, and `gimbal
fit` on malformed files, exit 0 or 2, never 3 (exit 3 is an internal
invariant violation), and raise no numpy RuntimeWarning."""

import contextlib
import csv
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from gimbal.cli import main
from gimbal.simgen import SimSpec, generate

# places: a regional cloud point, one spot many points share, the poles and
# both sides of the antimeridian
PLACES = [(35.0, 135.0), (35.0001, 135.0002), (35.3, 134.8), (90.0, 0.0), (90.0, 120.0),
          (-90.0, -45.0), (89.9999, 180.0), (0.0, 180.0), (0.0, -180.0), (-12.5, 179.9999)]
CELLS = [1e308, -1e308, 1e160, -1e160, 5e-324, -5e-324, 0.0]
SCALES = [5e-324, 1e-300, 1e-160, 1e-154, 1e-10, 1.0, 3000.0, 1e154, 1e200, 1e308]
FLAGS = {
    "--h": SCALES,
    "--u": SCALES,
    "--n0": [5e-324, 1e-300, 1e-10, 0.5, 15.0, 1e10, 1e308],
    "--gamma": [0.0, 5e-324, 1e-300, 1.0, 1e154, 1e308],
    "--n-min": [0.0, 5e-324, 4.0, 1e308],
    "--eta-max": [1.0, 50.0, 1e308],
    "--eps-phi": [0.0, 5e-324, 1e-3, 1.0, 1e308],
    "--eps-theta": [0.0, 5e-324, 1e-8, 1.0, 1e308],
    "--eps-eta": [0.0, 5e-324, 1e-8, 1.0, 1e308],
    "--eps-kappa": [0.0, 5e-324, 1e-12, 1.0, 1e308],
}


@st.composite
def points(draw):
    """Rows of [1, 14] points at PLACES or jittered about them, with x and y
    cells from CELLS or moderate."""
    moderate = st.floats(-10.0, 10.0, allow_nan=False)
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        lat, lon = draw(st.sampled_from(PLACES))
        if draw(st.booleans()):
            lat = min(90.0, max(-90.0, lat + draw(st.floats(-0.01, 0.01))))
            lon = min(180.0, max(-180.0, lon + draw(st.floats(-0.01, 0.01))))
        x = draw(st.one_of(moderate, st.sampled_from(CELLS)))
        y = draw(st.one_of(moderate, st.sampled_from(CELLS)))
        rows.append((lat, lon, x, y))
    return rows


def flags(draw):
    """A few flags from FLAGS, with their values, as argv."""
    argv = []
    for flag in draw(st.sets(st.sampled_from(sorted(FLAGS)), max_size=3)):
        argv += [flag, repr(draw(st.sampled_from(FLAGS[flag])))]
    return argv


@st.composite
def fit_runs(draw):
    """(rows, argv tail): points, K and --moran-k around their number n, and
    a few flags."""
    rows = draw(points())
    n = len(rows)
    argv = ["--k", str(draw(st.integers(1, n + 1))), "--moran-k", str(draw(st.integers(1, n)))]
    return rows, argv + flags(draw)


@st.composite
def predict_runs(draw):
    """(train rows, test rows, argv tail): points for each, K around the
    training size, --residual-knn in [0, K], and a few flags."""
    train, test = draw(points()), draw(points())
    k = draw(st.integers(1, len(train) + 1))
    argv = ["--k", str(k), "--residual-knn", str(draw(st.integers(0, k)))]
    return train, test, argv + flags(draw)


def write_points(path, rows):
    lines = ["lat,lon,x,y"] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def exit_code(argv):
    """main(argv) and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        # a numpy warning raises inside main, so it exits 3: the flagged
        # rows must be a run's only signal of an extreme cell or setting
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    return rc, err.getvalue()


def fit_exit_code(rows, argv):
    """main(["fit", ...]) on rows written as an input CSV, and its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_points(tmp / "in.csv", rows)
        return exit_code(["fit", "--input", str(tmp / "in.csv"), "--out-records", str(tmp / "r.csv"),
                          "--out-summary", str(tmp / "s.json"), *argv])


SPREAD = [(35.0 + 0.01 * i, 135.0 + 0.013 * (i * i % 7), float(i % 5), float(i * i % 11))
          for i in range(14)]


@settings(max_examples=100, deadline=None)
@given(fit_runs())
@example((SPREAD, ["--k", "6", "--moran-k", "3", "--gamma", "1e308"]))
@example((SPREAD, ["--k", "6", "--moran-k", "3", "--n0", "5e-324"]))
@example(([SPREAD[0][:2] + (1e160, 1.0)] + SPREAD[1:], ["--k", "6", "--moran-k", "3"]))
# a y of 1e308 overflows the map summary's moments, and in the second case
# local Moran's
@example(([SPREAD[0][:3] + (1e308,)] + SPREAD[1:], ["--k", "6", "--moran-k", "3"]))
@example(([(35.0, 135.0, 1.0, 0.0), (35.0, 135.0, 0.0, 0.0), (35.0, 135.0078125, 0.0, 0.0),
           (35.0, 135.0, 0.0, 1e308), (35.0078125, 135.0, 0.0, 0.0), *[(35.0, 135.0, 0.0, 0.0)] * 3],
          ["--k", "5", "--moran-k", "1"]))
@example((SPREAD, ["--k", "6", "--moran-k", "3", "--h", "1e-300"]))
@example((SPREAD, ["--k", "6", "--moran-k", "3", "--h", "1e-160"]))
def test_fit_exits_0_or_2_never_3(case):
    rows, argv = case
    rc, err = fit_exit_code(rows, argv)
    assert rc in (0, 2), err


def dataset_rows(spec):
    dataset, _ = generate(spec)
    return list(zip(dataset.lat, dataset.lon, dataset.x, dataset.y))


# an x of +-1e308 at the test points overflows the prediction beta0 + beta1 * x
OVERFLOW_TRAIN = dataset_rows(SimSpec(n=200, delta_beta=4.0, seed=1))
OVERFLOW_TEST = [(lat, lon, (-1e308, 1e308)[i % 2], y)
                 for i, (lat, lon, _, y) in enumerate(dataset_rows(SimSpec(n=5, seed=2)))]


@settings(max_examples=100, deadline=None)
@given(predict_runs())
@example((OVERFLOW_TRAIN, OVERFLOW_TEST, ["--k", "30", "--residual-knn", "0"]))
@example((OVERFLOW_TRAIN, OVERFLOW_TEST, ["--k", "30", "--residual-knn", "10"]))
def test_predict_exits_0_or_2_never_3(case):
    train, test, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_points(tmp / "train.csv", train)
        write_points(tmp / "test.csv", test)
        rc, err = exit_code(["predict", "--train", str(tmp / "train.csv"), "--test", str(tmp / "test.csv"),
                             "--out", str(tmp / "p.csv"), *argv])
        assert rc in (0, 2), err
        if rc == 0:
            # the flags are a prediction's only signal: it is finite exactly
            # where neither ill_posed nor overflow is set
            with open(tmp / "p.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            finite = np.isfinite([float(row["prediction"] or "nan") for row in rows])
            flagged = np.array([row["ill_posed"] == "1" or row.get("overflow") == "1" for row in rows])
            assert np.array_equal(finite, ~flagged), rows


VALID = ("lat,lon,x,y\n" + "".join(f"{lat!r},{lon!r},{x!r},{y!r}\n" for lat, lon, x, y in SPREAD)).encode()
LONG_CELL = b"1" * 200_000


@st.composite
def malformed_inputs(draw):
    """The bytes of a fit input, or None for a directory in its place: a
    valid CSV with 0xff or NUL bytes, stray quotes or commas (rows of the
    wrong width) put in, and at most one cell grown past the csv module's
    field limit."""
    if draw(st.integers(0, 9)) == 0:
        return None
    data = VALID
    for byte in draw(st.lists(st.sampled_from([b"\xff", b"\x00", b'"', b","]), min_size=1, max_size=3)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + byte + data[at:]
    if draw(st.booleans()):
        cell = draw(st.integers(0, len(SPREAD) * 4 - 1))
        lines = data.split(b"\n")
        row = lines[1 + cell // 4].split(b",")
        row[min(cell % 4, len(row) - 1)] = LONG_CELL
        lines[1 + cell // 4] = b",".join(row)
        data = b"\n".join(lines)
    return data


@settings(max_examples=50, deadline=None)
@given(malformed_inputs())
@example(None)
@example(VALID.replace(b"35.0,", b"35.0\xff,", 1))
@example(VALID.replace(b"135.0,", b"135.0," + LONG_CELL, 1))
def test_malformed_fit_input_exits_0_or_2_never_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if data is None:
            (tmp / "in.csv").mkdir()
        else:
            (tmp / "in.csv").write_bytes(data)
        rc, err = exit_code(["fit", "--input", str(tmp / "in.csv"), "--out-records", str(tmp / "r.csv"),
                             "--out-summary", str(tmp / "s.json"), "--k", "6", "--moran-k", "3"])
    assert rc in (0, 2), err
