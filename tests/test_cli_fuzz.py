"""`gimbal fit` on small and extreme inputs exits 0 or 2, never 3 (exit 3
is an internal invariant violation), and raises no numpy RuntimeWarning."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from gimbal.cli import main

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
def fit_runs(draw):
    """(rows, argv tail): n in [1, 14] points at PLACES or jittered about
    them, x and y cells from CELLS or moderate, K and --moran-k around n,
    and a few flags from FLAGS."""
    n = draw(st.integers(1, 14))
    moderate = st.floats(-10.0, 10.0, allow_nan=False)
    rows = []
    for _ in range(n):
        lat, lon = draw(st.sampled_from(PLACES))
        if draw(st.booleans()):
            lat = min(90.0, max(-90.0, lat + draw(st.floats(-0.01, 0.01))))
            lon = min(180.0, max(-180.0, lon + draw(st.floats(-0.01, 0.01))))
        x = draw(st.one_of(moderate, st.sampled_from(CELLS)))
        y = draw(st.one_of(moderate, st.sampled_from(CELLS)))
        rows.append((lat, lon, x, y))
    argv = ["--k", str(draw(st.integers(1, n + 1))), "--moran-k", str(draw(st.integers(1, n)))]
    for flag in draw(st.sets(st.sampled_from(sorted(FLAGS)), max_size=3)):
        argv += [flag, repr(draw(st.sampled_from(FLAGS[flag])))]
    return rows, argv


def fit_exit_code(rows, argv):
    """main(["fit", ...]) on rows written as an input CSV, and its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = ["lat,lon,x,y"] + [",".join(repr(float(v)) for v in row) for row in rows]
        (tmp / "in.csv").write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            # a numpy warning raises inside main, so it exits 3: the flagged
            # rows must be a run's only signal of an extreme cell or setting
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["fit", "--input", str(tmp / "in.csv"), "--out-records", str(tmp / "r.csv"),
                       "--out-summary", str(tmp / "s.json"), *argv])
    return rc, err.getvalue()


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
