import codecs
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gimbal.cli
import gimbal.engine
import gimbal.neighborhood
import gimbal.solver
from gimbal.cli import RECORD_FIELDS, main, read_dataset, write_dataset_csv, write_records_csv
from gimbal.diagnostics import DEFAULT_K_MORAN, DEFAULT_KAPPA_QUANTILE, DEFAULT_NEFF_FLOOR, reliability_mask
from gimbal.engine import (
    BRANCH_STRINGS,
    Dataset,
    GimbalConfig,
    branch_codes,
    fit_all,
    predict,
    residual_knn_correct,
)
from gimbal.experiments import run_experiment
from gimbal.neighborhood import BATCH_ELEMENTS, ConfigurationError, batches
from gimbal.simgen import SimSpec, generate
from gimbal.weights import FALLBACK_UNDERFLOW, FALLBACK_UNIFORM
from test_diagnostics import moran_on_finite


def write_csv(path, rows, header=("lat", "lon", "x", "y")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def toy_rows(n=10, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        rows.append([35.0 + 0.01 * i, 135.0 + 0.005 * (i % 3),
                     round(float(rng.normal()), 6), round(float(rng.normal()), 6)])
    return rows


def read_csv_skipping_comments(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def test_fit_toy_csv(tmp_path):
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows())
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "rec.csv"),
               "--out-summary", str(tmp_path / "sum.json"), "--k", "5"])
    assert rc == 0
    header, rows = read_csv_skipping_comments(tmp_path / "rec.csv")
    assert tuple(header) == RECORD_FIELDS
    assert len(rows) == 10
    first_line = (tmp_path / "rec.csv").read_text().splitlines()[0]
    assert first_line == "# schema: gimbal.records.v1"
    summary = json.loads((tmp_path / "sum.json").read_text())
    assert summary["map_summary"]["n_targets"] == 10
    assert summary["config"]["k"] == 5
    assert summary["schema"] == "gimbal.summary.v2"
    assert "seed" not in summary["config"]


def oracle_csv(schema, header, rows):
    """The bytes of a CSV file as csv.writer writes it after the schema line:
    a float field as its repr, NaN as an empty field, text as it is."""
    buf = io.StringIO(newline="")
    buf.write(f"# schema: {schema}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([[v if isinstance(v, str) else repr(v) if v == v else "" for v in row]
                      for row in rows])
    return buf.getvalue().encode()


def branch_flags(result):
    """The five branch flags of each row by name, read off the result's own columns."""
    return {
        "phi_iso": result.orientation.phi_deactivated,
        "theta_nonident": result.orientation.theta_deactivated,
        "uniform_fallback": result.weight_map.fallback_code == FALLBACK_UNIFORM,
        "underflow_fallback": result.weight_map.fallback_code == FALLBACK_UNDERFLOW,
        "ill_posed": ~result.fit.well_posed,
    }


def oracle_records(result, ids, moran, fragile):
    flags = branch_flags(result)
    fit, orient, wmap = result.fit, result.orientation, result.weight_map
    columns = [result.lat, result.lon, *fit.beta.T, fit.m_nor_condition, result.cond_wls2,
               wmap.h_eff, orient.phi, orient.r_phi, orient.theta_z, orient.g_ident, orient.eta,
               wmap.n_eff_raw, wmap.n_eff_post]
    rows = []
    for i in range(len(result)):
        code = ";".join(sorted(name for name, on in flags.items() if on[i]))
        rows.append([str(result.index[i]), ids[i], *(float(c[i]) for c in columns), code,
                     float(fit.rmse_local[i]), float(fit.r2_local[i]), float(moran[i]),
                     str(int(fragile[i]))])
    return oracle_csv("gimbal.records.v1", RECORD_FIELDS, rows)


# every kind of text the csv module quotes or passes through, and a leading "#"
TRICKY_IDS = ["a,b", 'say "hi"', "two\r\nlines", " lead", "", "ünïcode", "#p3", "lf\nonly"]


def tricky_dataset(n=24, seed=8):
    """n points with the ids of TRICKY_IDS in turn; the first eight share one
    covariate value within 0.001 degrees, so their rows are ill-posed at K=6."""
    rng = np.random.default_rng(seed)
    lat = 35.0 + np.concatenate([rng.uniform(0, 1e-3, 8), rng.uniform(0.01, 0.05, n - 8)])
    lon = 135.0 + rng.uniform(0, 0.04, n)
    x = np.concatenate([np.ones(8), rng.normal(size=n - 8)])
    ids = np.array([TRICKY_IDS[i % len(TRICKY_IDS)] for i in range(n)])
    return Dataset(lat=lat, lon=lon, x=x, y=rng.normal(size=n), ids=ids)


def test_every_csv_matches_the_csv_module_oracle(tmp_path):
    ds = tricky_dataset()
    inp = tmp_path / "data.csv"
    write_csv(inp, [[i, *v] for i, *v in zip(ds.ids, ds.lat.tolist(), ds.lon.tolist(),
                                             ds.x.tolist(), ds.y.tolist())],
              header=("id", "lat", "lon", "x", "y"))
    config = GimbalConfig(k=6)
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "rec.csv"),
               "--out-summary", str(tmp_path / "sum.json"), "--k", "6", "--moran-k", "4"])
    assert rc == 0
    result = fit_all(ds, config)
    assert not result.fit.well_posed[:8].any() and result.fit.well_posed[8:].all()
    expect = oracle_records(result, ds.ids.tolist(), moran_on_finite(result, 4),
                            reliability_mask(result))
    assert (tmp_path / "rec.csv").read_bytes() == expect

    # predictions: -0.0 in the test columns, ill-posed rows at the cluster,
    # and an out-of-pool target; with and without the residual correction
    test = Dataset(lat=np.append(ds.lat[:10], -0.0), lon=np.append(ds.lon[:10], 0.0),
                   x=np.append(ds.x[:10], -0.0), y=np.full(11, -0.0))
    write_dataset_csv(tmp_path / "test.csv", test)
    preds, fitted = predict(ds, config, test.lat, test.lon, test.x)
    assert np.isnan(preds).any() and not np.isnan(preds).all()
    corr = residual_knn_correct(result.residual_at_target, fitted.neighborhood.member_indices, 3)
    ill = (~fitted.fit.well_posed).astype(int).tolist()
    overflow = (fitted.fit.well_posed & ~np.isfinite(preds)).astype(int).tolist()
    header = ["index", "lat", "lon", "x", "y", "prediction", "ill_posed", "overflow"]
    for residual_knn, extra in ((0, []), (3, [corr, preds + corr])):
        out = tmp_path / f"pred{residual_knn}.csv"
        rc = main(["predict", "--train", str(inp), "--test", str(tmp_path / "test.csv"),
                   "--out", str(out), "--k", "6", "--residual-knn", str(residual_knn)])
        assert rc == 0
        values = zip(*(c.tolist() for c in [test.lat, test.lon, test.x, test.y, preds, *extra]))
        rows = [[str(i), *v[:5], str(ill[i]), str(overflow[i]), *v[5:]] for i, v in enumerate(values)]
        extra_header = ["residual_correction", "prediction_corrected"] if extra else []
        assert out.read_bytes() == oracle_csv("gimbal.predictions.v2", header + extra_header, rows)

    # a dataset file with every special float in its free column
    beta1 = np.array([math.nan, -0.0, math.inf, -math.inf, 5e-324, 0.1, 1e16, -2.5] * 3)
    write_dataset_csv(tmp_path / "ds.csv", ds, beta1_true=beta1)
    rows = list(zip(ds.lat.tolist(), ds.lon.tolist(), ds.x.tolist(), ds.y.tolist(), beta1.tolist()))
    assert (tmp_path / "ds.csv").read_bytes() == oracle_csv(
        "gimbal.dataset.v1", ["lat", "lon", "x", "y", "beta1_true"], rows)


def test_tables_written_in_lockstep_match_the_csv_module_oracle(tmp_path):
    # four tables over three blocks of rows; in one cell the tables hold 0.0
    # then -0.0, NaNs with two payloads, inf and -inf, and 1-ulp neighbours,
    # so a reused cell is right only if it matched bit for bit; the float edge
    # values sit in the first block and across a block boundary (rotated from
    # table to table there, so that they are formatted, not reused)
    header = ["index", "name", "value", "same", "flag"]
    n = 3 * (BATCH_ELEMENTS // len(header)) + 50
    starts = [rows.start for rows in batches(n, len(header))]
    assert len(starts) == 3
    rng = np.random.default_rng(12)
    base = rng.normal(size=n) * 10.0 ** rng.integers(-6, 18, n)
    nan_a = np.float64(math.nan)
    nan_b = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    assert math.isnan(nan_b) and nan_a.view(np.int64) != nan_b.view(np.int64)
    cells = [
        (0.0, -0.0, -0.0, 0.0),
        (nan_a, nan_b, nan_b, nan_a),
        (math.inf, math.inf, -math.inf, 0.5),
        (0.1, np.nextafter(0.1, 1.0), 0.1, np.nextafter(0.1, 0.0)),
    ]
    tiny, biggest = np.finfo(np.float64).smallest_normal, np.finfo(np.float64).max
    edges = np.array([0.0, -0.0, nan_a, nan_b, math.inf, -math.inf, 5e-324, np.nextafter(tiny, 0.0), tiny,
                      biggest, -biggest, 9999999999999998.0, 1e16, 0.0001, 9.999999999999999e-05,
                      np.nextafter(0.1, 1.0), 0.1, np.nextafter(0.1, 0.0), 1e23, -2.5])
    boundary = starts[2] - len(edges) // 2
    tables = []
    for t in range(4):
        col = base.copy()
        col[t::5] += t  # some cells change from table to table, most do not
        col[2:2 + len(edges)] = edges
        col[boundary:boundary + len(edges)] = np.roll(edges, t)
        for row, values in zip((0, 1, starts[1], n - 1), cells):
            col[row] = values[t]
        same = np.full(n, 2.5)
        names = [f"t{t}r{i}ü" for i in range(n)]
        tables.append([np.arange(n) * (t + 1) - 1, gimbal.csvtext.text_matrix(names), col, same,
                       np.arange(n) % 2 == t % 2])
    paths = [tmp_path / f"t{t}.csv" for t in range(4)]
    gimbal.cli._write_csv(paths, "test.v1", header, tables)
    for t, (path, (index, _, col, same, flag)) in enumerate(zip(paths, tables)):
        rows = [[str(i), f"t{t}r{r}ü", v, s, str(int(f))] for r, (i, v, s, f) in
                enumerate(zip(index.tolist(), col.tolist(), same.tolist(), flag.tolist()))]
        assert path.read_bytes() == oracle_csv("test.v1", header, rows)
    assert paths[1].read_text(encoding="utf-8").splitlines()[2].split(",")[2] == "-0.0"


def test_experiment_73_files_equal_the_fit_of_its_dataset(tmp_path):
    # the nine n0 variants are written together; each file is still the
    # file gimbal fit writes for that config on the experiment's dataset
    assert main(["experiment", "--id", "7.3", "--seed", "1", "--outdir", str(tmp_path / "e73")]) == 0
    data = tmp_path / "data.csv"
    assert main(["simulate", "--out", str(data), "--n", "1200", "--sampling", "gaussian",
                 "--extent", "25000", "--rho", "10", "--psi", "0.7853981633974483", "--seed", "1"]) == 0
    for n0 in ("6", "100"):
        out = tmp_path / f"fit_{n0}.csv"
        assert main(["fit", "--input", str(data), "--out-records", str(out),
                     "--out-summary", str(tmp_path / "s.json"),
                     "--k", "30", "--h", "2000", "--n-min", "12", "--n0", n0]) == 0
        assert out.read_bytes() == (tmp_path / "e73" / f"e73_n0_{n0}.csv").read_bytes()


def test_experiment_73_tables_render_only_the_cells_they_change(monkeypatch, tmp_path):
    # the nine n0 variants' records are one block each; a later table
    # formats, in one call, just the float cells whose bits differ from the
    # previous table's, and renders the integers of changed rows only
    _, records = run_experiment("e73", base_seed=1)
    results = list(records.values())
    moran = [gimbal.cli._moran_over_records(result, DEFAULT_K_MORAN, {}) for result in results]
    fragile = [reliability_mask(result, DEFAULT_KAPPA_QUANTILE, DEFAULT_NEFF_FLOOR) for result in results]
    columns = [gimbal.cli._records_columns(result, None, values, flags)
               for result, values, flags in zip(results, moran, fragile)]
    bits = [np.stack([c for c in table if c.ndim == 1 and c.dtype.kind == "f"]).view(np.uint64)
            for table in columns]
    n = len(results[0])
    assert len(results) == 9 and n == 1200 and len(batches(n, len(RECORD_FIELDS))) == 1
    changed = [int(np.count_nonzero(new != old)) for old, new in zip(bits, bits[1:])]
    flips = [int(np.count_nonzero(new != old)) for old, new in zip(fragile, fragile[1:])]
    assert bits[0].size == 21_600 and 0 < min(changed) and max(changed) < 21_600

    formatted, rendered = [], []
    float_text, int_text = gimbal.csvtext.float_text, gimbal.csvtext.int_text
    monkeypatch.setattr(gimbal.csvtext, "float_text", lambda block: formatted.append(block.size) or float_text(block))
    monkeypatch.setattr(gimbal.csvtext, "int_text", lambda column: rendered.append(len(column)) or int_text(column))
    paths = [tmp_path / f"{name}.csv" for name in records]
    write_records_csv(paths, results, None, moran, fragile)
    monkeypatch.undo()
    assert formatted == [21_600, *changed]
    # the index, then the fragile flag: in full once, then the flipped flags
    assert rendered == [n, n, *(count for flipped in flips for count in (0, flipped))]
    for path, result, values, flags in zip(paths, results, moran, fragile):
        write_records_csv([tmp_path / "alone.csv"], [result], None, [values], [flags])
        assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_branch_codes_one_encoding(tmp_path):
    # the 32 texts of the 5-bit code: bit b set names BRANCH_BITS[b]
    names = gimbal.engine.BRANCH_BITS
    assert len(BRANCH_STRINGS) == 32
    for code, text in enumerate(BRANCH_STRINGS):
        assert text == ";".join(sorted(n for b, n in enumerate(names) if code >> b & 1))
        assert gimbal.engine.BRANCH_SETS[code] == frozenset(text.split(";")) - {""}
    # a spread cloud; ten coincident points with one response (phi, theta and
    # the solve all degenerate); ten points a degree apart (uniform fallback);
    # and targets far from every training point (underflow fallback)
    rng = np.random.default_rng(11)
    lat = np.concatenate([35 + rng.uniform(0, 0.05, 40), np.full(10, 40.0), 30 + np.arange(10.0)])
    lon = np.concatenate([135 + rng.uniform(0, 0.05, 40), np.full(10, 140.0), np.full(10, 120.0)])
    y = rng.normal(size=60)
    y[40:50] = 1.0
    ds = Dataset(lat=lat, lon=lon, x=rng.normal(size=60), y=y)
    _, result = predict(ds, GimbalConfig(k=8), np.append(lat, [0.0, -50.0]),
                        np.append(lon, [0.0, 10.0]), np.append(ds.x, [0.1, 0.2]))
    flags = branch_flags(result)
    assert all(on.any() for on in flags.values())
    write_records_csv([tmp_path / "r.csv"], [result], None, [np.full(len(result), math.nan)],
                      [reliability_mask(result)])
    header, rows = read_csv_skipping_comments(tmp_path / "r.csv")
    column = [row[header.index("branch_codes")] for row in rows]
    for i, codes in enumerate(branch_codes(result)):
        assert codes == frozenset(name for name, on in flags.items() if on[i])
        assert column[i] == ";".join(sorted(codes))


def test_comment_rows_only_before_the_header(tmp_path, capsys):
    # after the header, a row whose first field starts with "#" is data
    ids = [f"p{i}" for i in range(10)]
    ids[3] = "#p3"
    inp = tmp_path / "ids.csv"
    with open(inp, "w", newline="") as fh:
        fh.write("# a comment\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "lat", "lon", "x", "y"])
        writer.writerows([[rec_id, *row] for rec_id, row in zip(ids, toy_rows())])
    ds = read_dataset(inp)
    assert ds.ids.tolist() == ids
    assert ds.lat.tolist() == [row[0] for row in toy_rows()]
    rows = toy_rows()
    rows[6][0] = "#35.1"
    write_csv(inp, rows)
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "5"])
    assert rc == 2
    assert "row 6: column lat is not numeric ('#35.1')" in capsys.readouterr().err


def test_first_bad_cell_named_as_by_the_row_loop(tmp_path):
    # the column-wise read fails on these files, and the row loop names the
    # first fault in row order: a non-numeric cell before a short row, and
    # the first of two bad cells of one row
    early = tmp_path / "early.csv"
    early.write_text("lat,lon,x,y\n35.0,135.0,0.1,1.0\n35.1,135.0,oops,1.0\n35.2,135.0\n")
    with pytest.raises(ConfigurationError) as exc:
        read_dataset(early)
    assert str(exc.value) == f"{early}: row 1: column x is not numeric ('oops')"
    short = tmp_path / "short.csv"
    short.write_text("lat,lon,x,y\n35.0,135.0\n35.1,135.0,oops,1.0\n")
    with pytest.raises(ConfigurationError) as exc:
        read_dataset(short)
    assert str(exc.value) == f"{short}: row 0 has 2 fields, expected 4"
    twice = tmp_path / "twice.csv"
    twice.write_text("id,lat,lon,x,y\na,35.0,135.0,0.1,1.0\nb,35.1,135.0,0.2,1.0\nc,35.2,north,0.3,?\n")
    with pytest.raises(ConfigurationError) as exc:
        read_dataset(twice)
    assert str(exc.value) == f"{twice}: row 2: column lon is not numeric ('north')"


def test_fit_id_column_reaches_records(tmp_path):
    ids = [f"site-{(7 * i) % 10}" for i in range(10)]
    inp = tmp_path / "data.csv"
    write_csv(inp, [[rec_id, *row] for rec_id, row in zip(ids, toy_rows())],
              header=("id", "lat", "lon", "x", "y"))
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "rec.csv"),
               "--out-summary", str(tmp_path / "sum.json"), "--k", "5"])
    assert rc == 0
    _, rows = read_csv_skipping_comments(tmp_path / "rec.csv")
    assert [row[RECORD_FIELDS.index("id")] for row in rows] == ids
    assert [row[0] for row in rows] == [str(i) for i in range(10)]


# a valid value other than the default for every GimbalConfig field
NON_DEFAULT_CONFIG = {
    "k": 6, "h": 2500.0, "gamma": 2.0, "u": 1500.0, "n0": 10.0, "n_min": 3.0,
    "eta_max": 40.0, "eps_phi": 2e-3, "eps_theta": 1e-7, "eps_eta": 1e-7,
    "eps_kappa": 1e-11, "theta_z_mode": "off", "phi_mode": "forced_zero",
    "eta_mode": "forced_one",
}


def test_every_config_field_settable_by_flag_and_file(tmp_path):
    fields = dataclasses.asdict(GimbalConfig())
    assert NON_DEFAULT_CONFIG.keys() == fields.keys()
    assert all(NON_DEFAULT_CONFIG[name] != fields[name] for name in fields)
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows())
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(NON_DEFAULT_CONFIG))
    flags = [item for name, value in NON_DEFAULT_CONFIG.items()
             for item in (f"--{name.replace('_', '-')}", str(value))]
    for tag, extra in (("flags", flags), ("file", ["--config", str(cfg_file)])):
        rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / f"r_{tag}.csv"),
                   "--out-summary", str(tmp_path / f"s_{tag}.json"), *extra])
        assert rc == 0, tag
        assert json.loads((tmp_path / f"s_{tag}.json").read_text())["config"] == NON_DEFAULT_CONFIG


def test_fit_rerun_byte_identical(tmp_path):
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows(n=15, seed=3))
    args = ["fit", "--input", str(inp), "--k", "6"]
    for tag in ("a", "b"):
        rc = main(args + ["--out-records", str(tmp_path / f"rec_{tag}.csv"),
                          "--out-summary", str(tmp_path / f"sum_{tag}.json")])
        assert rc == 0
    assert (tmp_path / "rec_a.csv").read_bytes() == (tmp_path / "rec_b.csv").read_bytes()
    assert (tmp_path / "sum_a.json").read_bytes() == (tmp_path / "sum_b.json").read_bytes()


def test_fit_malformed_lat_exits_2(tmp_path, capsys):
    rows = toy_rows()
    rows[4][0] = 200.0
    inp = tmp_path / "bad.csv"
    write_csv(inp, rows)
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "3"])
    assert rc == 2
    assert "row 4" in capsys.readouterr().err


def test_fit_missing_column_exits_2(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    write_csv(inp, [[35.0, 135.0, 1.0]], header=("lat", "lon", "x"))
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json")])
    assert rc == 2
    assert "y" in capsys.readouterr().err


@pytest.mark.parametrize("header", [("lat", "lon", "x", "y", "lat"),
                                    ("lat", "lon", "note", "x", "y", "note")])
def test_fit_column_named_twice_exits_2(tmp_path, capsys, header):
    inp = tmp_path / "twice.csv"
    write_csv(inp, [[*row, row[0]] + [0.0] * (len(header) - 5) for row in toy_rows()], header=header)
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "5"])
    assert rc == 2
    assert f"column '{header[-1]}' is named twice in the header" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_fit_k_exceeds_n_exits_2(tmp_path, capsys):
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows(n=5))
    base = ["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
            "--out-summary", str(tmp_path / "s.json")]
    rc = main(base + ["--k", "50"])
    assert rc == 2
    assert "K=50" in capsys.readouterr().err
    # the Moran adjacency excludes the target: the default --moran-k 8 needs
    # 9 locations with a finite residual, and the error names the flag
    for extra in ([], ["--moran-k", "0"], ["--moran-k", "5"]):
        rc = main(base + ["--k", "5"] + extra)
        assert rc == 2, extra
        err = capsys.readouterr().err
        assert "--moran-k" in err and "[1, 4]" in err and "5 locations" in err, err
    assert main(base + ["--k", "5", "--moran-k", "4"]) == 0


def budget_batches(total, width):
    """The row counts of the batches a loop over total rows of width
    elements each takes: the equal batches of neighborhood.batches."""
    return [rows.stop - rows.start for rows in batches(total, width)]


@pytest.mark.parametrize("k", [5, 50, 200])
def test_fit_batches_hold_the_budget_of_their_width(monkeypatch, tmp_path, k):
    # gimbal fit's chunk step cuts its rows into the equal batches of width
    # K, its Moran adjacency into those of the member columns it reads (the
    # first --moran-k + 1) and its records writer into those of the header's
    # length; 10 500 rows cross a boundary of each at every K
    ds, _ = generate(SimSpec(n=10_500, extent=30_000.0, seed=25))
    inp = tmp_path / "data.csv"
    write_dataset_csv(inp, ds)
    chunks, moran, blocks = [], [], []
    fit_targets, take_along_axis, rows = gimbal.engine._fit_targets, np.take_along_axis, gimbal.csvtext.rows

    def spied_fit_targets(dataset, configs, x_std, lat0, *rest):
        chunks.append(lat0.shape[0])
        yield from fit_targets(dataset, configs, x_std, lat0, *rest)

    def spied_take_along_axis(a, *args, **kwargs):
        # called once per batch of the Moran adjacency, on its member rows
        moran.append(a.shape[0])
        return take_along_axis(a, *args, **kwargs)

    def spied_rows(columns, *args):
        blocks.append(len(columns[0]))
        return rows(columns, *args)

    monkeypatch.setattr(gimbal.engine, "_fit_targets", spied_fit_targets)
    monkeypatch.setattr(np, "take_along_axis", spied_take_along_axis)
    monkeypatch.setattr(gimbal.csvtext, "rows", spied_rows)
    assert main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
                 "--out-summary", str(tmp_path / "s.json"), "--k", str(k)]) == 0
    header, records = read_csv_skipping_comments(tmp_path / "r.csv")
    # the adjacency covers the rows with a finite residual, which have a Moran value
    n_finite = sum(row[header.index("local_moran")] != "" for row in records)
    assert chunks == budget_batches(ds.n, k)
    moran_width = min(k, DEFAULT_K_MORAN + 1)
    assert moran == budget_batches(n_finite, moran_width)
    assert blocks == budget_batches(ds.n, len(RECORD_FIELDS))
    for sizes, width in ((chunks, k), (moran, moran_width), (blocks, len(RECORD_FIELDS))):
        assert len(sizes) > 1 and max(sizes) - min(sizes) <= 1
        assert max(sizes) * width < 1.5 * BATCH_ELEMENTS


def test_fit_moran_rows_all_short_match_local_moran(tmp_path):
    # at --k 5 every fit row is too short for --moran-k 8, so the whole
    # adjacency comes from one neighbor query; the rows span two K=5 chunks,
    # and the finite ones two adjacency batches
    ds, _ = generate(SimSpec(n=10_500, extent=15_000.0, seed=24))
    inp = tmp_path / "data.csv"
    write_dataset_csv(inp, ds)
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "5", "--moran-k", "8"])
    assert rc == 0
    header, rows = read_csv_skipping_comments(tmp_path / "r.csv")
    column = header.index("local_moran")
    values = np.array([float(row[column]) if row[column] else math.nan for row in rows])
    assert len(batches(ds.n, 5)) == len(batches(int(np.isfinite(values).sum()), 5)) == 2

    expect = moran_on_finite(fit_all(read_dataset(inp), GimbalConfig(k=5)), 8)
    assert np.array_equal(values.view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("command, flag", [
    ("fit", "--out-records"), ("fit", "--out-summary"), ("predict", "--out"),
    ("simulate", "--out"),
])
def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys, command, flag):
    # a missing directory; the inputs do not exist either, so the output
    # path is checked first
    missing = str(tmp_path / "missing.csv")
    paths = {
        "fit": {"--input": missing, "--out-records": "r.csv", "--out-summary": "s.json"},
        "predict": {"--train": missing, "--test": missing, "--out": "p.csv"},
        "simulate": {"--out": "d.csv"},
    }[command]
    paths = {name: value if name in ("--input", "--train", "--test") else str(tmp_path / value)
             for name, value in paths.items()}
    paths[flag] = str(tmp_path / "nodir" / "x")
    assert main([command] + [arg for pair in paths.items() for arg in pair]) == 2
    assert f"error: {flag} {paths[flag]}" in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("make", ["file", "file_parent"])
def test_experiment_outdir_over_a_file_exits_2_before_running(tmp_path, capsys, monkeypatch, make):
    (tmp_path / "taken").write_text("")
    outdir = tmp_path / "taken" if make == "file" else tmp_path / "taken" / "sub"

    def not_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(gimbal.cli, "run_experiment", not_run)
    assert main(["experiment", "--id", "7.1", "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert f"--outdir {outdir}: {tmp_path / 'taken'} exists and is not a directory" in err


def test_fit_output_path_that_is_a_directory_exits_2(tmp_path, capsys):
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows())
    (tmp_path / "r.csv").mkdir()
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "5"])
    assert rc == 2
    assert f"--out-records {tmp_path / 'r.csv'} is a directory" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("summary", ["same.out", "./same.out", "sub/../same.out"])
def test_fit_records_and_summary_on_one_file_exits_2_before_reading(tmp_path, capsys, monkeypatch, summary):
    # the summary, written last, would overwrite the records
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    rc = main(["fit", "--input", "missing.csv", "--out-records", "same.out", "--out-summary", summary])
    assert rc == 2
    assert "name the same file" in capsys.readouterr().err
    assert not (tmp_path / "same.out").exists()


UNREADABLE = {
    "not_utf8": lambda path: path.write_bytes(b"lat,lon,x,y\n35.0,135.0,\xff,1.0\n"),
    "directory": lambda path: path.mkdir(),
    # past the csv module's field limit of 131072 characters
    "long_cell": lambda path: path.write_text("lat,lon,x,y\n35.0,135.0," + "1" * 200_000 + ",1.0\n"),
}


@pytest.mark.parametrize("flag, kind", [
    ("--input", "not_utf8"), ("--input", "directory"), ("--input", "long_cell"),
    ("--train", "not_utf8"), ("--test", "not_utf8"), ("--test", "long_cell"), ("--config", "not_utf8"),
])
def test_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, flag, kind):
    good, bad = tmp_path / "good.csv", tmp_path / "bad"
    write_csv(good, toy_rows())
    UNREADABLE[kind](bad)
    fit = ["fit", "--out-records", str(tmp_path / "r.csv"), "--out-summary", str(tmp_path / "s.json")]
    predict_ = ["predict", "--out", str(tmp_path / "p.csv")]
    argv = {
        "--input": fit + ["--input", bad],
        "--config": fit + ["--input", good, "--config", bad],
        "--train": predict_ + ["--train", bad, "--test", good],
        "--test": predict_ + ["--train", good, "--test", bad],
    }[flag]
    assert main([str(arg) for arg in argv] + ["--k", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad", "good.csv"]


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale with UTF-8 mode and locale coercion off, Python's
    # preferred encoding is ASCII; a UTF-8 input with a non-ASCII id and a
    # config file still fit, to the bytes of a UTF-8 locale's run
    inp, config = tmp_path / "ids.csv", tmp_path / "config.json"
    rows = [[f"ünï{i}", *row] for i, row in enumerate(toy_rows())]
    with open(inp, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["id", "lat", "lon", "x", "y"], *rows])
    config.write_text('{"k": 5}', encoding="utf-8")
    src = str(Path(gimbal.__file__).resolve().parents[1])
    outputs = []
    for locale in ("C.UTF-8", "C"):
        out = tmp_path / locale
        out.mkdir()
        env = {**os.environ, "LC_ALL": locale, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONIOENCODING": "", "PYTHONPATH": src}
        argv = [sys.executable, "-m", "gimbal.cli", "fit", "--input", str(inp), "--config", str(config),
                "--out-records", str(out / "rec.csv"), "--out-summary", str(out / "sum.json")]
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("rec.csv", "sum.json")])
    assert outputs[0] == outputs[1]
    assert ",ünï3,".encode() in outputs[1][0]


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    # spreadsheet "CSV UTF-8" exports begin with U+FEFF: a BOM-prefixed copy
    # of an input, with or without this tool's schema line, fits to the bytes
    # of the copy without it, and a config file with a BOM is read
    write_dataset_csv(tmp_path / "schema.csv", generate(SimSpec(n=60, seed=3))[0])
    write_csv(tmp_path / "header.csv", toy_rows(20))
    config = tmp_path / "config.json"
    config.write_bytes(codecs.BOM_UTF8 + b'{"k": 7}')
    for name in ("schema", "header"):
        plain = (tmp_path / f"{name}.csv").read_bytes()
        (tmp_path / f"{name}_bom.csv").write_bytes(codecs.BOM_UTF8 + plain)
        outputs = []
        for inp in (f"{name}.csv", f"{name}_bom.csv"):
            out = tmp_path / inp.replace(".csv", "_out")
            out.mkdir()
            rc = main(["fit", "--input", str(tmp_path / inp), "--config", str(config),
                       "--out-records", str(out / "rec.csv"), "--out-summary", str(out / "sum.json")])
            assert rc == 0
            outputs.append([(out / "rec.csv").read_bytes(), (out / "sum.json").read_bytes()])
        assert outputs[0] == outputs[1]
        assert outputs[1][0].startswith(b"# schema: ")
        assert json.loads(outputs[1][1])["config"]["k"] == 7


def test_ids_are_copied_verbatim_trailing_nuls_included(tmp_path):
    try:
        list(csv.reader(["a\x00,b"]))
    except csv.Error:
        pytest.skip("this interpreter's csv module does not read NUL")
    ids = ["a\x00", "\x00", "b\x00\x00", *(f"p{i}" for i in range(7))]
    inp = tmp_path / "data.csv"
    inp.write_text("id,lat,lon,x,y\n" + "".join(f"{rec_id},{','.join(map(repr, row))}\n"
                                               for rec_id, row in zip(ids, toy_rows())), encoding="utf-8")
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "rec.csv"),
               "--out-summary", str(tmp_path / "sum.json"), "--k", "5"])
    assert rc == 0
    with open(tmp_path / "rec.csv", newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    assert [row[header.index("id")] for row in rows] == ids


def test_config_precedence(tmp_path):
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows())
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"k": 4, "gamma": 2.0}))
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"),
               "--config", str(cfg_file), "--gamma", "3.0"])
    assert rc == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["config"]["k"] == 4        # from file
    assert summary["config"]["gamma"] == 3.0  # flag wins
    assert summary["config"]["h"] == 3000.0   # default


def test_deeply_nested_config_file_exits_2(tmp_path, capsys):
    # the JSON decoder recurses once per bracket: 200 000 of them exhaust the
    # interpreter's stack, an input error like any other undecodable file
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows())
    cfg_file = tmp_path / "deep.json"
    cfg_file.write_text("[" * 200_000)
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--config", str(cfg_file)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(cfg_file) in err and "recursion" in err
    assert not (tmp_path / "r.csv").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # unknown keys, and known keys holding a value of the wrong type
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows())
    cfg_file = tmp_path / "cfg.json"
    for config, named in (({"bandwidth": 10}, "bandwidth"), ({"k": 50.5}, "K"),
                          ({"k": True}, "K"), ({"u": math.inf}, "u"), ({"n0": True}, "n0"),
                          ({"h": "3000"}, "h"), ({"seed": 0}, "seed"), (["k"], "JSON object")):
        cfg_file.write_text(json.dumps(config))
        rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
                   "--out-summary", str(tmp_path / "s.json"), "--config", str(cfg_file)])
        assert rc == 2, config
        assert named in capsys.readouterr().err
    # fragility settings are checked like config values
    for flag, value in (("--fragile-kappa-quantile", "1.5"), ("--fragile-kappa-quantile", "nan"),
                        ("--fragile-kappa-quantile", "-0.1"), ("--fragile-neff-floor", "nan"),
                        ("--fragile-neff-floor", "inf")):
        rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
                   "--out-summary", str(tmp_path / "s.json"), "--k", "4", flag, value])
        assert rc == 2, (flag, value)
        assert flag in capsys.readouterr().err


def test_fit_all_ill_posed_still_exits_zero(tmp_path):
    # constant covariate everywhere: every local design is rank-deficient
    rows = [[35.0 + 0.01 * i, 135.0, 1.0, float(i)] for i in range(8)]
    inp = tmp_path / "flat.csv"
    write_csv(inp, rows)
    # the default --moran-k 8 needs nine locations
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "4", "--moran-k", "4"])
    assert rc == 0
    _, out_rows = read_csv_skipping_comments(tmp_path / "r.csv")
    assert len(out_rows) == 8
    assert all("ill_posed" in r[17] for r in out_rows)
    assert json.loads((tmp_path / "s.json").read_text())["map_summary"] is None


def test_fault_inside_the_fit_exits_3(tmp_path, monkeypatch, capsys):
    # inputs are checked before fit_all; an error raised inside it is internal
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("gimbal.cli.fit_all", singular)
    inp = tmp_path / "data.csv"
    write_csv(inp, toy_rows())
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "5"])
    assert rc == 3
    assert "internal error: Singular matrix" in capsys.readouterr().err


def test_fit_moran_k_checked_before_fit(tmp_path, capsys):
    # every location ill-posed leaves no finite residual for the post-fit
    # check, so only the check against the input size can reject these
    rows = [[35.0 + 0.01 * i, 135.0, 1.0, float(i)] for i in range(8)]
    inp = tmp_path / "flat.csv"
    write_csv(inp, rows)
    for moran_k in ("0", "-1", "8"):
        rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
                   "--out-summary", str(tmp_path / "s.json"), "--k", "4",
                   "--moran-k", moran_k])
        assert rc == 2
        assert f"--moran-k {moran_k} outside the eligible range [1, 7]" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


def test_fit_moran_k_of_more_than_the_finite_residuals_exits_2(tmp_path, capsys):
    # nine coincident points fit ill-posed at K=4, so 3 of the 12 rows keep a
    # finite residual: --moran-k 8 passes the check against the input size
    # and fails the one against the finite rows, before any file is written
    rng = np.random.default_rng(3)
    rows = [[35.0, 135.0, *rng.normal(size=2)] for _ in range(9)]
    rows += [[35.0 + 0.01 * i, 135.0 + 0.01 * (i - 1), *rng.normal(size=2)] for i in (1, 2, 3)]
    inp = tmp_path / "coincident.csv"
    write_csv(inp, rows)
    rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "4", "--moran-k", "8"])
    assert rc == 2
    assert "outside the eligible range [1, 2]: 3 points are finite" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "s.json").exists()


def test_fit_of_one_location_says_local_moran_needs_two(tmp_path, capsys):
    # no --moran-k fits one location: the error names the cause, not the
    # empty range [1, 0]
    inp = tmp_path / "one.csv"
    write_csv(inp, [[35.0, 135.0, 1.0, 2.0]])
    for moran_k in ("8", "1"):
        rc = main(["fit", "--input", str(inp), "--out-records", str(tmp_path / "r.csv"),
                   "--out-summary", str(tmp_path / "s.json"), "--k", "1", "--moran-k", moran_k])
        assert rc == 2
        err = capsys.readouterr().err
        assert "local Moran needs at least two locations: the input has 1" in err, err
        assert "[1, 0]" not in err
        assert not (tmp_path / "r.csv").exists()


def test_simulate_reproducible_and_readable(tmp_path):
    for tag in ("a", "b"):
        rc = main(["simulate", "--out", str(tmp_path / f"sim_{tag}.csv"),
                   "--n", "50", "--seed", "42"])
        assert rc == 0
    assert (tmp_path / "sim_a.csv").read_bytes() == (tmp_path / "sim_b.csv").read_bytes()
    header, rows = read_csv_skipping_comments(tmp_path / "sim_a.csv")
    assert header == ["lat", "lon", "x", "y", "beta1_true"]
    assert len(rows) == 50
    ds = read_dataset(tmp_path / "sim_a.csv")  # extra column tolerated
    assert ds.n == 50


NON_DEFAULT_SIMSPEC = {
    "n": 40, "lat0": -20.0, "lon0": -60.0, "extent": 5000.0, "sampling": "gaussian",
    "rho": 2.0, "psi": 0.3, "delta_beta": 0.25, "sigma": 0.5, "c_rad": 1.5, "seed": 7,
}


def test_every_simspec_field_settable_by_flag(tmp_path):
    fields = dataclasses.asdict(SimSpec())
    assert NON_DEFAULT_SIMSPEC.keys() == fields.keys()
    assert all(NON_DEFAULT_SIMSPEC[name] != fields[name] for name in fields)
    flags = [item for name, value in NON_DEFAULT_SIMSPEC.items()
             for item in (f"--{name.replace('_', '-')}", str(value))]
    assert main(["simulate", "--out", str(tmp_path / "flags.csv"), *flags]) == 0
    dataset, beta1 = generate(SimSpec(**NON_DEFAULT_SIMSPEC))
    write_dataset_csv(tmp_path / "library.csv", dataset, beta1_true=beta1)
    assert (tmp_path / "flags.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_simulate_across_the_antimeridian_fits(tmp_path):
    sim = tmp_path / "sim.csv"
    rc = main(["simulate", "--out", str(sim), "--n", "60", "--extent", "8000",
               "--lon0", "179.99"])
    assert rc == 0
    ds = read_dataset(sim)
    assert ds.lon.min() < -179.9 and ds.lon.max() > 179.9  # wrapped, both sides
    rc = main(["fit", "--input", str(sim), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "10"])
    assert rc == 0


def test_simulate_past_the_pole_exits_2(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    rc = main(["simulate", "--out", str(sim), "--n", "60", "--extent", "8000",
               "--lat0", "89.99"])
    assert rc == 2
    assert "lat" in capsys.readouterr().err
    assert not sim.exists()
    # a non-finite float, an unknown sampling or a negative seed in the spec
    # exits 2 naming its field
    for flag, value, message in (("--extent", "inf", "extent must be finite"),
                                 ("--sigma", "nan", "sigma must be finite"),
                                 ("--psi", "inf", "psi must be finite"),
                                 ("--rho", "nan", "rho must be finite"),
                                 ("--sampling", "poisson", "sampling must be one of"),
                                 ("--seed", "-1", "seed must be >= 0")):
        rc = main(["simulate", "--out", str(sim), "--n", "20", flag, value])
        assert rc == 2, flag
        assert message in capsys.readouterr().err
        assert not sim.exists()


def test_predict_protocol_and_cross_check(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path / "train.csv"), "--n", "80",
               "--seed", "7", "--extent", "8000"])
    assert rc == 0
    train = read_dataset(tmp_path / "train.csv")
    # test set: first five training points (coincident coordinates)
    write_csv(tmp_path / "test.csv",
              [[train.lat[i], train.lon[i], train.x[i], train.y[i]] for i in range(5)])
    rc = main(["predict", "--train", str(tmp_path / "train.csv"),
               "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred.csv"), "--k", "20"])
    assert rc == 0
    header, rows = read_csv_skipping_comments(tmp_path / "pred.csv")
    assert header[:7] == ["index", "lat", "lon", "x", "y", "prediction", "ill_posed"]
    expect, _ = predict(train, GimbalConfig(k=20), train.lat[:5], train.lon[:5], train.x[:5])
    for i, row in enumerate(rows):
        assert float(row[5]) == pytest.approx(expect[i], rel=1e-12)


def test_predict_fits_only_the_training_rows_its_correction_reads(tmp_path, monkeypatch):
    train_spec, test_spec = SimSpec(n=600, seed=8), SimSpec(n=90, seed=9)
    for name, spec in (("train.csv", train_spec), ("test.csv", test_spec)):
        write_dataset_csv(tmp_path / name, generate(spec)[0])
    train, test = read_dataset(tmp_path / "train.csv"), read_dataset(tmp_path / "test.csv")
    fitted = []
    fit_rows = gimbal.cli.fit_rows

    def spied(dataset, config, rows, keep="all"):
        fitted.append(np.array(rows))
        assert keep == "estimate"
        return fit_rows(dataset, config, rows, keep)

    monkeypatch.setattr(gimbal.cli, "fit_rows", spied)
    rc = main(["predict", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred.csv"), "--k", "30", "--residual-knn", "7"])
    assert rc == 0
    config = GimbalConfig(k=30)
    preds, result = predict(train, config, test.lat, test.lon, test.x)
    members = result.neighborhood.member_indices
    [rows] = fitted
    assert np.array_equal(rows, np.unique(members[:, :7]))
    assert rows.shape[0] < train.n
    # the file the full in-sample fit gives, byte for byte
    corr = residual_knn_correct(fit_all(train, config).residual_at_target, members, 7)
    columns = [np.arange(test.n), test.lat, test.lon, test.x, test.y, preds, ~result.fit.well_posed,
               result.fit.well_posed & ~np.isfinite(preds), corr, preds + corr]
    header = ["index", "lat", "lon", "x", "y", "prediction", "ill_posed", "overflow",
              "residual_correction", "prediction_corrected"]
    gimbal.cli._write_csv([tmp_path / "full.csv"], gimbal.cli.SCHEMA_PREDICTIONS, header, [columns])
    assert (tmp_path / "pred.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_predict_skips_the_work_its_file_does_not_read(tmp_path, monkeypatch):
    # gimbal predict fits at the estimate level: no cond_wls2 and no K-wide
    # fit summaries in either of its fits; gimbal fit still computes both,
    # once per chunk of its one config
    write_dataset_csv(tmp_path / "train.csv", generate(SimSpec(n=1200, seed=8))[0])
    write_dataset_csv(tmp_path / "test.csv", generate(SimSpec(n=90, seed=9))[0])
    calls = {"cond_wls2": 0, "_summaries": 0}

    def counted(module, name):
        original = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    counted(gimbal.engine, "cond_wls2")
    counted(gimbal.solver, "_summaries")
    rc = main(["predict", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred.csv"), "--k", "50", "--residual-knn", "10"])
    assert rc == 0
    assert calls == {"cond_wls2": 0, "_summaries": 0}
    rc = main(["fit", "--input", str(tmp_path / "train.csv"), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json"), "--k", "50"])
    assert rc == 0
    chunks = len(batches(1200, 50))
    assert chunks > 1
    assert calls == {"cond_wls2": chunks, "_summaries": chunks}


def test_predict_indexes_its_training_pool_once(tmp_path, monkeypatch):
    # predict_pool's shapes: the query of the test points and the query of
    # the training rows the correction reads share one index of the
    # training pool, so no level's grid of it is built twice and the walk's
    # start level is computed once (two queries each, without the index)
    write_dataset_csv(tmp_path / "train.csv", generate(SimSpec(n=4800, seed=1))[0])
    write_dataset_csv(tmp_path / "test.csv", generate(SimSpec(n=1200, seed=2))[0])
    neighborhood = gimbal.neighborhood
    queries, built, started = [], [], []
    knn, grid_init, start_level = gimbal.engine.knn, neighborhood._Grid.__init__, neighborhood._start_level

    def spied_knn(*args):
        queries.append(args[2].shape[0])
        return knn(*args)

    def spied_init(grid, pool, level):
        built.append((pool.shape[0], level))
        grid_init(grid, pool, level)

    def spied_start_level(pool, need):
        started.append(pool.shape[0])
        return start_level(pool, need)

    monkeypatch.setattr(gimbal.engine, "knn", spied_knn)
    monkeypatch.setattr(neighborhood._Grid, "__init__", spied_init)
    monkeypatch.setattr(neighborhood, "_start_level", spied_start_level)
    rc = main(["predict", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred.csv"), "--residual-knn", "10"])
    assert rc == 0
    assert len(queries) == 2 and queries[0] == 1200
    assert built and {size for size, _ in built} == {4800}
    assert len(built) == len(set(built))
    assert started == [4800]


def test_predict_residual_knn_zero_residuals(tmp_path, capsys):
    # exact-plane data: training residuals vanish, correction changes nothing
    rng = np.random.default_rng(1)
    rows = []
    for i in range(30):
        lat = 35.0 + 0.01 * (i % 6)
        lon = 135.0 + 0.01 * (i // 6)
        x = float(rng.normal())
        rows.append([lat, lon, x, 2.0 + 0.5 * x])
    write_csv(tmp_path / "train.csv", rows)
    write_csv(tmp_path / "test.csv", [[35.005, 135.005, 1.0, 2.5]])
    rc = main(["predict", "--train", str(tmp_path / "train.csv"),
               "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred_plain.csv"), "--k", "10"])
    assert rc == 0
    rc = main(["predict", "--train", str(tmp_path / "train.csv"),
               "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred_rk.csv"), "--k", "10",
               "--residual-knn", "5"])
    assert rc == 0
    _, plain = read_csv_skipping_comments(tmp_path / "pred_plain.csv")
    rk_header, rk = read_csv_skipping_comments(tmp_path / "pred_rk.csv")
    assert float(plain[0][5]) == pytest.approx(2.5, abs=1e-8)
    assert float(rk[0][rk_header.index("prediction_corrected")]) == pytest.approx(float(plain[0][5]), abs=1e-9)
    # 0 means no correction; a negative count is an input error
    rc = main(["predict", "--train", str(tmp_path / "train.csv"),
               "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred_0.csv"), "--k", "10", "--residual-knn", "0"])
    assert rc == 0
    assert (tmp_path / "pred_0.csv").read_bytes() == (tmp_path / "pred_plain.csv").read_bytes()
    rc = main(["predict", "--train", str(tmp_path / "train.csv"),
               "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred_neg.csv"), "--k", "10", "--residual-knn", "-1"])
    assert rc == 2
    assert not (tmp_path / "pred_neg.csv").exists()
    # the correction reads the first k of the K members of each prediction row
    capsys.readouterr()
    rc = main(["predict", "--train", str(tmp_path / "train.csv"),
               "--test", str(tmp_path / "test.csv"),
               "--out", str(tmp_path / "pred_big.csv"), "--k", "10", "--residual-knn", "11"])
    assert rc == 2
    assert "--residual-knn must lie in [0, K=10], got 11" in capsys.readouterr().err
    assert not (tmp_path / "pred_big.csv").exists()


def test_experiment_command_emits_variants_and_report(tmp_path, capsys):
    rc = main(["experiment", "--id", "7.4", "--seed", "3",
               "--outdir", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == ["e74_report.json", "e74_theta_off.csv", "e74_theta_on.csv"]
    report = json.loads((tmp_path / "out" / "e74_report.json").read_text())
    assert set(report["summaries"]) == {"theta_on", "theta_off"}
    assert all(v["pass"] for v in report["properties"].values())
    header, rows = read_csv_skipping_comments(tmp_path / "out" / "e74_theta_on.csv")
    assert len(rows) == report["sim_spec"]["n"]


def test_experiment_71_emits_four_variants(tmp_path):
    rc = main(["experiment", "--id", "7.1", "--seed", "1",
               "--outdir", str(tmp_path / "out")])
    assert rc == 0
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == [
        "e71_full.csv",
        "e71_full_strict_eps_phi.csv",
        "e71_isotropic_proxy.csv",
        "e71_report.json",
        "e71_theta_off.csv",
    ]
    report = json.loads((tmp_path / "out" / "e71_report.json").read_text())
    assert report["schema"] == "gimbal.experiment-report.v2"
    assert "seed" not in report["base_config"]
    assert report["strict_eps_phi"]["threshold"] == 0.3
    # r_phi is data-determined: re-solved and flag-only strict rates coincide
    assert (report["strict_eps_phi"]["resolved_pr_phi_zero"]
            == report["strict_eps_phi"]["flag_only_pr_phi_zero"])


def test_threads_flag_is_accepted_and_ignored(tmp_path):
    # command lines written for the old thread pool still run, and write
    # every output byte as they would without the flag
    write_dataset_csv(tmp_path / "train.csv", generate(SimSpec(n=300, seed=1))[0])
    write_dataset_csv(tmp_path / "test.csv", generate(SimSpec(n=40, seed=2))[0])
    for tag, flag in (("threads0", ["--threads", "0"]), ("plain", [])):
        out = tmp_path / tag
        out.mkdir()
        for argv in (["fit", "--input", str(tmp_path / "train.csv"), "--k", "20",
                      "--out-records", str(out / "r.csv"), "--out-summary", str(out / "s.json")],
                     ["predict", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
                      "--k", "20", "--residual-knn", "10", "--out", str(out / "p.csv")],
                     ["experiment", "--id", "7.3", "--seed", "1", "--outdir", str(out / "e73")]):
            assert main(argv + flag) == 0
    files = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*") if p.is_file())
    assert len(files) == 3 + 10
    for name in files:
        assert (tmp_path / "threads0" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


def test_experiment_unknown_id_exits_2(tmp_path, capsys):
    rc = main(["experiment", "--id", "9.9", "--outdir", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown experiment id '9.9'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_experiment_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["experiment", "--id", "7.1", "--seed", "-1", "--outdir", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_coincident_points_are_ill_posed_and_phi_iso_without_a_warning(tmp_path):
    # 120 of 200 points at one spot, K=30: each of those rows has only
    # coincident neighbors, so its distance column is zero (a singular
    # design) and its bearings are undefined
    rng = np.random.default_rng(3)
    lat = np.concatenate([np.full(120, 35.0), 35.0 + rng.uniform(-0.2, 0.2, 80)])
    lon = np.concatenate([np.full(120, 135.0), 135.0 + rng.uniform(-0.2, 0.2, 80)])
    x, y = rng.normal(size=200), rng.normal(size=200)
    write_csv(tmp_path / "spot.csv", np.column_stack([lat, lon, x, y]).tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_all(Dataset(lat=lat, lon=lon, x=x, y=y), GimbalConfig(k=30))
        # main turns any exception, a warning raised as one included, into exit 3
        rc = main(["fit", "--input", str(tmp_path / "spot.csv"), "--out-records", str(tmp_path / "r.csv"),
                   "--out-summary", str(tmp_path / "s.json"), "--k", "30"])
    assert rc == 0
    assert branch_codes(result)[:120] == [frozenset({"ill_posed", "phi_iso"})] * 120
    assert "ill_posed" not in set().union(*branch_codes(result)[120:])
    with open(tmp_path / "r.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["branch_codes"] for row in rows[:120]] == ["ill_posed;phi_iso"] * 120
