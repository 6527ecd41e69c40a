"""Batch command-line surface: fit, predict, simulate, experiment.

CSV conventions: a schema comment line (starting with ``#``) precedes the
header of every file this tool writes; readers skip comment lines. Floats are
written with ``repr`` so outputs are byte-identical across reruns with the
same inputs. Missing values (ill-posed locations, undefined diagnostics) are
empty fields.

Exit codes: 0 success (flagged locations included), 2 input/configuration
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import DEFAULT_K_MORAN, local_moran, reliability_mask
from .engine import (
    Dataset,
    GimbalConfig,
    branch_codes,
    fit_all,
    predict,
    residual_knn_correct,
    standardized_covariate,
)
from .experiments import run_experiment
from .neighborhood import ConfigurationError
from .simgen import SimSpec, generate

SCHEMA_DATASET = "gimbal.dataset.v1"
SCHEMA_RECORDS = "gimbal.records.v1"
SCHEMA_PREDICTIONS = "gimbal.predictions.v1"

_REQUIRED_COLUMNS = ("lat", "lon", "x", "y")

RECORD_FIELDS = (
    "index", "id", "lat", "lon", "beta0", "beta1", "beta2",
    "kappa_m_nor", "cond_wls2", "h_eff", "phi", "r_phi", "theta_z",
    "g_ident", "eta", "n_eff_raw", "n_eff_post", "branch_codes",
    "rmse_local", "r2_local", "local_moran", "fragile",
)


class InputError(ValueError):
    """Problem with an input file; maps to exit code 2."""


def _float_fields(values):
    """CSV fields of a list of Python floats: repr, or empty for NaN."""
    return [repr(v) if v == v else "" for v in values]


def _json_safe(obj):
    """Recursively replace NaN/inf with None so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def read_dataset(path):
    """Read a dataset CSV; raises InputError naming the offending column/row."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    missing = [name for name in _REQUIRED_COLUMNS if name not in header]
    if missing:
        raise InputError(f"{path}: missing required column '{missing[0]}'")
    col = {name: header.index(name) for name in header}

    data = {name: [] for name in _REQUIRED_COLUMNS}
    ids = [] if "id" in col else None
    for row_no, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise InputError(f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}")
        for name in _REQUIRED_COLUMNS:
            raw = row[col[name]]
            try:
                value = float(raw)
            except ValueError:
                raise InputError(f"{path}: row {row_no}: column {name} is not numeric ({raw!r})")
            data[name].append(value)
        if ids is not None:
            ids.append(row[col["id"]])

    dataset = Dataset(
        lat=np.array(data["lat"]), lon=np.array(data["lon"]),
        x=np.array(data["x"]), y=np.array(data["y"]),
        ids=np.array(ids) if ids is not None else None,
    )
    try:
        dataset.validate()
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return dataset


def write_dataset_csv(path, dataset, beta1_true=None):
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_DATASET}\n")
        writer = csv.writer(fh)
        header = ["lat", "lon", "x", "y"]
        if beta1_true is not None:
            header.append("beta1_true")
        writer.writerow(header)
        columns = [dataset.lat, dataset.lon, dataset.x, dataset.y]
        if beta1_true is not None:
            columns.append(beta1_true)
        for row in np.column_stack(columns):
            writer.writerow(_float_fields(row.tolist()))


def write_records_csv(path, result, dataset, moran_values, fragile_flags):
    fit, orient, wmap = result.fit, result.orientation, result.weight_map
    ids = dataset.ids[result.index].tolist() if dataset.ids is not None else [None] * len(result)
    values = np.column_stack([
        result.lat, result.lon, fit.beta, fit.m_nor_condition, result.cond_wls2,
        wmap.h_eff, orient.phi, orient.r_phi, orient.theta_z, orient.g_ident,
        orient.eta, wmap.n_eff_raw, wmap.n_eff_post,
        fit.rmse_local, fit.r2_local, moran_values,
    ])
    codes = [";".join(sorted(c)) for c in branch_codes(result)]
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_RECORDS}\n")
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for i, (index, rec_id, code, fragile) in enumerate(zip(
            result.index.tolist(), ids, codes, np.asarray(fragile_flags).tolist()
        )):
            # one row at a time as Python floats: repr gives round-trip text
            row = _float_fields(values[i].tolist())
            writer.writerow([str(index), "" if rec_id is None else str(rec_id), *row[:15],
                             code, *row[15:], str(int(fragile))])


def _moran_over_records(result, k_moran):
    """Per-target local Moran of the target-row residuals; ill-posed -> NaN."""
    residuals = result.residual_at_target
    finite = np.isfinite(residuals)
    values = np.full(len(result), math.nan)
    n_finite = int(np.sum(finite))
    if n_finite >= 2:
        if not 1 <= k_moran < n_finite:
            raise ConfigurationError(f"--moran-k {k_moran} outside the eligible range "
                                     f"[1, {n_finite - 1}]: {n_finite} locations have a finite residual")
        sub, defined = local_moran(residuals[finite], result.lat[finite], result.lon[finite], k_moran)
        if defined:
            values[finite] = sub
        else:
            values[finite] = 0.0
    return values


def _annotate_and_write(path, result, dataset, k_moran, kappa_quantile, neff_floor):
    moran = _moran_over_records(result, k_moran)
    fragile = reliability_mask(result, kappa_quantile, neff_floor)
    write_records_csv(path, result, dataset, moran, fragile)


# ---------------------------------------------------------------- config

_CONFIG_FLAGS = (
    ("k", int), ("h", float), ("gamma", float), ("u", float),
    ("n0", float), ("n_min", float), ("eta_max", float),
    ("eps_phi", float), ("eps_theta", float), ("eps_eta", float),
    ("eps_kappa", float), ("theta_z_mode", str), ("phi_mode", str),
    ("eta_mode", str), ("seed", int),
)


def _add_config_flags(parser):
    parser.add_argument("--config", type=Path, help="JSON file with config fields")
    for name, typ in _CONFIG_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None)


def build_config(args):
    """Flags override config-file values override documented defaults."""
    values = {}
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config file {args.config}: {exc}") from exc
        known = {name for name, _ in _CONFIG_FLAGS}
        unknown = set(loaded) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for name, _ in _CONFIG_FLAGS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    try:
        return GimbalConfig(**values)
    except (ConfigurationError, TypeError) as exc:
        raise InputError(str(exc)) from exc


# ---------------------------------------------------------------- commands

def cmd_fit(args):
    quantile, floor = args.fragile_kappa_quantile, args.fragile_neff_floor
    if not 0.0 <= quantile <= 1.0:
        raise InputError(f"--fragile-kappa-quantile must lie in [0, 1], got {quantile}")
    if not math.isfinite(floor):
        raise InputError(f"--fragile-neff-floor must be finite, got {floor}")
    dataset = read_dataset(args.input)
    config = build_config(args)
    # both neighbor counts are checked against the input before any fitting
    if config.k > dataset.n:
        raise InputError(f"K={config.k} exceeds dataset size {dataset.n}")
    if not 1 <= args.moran_k < dataset.n:
        raise InputError(f"--moran-k {args.moran_k} outside the eligible range "
                         f"[1, {dataset.n - 1}]: the input has {dataset.n} locations")
    try:
        result = fit_all(dataset, config, threads=args.threads)
    except (ConfigurationError, ValueError) as exc:
        raise InputError(str(exc)) from exc

    _annotate_and_write(
        args.out_records, result, dataset,
        args.moran_k, args.fragile_kappa_quantile, args.fragile_neff_floor,
    )
    from .experiments import summarize

    try:
        map_summary = dataclasses.asdict(summarize(result))
    except ValueError:
        # every location ill-posed: records still emitted, summary is null
        map_summary = None
    summary = {
        "schema": "gimbal.summary.v1",
        "version": __version__,
        "config": dataclasses.asdict(config),
        "map_summary": map_summary,
    }
    Path(args.out_summary).write_text(
        json.dumps(_json_safe(summary), sort_keys=True, indent=2) + "\n"
    )
    return 0


def cmd_predict(args):
    train = read_dataset(args.train)
    test = read_dataset(args.test)
    config = build_config(args)
    if config.k > train.n:
        raise InputError(f"K={config.k} exceeds training size {train.n}")

    if args.residual_knn < 0:
        raise InputError(f"--residual-knn must be >= 0 (0 means no correction), got {args.residual_knn}")
    use_residual_knn = args.residual_knn > 0
    if use_residual_knn and args.residual_knn > train.n:
        raise InputError(f"--residual-knn {args.residual_knn} exceeds training size {train.n}")

    _, x_mean, x_std = standardized_covariate(train.x)
    preds, result = predict(train, config, test.lat, test.lon, test.x,
                            x_moments=(x_mean, x_std), threads=args.threads)
    ill = ~result.fit.well_posed
    columns = [test.lat, test.lon, test.x, test.y, preds]
    header = ["index", "lat", "lon", "x", "y", "prediction", "ill_posed"]
    if use_residual_knn:
        training_residuals = fit_all(train, config, threads=args.threads).residual_at_target
        corr = residual_knn_correct(
            training_residuals, train.lat, train.lon, test.lat, test.lon, args.residual_knn,
        )
        columns += [corr, np.where(ill, math.nan, preds + corr)]
        header += ["residual_correction", "prediction_corrected"]
    values = np.column_stack(columns)
    with Path(args.out).open("w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_PREDICTIONS}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, flag in enumerate(ill.tolist()):
            row = _float_fields(values[i].tolist())
            writer.writerow([str(i), *row[:5], str(int(flag)), *row[5:]])
    return 0


def cmd_simulate(args):
    try:
        spec = SimSpec(
            n=args.n, lat0=args.lat0, lon0=args.lon0, extent=args.extent,
            sampling=args.sampling, rho=args.rho, psi=args.psi,
            delta_beta=args.delta_beta, sigma=args.sigma, c_rad=args.c_rad,
            seed=args.seed,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    dataset, beta1 = generate(spec)
    write_dataset_csv(args.out, dataset, beta1_true=beta1)
    return 0


_EXPERIMENT_IDS = {"7.1": "e71", "7.2": "e72", "7.3": "e73", "7.4": "e74"}


def cmd_experiment(args):
    exp_id = _EXPERIMENT_IDS.get(args.id, args.id)
    if exp_id not in _EXPERIMENT_IDS.values():
        raise InputError(f"unknown experiment id {args.id!r}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report, records_by_variant = run_experiment(exp_id, base_seed=args.seed, threads=args.threads)

    spec = SimSpec(**report["sim_spec"])
    dataset, _ = generate(spec)
    for name, result in records_by_variant.items():
        _annotate_and_write(
            outdir / f"{exp_id}_{name}.csv", result, dataset,
            DEFAULT_K_MORAN, 0.95, 0.0,
        )
    (outdir / f"{exp_id}_report.json").write_text(
        json.dumps(_json_safe(report), sort_keys=True, indent=2) + "\n"
    )

    failed = [k for k, v in report["properties"].items() if not v["pass"]]
    for name in sorted(report["properties"]):
        verdict = report["properties"][name]
        print(f"{exp_id} {name}: {'PASS' if verdict['pass'] else 'FAIL'}")
    if failed:
        print(f"{exp_id}: {len(failed)} property check(s) failed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- parser

def _build_parser():
    parser = argparse.ArgumentParser(prog="gimbal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gimbal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit every location of a dataset")
    p_fit.add_argument("--input", required=True, type=Path)
    p_fit.add_argument("--out-records", required=True, type=Path)
    p_fit.add_argument("--out-summary", required=True, type=Path)
    p_fit.add_argument("--threads", type=int, default=1, help="0 = all cores")
    p_fit.add_argument("--moran-k", type=int, default=DEFAULT_K_MORAN)
    p_fit.add_argument("--fragile-kappa-quantile", type=float, default=0.95)
    p_fit.add_argument("--fragile-neff-floor", type=float, default=0.0)
    _add_config_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="out-of-sample prediction")
    p_pred.add_argument("--train", required=True, type=Path)
    p_pred.add_argument("--test", required=True, type=Path)
    p_pred.add_argument("--out", required=True, type=Path)
    p_pred.add_argument("--threads", type=int, default=1)
    p_pred.add_argument("--residual-knn", type=int, default=0, help="0 = no correction")
    _add_config_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="generate a seeded synthetic dataset")
    p_sim.add_argument("--out", required=True, type=Path)
    p_sim.add_argument("--n", type=int, default=1200)
    p_sim.add_argument("--lat0", type=float, default=35.0)
    p_sim.add_argument("--lon0", type=float, default=135.0)
    p_sim.add_argument("--extent", type=float, default=40_000.0)
    p_sim.add_argument("--sampling", choices=["uniform", "gaussian"], default="uniform")
    p_sim.add_argument("--rho", type=float, default=1.0)
    p_sim.add_argument("--psi", type=float, default=0.0)
    p_sim.add_argument("--delta-beta", type=float, default=0.5)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--c-rad", type=float, default=0.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a mechanism experiment")
    p_exp.add_argument("--id", required=True, help="7.1, 7.2, 7.3 or 7.4")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--outdir", required=True, type=Path)
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
