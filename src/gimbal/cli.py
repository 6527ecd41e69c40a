"""Batch command-line surface: fit, predict, simulate, experiment.

CSV conventions: a schema comment line (starting with ``#``, ended by
``\n``) precedes the header of every file this tool writes; readers skip
comment lines before the header. The header and every row are ended by
``\r\n``, as the ``csv`` module ends them. A float is written as its
``repr``, the shortest text that reads back as the same double, so outputs
are byte-identical across reruns with the same inputs; that text is computed
for a block of float columns at a time in numpy (csvtext), not by ``repr``;
the blocks are the equal batches of neighborhood.batches over the header's
length.
Missing values (ill-posed locations, undefined diagnostics) are empty fields.
Only the ``id`` field can hold a delimiter, a quote or a line break, so it is
the only field ever quoted, by the ``csv`` module's rules. One writer
(_write_csv) frames every file; it writes the tables of several files in
lockstep, so an experiment's later variants render only the cells that
differ from the variant before. Every file is read and written as UTF-8,
whatever the locale; a leading byte order mark is dropped on read, and none
is written. A header that names a column twice is an input error. An id is
copied verbatim. A numeric input cell is a number as float() reads it, on
ASCII text and without underscores.

Exit codes: 0 success (flagged locations included), 2 input/configuration
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, csvtext
from .diagnostics import (
    DEFAULT_K_MORAN,
    DEFAULT_KAPPA_QUANTILE,
    DEFAULT_NEFF_FLOOR,
    local_moran,
    moran_adjacency,
    reliability_mask,
)
from .engine import (
    BRANCH_STRINGS,
    DATASET_COLUMNS,
    Dataset,
    GimbalConfig,
    branch_bits,
    fit_all,
    fit_rows,
    predict,
    residual_knn_correct,
)
from .experiments import run_experiment, summarize
from .neighborhood import ConfigurationError, batches, check_k
from .simgen import SimSpec, generate

SCHEMA_DATASET = "gimbal.dataset.v1"
SCHEMA_RECORDS = "gimbal.records.v1"
SCHEMA_PREDICTIONS = "gimbal.predictions.v2"
SCHEMA_SUMMARY = "gimbal.summary.v2"

# the characters str.isspace() holds beyond " \t\n\v\f\r": numpy's text
# reader strips them around a number, float() does not strip the ASCII ones,
# and a numeric cell is ASCII
_READER_ONLY_SPACE = "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"

# a line and its end, "\r\n", "\r" or "\n", as StringIO(newline="") yields it
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")

RECORD_FIELDS = (
    "index", "id", "lat", "lon", "beta0", "beta1", "beta2",
    "kappa_m_nor", "cond_wls2", "h_eff", "phi", "r_phi", "theta_z",
    "g_ident", "eta", "n_eff_raw", "n_eff_post", "branch_codes",
    "rmse_local", "r2_local", "local_moran", "fragile",
)


# a branch code's text, indexed by its 5-bit code, laid out as csvtext.rows reads it
_BRANCH_TEXT = csvtext.text_matrix(BRANCH_STRINGS)


def _json_safe(obj):
    """Recursively replace NaN/inf with None so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _quoted(texts):
    """Each text as the csv module writes it as one field of a row, quoted
    when it holds a delimiter, a quote or a line break."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        # a second, empty field: a row of one empty field would be quoted
        writer.writerow((text, ""))
        fields.append(buf.getvalue()[:-len(",\r\n")])
    return fields


def _write_csv(paths, schema, header, tables):
    """One file per path: a schema comment line, the header, then one row
    per entry of its table, a list of equal-length columns, one per header
    name (see csvtext.rows).

    Every table has the same number of rows. The files are written in
    lockstep, one block of rows of each per write: the equal blocks of
    neighborhood.batches over the header's length (about BATCH_ELEMENTS
    cells each, which bounds the formatter's arrays). Each table's block
    passes its state (csvtext.rows) to the next table's block at the same
    place, which renders only the cells that differ from it.
    """
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(Path(path).open("wb")) for path in paths]
        for fh in files:
            fh.write(f"# schema: {schema}\n{','.join(header)}\r\n".encode("utf-8"))
        for rows in batches(len(tables[0][0]), len(header)):
            state = None
            for fh, columns in zip(files, tables):
                text, state = csvtext.rows([column[rows] for column in columns], state)
                fh.write(text)


def _write_json(path, obj):
    Path(path).write_text(json.dumps(_json_safe(obj), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_dataset(path):
    """Read a dataset CSV; raises ConfigurationError naming the file, and
    the offending column/row if it can be read.

    The required columns (DATASET_COLUMNS) are parsed by numpy's text reader
    (_parse_columns); the csv module reads the header, the id column and,
    when the reader cannot vouch for a body, every row (_numeric_rows),
    which names the first bad cell."""
    path = Path(path)
    try:
        # decoded in one piece, so that a byte that is not UTF-8 is named by
        # its offset in the file, a leading byte order mark included
        header, body = _split_header(path.read_bytes().decode("utf-8").removeprefix("\ufeff"))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        # missing, a directory, not UTF-8, or a cell over csv's field limit
        raise ConfigurationError(f"cannot read input file {path}: {exc}") from exc
    if header is None:
        raise ConfigurationError(f"{path}: empty file")
    header = [name.strip() for name in header]
    twice = next((name for i, name in enumerate(header) if name and name in header[:i]), None)
    if twice is not None:
        raise ConfigurationError(f"{path}: column '{twice}' is named twice in the header")
    missing = [name for name in DATASET_COLUMNS if name not in header]
    if missing:
        raise ConfigurationError(f"{path}: missing required column '{missing[0]}'")
    col = {name: header.index(name) for name in header}
    rows = _body_rows(path, body) if "id" in col else None
    try:
        data = _parse_columns(body, rows, len(header), col)
    except ValueError:
        # the row loop names the first bad row and column
        data = _numeric_rows(path, _body_rows(path, body) if rows is None else rows, len(header), col)
    ids = [row[col["id"]] for row in rows] if rows is not None else None

    try:
        return Dataset(
            **{name: np.array(data[name]) for name in DATASET_COLUMNS},
            # str objects: a fixed-width str array drops trailing NULs
            ids=np.array(ids, dtype=object) if ids is not None else None,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _split_header(text):
    """(header, body): the header row as the csv module reads it (None in
    a file of comment lines and blank lines only) and the text after it.
    The csv module reads only the lines up to the header, cut where a
    StringIO(newline="") cuts them: a StringIO of the whole text would hold
    4 bytes per character."""
    end = 0

    def lines():
        nonlocal end
        for line in _LINE.finditer(text):
            end = line.end()
            yield line.group()

    # comment lines precede the header; after it, a row starting with "#" is data
    header = next(itertools.dropwhile(lambda row: row[0].startswith("#"), filter(None, csv.reader(lines()))), None)
    return header, text[end:]


def _body_rows(path, body):
    """The non-empty rows of the text after the header, as the csv module
    reads them."""
    try:
        return list(filter(None, csv.reader(io.StringIO(body, newline=""))))
    except csv.Error as exc:
        raise ConfigurationError(f"cannot read input file {path}: {exc}") from exc


def _parse_columns(body, rows, width, col):
    """The required columns of the data rows as float arrays, parsed by
    numpy's text reader, which gives float()'s bits; ValueError where the
    row loop must read them instead: a row of other than width fields, a
    field past the csv module's limit, a cell the reader rejects, or a
    character it would strip around a number that the cell syntax does not
    allow (_READER_ONLY_SPACE).

    rows is the body as the csv module reads it, or None. Without them a
    body is read here only if it holds no quote, so that each line's fields
    are what lies between its commas."""
    if any(char in body for char in _READER_ONLY_SPACE):
        raise ValueError("a space character that only numpy's reader strips")
    if rows is not None:
        if any(len(row) != width for row in rows):
            raise ValueError("a row of the wrong length")
    elif '"' in body:
        raise ValueError("a quoted field")
    else:
        _check_lines(body.encode("utf-8"), width)
    with warnings.catch_warnings():
        # a body of blank lines holds no data, which is no error
        warnings.simplefilter("ignore", UserWarning)
        # the body cut into lines where a StringIO cuts it, at "\n" only
        # (str.splitlines also cuts at "\v", "\f", "\x1c" and more): a
        # list of compact strings, not a StringIO's 4 bytes per character
        data = np.loadtxt(body.split("\n"), delimiter=",", comments=None, quotechar='"', ndmin=2,
                          usecols=[col[name] for name in DATASET_COLUMNS])
    return {name: data[:, i] for i, name in enumerate(DATASET_COLUMNS)}


def _check_lines(text, width):
    """ValueError unless every line of the quote-free UTF-8 text is blank
    or has width fields, and no field is longer than the csv module's limit
    (counted in bytes: at least its characters)."""
    text = np.frombuffer(text, dtype=np.uint8)
    # the commas and line ends, among the few bytes below "-"
    ends = np.flatnonzero(text < ord("-"))
    kind = text[ends]
    keep = (kind == ord(",")) | (kind == ord("\n")) | (kind == ord("\r"))
    ends, comma = ends[keep], kind[keep] == ord(",")
    if np.diff(ends, prepend=-1, append=text.shape[0]).max() - 1 > csv.field_size_limit():
        raise ValueError("a field past the csv module's limit")
    # a line's commas, for each line that has one: its line ends come before
    commas = np.bincount(np.cumsum(~comma)[comma])
    if np.any((commas != 0) & (commas != width - 1)):
        raise ValueError("a row of the wrong length")


def _numeric_rows(path, body, width, col):
    """The required columns of the data rows as lists of floats, read row by
    row; raises ConfigurationError at the first row of the wrong length or
    the first cell that is not a number: float()'s syntax on ASCII text,
    without the underscores it allows between digits."""
    data = {name: [] for name in DATASET_COLUMNS}
    for row_no, row in enumerate(body):
        if len(row) != width:
            raise ConfigurationError(f"{path}: row {row_no} has {len(row)} fields, expected {width}")
        for name in DATASET_COLUMNS:
            raw = row[col[name]]
            try:
                if "_" in raw or not raw.isascii():
                    raise ValueError(raw)
                value = float(raw)
            except ValueError:
                raise ConfigurationError(f"{path}: row {row_no}: column {name} is not numeric ({raw!r})")
            data[name].append(value)
    return data


def write_dataset_csv(path, dataset, beta1_true=None):
    header = list(DATASET_COLUMNS)
    columns = [getattr(dataset, name) for name in DATASET_COLUMNS]
    if beta1_true is not None:
        header.append("beta1_true")
        columns.append(np.asarray(beta1_true, dtype=np.float64))
    _write_csv([path], SCHEMA_DATASET, header, [columns])


def _records_columns(result, ids, moran_values, fragile_flags):
    fit, orient, wmap = result.fit, result.orientation, result.weight_map
    id_text = (csvtext.text_matrix(_quoted(map(str, ids[result.index].tolist()))) if ids is not None
               else np.empty((len(result), 0), dtype=np.uint8))
    return [
        result.index, id_text, result.lat, result.lon, *fit.beta.T,
        fit.m_nor_condition, result.cond_wls2, wmap.h_eff, orient.phi, orient.r_phi,
        orient.theta_z, orient.g_ident, orient.eta, wmap.n_eff_raw, wmap.n_eff_post,
        _BRANCH_TEXT[branch_bits(result)], fit.rmse_local, fit.r2_local,
        np.asarray(moran_values, dtype=np.float64), np.asarray(fragile_flags, dtype=bool),
    ]


def write_records_csv(paths, results, ids, moran_values, fragile_flags):
    """One records file per path, from the result, local Moran values and
    fragile flags at the same position of the other sequences; the results
    cover the same targets. ids is the input's id column, or None. The files
    are written in lockstep (_write_csv), so a later variant of an
    experiment renders only the cells that differ from the variant before.
    """
    _write_csv(paths, SCHEMA_RECORDS, RECORD_FIELDS, [
        _records_columns(result, ids, moran, fragile)
        for result, moran, fragile in zip(results, moran_values, fragile_flags)
    ])


def _moran_over_records(result, k_moran, adjacencies):
    """Per-target local Moran of the target-row residuals of a fit_all
    result, its adjacency taken from the fit's own neighbor rows; ill-posed
    -> NaN. adjacencies is a memo of Moran adjacencies, read and filled here,
    for results held alive by the caller. A k_moran of n_finite or more
    raises moran_adjacency's ConfigurationError."""
    residuals = result.residual_at_target
    finite = np.isfinite(residuals)
    if np.count_nonzero(finite) < 2:
        return np.full(len(result), math.nan)
    members = result.neighborhood.member_indices
    # the variants of one fit_variants call share their neighborhood arrays,
    # and one adjacency serves those with the same finite rows: over e73's
    # nine variants the shared one takes 2.4 ms against 12.3 ms for nine
    # (2-vCPU Xeon). It is keyed on the fit's own array, not on the slice
    # below, a new view per call
    key = (id(members), finite.tobytes(), k_moran)
    if key not in adjacencies:
        # a row's first k_moran + 1 members hold its k_moran nearest others
        # wherever they are all finite, and moran_adjacency queries the rest:
        # the adjacency is the same as from all K columns, read at a fraction
        # of the width (fit_large seed 1, K = 50: 2.6 ms -> 1.2 ms, 2-vCPU Xeon)
        adjacencies[key] = moran_adjacency(finite, result.lat, result.lon,
                                           members[:, :k_moran + 1], k_moran)
    # zero residual variance leaves the statistic undefined: all zeros
    values, _ = local_moran(residuals, adjacencies[key])
    return values


def _annotate_and_write(paths, results, ids, k_moran, kappa_quantile, neff_floor):
    """Local Moran and fragile flags of each result, then one records file
    per path (write_records_csv). Results that share their neighbor rows and
    finite-residual set share one Moran adjacency."""
    adjacencies = {}
    moran = [_moran_over_records(result, k_moran, adjacencies) for result in results]
    fragile = [reliability_mask(result, kappa_quantile, neff_floor) for result in results]
    write_records_csv(paths, results, ids, moran, fragile)


# ---------------------------------------------------------------- config

def _add_field_flags(parser, cls):
    """One flag per field of the dataclass cls, typed as the field's default
    (a None default, GimbalConfig.u, is a float); an unset flag is None."""
    for f in dataclasses.fields(cls):
        parser.add_argument(f"--{f.name.replace('_', '-')}", default=None,
                            type=float if f.default is None else type(f.default))


def _add_config_flags(parser):
    parser.add_argument("--config", type=Path, help="JSON file with config fields")
    _add_field_flags(parser, GimbalConfig)


def _flag_values(args, cls):
    """The fields of the dataclass cls that were set by flag."""
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)}
    return {name: value for name, value in values.items() if value is not None}


def build_config(args):
    """Flags override config-file values override documented defaults."""
    values = {}
    if args.config:
        # a file that is not UTF-8, or not JSON, raises a ValueError; JSON
        # nested deeper than the interpreter's recursion limit a RecursionError
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigurationError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config file {args.config} must hold a JSON object")
        unknown = loaded.keys() - {f.name for f in dataclasses.fields(GimbalConfig)}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    values.update(_flag_values(args, GimbalConfig))
    return GimbalConfig(**values)


# ---------------------------------------------------------------- commands

def _check_output_file(flag, path):
    """Raise ConfigurationError unless path can be written as a file: its
    directory exists and the path is not itself a directory."""
    if not path.parent.is_dir():
        raise ConfigurationError(f"{flag} {path}: {path.parent} is not an existing directory")
    if path.is_dir():
        raise ConfigurationError(f"{flag} {path} is a directory")


def _check_output_dir(flag, path):
    """Raise ConfigurationError unless path is a directory or can be made
    as one: its nearest existing ancestor, or itself, is a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigurationError(f"{flag} {path}: {existing} exists and is not a directory")


def cmd_fit(args):
    _check_output_file("--out-records", args.out_records)
    _check_output_file("--out-summary", args.out_summary)
    # the summary, written last, would overwrite the records
    if args.out_records.resolve() == args.out_summary.resolve():
        raise ConfigurationError(f"--out-records {args.out_records} and --out-summary {args.out_summary} "
                                 "name the same file")
    quantile, floor = args.fragile_kappa_quantile, args.fragile_neff_floor
    if not 0.0 <= quantile <= 1.0:
        raise ConfigurationError(f"--fragile-kappa-quantile must lie in [0, 1], got {quantile}")
    if not math.isfinite(floor):
        raise ConfigurationError(f"--fragile-neff-floor must be finite, got {floor}")
    dataset = read_dataset(args.input)
    config = build_config(args)
    # both neighbor counts are checked against the input before any fitting
    check_k(config.k, dataset.n)
    if dataset.n < 2:
        raise ConfigurationError(f"local Moran needs at least two locations: the input has {dataset.n}")
    if not 1 <= args.moran_k < dataset.n:
        raise ConfigurationError(f"--moran-k {args.moran_k} outside the eligible range "
                                 f"[1, {dataset.n - 1}]: the input has {dataset.n} locations")
    # the records and summary read no weights, residuals or distances
    result = fit_all(dataset, config, keep="records")
    # an extreme cell overflows the statistics over its rows (local Moran,
    # the fragile flags, the map summary) as it did the fit; its flagged rows
    # stay the only signal
    with np.errstate(all="ignore"):
        _annotate_and_write([args.out_records], [result], dataset.ids, args.moran_k, quantile, floor)
        try:
            map_summary = dataclasses.asdict(summarize(result))
        except ValueError:
            # every location ill-posed: records still emitted, summary is null
            map_summary = None
    _write_json(args.out_summary, {
        "schema": SCHEMA_SUMMARY,
        "version": __version__,
        "config": dataclasses.asdict(config),
        "map_summary": map_summary,
    })
    return 0


def cmd_predict(args):
    _check_output_file("--out", args.out)
    train = read_dataset(args.train)
    test = read_dataset(args.test)
    config = build_config(args)
    # predict's neighbor query checks K against the training size
    if not 0 <= args.residual_knn <= config.k:
        raise ConfigurationError(f"--residual-knn must lie in [0, K={config.k}], got {args.residual_knn}")

    # the file reads beta, well_posed, the member rows and the training
    # rows' residuals at target: both fits skip cond_wls2 and the K-wide
    # fitted values, residuals and fit summaries
    preds, result = predict(train, config, test.lat, test.lon, test.x, keep="estimate")
    # a well-posed solve whose beta0 + beta1 * x overflowed
    overflow = result.fit.well_posed & ~np.isfinite(preds)
    columns = [np.arange(test.n), *(getattr(test, name) for name in DATASET_COLUMNS),
               preds, ~result.fit.well_posed, overflow]
    header = ["index", *DATASET_COLUMNS, "prediction", "ill_posed", "overflow"]
    if args.residual_knn > 0:
        members = result.neighborhood.member_indices
        # the correction reads the residuals of these training rows only
        read = np.unique(members[:, :args.residual_knn])
        training_residuals = np.full(train.n, math.nan)
        training_residuals[read] = fit_rows(train, config, read, keep="estimate").residual_at_target
        # extreme residuals overflow the mean as extreme cells do the fit
        with np.errstate(all="ignore"):
            corr = residual_knn_correct(training_residuals, members, args.residual_knn)
            columns += [corr, preds + corr]
        header += ["residual_correction", "prediction_corrected"]
    _write_csv([args.out], SCHEMA_PREDICTIONS, header, [columns])
    return 0


def cmd_simulate(args):
    _check_output_file("--out", args.out)
    # a bad spec, or points off the globe (near a pole), raises before anything is written
    dataset, beta1 = generate(SimSpec(**_flag_values(args, SimSpec)))
    write_dataset_csv(args.out, dataset, beta1_true=beta1)
    return 0


_EXPERIMENT_IDS = {"7.1": "e71", "7.2": "e72", "7.3": "e73", "7.4": "e74"}


def cmd_experiment(args):
    _check_output_dir("--outdir", args.outdir)
    # an unknown id or a bad seed raises before the output directory is made
    exp_id = _EXPERIMENT_IDS.get(args.id, args.id)
    report, records_by_variant = run_experiment(exp_id, base_seed=args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # simulated data has no id column; the variants' files are written together
    _annotate_and_write([outdir / f"{exp_id}_{name}.csv" for name in records_by_variant],
                        list(records_by_variant.values()), None, DEFAULT_K_MORAN,
                        DEFAULT_KAPPA_QUANTILE, DEFAULT_NEFF_FLOOR)
    _write_json(outdir / f"{exp_id}_report.json", report)

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
    p_fit.add_argument("--moran-k", type=int, default=DEFAULT_K_MORAN)
    p_fit.add_argument("--fragile-kappa-quantile", type=float, default=DEFAULT_KAPPA_QUANTILE)
    p_fit.add_argument("--fragile-neff-floor", type=float, default=DEFAULT_NEFF_FLOOR)
    _add_config_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="out-of-sample prediction")
    p_pred.add_argument("--train", required=True, type=Path)
    p_pred.add_argument("--test", required=True, type=Path)
    p_pred.add_argument("--out", required=True, type=Path)
    p_pred.add_argument("--residual-knn", type=int, default=0, help="0 = no correction")
    _add_config_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="generate a seeded synthetic dataset")
    p_sim.add_argument("--out", required=True, type=Path)
    _add_field_flags(p_sim, SimSpec)
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a mechanism experiment")
    *ids, last = _EXPERIMENT_IDS
    p_exp.add_argument("--id", required=True, help=f"{', '.join(ids)} or {last}")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--outdir", required=True, type=Path)
    p_exp.set_defaults(func=cmd_experiment)
    for p in (p_fit, p_pred, p_exp):
        p.add_argument("--threads", type=int, help="ignored: every fit runs in one thread")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
