"""Orchestration of the realized estimator map over many targets.

fit_variants evaluates one or more configs that share K at every target of a
dataset; fit_all is its one-config case. One neighbor query (the exact grid
query of neighborhood.knn) finds every target's KNN neighborhood first; its
read-only arrays become the neighborhood of every config's result. The query
is on the index the caller names: a fit of every row is its pool's one query
and indexes the pool for it alone; fit_rows and predict, which a caller
repeats on one pool (gimbal predict queries its training pool twice), query
Dataset.pool_index, built on the first query and kept with its grids. The
targets then run in the equal chunks of neighborhood.batches(targets, K), so
that a chunk's (C, K) arrays hold about BATCH_ELEMENTS elements whatever K,
a stage's fixed cost per call is spread over as many rows as the budget
allows, and no config pays that cost again for a short tail chunk. Each
chunk slices its rows of the query, computes the tangent displacements and
gathers the members' columns once, then for each config runs the
config-dependent stages on (C, K) arrays: orientation quantities (with
ablation overrides) and the one-shot safeguarded weight field, the
closed-form local solve, and the standardized conditioning diagnostic.
Configs that differ only in the fields read after the orientation stage
(kernels.AFTER_ORIENTATION) share one orientation stage per chunk, and with
it the raw weights' ESS, so an n0 sweep computes it once; configs of one
distance scale share the chunk's z = d / u column and the local solve's
terms that no config field moves (the products x x, x z and z z of the
design's columns and y's total sum of squares), each computed by the first
config that reads it in the same operations as alone, so sharing moves no
bit. Each config solves all of a chunk's rows in one call; the solve takes
the design [1, x, z] as its x and z columns and skips every product with the
intercept, which changes no bit. Each config's chunk is copied into its own
columnar FitResult, in input order, before the next config is computed. A
fit keeps the columns its keep level names (see FitResult). At "records" it
copies no K-wide column but the query's own member rows: the weights,
residuals and distances stay inside their chunk, and each target's residual
is read off them there. At "estimate" it computes no residual but the
target's own, no fit summary and no cond_wls2. Every stage reduces each row on
its own, so a target's values do not depend on which other targets share its
chunk or the query, on which other configs share the query or an orientation
stage, or on whether it is fitted alone or among a few selected rows
(fit_location, fit_rows): all of these agree bitwise. Each config's chunk is
copied through a field-name tuple kept per dataclass type. The chunks run in
order, in one thread, under one numpy error state that silences
floating-point warnings: an extreme input or setting shows only as the rows
it flags.

Out-of-sample prediction follows the training-pool-only protocol: neighbors
come from the training table, the distance-trend regressor is zero at the
target, and the residual-KNN correction averages the training residuals of
the first members of each prediction row, so only those training rows need
an in-sample fit (fit_rows).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache, cached_property
from typing import Optional

import numpy as np

from . import kernels, solver
from .geo import tangent_displacements
from .neighborhood import ConfigurationError, Neighborhood, PoolIndex, batches, knn
from .orientation import OrientationResult
from .solver import LocalFit, cond_wls2, fitted_values
from .weights import FALLBACK_UNDERFLOW, FALLBACK_UNIFORM, RealizedWeightMap

BRANCH_PHI_ISO = "phi_iso"
BRANCH_THETA_NONIDENT = "theta_nonident"
BRANCH_UNIFORM_FALLBACK = "uniform_fallback"
BRANCH_UNDERFLOW_FALLBACK = "underflow_fallback"
BRANCH_ILL_POSED = "ill_posed"

# A row's branch code packs its five flags into 5 bits, bit b set when the
# flag BRANCH_BITS[b] holds. BRANCH_SETS[code] is the code as a frozenset of
# names, BRANCH_STRINGS[code] as the records file writes it: the set names
# sorted and joined with ";".
BRANCH_BITS = (BRANCH_PHI_ISO, BRANCH_THETA_NONIDENT, BRANCH_UNIFORM_FALLBACK,
               BRANCH_UNDERFLOW_FALLBACK, BRANCH_ILL_POSED)
BRANCH_SETS = tuple(frozenset(name for b, name in enumerate(BRANCH_BITS) if code >> b & 1)
                    for code in range(1 << len(BRANCH_BITS)))
BRANCH_STRINGS = tuple(";".join(sorted(names)) for names in BRANCH_SETS)

_MODES = {
    "theta_z_mode": ("on", "off"),
    "phi_mode": ("on", "forced_zero"),
    "eta_mode": ("geometry", "forced_one"),
}
# the real fields that must be positive, not just nonnegative
_POSITIVE = ("h", "n0", "u")
# the keep levels of a fit, from the widest (see FitResult)
KEEP = ("all", "records", "estimate")


def check_int(name, value):
    """Raise ConfigurationError unless value is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def check_fields(obj):
    """Check each field of the dataclass obj by the type of its default, in
    field order: an int default needs an integer (check_int), a float
    default, or a None default and a value that is not None, a finite real
    number (a bool is neither). A field is named by its metadata "name",
    else by its own. Returns {name: value} of the real fields checked."""
    reals = {}
    for f in fields(obj):
        name, value = f.metadata.get("name", f.name), getattr(obj, f.name)
        if type(f.default) is int:
            check_int(name, value)
        elif type(f.default) is float or (f.default is None and value is not None):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            reals[name] = value
    return reals


@dataclass(frozen=True)
class GimbalConfig:
    k: int = field(default=50, metadata={"name": "K"})
    h: float = 3000.0
    gamma: float = 1.0
    u: Optional[float] = None  # distance-normalization scale; None -> h
    n0: float = 15.0
    n_min: float = 4.0
    eta_max: float = 50.0
    eps_phi: float = 1e-3
    eps_theta: float = 1e-8
    eps_eta: float = 1e-8
    eps_kappa: float = solver.DEFAULT_EPS_KAPPA
    theta_z_mode: str = "on"
    phi_mode: str = "on"
    eta_mode: str = "geometry"

    def __post_init__(self):
        reals = check_fields(self)
        if self.k < 1:
            raise ConfigurationError(f"K must be >= 1, got {self.k}")
        for name, value in reals.items():
            if value < 0:
                raise ConfigurationError(f"{name} must be nonnegative, got {value}")
        for name in _POSITIVE:
            if getattr(self, name) == 0:
                raise ConfigurationError(f"{name} must be positive")
        # the weight metric's scale 1 / h**2
        if self.h * self.h == 0.0 or math.isinf(1.0 / (self.h * self.h)):
            raise ConfigurationError(f"h must have a finite 1 / h**2, got {self.h}")
        if self.eta_max < 1:
            raise ConfigurationError("eta_max must be >= 1")
        for name, allowed in _MODES.items():
            if getattr(self, name) not in allowed:
                raise ConfigurationError(f"{name} must be one of {allowed}")

    @property
    def u_scale(self):
        return self.h if self.u is None else self.u


def check_coordinates(lat, lon, **columns):
    """Raise ConfigurationError naming the first bad column or row: every
    column (lat, lon and any others given) must be 1-D of lat's length,
    every value must be finite, lat in [-90, 90] and lon in [-180, 180]."""
    columns = {"lat": lat, "lon": lon, **columns}
    for name, col in columns.items():
        if col.ndim != 1:
            raise ConfigurationError(f"column {name} must be 1-D, got shape {col.shape}")
        if col.shape[0] != lat.shape[0]:
            raise ConfigurationError(f"column {name} has length {col.shape[0]}, expected {lat.shape[0]}")
    for name, col in columns.items():
        bad = np.nonzero(~np.isfinite(col))[0]
        if bad.size:
            raise ConfigurationError(f"column {name} is not finite at row {bad[0]}")
    bad = np.nonzero((lat < -90.0) | (lat > 90.0))[0]
    if bad.size:
        raise ConfigurationError(f"lat out of range [-90, 90] at row {bad[0]}")
    bad = np.nonzero((lon < -180.0) | (lon > 180.0))[0]
    if bad.size:
        raise ConfigurationError(f"lon out of range [-180, 180] at row {bad[0]}")


@dataclass(frozen=True)
class Dataset:
    """Input columns; construction checks them with check_coordinates, and
    ids (if given) for lat's length.

    lat and lon are the dataset's own read-only copies, so that pool_index
    stays the index of its columns.
    """

    lat: np.ndarray
    lon: np.ndarray
    x: np.ndarray
    y: np.ndarray
    ids: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in DATASET_COLUMNS:
            column = getattr(self, name)
            if name in ("lat", "lon"):
                column = np.array(column, dtype=np.float64, order="C")
                column.flags.writeable = False
            object.__setattr__(self, name, np.ascontiguousarray(column, dtype=np.float64))
        check_coordinates(**{name: getattr(self, name) for name in DATASET_COLUMNS})
        if self.ids is not None and len(self.ids) != self.n:
            raise ConfigurationError(f"column ids has length {len(self.ids)}, expected {self.n}")

    @property
    def n(self):
        return self.lat.shape[0]

    @cached_property
    def pool_index(self):
        """The neighborhood.PoolIndex of lat and lon, built on first use and
        kept with its grids for every later query."""
        return PoolIndex(self.lat, self.lon, kept=True)


# Dataset's numeric columns: its fields without a default (ids has one)
DATASET_COLUMNS = tuple(f.name for f in fields(Dataset) if f.default is MISSING)


@cache
def _field_names(cls):
    """The field names of a dataclass type, or None for any other type; kept
    per type, so a walk over a nested result asks each type once."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _map_columns(fn, table):
    """Apply fn to every array of a (nested) columnar dataclass, keeping the
    structure; a field that is None stays None."""
    names = _field_names(type(table))
    if names is None:
        return None if table is None else fn(table)
    return type(table)(**{name: _map_columns(fn, getattr(table, name)) for name in names})


def _columns(table):
    """The arrays of a (nested) columnar dataclass, in field order, skipping
    fields that are None, as a list."""
    names = _field_names(type(table))
    if names is None:
        return [] if table is None else [table]
    return [column for name in names for column in _columns(getattr(table, name))]


@dataclass(frozen=True)
class FitResult:
    """Columnar results of the estimator map, one row per target.

    index (-1 for an out-of-sample target), lat, lon, cond_wls2 and
    residual_at_target are (C,) arrays; neighborhood holds the K-wide
    member_indices and distances; orientation, weight_map and fit hold (C,)
    columns plus the K-wide weights and residuals, and (C, 3) coefficients.
    Ill-posed rows carry NaN coefficients and residuals. One row (record) is
    a FitResult of the same structure with scalar and (K,) fields.

    A fit's keep level (see KEEP) sets which fields it holds:
      "all"       every field;
      "records"   None for neighborhood.distances, weight_map.weights and
                  fit.residuals, the K-wide columns the records file does
                  not read;
      "estimate"  None for those and for cond_wls2, fit.rmse_local,
                  fit.r2_local and fit.r2_defined: what a prediction reads
                  (beta, well_posed, the member rows, residual_at_target).
    Every field a level holds is as in the full result, bit for bit. take
    and record pass a None field through.
    """

    index: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    neighborhood: Neighborhood
    orientation: OrientationResult
    weight_map: RealizedWeightMap
    fit: LocalFit
    cond_wls2: np.ndarray
    residual_at_target: np.ndarray

    def __len__(self):
        return self.index.shape[0]

    def take(self, rows):
        """The selected rows (an index array, slice or mask) as a FitResult."""
        return _map_columns(lambda column: column[rows], self)

    def record(self, i):
        """Row i as a FitResult of scalars and (K,) arrays."""
        return _map_columns(lambda column: column[i].copy(), self)


def branch_bits(result):
    """The 5-bit branch code of each row of a FitResult (see BRANCH_BITS): a
    (C,) uint8 array for a table, a 0-d one for a row from record."""
    wmap = result.weight_map
    # in BRANCH_BITS order
    flags = (result.orientation.phi_deactivated, result.orientation.theta_deactivated,
             wmap.fallback_code == FALLBACK_UNIFORM, wmap.fallback_code == FALLBACK_UNDERFLOW,
             ~result.fit.well_posed)
    code = np.zeros(np.shape(flags[0]), dtype=np.uint8)
    for b, flag in enumerate(flags):
        code |= np.asarray(flag, dtype=np.uint8) << b
    return code


def branch_codes(result):
    """The branch codes of each row of a FitResult (a table, or one row from
    record), as a list of frozensets."""
    return [BRANCH_SETS[code] for code in branch_bits(result).reshape(-1).tolist()]


def standardized_covariate(x):
    """Population-moment standardization used only for the condWLS2 diagnostic.

    A constant column standardizes to zeros (rank-1 Gram, huge finite kappa).
    """
    x = np.asarray(x, dtype=np.float64)
    std = np.std(x)
    if std == 0.0:
        return np.zeros_like(x)
    return (x - np.mean(x)) / std


def _fit_targets(dataset, configs, x_std, lat0, lon0, index, members, distances, keep):
    """The estimator map of each config at targets (lat0, lon0), whose
    neighbors in dataset are the (C, K) rows members and distances; yields
    one FitResult per config, in order, with no neighborhood (the caller
    holds the query's) and the fields of keep (see FitResult). The residual
    at each target is computed from the target's own member column alone.

    The tangent displacements and the members' gathered columns are computed
    once and serve every config, and so does each orientation stage: configs
    that differ only in kernels.AFTER_ORIENTATION fields share one, and so
    does each distance scale's z = d / u. In a call of more than one config,
    the configs of a scale share one memo of the local solve's terms that no
    config field moves (solver.solve_local); a one-config call keeps none.
    The memos live in this call's frame, so no two chunks share them. x_std
    is the dataset's standardized covariate (None at "estimate", which reads
    none). index holds each target's row in dataset, or -1 for an
    out-of-sample target.
    """
    estimate = keep == "estimate"
    east, north = tangent_displacements(lat0, lon0, dataset.lat[members], dataset.lon[members])
    x_loc, y_loc = dataset.x[members], dataset.y[members]
    xs_loc = None if estimate else x_std[members]
    # each in-sample target's own column of its row, if it is a member
    at_target = members == index[:, None]
    own = (np.arange(index.shape[0]), np.argmax(at_target, axis=-1))
    has_own = at_target.any(axis=-1)
    stages, zs = {}, {}
    # configs of one distance scale share its z column and, in a call of more
    # than one config, the solve's terms memo. Both halves are measured (2-vCPU
    # Xeon): the memo makes nine-config solves faster in 290 of 300 pairs and,
    # without it, perfbench experiment_sweep is slower in 14 of 18 alternating
    # pairs; a lone config reuses nothing, and keeping no memo saves it 0.45 ms
    # per 686-row fit_large chunk, in 399 of 400 calls
    for config in configs:
        if config.u_scale not in zs:
            zs[config.u_scale] = (distances / config.u_scale, {} if len(configs) > 1 else None)
        z, terms = zs[config.u_scale]
        orient, wmap = kernels.weight_map(east, north, distances, z, y_loc, config, stages)
        fit = solver.solve_local((None, x_loc, z), y_loc, wmap.weights, config.gamma, config.eps_kappa,
                                 terms, summaries=not estimate)
        cond = None if estimate else cond_wls2(xs_loc, wmap.weights, config.eps_kappa)
        residual_at_target = np.where(
            has_own, y_loc[own] - fitted_values((None, x_loc[own], z[own]), fit.beta), np.nan)
        if keep != "all":
            wmap, fit = replace(wmap, weights=None), replace(fit, residuals=None)
        yield FitResult(
            index=index, lat=lat0, lon=lon0, neighborhood=None, orientation=orient,
            weight_map=wmap, fit=fit, cond_wls2=cond, residual_at_target=residual_at_target,
        )


def _fit_chunks(dataset, pool_index, configs, lat0, lon0, index, keep):
    """_fit_targets over the chunks of neighborhood.batches(targets, K): one
    FitResult per config, each joined in order.

    One neighbor query, knn on pool_index (an index of the dataset's
    coordinates), covers every target before the chunks run; each chunk
    slices its rows. The query's arrays are marked read-only and become the
    neighborhood of every config's result, shared, not copied; below "all"
    a result keeps only its member rows. Result columns are allocated for
    the fields a chunk's results hold, so a fit allocates no column its
    keep level drops.
    """
    if keep not in KEEP:
        raise ConfigurationError(f"keep must be one of {KEEP}, got {keep!r}")
    configs = tuple(configs)
    if not configs:
        raise ConfigurationError("at least one config is required")
    ks = sorted({config.k for config in configs})
    if len(ks) > 1:
        raise ConfigurationError(f"configs must share K, got K in {ks}")
    members, distances = knn(pool_index, lat0, lon0, ks[0])
    members.flags.writeable = distances.flags.writeable = False
    n = index.shape[0]
    results = [None] * len(configs)
    # each result's arrays, in _columns order
    result_columns = [None] * len(configs)
    # accepted extreme cells and settings (an x of 1e160, gamma = 1e308, a
    # subnormal n0) overflow on purpose; the rows they reach are flagged, so
    # numpy's floating-point warnings would only repeat the flags
    with np.errstate(all="ignore"):
        x_std = None if keep == "estimate" else standardized_covariate(dataset.x)
        # an empty target list still makes one (empty) chunk; each config's
        # part is copied into place before the next is computed
        for rows in batches(n, ks[0]):
            parts = _fit_targets(dataset, configs, x_std, lat0[rows], lon0[rows], index[rows],
                                 members[rows], distances[rows], keep)
            for c, part in enumerate(parts):
                if results[c] is None:
                    results[c] = _map_columns(lambda col: np.empty((n,) + col.shape[1:], col.dtype), part)
                    result_columns[c] = _columns(results[c])
                for column, values in zip(result_columns[c], _columns(part)):
                    column[rows] = values
    nb = Neighborhood(member_indices=members, distances=distances if keep == "all" else None)
    return [replace(result, neighborhood=nb) for result in results]


def fit_rows(dataset, config, rows, keep="all"):
    """The estimator map at the selected in-sample rows (an index array), as
    a FitResult in the order of rows. Each row is bitwise its row of fit_all:
    a target's values do not depend on which other targets are fitted with
    it, and the standardized covariate still reads the whole of dataset.x.
    keep as for fit_variants."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ConfigurationError(f"rows must be a 1-D index array, got {rows.dtype} of shape {rows.shape}")
    if rows.size and not (rows.min() >= 0 and rows.max() < dataset.n):
        raise ConfigurationError(f"rows must lie in [0, {dataset.n - 1}]")
    rows = rows.astype(np.intp)
    return _fit_chunks(dataset, dataset.pool_index, (config,), dataset.lat[rows], dataset.lon[rows], rows, keep)[0]


def fit_location(dataset, config, target_index):
    """Full realized estimator map at one in-sample target, as a one-row
    FitResult (see FitResult.record): the one-row case of fit_rows."""
    return fit_rows(dataset, config, [target_index]).record(0)


def fit_variants(dataset, configs, keep="all"):
    """The estimator map of each config at every row: one FitResult per
    config, in the configs' order, each in input order.

    The configs must share k: the neighbor query and each chunk's tangent
    displacements and gathered member columns serve every config, each
    chunk's orientation stage serves every config of one
    kernels.orientation_key, and only the rest of the weight map, the local
    solve and the diagnostics run once per config. Every result's neighborhood
    is the same read-only pair of arrays.
    keep: the fields each result holds, one of KEEP (see FitResult).
    "all" (the full FitResult) keeps everything; "records" drops the K-wide
    weights, residuals and distances after each chunk; "estimate" also
    skips cond_wls2 and the local fit summaries (fit.rmse_local,
    fit.r2_local, fit.r2_defined), which are never computed. No level
    changes a field it keeps.
    """
    return _fit_chunks(dataset, PoolIndex(dataset.lat, dataset.lon), configs, dataset.lat, dataset.lon,
                       np.arange(dataset.n), keep)


def fit_all(dataset, config, keep="all"):
    """The estimator map at every row, as a FitResult in input order: the
    one-config case of fit_variants."""
    return fit_variants(dataset, (config,), keep)[0]


def predict(train, config, lats, lons, x, keep="all"):
    """Out-of-sample predictions at target points.

    Neighbors come from the training pool only; the distance-trend regressor
    is evaluated as zero at the target, so the prediction is
    beta0 + beta1 * x. Returns (predictions, FitResult); a prediction is NaN
    where the local solve is ill-posed. The targets are checked as a
    Dataset's rows are (check_coordinates). keep as for fit_variants.
    """
    lats, lons, x = (np.asarray(c, dtype=np.float64) for c in (lats, lons, x))
    check_coordinates(lats, lons, x=x)
    result = _fit_chunks(train, train.pool_index, (config,), lats, lons, np.full(lats.shape[0], -1), keep)[0]
    beta = result.fit.beta
    # an extreme x overflows here as it does in the fit; see _fit_chunks
    with np.errstate(all="ignore"):
        return beta[:, 0] + beta[:, 1] * x, result


def residual_knn_correct(training_residuals, members, k_resid):
    """Unweighted mean of the k_resid nearest training residuals at each
    target: the first k_resid columns of a prediction's (distance,
    index)-ordered neighborhood.member_indices. Makes no neighbor query."""
    check_int("k_resid", k_resid)
    if not 1 <= k_resid <= members.shape[1]:
        raise ConfigurationError(f"k_resid={k_resid} outside [1, K={members.shape[1]}]")
    return np.mean(np.asarray(training_residuals, dtype=np.float64)[members[:, :k_resid]], axis=-1)
