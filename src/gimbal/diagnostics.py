"""Post-estimation diagnostics, deliberately outside the estimator map.

Local Moran values use a fixed row-standardized KNN adjacency that never
depends on the regression weights, so they measure remaining spatial
structure rather than echoing the weighting scheme. Values are reported raw
and are not bounded to [-1, 1] under this convention.

local_moran finds the adjacency with its own KNN query. local_moran_of_rows
reads it off neighbor rows already at hand (a fit's K-nearest rows): drop
the target itself and every point without a finite residual from the row,
then take the first k_moran points left. Any point outside the row is
farther, or equally far with a larger index, so these are exactly the
k_moran nearest finite points that the query would return, and the values
agree bitwise. Only rows left with fewer than k_moran points are queried.
That adjacency is moran_adjacency; it depends on the rows, the set of finite
residuals and k_moran only, so residual columns that share all three (the
variants of an experiment) can share one.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import CHUNK_TARGETS
from .neighborhood import ConfigurationError, knn

DEFAULT_K_MORAN = 8
# reliability_mask defaults: kappa above its 95% quantile is fragile; no ESS floor
DEFAULT_KAPPA_QUANTILE = 0.95
DEFAULT_NEFF_FLOOR = 0.0


def _standardized(residuals):
    """Residuals minus their mean over their standard deviation, or None when
    that deviation is zero."""
    std = float(np.std(residuals))
    if std == 0.0:
        return None
    return (residuals - np.mean(residuals)) / std


def _lisa(z, adjacency):
    """Local Moran's I of each row of z: z_i times the mean z of its (n, k) adjacency row."""
    return z * np.mean(z[adjacency], axis=-1)


def local_moran(residuals, lats, lons, k_moran=DEFAULT_K_MORAN):
    """Local Moran's I of standardized residuals under KNN adjacency.

    Returns (values, defined). With zero residual variance the statistic is
    undefined; all values are 0 and defined is False.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    n = residuals.shape[0]
    z = _standardized(residuals)
    if z is None:
        return np.zeros(n), False
    members, _ = knn(lats, lons, lats, lons, k_moran, exclude=np.arange(n))
    return _lisa(z, members), True


def moran_adjacency(finite, lats, lons, members, k_moran=DEFAULT_K_MORAN):
    """The adjacency step of local_moran_of_rows: each point where the (n,)
    mask finite holds gets its k_moran nearest other such points, read off
    its row of members (see the module docstring), as positions in
    np.flatnonzero(finite). Returns an (n_finite, k_moran) array."""
    if k_moran < 1:
        raise ConfigurationError(f"k_moran must be >= 1, got {k_moran}")
    subset = np.flatnonzero(finite)
    # each point's position in the finite subset, -1 for the others
    position = np.full(finite.shape[0], -1)
    position[subset] = np.arange(subset.size)
    adjacency = np.empty((subset.size, k_moran), dtype=np.intp)
    short = np.zeros(subset.size, dtype=bool)
    for start in range(0, subset.size, CHUNK_TARGETS):
        rows = np.arange(start, min(start + CHUNK_TARGETS, subset.size))
        row = position[members[subset[rows]]]
        kept = (row >= 0) & (row != rows[:, None])
        # a stable sort brings each row's kept points to its front, in row order
        order = np.argsort(~kept, axis=-1, kind="stable")[:, :k_moran]
        adjacency[rows, :order.shape[1]] = np.take_along_axis(row, order, axis=-1)
        short[rows] = np.count_nonzero(kept, axis=-1) < k_moran
    short = np.flatnonzero(short)
    if short.size:
        lats, lons = np.asarray(lats)[subset], np.asarray(lons)[subset]
        adjacency[short], _ = knn(lats, lons, lats[short], lons[short], k_moran, exclude=short)
    return adjacency


def local_moran_of_rows(residuals, lats, lons, members, k_moran=DEFAULT_K_MORAN, adjacency=None):
    """local_moran over the points with a finite residual, its adjacency read
    off neighbor rows (see the module docstring).

    members[i] holds point i's nearest points of the same table in ascending
    (distance, index) order, as fit_all(...).neighborhood.member_indices does.
    adjacency, if given, must be moran_adjacency(np.isfinite(residuals), lats,
    lons, members, k_moran), which a caller holds already; it is computed
    here otherwise, and only when the statistic is defined. Returns (values,
    defined); values are NaN where the residual is not finite and equal
    local_moran on the finite points elsewhere.
    """
    if k_moran < 1:
        raise ConfigurationError(f"k_moran must be >= 1, got {k_moran}")
    residuals = np.asarray(residuals, dtype=np.float64)
    finite = np.isfinite(residuals)
    values = np.full(residuals.shape[0], math.nan)
    z = _standardized(residuals[finite])
    if z is None:
        values[finite] = 0.0
        return values, False
    if adjacency is None:
        adjacency = moran_adjacency(finite, lats, lons, members, k_moran)
    values[finite] = _lisa(z, adjacency)
    return values, True


def reliability_mask(result, kappa_quantile=DEFAULT_KAPPA_QUANTILE, neff_floor=DEFAULT_NEFF_FLOOR):
    """Boolean fragility flags per location of a FitResult.

    Fragile when the realized normal-matrix condition number exceeds the
    empirical kappa_quantile, when the post-correction ESS falls below
    neff_floor, or when the solve is ill-posed.
    """
    fit = result.fit
    kappas = fit.m_nor_condition[fit.well_posed]
    threshold = float(np.quantile(kappas, kappa_quantile)) if kappas.size else math.inf
    return (~fit.well_posed | (fit.m_nor_condition > threshold)
            | (result.weight_map.n_eff_post < neff_floor))
