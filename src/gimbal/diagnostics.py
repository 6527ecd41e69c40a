"""Post-estimation diagnostics, deliberately outside the estimator map.

Local Moran values use a fixed row-standardized KNN adjacency that never
depends on the regression weights, so they measure remaining spatial
structure rather than echoing the weighting scheme. Values are reported raw
and are not bounded to [-1, 1] under this convention.

Local Moran is two steps. moran_adjacency gives each point with a finite
residual its k_moran nearest other such points, read off neighbor rows
already at hand (a fit's K-nearest rows): drop the target itself and every
point without a finite residual from the row, then take the first k_moran
points left. Any point outside the row is farther, or equally far with a
larger index, so these are exactly the k_moran nearest finite points other
than the target. Only rows left with fewer than k_moran points are queried,
for their k_moran + 1 nearest finite points less the target; where
coincident points of smaller index push the target itself out of that row,
less its last point. The rows are read in the equal batches of
neighborhood.batches over the member rows' width, as the fit's chunks are.
The adjacency depends on the rows, the set of finite residuals and k_moran
only, so residual columns that share all three (the variants of an
experiment) can share one. local_moran is the LISA step over an adjacency.
"""

from __future__ import annotations

import math

import numpy as np

from .neighborhood import ConfigurationError, PoolIndex, batches, knn

DEFAULT_K_MORAN = 8
# reliability_mask defaults: kappa above its 95% quantile is fragile; no ESS floor
DEFAULT_KAPPA_QUANTILE = 0.95
DEFAULT_NEFF_FLOOR = 0.0


def moran_adjacency(finite, lats, lons, members, k_moran=DEFAULT_K_MORAN):
    """Each point where the (n,) mask finite holds gets its k_moran nearest
    other such points in ascending (distance, index) order, as positions in
    np.flatnonzero(finite): an (n_finite, k_moran) array.

    members[i] holds point i's nearest points of the same table in ascending
    (distance, index) order, as fit_all(...).neighborhood.member_indices
    does, in any number of columns; the adjacency is read off them where
    they suffice (see the module docstring).
    """
    subset = np.flatnonzero(finite)
    if not 1 <= k_moran < subset.size:
        raise ConfigurationError(f"k_moran={k_moran} outside the eligible range "
                                 f"[1, {subset.size - 1}]: {subset.size} points are finite")
    # each point's position in the finite subset, -1 for the others
    position = np.full(finite.shape[0], -1)
    position[subset] = np.arange(subset.size)
    adjacency = np.empty((subset.size, k_moran), dtype=np.intp)
    short = np.zeros(subset.size, dtype=bool)
    # equal batches of member rows, about the batch budget each
    for batch in batches(subset.size, members.shape[1]):
        rows = np.arange(batch.start, batch.stop)
        row = position[members[subset[rows]]]
        kept = (row >= 0) & (row != rows[:, None])
        # a stable sort brings each row's kept points to its front, in row order
        order = np.argsort(~kept, axis=-1, kind="stable")[:, :k_moran]
        adjacency[rows, :order.shape[1]] = np.take_along_axis(row, order, axis=-1)
        short[rows] = np.count_nonzero(kept, axis=-1) < k_moran
    short = np.flatnonzero(short)
    if short.size:
        lats, lons = np.asarray(lats)[subset], np.asarray(lons)[subset]
        near, _ = knn(PoolIndex(lats, lons), lats[short], lons[short], k_moran + 1)
        # drop the row's own point, or its last one where coincident points
        # of smaller index leave the own point out
        own = near == short[:, None]
        own[~own.any(axis=-1), -1] = True
        adjacency[short] = near[~own].reshape(short.size, k_moran)
    return adjacency


def local_moran(residuals, adjacency):
    """Local Moran's I of the standardized finite residuals under the
    row-standardized adjacency moran_adjacency(np.isfinite(residuals), ...).

    Returns (values, defined); values are NaN where the residual is not
    finite. With zero variance among the finite residuals the statistic is
    undefined: values there are 0 and defined is False. Residuals whose
    variance overflows (|r| near 1e308) are first divided by their largest
    |r|; the statistic is scale-invariant, and a finite variance is never
    rescaled, so no other value moves.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    finite = np.isfinite(residuals)
    values = np.full(residuals.shape[0], math.nan)
    r = residuals[finite]
    # an overflow here (in the mean or the squares) leaves std inf or NaN,
    # which the rescaled residuals replace
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(r))
    if r.size and not math.isfinite(std):
        r = r / np.max(np.abs(r))
        std = float(np.std(r))
    if std == 0.0:
        values[finite] = 0.0
        return values, False
    z = (r - np.mean(r)) / std
    values[finite] = z * np.mean(z[adjacency], axis=-1)
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
