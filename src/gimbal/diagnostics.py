"""Post-estimation diagnostics, deliberately outside the estimator map.

Local Moran values use a fixed row-standardized KNN adjacency that never
depends on the regression weights, so they measure remaining spatial
structure rather than echoing the weighting scheme. Values are reported raw
and are not bounded to [-1, 1] under this convention.
"""

from __future__ import annotations

import math

import numpy as np

from .neighborhood import knn

DEFAULT_K_MORAN = 8
# reliability_mask defaults: kappa above its 95% quantile is fragile; no ESS floor
DEFAULT_KAPPA_QUANTILE = 0.95
DEFAULT_NEFF_FLOOR = 0.0


def local_moran(residuals, lats, lons, k_moran=DEFAULT_K_MORAN):
    """Local Moran's I of standardized residuals under KNN adjacency.

    Returns (values, defined). With zero residual variance the statistic is
    undefined; all values are 0 and defined is False.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    n = residuals.shape[0]
    std = float(np.std(residuals))
    if std == 0.0:
        return np.zeros(n), False
    z = (residuals - np.mean(residuals)) / std
    members, _ = knn(lats, lons, lats, lons, k_moran, exclude=np.arange(n))
    return z * np.mean(z[members], axis=-1), True


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
