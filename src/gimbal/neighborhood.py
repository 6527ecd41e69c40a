"""Deterministic K-nearest-neighbor rule over haversine distance.

One exact batched query serves every caller (fit, prediction, local Moran).
A cheap key, the cosine of the central angle, picks the candidates; the final
rank is on (haversine distance, original index), so ties always break toward
the smaller index and the neighborhood is a pure function of the input table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import haversine_to_all, unit_vectors

# Cosine keys held per block of targets. The cap keeps peak memory at the
# level of a one-target-at-a-time scan: a larger block measurably raises peak
# RSS.
BLOCK_DISTANCES = 1 << 15

# Cosine slack of the candidate gather. With u = 2**-53, the key (a dot
# product of unit vectors built from rounded sin/cos, |sum of terms| <= 1) is
# within ~20u ~ 2.2e-15 of the true cosine at any separation. The haversine
# distance d, read as cos(d / R) = 1 - 2s, is within ~34u ~ 3.8e-15 of it:
# s, a sum of two nonnegative rounded products, is off by at most ~12u, and
# sqrt, arcsin and the scaling add ~10u. The bound is in cosine units, so it
# holds where the angle itself is ill-conditioned: below ~0.2 m (~3e-8 rad)
# key rounding exceeds 1 - cos, so keys cannot order a sub-millimetre cluster,
# and near the antipode arcsin's slope turns the same s error into up to
# ~1e-7 rad. A point the exact sort ranks ahead of one of the k largest keys
# therefore has a key within 2 * (2.2e-15 + 3.8e-15) ~ 1.2e-14 of the k-th
# key; the margin covers that about eighty-fold. (Largest errors seen over
# 4e5 random pairs, antipodal and sub-millimetre ones included: 4u for the
# key, 10u for the haversine.)
MARGIN = 1e-12


class ConfigurationError(ValueError):
    """A configuration or input the data cannot satisfy; the CLI exits 2 on it."""


@dataclass(frozen=True)
class Neighborhood:
    """One target's neighbors as (K,) arrays, or a stack of them as (C, K)."""

    member_indices: np.ndarray
    distances: np.ndarray


def knn(lats, lons, target_lats, target_lons, k, exclude=None):
    """The k nearest points to each target by haversine distance.

    Returns (members, distances), (C, K) arrays in ascending (distance, index)
    order. exclude[i], when given, is removed from target i's candidate pool.
    Each block of targets ranks every point by the cosine of its central angle
    (one matmul of unit vectors), gathers every point whose cosine is within
    MARGIN of the k-th largest (boundary ties and near-ties included), and
    sorts only those on (haversine distance, index).
    """
    lats, lons, target_lats, target_lons = (
        np.asarray(a, dtype=np.float64) for a in (lats, lons, target_lats, target_lons))
    n = lats.shape[0]
    eligible = n - (exclude is not None)
    if k < 1 or k > eligible:
        raise ConfigurationError(f"K={k} outside the eligible range [1, {eligible}]")

    pool = unit_vectors(lats, lons).T
    targets = unit_vectors(target_lats, target_lons)
    members = np.empty((target_lats.shape[0], k), dtype=np.intp)
    distances = np.empty(members.shape, dtype=np.float64)
    step = max(1, BLOCK_DISTANCES // n)
    for start in range(0, members.shape[0], step):
        rows = slice(start, start + step)
        cos = targets[rows] @ pool
        if exclude is not None:
            cos[np.arange(cos.shape[0]), exclude[rows]] = -np.inf
        kth = np.partition(cos, n - k, axis=-1)[:, n - k:n - k + 1]
        # rows with fewer near-ties than the block's most gather extra points
        width = int(np.max(np.sum(cos >= kth - MARGIN, axis=-1)))
        cand = np.argpartition(cos, n - width, axis=-1)[:, n - width:]
        cand_d = haversine_to_all(lats[cand], lons[cand],
                                  target_lats[rows, None], target_lons[rows, None])
        order = np.lexsort((cand, cand_d))[:, :k]
        members[rows] = np.take_along_axis(cand, order, axis=-1)
        distances[rows] = np.take_along_axis(cand_d, order, axis=-1)
    return members, distances
