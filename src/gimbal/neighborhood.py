"""Deterministic K-nearest-neighbor rule over haversine distance.

One exact batched query serves every caller (fit, prediction, residual
correction, local Moran). It ranks on (distance, original index) using the
very distances its scan computed, so ties always break toward the smaller
index and the neighborhood is a pure function of the input table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import haversine_to_all

# Distances held per block of targets. The cap keeps peak memory at the level
# of a one-target-at-a-time scan: a larger block measurably raises peak RSS.
BLOCK_DISTANCES = 1 << 15


class ConfigurationError(ValueError):
    """Raised when a requested configuration cannot be satisfied by the data."""


@dataclass(frozen=True)
class Neighborhood:
    """One target's neighbors, or a stack of them ((C,) target indices and
    (C, K) members); the target index is -1 out of sample."""

    target_index: int
    member_indices: np.ndarray
    distances: np.ndarray


def knn(lats, lons, target_lats, target_lons, k, exclude=None):
    """The k nearest points to each target by haversine distance.

    Returns (members, distances), (C, K) arrays in ascending (distance, index)
    order. exclude[i], when given, is removed from target i's candidate pool.
    Each block of targets finds its k-th distance, gathers every point at or
    inside it (boundary ties included) and sorts those on (distance, index).
    """
    lats, lons, target_lats, target_lons = (
        np.asarray(a, dtype=np.float64) for a in (lats, lons, target_lats, target_lons))
    eligible = lats.shape[0] - (exclude is not None)
    if k < 1 or k > eligible:
        raise ConfigurationError(f"K={k} outside the eligible range [1, {eligible}]")

    members = np.empty((target_lats.shape[0], k), dtype=np.intp)
    distances = np.empty(members.shape, dtype=np.float64)
    step = max(1, BLOCK_DISTANCES // lats.shape[0])
    for start in range(0, members.shape[0], step):
        rows = slice(start, start + step)
        d = haversine_to_all(lats, lons, target_lats[rows, None], target_lons[rows, None])
        if exclude is not None:
            d[np.arange(d.shape[0]), exclude[rows]] = np.inf
        kth = np.partition(d, k - 1, axis=-1)[:, k - 1:k]
        # rows with fewer boundary ties than the block's most gather extra points
        width = int(np.max(np.sum(d <= kth, axis=-1)))
        cand = np.argpartition(d, width - 1, axis=-1)[:, :width]
        cand_d = np.take_along_axis(d, cand, axis=-1)
        order = np.lexsort((cand, cand_d))[:, :k]
        members[rows] = np.take_along_axis(cand, order, axis=-1)
        distances[rows] = np.take_along_axis(cand_d, order, axis=-1)
    return members, distances
