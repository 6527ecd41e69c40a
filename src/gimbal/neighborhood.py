"""Deterministic K-nearest-neighbor rule over haversine distance.

Brute force on purpose: distances to all points, then a stable sort on
(distance, original index). Ties always break toward the smaller original
index, so the neighborhood is a pure function of the input table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import haversine_to_all


class ConfigurationError(ValueError):
    """Raised when a requested configuration cannot be satisfied by the data."""


@dataclass(frozen=True)
class Neighborhood:
    """One target's neighbors (target_index None out of sample), or a stack of
    them ((C,) target indices, -1 out of sample, and (C, K) members)."""

    target_index: int | None
    member_indices: np.ndarray
    distances: np.ndarray
    self_included: bool


def knn(lats, lons, target_lat, target_lon, k, exclude_index=None, target_index=None):
    """K nearest points to (target_lat, target_lon) by haversine distance.

    exclude_index removes one point from the candidate pool (never a member).
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    n = lats.shape[0]
    dists = haversine_to_all(lats, lons, float(target_lat), float(target_lon))

    candidates = np.arange(n)
    if exclude_index is not None:
        candidates = candidates[candidates != exclude_index]
    if k < 1 or k > candidates.shape[0]:
        raise ConfigurationError(
            f"K={k} outside the eligible range [1, {candidates.shape[0]}] "
            f"for target index {target_index}"
        )

    # stable sort on distance keeps ascending original index within ties
    order = np.argsort(dists[candidates], kind="stable")
    members = candidates[order[:k]]
    member_dists = dists[members]

    self_included = bool(
        target_index is not None and np.any(members == target_index)
    )
    return Neighborhood(
        target_index=target_index,
        member_indices=members,
        distances=member_dists,
        self_included=self_included,
    )
