"""Scalar reference geometry for the tests: one point pair at a time.

The package computes distances and displacements on arrays (``gimbal.geo``);
these plain-math versions check it and serve as brute-force oracles.
nearest_others, the neighbor oracle of local Moran, sorts whole rows of
haversine_to_all's distances instead, which are the package's bit for bit,
so that it orders exact ties as the package sees them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from gimbal.geo import EARTH_RADIUS_M

_DEG = math.pi / 180.0


class GeoPoint(NamedTuple):
    lat: float
    lon: float


class Displacement(NamedTuple):
    east: float
    north: float


def haversine_distance(a, b):
    """Great-circle distance in meters between two (lat, lon) points.

    Like the package, it differences the coordinates after converting them to
    radians; below ~1e-7 deg that rounding, not the formula, sets the order.
    """
    lat1, lon1 = a
    lat2, lon2 = b
    phi1 = lat1 * _DEG
    phi2 = lat2 * _DEG
    dphi = phi2 - phi1
    dlam = lon2 * _DEG - lon1 * _DEG
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def haversine_to_all(lats, lons, lat0, lon0):
    """Haversine distances (meters) from origins to every row of lats/lons:
    (N,) from a scalar origin, (C, N) from (C, 1) origin arrays. The formula
    as one numpy expression, written apart from the package's table of
    per-point terms and in-place op sequence: their bits must equal these."""
    phi, lam = np.asarray(lats, dtype=np.float64) * _DEG, np.asarray(lons, dtype=np.float64) * _DEG
    phi0, lam0 = np.asarray(lat0, dtype=np.float64) * _DEG, np.asarray(lon0, dtype=np.float64) * _DEG
    s = np.sin((phi - phi0) / 2.0) ** 2 + np.cos(phi0) * np.cos(phi) * np.sin((lam - lam0) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def tangent_displacement(origin, target):
    """East-North displacement (meters) from origin to target.

    Equirectangular approximation with cos(lat) taken at the origin, so all
    neighbors of one target share the same longitude scaling.
    """
    lat0, lon0 = origin
    lat, lon = target
    east = EARTH_RADIUS_M * math.cos(lat0 * _DEG) * (lon - lon0) * _DEG
    north = EARTH_RADIUS_M * (lat - lat0) * _DEG
    return Displacement(east, north)


def bearing(delta):
    """Bearing angle in radians from the East axis, range (-pi, pi].

    Undefined for the zero displacement; callers must drop self pairs.
    """
    east, north = delta
    if east == 0.0 and north == 0.0:
        raise ValueError("bearing is undefined for a zero displacement")
    return math.atan2(north, east)


def meters_to_geo(origin, delta):
    """Inverse of tangent_displacement about the same origin."""
    lat0, lon0 = origin
    east, north = delta
    lat = lat0 + north / EARTH_RADIUS_M / _DEG
    lon = lon0 + east / (EARTH_RADIUS_M * math.cos(lat0 * _DEG)) / _DEG
    return GeoPoint(lat, lon)


def nearest_others(lats, lons, rows, k):
    """The k nearest points other than each point of rows, by a full sort of
    its haversine distances to every point with ties broken by index:
    (len(rows), k) indices."""
    lats, lons = np.asarray(lats, dtype=np.float64), np.asarray(lons, dtype=np.float64)
    index = np.arange(lats.shape[0])
    out = []
    for i in rows:
        order = np.lexsort((index, haversine_to_all(lats, lons, lats[i], lons[i])))
        out.append(order[order != i][:k])
    return np.array(out, dtype=np.intp).reshape(len(out), k)
