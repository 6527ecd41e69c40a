"""Scalar reference geometry for the tests: one point pair at a time.

The package computes distances and displacements on arrays (``gimbal.geo``);
these plain-math versions check it and serve as brute-force oracles.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
