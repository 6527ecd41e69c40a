"""Fixed geometric conventions shared by every stage of the estimator.

All distance math in the package goes through this module so that a single
Earth radius and a single tangent-plane convention apply everywhere:

* great-circle distances use the haversine formula on a sphere of radius
  ``EARTH_RADIUS_M``;
* tangent-plane displacements use the equirectangular approximation anchored
  at the *origin* point (``cos`` of the origin latitude scales longitude),
  with longitude differences taken the short way round the globe;
* bearings are measured from the East axis, counterclockwise, via
  ``atan2(north, east)``, matching the planar rotation convention below.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

_DEG = math.pi / 180.0


def haversine_table(lats, lons):
    """The haversine's per-point terms: a (3, ...) stack of each point's
    latitude and longitude in radians and the cosine of its latitude, so
    that a point gathered many times pays for them once."""
    phi = np.asarray(lats, dtype=np.float64) * _DEG
    return np.stack([phi, np.asarray(lons, dtype=np.float64) * _DEG, np.cos(phi)])


def haversine_between(points, origins):
    """Haversine distances (meters) between points and origins, each given
    by its haversine_table terms; the two broadcast against each other.
    Computed in place on two temporaries of the result's shape, in the op
    order of 2 R arcsin(min(1, sqrt(sin((phi - phi0) / 2)**2
    + cos_phi0 * cos_phi * sin((lam - lam0) / 2)**2))), bit for bit."""
    phi, lam, cos_phi = points
    phi0, lam0, cos_phi0 = origins
    t = np.subtract(lam, lam0)
    np.divide(t, 2.0, out=t)
    np.sin(t, out=t)
    np.square(t, out=t)
    s = np.multiply(cos_phi0, cos_phi)
    np.multiply(s, t, out=s)
    np.subtract(phi, phi0, out=t)
    np.divide(t, 2.0, out=t)
    np.sin(t, out=t)
    np.square(t, out=t)
    np.add(t, s, out=t)
    np.sqrt(t, out=t)
    np.minimum(t, 1.0, out=t)
    np.arcsin(t, out=t)
    return np.multiply(t, 2.0 * EARTH_RADIUS_M, out=t)


def unit_vectors(lats, lons):
    """(N, 3) points on the unit sphere; the dot product of two rows is the
    cosine of their central angle, which orders pairs as haversine does."""
    phi = np.asarray(lats, dtype=np.float64) * _DEG
    lam = np.asarray(lons, dtype=np.float64) * _DEG
    cos_phi = np.cos(phi)
    return np.stack([cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)], axis=-1)


def tangent_displacements(lat0, lon0, lats, lons):
    """East-North displacements (meters) from origins to points.

    The origin is a scalar pair with (K,) points, or (C,) arrays with (C, K)
    points, one row per origin. Longitude differences are wrapped into
    (-180, 180], so a neighborhood that straddles the antimeridian keeps its
    shape; a difference already in that range is used as is.
    """
    lat0 = np.asarray(lat0, dtype=np.float64)[..., None]
    lon0 = np.asarray(lon0, dtype=np.float64)[..., None]
    dlon = np.asarray(lons, dtype=np.float64) - lon0
    dlon = np.where(dlon > 180.0, dlon - 360.0, np.where(dlon <= -180.0, dlon + 360.0, dlon))
    east = EARTH_RADIUS_M * np.cos(lat0 * _DEG) * dlon * _DEG
    north = EARTH_RADIUS_M * (np.asarray(lats, dtype=np.float64) - lat0) * _DEG
    return east, north


def rotation_matrix(alpha):
    """Anticlockwise planar rotation [[cos, -sin], [sin, cos]]."""
    c = math.cos(alpha)
    s = math.sin(alpha)
    return np.array([[c, -s], [s, c]])


def meters_to_geo_arrays(lat0, lon0, east, north):
    """Degrees of the points at East-North offsets (meters) from one origin;
    the inverse of tangent_displacements about that origin. A longitude past
    the antimeridian is shifted by 360 degrees into [-180, 180]; one already
    in range is returned as computed."""
    east = np.asarray(east, dtype=np.float64)
    north = np.asarray(north, dtype=np.float64)
    lat = lat0 + north / EARTH_RADIUS_M / _DEG
    lon = lon0 + east / (EARTH_RADIUS_M * math.cos(lat0 * _DEG)) / _DEG
    lon = np.where(lon > 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))
    return lat, lon
