import math

import numpy as np
import pytest

from gimbal.geo import (
    EARTH_RADIUS_M,
    haversine_between,
    haversine_table,
    haversine_to_all,
    meters_to_geo_arrays,
    rotation_matrix,
    tangent_displacements,
)
from scalar_geo import (
    Displacement,
    GeoPoint,
    bearing,
    haversine_distance,
    meters_to_geo,
    tangent_displacement,
)


def spherical_law_of_cosines(a, b):
    """Independent great-circle oracle."""
    lat1, lon1, lat2, lon2 = map(math.radians, [a[0], a[1], b[0], b[1]])
    c = (
        math.sin(lat1) * math.sin(lat2)
        + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    )
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, c)))


def test_haversine_identity():
    p = GeoPoint(12.5, -33.25)
    assert haversine_distance(p, p) == 0.0


def test_haversine_symmetry_and_nonnegativity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
        d_ab = haversine_distance(a, b)
        d_ba = haversine_distance(b, a)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(d_ba, rel=0, abs=1e-9)


def test_haversine_against_law_of_cosines_oracle():
    a = GeoPoint(0.0, 0.0)
    b = GeoPoint(0.0, 1.0)
    d = haversine_distance(a, b)
    assert d == pytest.approx(spherical_law_of_cosines(a, b), rel=1e-6)
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179))
        b = GeoPoint(a.lat + rng.uniform(0.01, 5), a.lon + rng.uniform(0.01, 5))
        assert haversine_distance(a, b) == pytest.approx(
            spherical_law_of_cosines(a, b), rel=1e-6
        )


def test_haversine_to_all_matches_scalar():
    rng = np.random.default_rng(3)
    lats = rng.uniform(-60, 60, 50)
    lons = rng.uniform(-179, 179, 50)
    d = haversine_to_all(lats, lons, 10.0, 20.0)
    for i in range(50):
        assert d[i] == pytest.approx(
            haversine_distance(GeoPoint(10.0, 20.0), GeoPoint(lats[i], lons[i])),
            rel=0, abs=1e-6,
        )


def test_tangent_displacement_identity_and_due_north():
    origin = GeoPoint(45.0, 7.0)
    assert tangent_displacement(origin, origin) == (0.0, 0.0)
    d = tangent_displacement(origin, GeoPoint(45.01, 7.0))
    assert d.east == 0.0
    assert d.north > 0.0


def test_tangent_displacement_agrees_with_haversine_under_10km():
    rng = np.random.default_rng(4)
    for _ in range(200):
        lat0 = rng.uniform(-60, 60)
        lon0 = rng.uniform(-179, 179)
        # offsets below ~10 km
        dlat = rng.uniform(-0.05, 0.05)
        dlon = rng.uniform(-0.05, 0.05) / max(0.2, math.cos(math.radians(lat0)))
        origin = GeoPoint(lat0, lon0)
        target = GeoPoint(lat0 + dlat, lon0 + dlon)
        d_h = haversine_distance(origin, target)
        if d_h < 1.0 or d_h > 10_000.0:
            continue
        e, n = tangent_displacement(origin, target)
        assert math.hypot(e, n) == pytest.approx(d_h, rel=0.01)


def test_bearing_reference_axes():
    assert bearing(Displacement(1.0, 0.0)) == 0.0
    assert bearing(Displacement(0.0, 1.0)) == pytest.approx(math.pi / 2)
    assert bearing(Displacement(-1.0, -1.0)) == pytest.approx(-3 * math.pi / 4)


def test_bearing_zero_displacement_rejected():
    with pytest.raises(ValueError):
        bearing(Displacement(0.0, 0.0))


def test_rotation_matrix_properties():
    assert np.allclose(rotation_matrix(0.0), np.eye(2))
    rng = np.random.default_rng(5)
    for alpha in rng.uniform(-10, 10, 1000):
        r = rotation_matrix(alpha)
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rotation_matrix(math.pi / 2) @ np.array([1.0, 0.0]),
                       np.array([0.0, 1.0]), atol=1e-12)
    assert np.allclose(rotation_matrix(0.3) @ rotation_matrix(-0.3), np.eye(2), atol=1e-12)


def test_meters_to_geo_inverts_tangent_displacement():
    origin = GeoPoint(35.0, 135.0)
    assert meters_to_geo(origin, Displacement(0.0, 0.0)) == origin
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = Displacement(rng.uniform(-50_000, 50_000), rng.uniform(-50_000, 50_000))
        p = meters_to_geo(origin, d)
        back = tangent_displacement(origin, p)
        assert back.east == pytest.approx(d.east, abs=1e-6)
        assert back.north == pytest.approx(d.north, abs=1e-6)


def test_meters_to_geo_one_degree_north():
    p = meters_to_geo(GeoPoint(0.0, 0.0), Displacement(0.0, 111_194.9))
    assert p.lat == pytest.approx(1.0, abs=1e-3)
    assert p.lon == 0.0


def test_meters_to_geo_wraps_only_past_the_antimeridian():
    east = np.array([-20_000.0, 0.0, 20_000.0])
    step = east / (EARTH_RADIUS_M * math.cos(math.radians(35.0))) / (math.pi / 180.0)
    for lon0, past in ((179.99, 2), (-179.99, 0)):
        lat, lon = meters_to_geo_arrays(35.0, lon0, east, np.zeros(3))
        naive = lon0 + step
        inside = [i for i in range(3) if i != past]
        assert np.array_equal(lon[inside], naive[inside])  # in range: as computed
        assert lon[past] == naive[past] - math.copysign(360.0, lon0)
        assert -180.0 <= lon[past] <= 180.0
        e2, _ = tangent_displacements(35.0, lon0, lat, lon)
        assert np.allclose(e2, east, atol=1e-6)


def test_array_roundtrip_matches_scalar():
    east = np.array([1000.0, -2500.0])
    north = np.array([-300.0, 4200.0])
    lat, lon = meters_to_geo_arrays(35.0, 135.0, east, north)
    e2, n2 = tangent_displacements(35.0, 135.0, lat, lon)
    assert np.allclose(e2, east, atol=1e-6)
    assert np.allclose(n2, north, atol=1e-6)


def inline_haversine(lats, lons, lat0, lon0):
    """The haversine written out in one expression, as the package computed
    it before its per-point terms became a table."""
    deg = math.pi / 180.0
    phi, lam = np.asarray(lats, dtype=np.float64) * deg, np.asarray(lons, dtype=np.float64) * deg
    phi0, lam0 = lat0 * deg, lon0 * deg
    s = np.sin((phi - phi0) / 2.0) ** 2 + np.cos(phi0) * np.cos(phi) * np.sin((lam - lam0) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def test_haversine_table_split_equals_the_inline_formula_bitwise():
    # random pairs over the whole sphere, near pairs, antipodes and poles:
    # gathered table rows give the inline expression's bits, from (C, 1)
    # origins and from a scalar one
    rng = np.random.default_rng(31)
    n = 4000
    lats = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    lons = rng.uniform(-180.0, 180.0, n)
    lats[:40], lons[:40] = 90.0 * np.sign(rng.normal(size=40)), rng.uniform(-180.0, 180.0, 40)
    lat0 = np.concatenate([lats[:1000] + rng.normal(0.0, 1e-4, 1000), -lats[1000:2000],
                           np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 2000)))])
    lon0 = np.concatenate([lons[:1000] + rng.normal(0.0, 1e-4, 1000), lons[1000:2000] + 180.0,
                           rng.uniform(-180.0, 180.0, 2000)])
    lat0 = np.clip(lat0, -90.0, 90.0)
    members = rng.integers(0, n, (n, 7))
    expected = inline_haversine(lats[members], lons[members], lat0[:, None], lon0[:, None])
    got = haversine_between(np.take(haversine_table(lats, lons), members, axis=1),
                            haversine_table(lat0, lon0)[:, :, None])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(haversine_to_all(lats[members], lons[members], lat0[:, None], lon0[:, None])
                          .view(np.int64), expected.view(np.int64))
    one = haversine_to_all(lats, lons, float(lat0[5]), float(lon0[5]))
    assert np.array_equal(one.view(np.int64), inline_haversine(lats, lons, float(lat0[5]), float(lon0[5]))
                          .view(np.int64))
