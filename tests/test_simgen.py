import math
import pickle

import numpy as np
import pytest

from gimbal.geo import tangent_displacements
from gimbal.neighborhood import ConfigurationError
from gimbal.simgen import (
    SimSpec,
    beta_surface,
    deformation_matrix,
    gen_response,
    generate,
    sample_locations,
)


def test_seed_determinism_bitwise():
    spec = SimSpec(n=200, seed=99)
    a, beta_a = generate(spec)
    b, beta_b = generate(spec)
    assert pickle.dumps(a) == pickle.dumps(b)
    assert np.array_equal(beta_a, beta_b)


def test_streams_are_independent():
    # same seed, different noise scale: locations and covariates unchanged
    a, _ = generate(SimSpec(n=100, seed=5, sigma=1.0))
    b, _ = generate(SimSpec(n=100, seed=5, sigma=2.0))
    assert np.array_equal(a.lat, b.lat)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.y, b.y)


def test_deformation_identity_at_rho_one():
    assert np.allclose(deformation_matrix(1.0, 0.77), np.eye(2), atol=1e-15)
    spec_flat = SimSpec(n=150, seed=3, rho=1.0, psi=0.9)
    spec_none = SimSpec(n=150, seed=3, rho=1.0, psi=0.0)
    a, _ = generate(spec_flat)
    b, _ = generate(spec_none)
    assert np.allclose(a.lat, b.lat, atol=1e-12)
    assert np.allclose(a.lon, b.lon, atol=1e-12)


def test_deformation_determinant_is_rho():
    for rho in (1.0, 2.5, 10.0):
        for psi in (0.0, 0.3, math.pi / 4):
            assert np.linalg.det(deformation_matrix(rho, psi)) == pytest.approx(rho, rel=1e-12)


def test_axis_aligned_stretch():
    # psi = 0: east coordinates scale by rho about the mean, north unchanged
    spec = SimSpec(n=400, seed=7, rho=10.0, psi=0.0)
    base = SimSpec(n=400, seed=7, rho=1.0, psi=0.0)
    lat_s, lon_s = sample_locations(spec)
    lat_b, lon_b = sample_locations(base)
    e_s, n_s = tangent_displacements(spec.lat0, spec.lon0, lat_s, lon_s)
    e_b, n_b = tangent_displacements(spec.lat0, spec.lon0, lat_b, lon_b)
    assert np.allclose(n_s, n_b, atol=1e-6)
    assert np.allclose(e_s - e_s.mean(), 10.0 * (e_b - e_b.mean()), atol=1e-5)


def test_deformation_preserves_sample_mean():
    spec = SimSpec(n=500, seed=8, rho=10.0, psi=math.pi / 4)
    base = SimSpec(n=500, seed=8, rho=1.0)
    lat_s, lon_s = sample_locations(spec)
    lat_b, lon_b = sample_locations(base)
    e_s, n_s = tangent_displacements(spec.lat0, spec.lon0, lat_s, lon_s)
    e_b, n_b = tangent_displacements(spec.lat0, spec.lon0, lat_b, lon_b)
    assert e_s.mean() == pytest.approx(e_b.mean(), abs=1e-9)
    assert n_s.mean() == pytest.approx(n_b.mean(), abs=1e-9)


def test_deformed_major_axis_matches_stretch_eigenvector():
    # major axis of the sample covariance aligns with the rho-eigenvector of
    # T(rho, psi) within 5 degrees (modulo pi)
    psi = math.pi / 4
    spec = SimSpec(n=1200, seed=9, rho=10.0, psi=psi)
    lat, lon = sample_locations(spec)
    east, north = tangent_displacements(spec.lat0, spec.lon0, lat, lon)
    pts = np.stack([east - east.mean(), north - north.mean()])
    cov = pts @ pts.T / pts.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    major = evecs[:, np.argmax(evals)]
    t_mat = deformation_matrix(10.0, psi)
    t_evals, t_evecs = np.linalg.eigh(t_mat)
    stretch_axis = t_evecs[:, np.argmax(t_evals)]
    angle = math.acos(min(1.0, abs(float(major @ stretch_axis))))
    assert angle < math.radians(5.0)


def test_beta_surface_values():
    lats = np.array([30.0, 31.0, 32.0])
    assert np.allclose(beta_surface(lats, 0.0), 1.0)
    b = beta_surface(lats, 0.5)
    assert b[1] == pytest.approx(1.0)  # mean latitude
    assert b[0] == pytest.approx(1.0 + 0.5 * (30.0 - 31.0) / (2.0 + 1e-12))
    assert np.all(b >= 1 - 0.5) and np.all(b <= 1 + 0.5)


def test_response_noise_free_identity():
    spec = SimSpec(n=50, seed=1, sigma=0.0, c_rad=0.0, delta_beta=0.0)
    ds, beta1 = generate(spec)
    assert np.allclose(beta1, 1.0)
    assert np.allclose(ds.y, ds.x, atol=1e-12)


def test_radial_trend_zero_at_centroid():
    spec = SimSpec(n=200, seed=2, sigma=0.0, c_rad=8.0, delta_beta=0.0)
    lat, lon = sample_locations(spec)
    x = np.zeros(200)
    y = gen_response(lat, lon, x, spec)
    east, north = tangent_displacements(spec.lat0, spec.lon0, lat, lon)
    r = np.hypot(east - east.mean(), north - north.mean())
    # y is exactly the trend term here
    assert np.allclose(y, 8.0 * r / (r.mean() + 1e-12), atol=1e-9)
    assert y[np.argmin(r)] == pytest.approx(8.0 * r.min() / (r.mean() + 1e-12), abs=1e-9)


def test_noise_variance_statistical():
    spec = SimSpec(n=100_000, seed=13, sigma=1.5, c_rad=0.0, delta_beta=0.0)
    ds, _ = generate(spec)
    eps = ds.y - ds.x
    assert float(np.var(eps)) == pytest.approx(1.5**2, rel=0.02)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(n=0)
    with pytest.raises(ValueError):
        SimSpec(rho=0.5)
    with pytest.raises(ValueError):
        SimSpec(sigma=-1.0)
    with pytest.raises(ValueError):
        SimSpec(sampling="poisson")
    for extent in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match=rf"extent must be positive, got {extent}"):
            SimSpec(extent=extent)
    # every float field must be a finite real number, and the error names it
    for name, value in (("extent", math.inf), ("sigma", math.nan), ("psi", math.inf),
                        ("rho", math.nan), ("lat0", -math.inf), ("c_rad", True),
                        ("delta_beta", "0.5")):
        with pytest.raises(ValueError, match=name):
            SimSpec(**{name: value})
    # the integer fields must be integers (a bool is not), the seed nonnegative
    for name, value in (("n", 2.5), ("n", True), ("seed", -1), ("seed", 1.5)):
        with pytest.raises(ConfigurationError, match=name):
            SimSpec(**{name: value})


def test_gaussian_sampling_spread():
    spec = SimSpec(n=5000, seed=14, sampling="gaussian")
    lat, lon = sample_locations(spec)
    east, north = tangent_displacements(spec.lat0, spec.lon0, lat, lon)
    assert float(np.std(east)) == pytest.approx(spec.extent / 2.0, rel=0.05)
    assert float(np.std(north)) == pytest.approx(spec.extent / 2.0, rel=0.05)
