"""Seeded data-generating processes for the mechanism experiments.

Locations are drawn in a local East-North meter plane, optionally deformed by
the rotate-stretch-rotate-back map T(rho, psi) = R(-psi) diag(rho, 1) R(psi)
about the sample mean, then converted to degrees around a reference point.
The response is y = beta1(lat) * x + c_rad * r / (mean(r) + 1e-12) + noise,
where r is the planar distance to the sample centroid in meters.

Reproducibility: one 64-bit seed spawns three independent substreams
(locations, covariates, noise) via numpy SeedSequence, so ablation variants
that share a SimSpec share the identical dataset bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ConfigurationError, Dataset, check_fields
from .geo import meters_to_geo_arrays, rotation_matrix, tangent_displacements

_SAMPLING = ("uniform", "gaussian")


@dataclass(frozen=True)
class SimSpec:
    n: int = 1200
    lat0: float = 35.0
    lon0: float = 135.0
    extent: float = 40_000.0  # half-width of the sampling region in meters
    sampling: str = "uniform"
    rho: float = 1.0
    psi: float = 0.0
    delta_beta: float = 0.5
    sigma: float = 1.0
    c_rad: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.rho < 1.0:
            raise ConfigurationError(f"rho must be >= 1, got {self.rho}")
        if self.sigma < 0.0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")
        if self.extent <= 0.0:
            raise ConfigurationError(f"extent must be positive, got {self.extent}")
        if self.sampling not in _SAMPLING:
            raise ConfigurationError(f"sampling must be one of {_SAMPLING}, got {self.sampling!r}")


def deformation_matrix(rho, psi):
    """Rotate-stretch-rotate-back deformation T(rho, psi); det T = rho."""
    return rotation_matrix(-psi) @ np.diag([rho, 1.0]) @ rotation_matrix(psi)


def _streams(seed):
    loc_ss, cov_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(loc_ss),
        np.random.default_rng(cov_ss),
        np.random.default_rng(noise_ss),
    )


def _sample_plane(spec, rng):
    """Deformed East-North coordinates (n x 2)."""
    if spec.sampling == "uniform":
        u = rng.uniform(-spec.extent, spec.extent, size=(spec.n, 2))
    else:
        u = rng.normal(0.0, spec.extent / 2.0, size=(spec.n, 2))
    mean = u.mean(axis=0)
    return (u - mean) @ deformation_matrix(spec.rho, spec.psi).T + mean


def sample_locations(spec, rng=None):
    """Seeded planar sampling + deformation + conversion to degrees."""
    if rng is None:
        rng = _streams(spec.seed)[0]
    east, north = _sample_plane(spec, rng).T
    lats, lons = meters_to_geo_arrays(spec.lat0, spec.lon0, east, north)
    return lats, lons


def beta_surface(lats, delta_beta):
    """Smooth coefficient surface along latitude, 1 at the mean latitude."""
    lats = np.asarray(lats, dtype=np.float64)
    mean = np.mean(lats)
    span = np.max(lats) - np.min(lats) + 1e-12
    return 1.0 + delta_beta * (lats - mean) / span


def gen_response(lats, lons, x, spec, rng=None):
    """Response with coefficient surface, optional radial trend, and noise."""
    if rng is None:
        rng = _streams(spec.seed)[2]
    lats = np.asarray(lats, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    beta1 = beta_surface(lats, spec.delta_beta)
    y = beta1 * x
    if spec.c_rad != 0.0:
        east, north = tangent_displacements(spec.lat0, spec.lon0, lats, lons)
        east = east - np.mean(east)
        north = north - np.mean(north)
        r = np.sqrt(east * east + north * north)
        y = y + spec.c_rad * r / (np.mean(r) + 1e-12)
    if spec.sigma > 0.0:
        y = y + rng.normal(0.0, spec.sigma, size=lats.shape[0])
    return y


def generate(spec):
    """Full seeded dataset; returns (Dataset, true beta1 array).

    Raises ConfigurationError when a point falls off the globe (a latitude
    past a pole), naming its row.
    """
    loc_rng, cov_rng, noise_rng = _streams(spec.seed)
    lats, lons = sample_locations(spec, loc_rng)
    x = cov_rng.standard_normal(spec.n)
    y = gen_response(lats, lons, x, spec, noise_rng)
    return Dataset(lat=lats, lon=lons, x=x, y=y), beta_surface(lats, spec.delta_beta)
