"""Realized orientation quantities of neighborhoods.

Three deterministic summaries feed the directional metric:

* ``bearing_resultant``: distance-decayed circular mean of neighbor bearings
  and its normalized magnitude; below the isotropy threshold the direction is
  declared non-identifiable and forced to zero.
* ``value_orientation``: half-angle of atan2(Var(y) - Var(z), 2 Cov(z, y))
  over (normalized distance, response) pairs, with an identifiability score
  that deterministically selects the zero branch when the second-moment
  structure is flat.
* ``anisotropy_ratio``: square-rooted eigenvalue ratio of the decay-weighted
  displacement second-moment matrix, floored and clipped to [1, eta_max].

Every function reduces over the last axis: a (K,) input is one neighborhood
and gives scalars, a (C, K) input is C neighborhoods and gives (C,) arrays.
Each row's result depends on that row alone. All moments are population
moments (divide by K). Decay weights always use the nominal bandwidth h,
never the ESS-corrected one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OrientationResult:
    """Orientation of one neighborhood (scalars) or of a stack ((C,) arrays)."""

    phi: float
    r_phi: float
    phi_deactivated: bool
    theta_z: float
    g_ident: float
    theta_deactivated: bool
    eta: float
    lambda_max: float
    lambda_min: float


def sym2_eigvals(sxx, sxy, syy):
    """Eigenvalues (max, min) of [[sxx, sxy], [sxy, syy]] in closed form."""
    half_tr = 0.5 * (sxx + syy)
    rad = np.sqrt(np.maximum(0.0, (0.5 * (sxx - syy)) ** 2 + sxy * sxy))
    return half_tr + rad, half_tr - rad


def decay_weights(distances, h):
    """Distance-decay weights exp(-d^2 / h^2) at the nominal bandwidth."""
    d = np.asarray(distances, dtype=np.float64)
    return np.exp(-(d * d) / (h * h))


def bearing_resultant(east, north, decay, eps_phi):
    """Dominant bearing direction with isotropy deactivation, from the
    neighbors' decay_weights.

    Returns (phi, r_phi, deactivated). Zero displacements (the target itself,
    coincident points) have no bearing and are left out; a neighborhood with
    no other point, or whose decay weights all underflow, is isotropic.
    """
    east = np.asarray(east, dtype=np.float64)
    north = np.asarray(north, dtype=np.float64)
    th = np.arctan2(north, east)
    om = np.where((east != 0.0) | (north != 0.0), decay, 0.0)
    wsum = np.sum(om, axis=-1)
    c = np.sum(om * np.cos(th), axis=-1)
    s = np.sum(om * np.sin(th), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_phi = np.where(wsum > 0.0, np.sqrt(c * c + s * s) / wsum, 0.0)
    deactivated = (wsum <= 0.0) | (r_phi <= eps_phi)
    return np.where(deactivated, 0.0, np.arctan2(s, c)), r_phi, deactivated


def value_orientation(z, y, eps_theta):
    """Value-based orientation with the identifiability rule.

    Returns (theta_z, g_ident, deactivated) from population second moments of
    the (z, y) pairs.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = z.shape[-1]
    zc = z - np.mean(z, axis=-1, keepdims=True)
    yc = y - np.mean(y, axis=-1, keepdims=True)
    var_z = np.sum(zc * zc, axis=-1) / n
    var_y = np.sum(yc * yc, axis=-1) / n
    cov = np.sum(zc * yc, axis=-1) / n
    diff = var_y - var_z
    g_ident = np.abs(diff) + np.abs(2.0 * cov)
    deactivated = g_ident <= eps_theta
    return np.where(deactivated, 0.0, 0.5 * np.arctan2(diff, 2.0 * cov)), g_ident, deactivated


def anisotropy_ratio(east, north, decay, eps_eta, eta_max):
    """Clipped anisotropy ratio from the displacement second moments weighted
    by the neighbors' decay_weights.

    Returns (eta, lambda_max, lambda_min) where the lambdas are the raw
    (unfloored) eigenvalues of the weighted second-moment matrix. When every
    decay weight underflows, eta is 1 and both lambdas are 0.
    """
    east = np.asarray(east, dtype=np.float64)
    north = np.asarray(north, dtype=np.float64)
    wsum = np.sum(decay, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        om_t = decay / wsum[..., None]
        sxx = np.sum(om_t * east * east, axis=-1)
        sxy = np.sum(om_t * east * north, axis=-1)
        syy = np.sum(om_t * north * north, axis=-1)
        lam_max, lam_min = sym2_eigvals(sxx, sxy, syy)
        eta = np.clip(np.sqrt(np.maximum(0.0, lam_max) / np.maximum(lam_min, eps_eta)), 1.0, eta_max)
    defined = wsum > 0.0
    return (np.where(defined, eta, 1.0), np.where(defined, lam_max, 0.0),
            np.where(defined, lam_min, 0.0))
