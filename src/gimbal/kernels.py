"""The realized weight map of a stack of neighborhoods.

One composition of the orientation and weight stages, from tangent
displacements to safeguarded weights. The orientation stage is the bearing
resultant and the anisotropy ratio (both from one set of decay weights at
the nominal bandwidth), the value orientation (each forced to its isotropic
value when the configuration switches it off), the frame form q of each
displacement, and the raw weights' ESS; then the rest of the one-shot ESS
safeguard, which rescales q by the corrected bandwidth. Inputs are (C, K)
arrays, one row per neighborhood, or (K,) for a single one.

Configs that differ only in AFTER_ORIENTATION fields have equal orientation
stages, so weight_map computes the stage, q included, once per
orientation_key among the calls that share one memo. The memo pays for
itself: over e73's nine n0 configs (seed 1) fit_variants takes 38.6 ms with
it against 54.7 ms with a stage per config, faster in 20 of 20 alternating
pairs (medians, 2-vCPU Xeon).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .orientation import (OrientationResult, anisotropy_ratio, bearing_resultant, decay_weights,
                          value_orientation)
from .weights import frame_quadratic, one_shot_safeguard, raw_ess

# GimbalConfig fields that the orientation stage does not read: the
# safeguard's n0 and n_min and the local solve's gamma and eps_kappa
AFTER_ORIENTATION = ("n0", "n_min", "gamma", "eps_kappa")


def orientation_key(config):
    """The config's fields other than AFTER_ORIENTATION, as a tuple: configs
    with equal keys have equal orientation stages."""
    return tuple(getattr(config, f.name) for f in fields(config) if f.name not in AFTER_ORIENTATION)


def orientation_stage(east, north, distances, z, y, config):
    """Orientation of each neighborhood, the frame form of its displacements
    and its raw weights' ESS.

    Returns (OrientationResult, q, (n_eff_raw, raw_underflow)); see
    weights.frame_quadratic and weights.raw_ess. Diagnostics (r_phi,
    g_ident, eigenvalues) are always computed from data; the configuration's
    modes only force the realized value of the corresponding quantity.
    """
    decay = decay_weights(distances, config.h)
    phi, r_phi, phi_deact = bearing_resultant(east, north, decay, config.eps_phi)
    if config.phi_mode == "forced_zero":
        phi, phi_deact = np.zeros_like(phi), np.ones_like(phi_deact)

    theta_z, g_ident, theta_deact = value_orientation(z, y, config.eps_theta)
    if config.theta_z_mode == "off":
        theta_z, theta_deact = np.zeros_like(theta_z), np.ones_like(theta_deact)

    eta, lam_max, lam_min = anisotropy_ratio(east, north, decay, config.eps_eta, config.eta_max)
    if config.eta_mode == "forced_one":
        eta = np.ones_like(eta)

    orient = OrientationResult(
        phi=phi, r_phi=r_phi, phi_deactivated=phi_deact,
        theta_z=theta_z, g_ident=g_ident, theta_deactivated=theta_deact,
        eta=eta, lambda_max=lam_max, lambda_min=lam_min,
    )
    q = frame_quadratic(east, north, orient)
    return orient, q, raw_ess(q, config.h)


def weight_map(east, north, distances, z, y, config, shared):
    """Orientation and safeguarded weights of each neighborhood.

    Returns (OrientationResult, RealizedWeightMap). shared is a memo of
    orientation stages by orientation_key, read and filled here, for calls on
    the same neighborhoods (east, north, distances, y, and z = distances / u).
    The bandwidth correction and the fallback run on every call, on the
    stage's frame form.
    """
    key = orientation_key(config)
    if key not in shared:
        shared[key] = orientation_stage(east, north, distances, z, y, config)
    orient, q, raw = shared[key]
    return orient, one_shot_safeguard(q, config.h, config.n0, config.n_min, raw)
