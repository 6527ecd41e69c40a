"""The realized weight map of a stack of neighborhoods.

One composition of the orientation and weight stages, from tangent
displacements to safeguarded weights: the bearing resultant, the value
orientation and the anisotropy ratio (each forced to its isotropic value when
the configuration switches it off), then the one-shot ESS safeguard. Inputs
are (C, K) arrays, one row per neighborhood, or (K,) for a single one.
"""

from __future__ import annotations

import numpy as np

from .orientation import OrientationResult, anisotropy_ratio, bearing_resultant, value_orientation
from .weights import one_shot_safeguard


def weight_map(east, north, distances, z, y, config):
    """Orientation and safeguarded weights of each neighborhood.

    Returns (OrientationResult, RealizedWeightMap). Diagnostics (r_phi,
    g_ident, eigenvalues) are always computed from data; the configuration's
    modes only force the realized value of the corresponding quantity.
    """
    phi, r_phi, phi_deact = bearing_resultant(east, north, distances, config.h, config.eps_phi)
    if config.phi_mode == "forced_zero":
        phi, phi_deact = np.zeros_like(phi), np.ones_like(phi_deact)

    theta_z, g_ident, theta_deact = value_orientation(z, y, config.eps_theta)
    if config.theta_z_mode == "off":
        theta_z, theta_deact = np.zeros_like(theta_z), np.ones_like(theta_deact)

    eta, lam_max, lam_min = anisotropy_ratio(
        east, north, distances, config.h, config.eps_eta, config.eta_max
    )
    if config.eta_mode == "forced_one":
        eta = np.ones_like(eta)

    orient = OrientationResult(
        phi=phi, r_phi=r_phi, phi_deactivated=phi_deact,
        theta_z=theta_z, g_ident=g_ident, theta_deactivated=theta_deact,
        eta=eta, lambda_max=lam_max, lambda_min=lam_min,
    )
    return orient, one_shot_safeguard(east, north, orient, config.h, config.n0, config.n_min)
