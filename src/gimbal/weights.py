"""Directional weight field: metric construction, raw weights, ESS safeguard.

The metric is M = Q diag(1, eta^-2) Q^T / h^2 with Q = R(phi) R(theta_z).
Raw weights exp(-Delta^T M Delta) are normalized and checked for effective
sample size (raw_ess: it reads no n0 or n_min, so configs that differ only
there can share it), corrected once via h_eff = h * sqrt(n0 / n_eff_raw)
(rebuilding only the diagonal scaling, never Q or eta), and replaced by
uniform weights when the corrected ESS still falls below n_min. The
correction is one-shot by construction; it is never iterated.

``n_eff_post`` always reports the ESS of the *recomputed candidate* weights,
i.e. the quantity the fallback rule tests. The ESS of the final weight vector
(which is n_i on the uniform branch) is exposed separately.

Like the orientation stage, every function works on one neighborhood ((K,)
displacements) or on a stack of them ((C, K), reduced over the last axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FALLBACK_NONE = 0
FALLBACK_UNIFORM = 1
FALLBACK_UNDERFLOW = 2


@dataclass(frozen=True)
class RealizedWeightMap:
    """Safeguarded weights of one neighborhood (scalars, (K,) weights) or of
    a stack ((C,) arrays, (C, K) weights).

    n_recompute counts the weight recomputations at a corrected bandwidth:
    1, or 0 when the raw weights underflowed and h_eff could not be formed.
    weights is None in a narrow fit's result (see engine.FitResult), and
    n_eff_final, which reads them, raises ValueError there.
    """

    h_eff: float
    n_eff_raw: float
    n_eff_post: float
    fallback_code: int
    n_recompute: int
    weights: np.ndarray

    @property
    def fallback_uniform(self):
        return self.fallback_code != FALLBACK_NONE

    @property
    def n_eff_final(self):
        if self.weights is None:
            raise ValueError("n_eff_final requires weights, which a narrow fit (wide=False) drops")
        return ess(self.weights)


def metric_matrix(phi, theta_z, eta, h):
    """Weight-evaluation metric Q Lambda Q^T, shape (..., 2, 2)."""
    ca, sa = np.cos(phi), np.sin(phi)
    cb, sb = np.cos(theta_z), np.sin(theta_z)
    # Q = R(phi) R(theta_z)
    q11 = ca * cb - sa * sb
    q12 = -ca * sb - sa * cb
    q21 = sa * cb + ca * sb
    q22 = q11
    l1 = 1.0 / (h * h)
    l2 = 1.0 / (h * h * eta * eta)
    m11 = l1 * q11 * q11 + l2 * q12 * q12
    m12 = l1 * q11 * q21 + l2 * q12 * q22
    m22 = l1 * q21 * q21 + l2 * q22 * q22
    return np.stack([np.stack([m11, m12], axis=-1), np.stack([m12, m22], axis=-1)], axis=-2)


def raw_weights(east, north, metric):
    """exp(-Delta^T M Delta) for each displacement."""
    east = np.asarray(east, dtype=np.float64)
    north = np.asarray(north, dtype=np.float64)
    m = np.asarray(metric)[..., None]  # each entry broadcast over the neighborhood axis
    quad = (
        m[..., 0, 0, :] * east * east
        + 2.0 * m[..., 0, 1, :] * east * north
        + m[..., 1, 1, :] * north * north
    )
    return np.exp(-quad)


def ess(normalized_weights):
    """Effective sample size 1 / sum(w^2) of normalized weights, reduced over
    the last axis: a scalar for one vector, a (C,) array for a stack. Raises
    if any vector is all zero or does not sum to one."""
    w = np.asarray(normalized_weights, dtype=np.float64)
    total = np.atleast_1d(np.sum(w, axis=-1))
    if np.any(total == 0.0):
        raise ValueError("ESS is undefined for an all-zero weight vector")
    off = total[np.abs(total - 1.0) > 1e-9]
    if off.size:
        raise ValueError(f"weights must be normalized (sum={float(off[0])!r})")
    return 1.0 / np.sum(w * w, axis=-1)


def _normalized(w):
    """Weights over their sum, the ESS of the result, and where the sum
    underflowed to 0 (the first two are NaN there)."""
    total = np.sum(w, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_tilde = w / total
        return w_tilde, 1.0 / np.sum(w_tilde * w_tilde, axis=-1), total[..., 0] == 0.0


def raw_ess(east, north, orient, h):
    """The safeguard's first step, which reads neither n0 nor n_min: the ESS
    of the raw weights at the nominal bandwidth h, and where their sum
    underflowed to 0 (the ESS is 0 there). Returns (n_eff_raw, underflow)."""
    w_raw = raw_weights(east, north, metric_matrix(orient.phi, orient.theta_z, orient.eta, h))
    _, n_eff_raw, underflow = _normalized(w_raw)
    return np.where(underflow, 0.0, n_eff_raw), underflow


def one_shot_safeguard(east, north, orient, h, n0, n_min, raw=None):
    """Raw weights, single ESS bandwidth correction, uniform fallback.

    orient supplies phi, theta_z and eta (scalars or (C,) arrays); raw is
    raw_ess(east, north, orient, h) when the caller holds it already. When
    every raw weight underflows, h_eff cannot be formed: it is NaN, n_eff_raw
    is 0, and the weights fall back to uniform, as they do when the corrected
    weights underflow.
    """
    east = np.asarray(east, dtype=np.float64)
    north = np.asarray(north, dtype=np.float64)
    n = east.shape[-1]

    n_eff_raw, raw_underflow = raw_ess(east, north, orient, h) if raw is None else raw

    # unconditional one-shot correction: shrinks as well as inflates
    with np.errstate(divide="ignore"):
        h_eff = np.where(raw_underflow, np.nan, h * np.sqrt(n0 / n_eff_raw))
    w1 = raw_weights(east, north, metric_matrix(orient.phi, orient.theta_z, orient.eta, h_eff))
    w1_tilde, n_eff_post, post_underflow = _normalized(w1)
    underflow = raw_underflow | post_underflow

    code = np.where(underflow, FALLBACK_UNDERFLOW,
                    np.where(n_eff_post < n_min, FALLBACK_UNIFORM, FALLBACK_NONE))
    return RealizedWeightMap(
        h_eff=h_eff,
        n_eff_raw=n_eff_raw,
        n_eff_post=np.where(underflow, float(n), n_eff_post),
        fallback_code=code,
        n_recompute=np.where(raw_underflow, 0, 1),
        weights=np.where((code != FALLBACK_NONE)[..., None], 1.0 / n, w1_tilde),
    )
