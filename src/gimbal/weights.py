"""Directional weight field: frame form, raw weights, ESS safeguard.

The metric is M = Q diag(1, eta^-2) Q^T / h^2 with Q = R(phi) R(theta_z),
and the weights are evaluated in the frame Q defines: with (u, v) = Q^T Delta,
Delta^T M Delta = q / h^2 where q = u^2 + v^2 / eta^2 (frame_quadratic). q
reads no bandwidth, so one q per neighborhood serves every bandwidth. Raw
weights exp(-q / h^2) are normalized and checked for effective sample size
(raw_ess: it reads no n0 or n_min, so configs that differ only there can
share it), corrected once via h_eff = h * sqrt(n0 / n_eff_raw) (only the
diagonal scaling changes: the weights become exp(-q / h_eff^2), with Q and
eta as they were), and replaced by uniform weights when the corrected ESS
still falls below n_min. The correction is one-shot by construction; it is
never iterated.

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
    weights is None in a fit below keep="all" (see engine.FitResult), and
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
            raise ValueError("n_eff_final requires weights, which a fit below keep=\"all\" drops")
        return ess(self.weights)


def frame_quadratic(east, north, orient):
    """q = u^2 + v^2 / eta^2 of each displacement, whose weight at bandwidth
    b is exp(-q / b^2): (u, v) = Q^T Delta are its coordinates in the frame
    Q = R(phi) R(theta_z) = R(phi + theta_z), so q / b^2 = Delta^T M Delta."""
    alpha = np.asarray(orient.phi + orient.theta_z)[..., None]
    ca, sa = np.cos(alpha), np.sin(alpha)
    u = ca * east + sa * north
    v = (ca * north - sa * east) / np.asarray(orient.eta)[..., None]
    return u * u + v * v


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


def raw_ess(q, h):
    """The safeguard's first step, which reads neither n0 nor n_min: the ESS
    of the raw weights exp(-q / h^2) at the nominal bandwidth h (q from
    frame_quadratic), and where their sum underflowed to 0 (the ESS is 0
    there). Returns (n_eff_raw, underflow)."""
    _, n_eff_raw, underflow = _normalized(np.exp(-q / (h * h)))
    return np.where(underflow, 0.0, n_eff_raw), underflow


def one_shot_safeguard(q, h, n0, n_min, raw):
    """Raw weights, single ESS bandwidth correction, uniform fallback.

    q is frame_quadratic's form of each displacement and raw is raw_ess(q, h);
    the corrected weights are exp(-q / h_eff^2). When every raw weight
    underflows, h_eff cannot be formed: it is NaN, n_eff_raw is 0, and the
    weights fall back to uniform, as they do when the corrected weights
    underflow.
    """
    n = q.shape[-1]
    n_eff_raw, raw_underflow = raw
    # unconditional one-shot correction: shrinks as well as inflates
    with np.errstate(divide="ignore"):
        h_eff = np.where(raw_underflow, np.nan, h * np.sqrt(n0 / n_eff_raw))
    w1_tilde, n_eff_post, post_underflow = _normalized(np.exp(-q / (h_eff * h_eff)[..., None]))
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
