"""Mechanism experiments: map-level summaries, weight-field differences, and
the four seeded experiments (isotropy sanity, geometric anisotropy
activation, one-shot ESS stress sweep, value-orientation dependence).

Each experiment states its simulation spec, base config, named variants and
checks; run_experiment is the one pipeline that runs them. It generates ONE
dataset and evaluates all of the variants on it, which is what makes the
per-target weight-difference evidence meaningful. The variants of an
experiment share K, so they are fitted together by one engine.fit_variants
call: one neighbor query serves every target and variant, and only the
weight map and local solve run once per variant. Reported table values in
the source material are seed-dependent; the checks test structural
properties (monotonicity, branch rates, no-harm bounds) rather than exact
numbers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .engine import ConfigurationError, GimbalConfig, fit_variants
from .simgen import SimSpec, generate

E73_N0_SWEEP = (6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0, 75.0, 100.0)
STRICT_EPS_PHI = 0.30


@dataclass(frozen=True)
class MapSummary:
    n_targets: int
    n_ill_posed: int
    mu_rmse: float
    sd_rmse: float
    mu_r2: float
    sd_r2: float
    mu_kappa: float
    sd_kappa: float
    p50_kappa: float
    p95_kappa: float
    p99_kappa: float
    mu_neff_raw: float
    sd_neff_raw: float
    mu_neff_post: float
    sd_neff_post: float
    mu_eta: float
    sd_eta: float
    mu_rphi: float
    sd_rphi: float
    mu_gident: float
    sd_gident: float
    mu_theta: float
    sd_theta: float
    pr_phi_zero: float
    pr_theta_zero: float
    pr_uniform: float
    n_uniform: int


@dataclass(frozen=True)
class WeightDiffSummary:
    mu_l1: float
    sd_l1: float
    mu_corr: float
    sd_corr: float
    n_corr_defined: int


def _mu_sd(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(np.mean(arr)), float(np.std(arr))


def summarize(result):
    """Map-level summary across the target locations of a FitResult.

    Branch rates are computed over all targets; moment summaries exclude
    ill-posed locations (their count is reported). Percentiles use linear
    interpolation between order statistics.
    """
    n_targets = len(result)
    if n_targets == 0:
        raise ValueError("summarize requires at least one record")
    fit, orient, wmap = result.fit, result.orientation, result.weight_map
    well = fit.well_posed
    n_ill = n_targets - int(np.count_nonzero(well))
    if n_ill == n_targets:
        raise ValueError("summarize requires at least one well-posed record")

    p50, p95, p99 = np.percentile(fit.m_nor_condition[well], [50, 95, 99])
    n_uniform = int(np.count_nonzero(wmap.fallback_uniform))
    moments = {}
    for name, column in (
        ("rmse", fit.rmse_local), ("r2", fit.r2_local), ("kappa", fit.m_nor_condition),
        ("neff_raw", wmap.n_eff_raw), ("neff_post", wmap.n_eff_post), ("eta", orient.eta),
        ("rphi", orient.r_phi), ("gident", orient.g_ident), ("theta", orient.theta_z),
    ):
        moments[f"mu_{name}"], moments[f"sd_{name}"] = _mu_sd(column[well])

    return MapSummary(
        n_targets=n_targets,
        n_ill_posed=n_ill,
        p50_kappa=float(p50),
        p95_kappa=float(p95),
        p99_kappa=float(p99),
        pr_phi_zero=int(np.count_nonzero(orient.phi_deactivated)) / n_targets,
        pr_theta_zero=int(np.count_nonzero(orient.theta_deactivated)) / n_targets,
        pr_uniform=n_uniform / n_targets,
        n_uniform=n_uniform,
        **moments,
    )


def weight_diff(result_a, result_b):
    """Per-target l1 distance and correlation of normalized weight vectors.

    Both runs must share targets and neighborhoods (same data and K), and
    both must hold their weights (a keep="all" fit). Correlation is skipped
    wherever either weight vector is constant.
    """
    for name, result in (("result_a", result_a), ("result_b", result_b)):
        if result.weight_map.weights is None:
            raise ValueError(f"weight_diff requires weight_map.weights, which {name} does not "
                             'hold: fit it with keep="all"')
    if len(result_a) != len(result_b):
        raise ValueError("weight_diff requires runs over the same targets")
    members_a = result_a.neighborhood.member_indices
    members_b = result_b.neighborhood.member_indices
    if members_a.shape != members_b.shape:
        raise ValueError(
            f"neighborhood mismatch: the runs have K={members_a.shape[-1]} and K={members_b.shape[-1]}")
    mismatch = (result_a.index != result_b.index) | np.any(members_a != members_b, axis=-1)
    if mismatch.any():
        raise ValueError(f"neighborhood mismatch at target {result_a.index[np.argmax(mismatch)]}")
    wa = result_a.weight_map.weights
    wb = result_b.weight_map.weights
    l1 = np.sum(np.abs(wa - wb), axis=-1)
    # exact constancy test; the spread of a constant vector is not exactly 0
    varying = (np.min(wa, axis=-1) < np.max(wa, axis=-1)) & (np.min(wb, axis=-1) < np.max(wb, axis=-1))
    da = wa[varying] - np.mean(wa[varying], axis=-1, keepdims=True)
    db = wb[varying] - np.mean(wb[varying], axis=-1, keepdims=True)
    corr = np.sum(da * db, axis=-1) / np.sqrt(np.sum(da * da, axis=-1) * np.sum(db * db, axis=-1))
    mu_l1, sd_l1 = _mu_sd(l1)
    if corr.size:
        mu_corr, sd_corr = _mu_sd(corr)
    else:
        mu_corr, sd_corr = math.nan, math.nan
    return WeightDiffSummary(
        mu_l1=mu_l1, sd_l1=sd_l1, mu_corr=mu_corr, sd_corr=sd_corr,
        n_corr_defined=int(corr.size),
    )


# common configuration of the simulation chapter; the stress experiments use
# denser sampling regions so their smaller bandwidth still sees neighbors
_BASE_CONFIG = GimbalConfig()
_BASE_SPEC = SimSpec(extent=40_000.0)
_E73_EXTENT = 25_000.0
_E74_EXTENT = 14_000.0

_PROXY = dict(phi_mode="forced_zero", theta_z_mode="off", eta_mode="forced_one")


def run_experiment(exp_id, base_seed=0):
    """Run one of the four mechanism experiments: generate its dataset, fit
    every variant with one fit_variants call, summarize each and check the
    experiment's structural properties. Each experiment (_e71 ... _e74) is a
    function of the seed returning its SimSpec, base config, named variants,
    keep (as for fit_variants) and check(records, summaries) -> (properties,
    extra report entries).

    Returns (report, records_by_variant) where the report carries the config,
    per-variant MapSummary values, weight-difference evidence where defined,
    and one verdict per structural property. The records of e72 and e74,
    which weight_diff reads, keep every field ("all"); those of e71 and e73
    keep what the records file reads ("records", see engine.FitResult).
    """
    experiments = {"e71": _e71, "e72": _e72, "e73": _e73, "e74": _e74}
    if exp_id not in experiments:
        raise ConfigurationError(f"unknown experiment id {exp_id!r}; expected one of {sorted(experiments)}")
    spec, base, variants, keep, check = experiments[exp_id](base_seed)
    dataset, _ = generate(spec)
    records = dict(zip(variants, fit_variants(dataset, variants.values(), keep)))
    summaries = {name: summarize(result) for name, result in records.items()}
    properties, extra = check(records, summaries)
    report = {
        "schema": "gimbal.experiment-report.v2",
        "experiment": exp_id,
        "seed": base_seed,
        "sim_spec": asdict(spec),
        "base_config": asdict(base),
        "summaries": {name: asdict(s) for name, s in summaries.items()},
        "properties": properties,
        **extra,
    }
    return report, records


def _verdict(value, test):
    return {"pass": bool(test(value)), "value": value}


def _below(value, bound):
    return _verdict(value, lambda v: v < bound)


def _above(value, bound):
    return _verdict(value, lambda v: v > bound)


def _equal(value, target):
    return _verdict(value, lambda v: v == target)


def _e71(seed):
    """Isotropy sanity check: four variants on one undeformed dataset."""
    def check(records, summaries):
        proxy = summaries["isotropic_proxy"]
        properties = {}
        for name in ("theta_off", "full", "full_strict_eps_phi"):
            s = summaries[name]
            properties[f"no_harm_rmse_{name}"] = _below(abs(s.mu_rmse - proxy.mu_rmse), 0.01)
            properties[f"no_harm_kappa_{name}"] = _below(
                abs(s.mu_kappa - proxy.mu_kappa) / proxy.mu_kappa, 0.05)
        properties["theta_branch_full_active"] = _equal(summaries["full"].pr_theta_zero, 0.0)
        properties["theta_branch_proxy_forced"] = _equal(proxy.pr_theta_zero, 1.0)
        # the strict threshold re-run changes the phi branch but, since r_phi is
        # data-determined, the re-solved flag rate equals the flag-only rate
        full = records["full"]
        flag_only = int(np.count_nonzero(full.orientation.r_phi <= STRICT_EPS_PHI)) / len(full)
        return properties, {"strict_eps_phi": {
            "threshold": STRICT_EPS_PHI,
            "resolved_pr_phi_zero": summaries["full_strict_eps_phi"].pr_phi_zero,
            "flag_only_pr_phi_zero": flag_only,
        }}

    spec = replace(_BASE_SPEC, rho=1.0, psi=0.0, c_rad=0.0, seed=seed)
    return spec, _BASE_CONFIG, {
        "isotropic_proxy": replace(_BASE_CONFIG, **_PROXY),
        "theta_off": replace(_BASE_CONFIG, theta_z_mode="off"),
        "full": _BASE_CONFIG,
        "full_strict_eps_phi": replace(_BASE_CONFIG, eps_phi=STRICT_EPS_PHI),
    }, "records", check


def _e72(seed):
    """Geometric anisotropy activation under rho=10, psi=pi/4."""
    def check(records, summaries):
        diff = weight_diff(records["full"], records["isotropic_proxy"])
        return {
            "proxy_eta_exactly_one": _equal(summaries["isotropic_proxy"].mu_eta, 1.0),
            "gr_eta_activated": _above(summaries["full"].mu_eta, 2.5),
            "weight_l1_visible": _above(diff.mu_l1, 0.2),
            "weight_corr_below_one": _below(diff.mu_corr, 0.99),
        }, {"weight_diff": asdict(diff)}

    spec = replace(_BASE_SPEC, rho=10.0, psi=math.pi / 4.0, c_rad=0.0, seed=seed)
    return spec, _BASE_CONFIG, {
        "isotropic_proxy": replace(_BASE_CONFIG, **_PROXY),
        "full": _BASE_CONFIG,
    }, "all", check


def _e73(seed):
    """One-shot ESS stress: sweep the target level n0 on one dataset."""
    def check(records, summaries):
        sweep = [summaries[f"n0_{n0:g}"] for n0 in E73_N0_SWEEP]
        return {
            "neff_post_nondecreasing": _verdict(
                [s.mu_neff_post for s in sweep], lambda v: all(b >= a for a, b in zip(v, v[1:]))),
            "pr_uniform_nonincreasing": _verdict(
                [s.pr_uniform for s in sweep], lambda v: all(b <= a for a, b in zip(v, v[1:]))),
            # constant at 3-decimal resolution: spread below half a unit in the
            # third decimal (round-equality alone is fragile at a rounding edge)
            "rmse_constant_3dp": _verdict([s.mu_rmse for s in sweep], lambda v: max(v) - min(v) < 5e-4),
        }, {}

    spec = replace(
        _BASE_SPEC, sampling="gaussian", extent=_E73_EXTENT,
        rho=10.0, psi=math.pi / 4.0, c_rad=0.0, seed=seed,
    )
    base = replace(_BASE_CONFIG, k=30, h=2000.0, n_min=12.0)
    return spec, base, {f"n0_{n0:g}": replace(base, n0=n0) for n0 in E73_N0_SWEEP}, "records", check


def _e74(seed):
    """Value-orientation dependence under a radial response trend."""
    def check(records, summaries):
        on, off = summaries["theta_on"], summaries["theta_off"]
        diff = weight_diff(records["theta_on"], records["theta_off"])
        return {
            "theta_active_under_on": _equal(on.pr_theta_zero, 0.0),
            "theta_forced_under_off": _equal(off.pr_theta_zero, 1.0),
            "weight_l1_visible": _above(diff.mu_l1, 0.05),
            "rmse_unchanged": _below(abs(on.mu_rmse - off.mu_rmse), 0.005),
        }, {"weight_diff": asdict(diff)}

    spec = replace(
        _BASE_SPEC, extent=_E74_EXTENT,
        rho=10.0, psi=math.pi / 4.0, c_rad=8.0, delta_beta=0.0, seed=seed,
    )
    base = replace(_BASE_CONFIG, k=30, h=2000.0, n0=20.0, n_min=4.0)
    return spec, base, {"theta_on": base, "theta_off": replace(base, theta_z_mode="off")}, "all", check
