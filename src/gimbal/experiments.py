"""Mechanism experiments: map-level summaries, weight-field differences, and
the four seeded runners (isotropy sanity, geometric anisotropy activation,
one-shot ESS stress sweep, value-orientation dependence).

Each experiment generates ONE dataset and evaluates all of its variants on
it, which is what makes the per-target weight-difference evidence meaningful.
The variants of an experiment share K, so they are fitted together by one
engine.fit_variants call: one neighbor query serves every target and
variant, and only the weight map and local solve run once per variant.
Reported table values in the source material are seed-dependent; the runners
check structural properties (monotonicity, branch rates, no-harm bounds)
rather than exact numbers.
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

    kappa = fit.m_nor_condition[well]
    n_uniform = int(np.count_nonzero(wmap.fallback_uniform))
    mu_rmse, sd_rmse = _mu_sd(fit.rmse_local[well])
    mu_r2, sd_r2 = _mu_sd(fit.r2_local[well])
    mu_kappa, sd_kappa = _mu_sd(kappa)
    mu_neff_raw, sd_neff_raw = _mu_sd(wmap.n_eff_raw[well])
    mu_neff_post, sd_neff_post = _mu_sd(wmap.n_eff_post[well])
    mu_eta, sd_eta = _mu_sd(orient.eta[well])
    mu_rphi, sd_rphi = _mu_sd(orient.r_phi[well])
    mu_gident, sd_gident = _mu_sd(orient.g_ident[well])
    mu_theta, sd_theta = _mu_sd(orient.theta_z[well])

    return MapSummary(
        n_targets=n_targets,
        n_ill_posed=n_ill,
        mu_rmse=mu_rmse, sd_rmse=sd_rmse,
        mu_r2=mu_r2, sd_r2=sd_r2,
        mu_kappa=mu_kappa, sd_kappa=sd_kappa,
        p50_kappa=float(np.percentile(kappa, 50)),
        p95_kappa=float(np.percentile(kappa, 95)),
        p99_kappa=float(np.percentile(kappa, 99)),
        mu_neff_raw=mu_neff_raw, sd_neff_raw=sd_neff_raw,
        mu_neff_post=mu_neff_post, sd_neff_post=sd_neff_post,
        mu_eta=mu_eta, sd_eta=sd_eta,
        mu_rphi=mu_rphi, sd_rphi=sd_rphi,
        mu_gident=mu_gident, sd_gident=sd_gident,
        mu_theta=mu_theta, sd_theta=sd_theta,
        pr_phi_zero=int(np.count_nonzero(orient.phi_deactivated)) / n_targets,
        pr_theta_zero=int(np.count_nonzero(orient.theta_deactivated)) / n_targets,
        pr_uniform=n_uniform / n_targets,
        n_uniform=n_uniform,
    )


def weight_diff(result_a, result_b):
    """Per-target l1 distance and correlation of normalized weight vectors.

    Both runs must share targets and neighborhoods (same data and K), and
    both must hold their weights (a wide fit). Correlation is skipped
    wherever either weight vector is constant.
    """
    for name, result in (("result_a", result_a), ("result_b", result_b)):
        if result.weight_map.weights is None:
            raise ValueError(f"weight_diff requires weight_map.weights, which {name} does not "
                             "hold: fit it with wide=True")
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
    """Run one of the four mechanism experiments.

    Returns (report, records_by_variant) where the report carries the config,
    per-variant MapSummary values, weight-difference evidence where defined,
    and one verdict per structural property. The records of e72 and e74,
    which weight_diff reads, keep their weights; those of e71 and e73 are
    narrow (see engine.FitResult).
    """
    runners = {"e71": _run_e71, "e72": _run_e72, "e73": _run_e73, "e74": _run_e74}
    if exp_id not in runners:
        raise ConfigurationError(f"unknown experiment id {exp_id!r}; expected one of {sorted(runners)}")
    return runners[exp_id](base_seed)


def _report(exp_id, seed, spec, config, summaries, properties, extra=None):
    report = {
        "schema": "gimbal.experiment-report.v2",
        "experiment": exp_id,
        "seed": seed,
        "sim_spec": asdict(spec),
        "base_config": asdict(config),
        "summaries": {name: asdict(s) for name, s in summaries.items()},
        "properties": properties,
    }
    if extra:
        report.update(extra)
    return report


def _verdict(passed, value):
    return {"pass": bool(passed), "value": value}


def _fit_variants(spec, configs, wide):
    """Fit each named config on the one dataset of spec with one fit_variants
    call, so one neighbor query serves every variant; wide as for
    fit_variants.

    Returns (records, summaries), both keyed by variant name.
    """
    dataset, _ = generate(spec)
    records = dict(zip(configs, fit_variants(dataset, configs.values(), wide=wide)))
    return records, {name: summarize(result) for name, result in records.items()}


def _run_e71(seed):
    """Isotropy sanity check: four variants on one undeformed dataset."""
    spec = replace(_BASE_SPEC, rho=1.0, psi=0.0, c_rad=0.0, seed=seed)
    records, summaries = _fit_variants(spec, {
        "isotropic_proxy": replace(_BASE_CONFIG, **_PROXY),
        "theta_off": replace(_BASE_CONFIG, theta_z_mode="off"),
        "full": _BASE_CONFIG,
        "full_strict_eps_phi": replace(_BASE_CONFIG, eps_phi=STRICT_EPS_PHI),
    }, wide=False)

    proxy = summaries["isotropic_proxy"]
    properties = {}
    for name in ("theta_off", "full", "full_strict_eps_phi"):
        s = summaries[name]
        properties[f"no_harm_rmse_{name}"] = _verdict(
            abs(s.mu_rmse - proxy.mu_rmse) < 0.01, abs(s.mu_rmse - proxy.mu_rmse)
        )
        properties[f"no_harm_kappa_{name}"] = _verdict(
            abs(s.mu_kappa - proxy.mu_kappa) / proxy.mu_kappa < 0.05,
            abs(s.mu_kappa - proxy.mu_kappa) / proxy.mu_kappa,
        )
    properties["theta_branch_full_active"] = _verdict(
        summaries["full"].pr_theta_zero == 0.0, summaries["full"].pr_theta_zero
    )
    properties["theta_branch_proxy_forced"] = _verdict(
        proxy.pr_theta_zero == 1.0, proxy.pr_theta_zero
    )

    # the strict threshold re-run changes the phi branch but, since r_phi is
    # data-determined, the re-solved flag rate equals the flag-only rate
    flag_only = int(np.count_nonzero(
        records["full"].orientation.r_phi <= STRICT_EPS_PHI
    )) / len(records["full"])
    extra = {
        "strict_eps_phi": {
            "threshold": STRICT_EPS_PHI,
            "resolved_pr_phi_zero": summaries["full_strict_eps_phi"].pr_phi_zero,
            "flag_only_pr_phi_zero": flag_only,
        }
    }
    return _report("e71", seed, spec, _BASE_CONFIG, summaries, properties, extra), records


def _run_e72(seed):
    """Geometric anisotropy activation under rho=10, psi=pi/4."""
    spec = replace(_BASE_SPEC, rho=10.0, psi=math.pi / 4.0, c_rad=0.0, seed=seed)
    records, summaries = _fit_variants(spec, {
        "isotropic_proxy": replace(_BASE_CONFIG, **_PROXY),
        "full": _BASE_CONFIG,
    }, wide=True)
    diff = weight_diff(records["full"], records["isotropic_proxy"])

    properties = {
        "proxy_eta_exactly_one": _verdict(
            summaries["isotropic_proxy"].mu_eta == 1.0, summaries["isotropic_proxy"].mu_eta
        ),
        "gr_eta_activated": _verdict(summaries["full"].mu_eta > 2.5, summaries["full"].mu_eta),
        "weight_l1_visible": _verdict(diff.mu_l1 > 0.2, diff.mu_l1),
        "weight_corr_below_one": _verdict(diff.mu_corr < 0.99, diff.mu_corr),
    }
    extra = {"weight_diff": asdict(diff)}
    return _report("e72", seed, spec, _BASE_CONFIG, summaries, properties, extra), records


def _run_e73(seed):
    """One-shot ESS stress: sweep the target level n0 on one dataset."""
    spec = replace(
        _BASE_SPEC, sampling="gaussian", extent=_E73_EXTENT,
        rho=10.0, psi=math.pi / 4.0, c_rad=0.0, seed=seed,
    )
    base = replace(_BASE_CONFIG, k=30, h=2000.0, n_min=12.0)
    records, summaries = _fit_variants(
        spec, {f"n0_{n0:g}": replace(base, n0=n0) for n0 in E73_N0_SWEEP}, wide=False)

    ordered = [summaries[f"n0_{n0:g}"] for n0 in E73_N0_SWEEP]
    neff = [s.mu_neff_post for s in ordered]
    pr_uniform = [s.pr_uniform for s in ordered]
    rmse = [s.mu_rmse for s in ordered]
    properties = {
        "neff_post_nondecreasing": _verdict(
            all(b >= a for a, b in zip(neff, neff[1:])), neff
        ),
        "pr_uniform_nonincreasing": _verdict(
            all(b <= a for a, b in zip(pr_uniform, pr_uniform[1:])), pr_uniform
        ),
        # constant at 3-decimal resolution: spread below half a unit in the
        # third decimal (round-equality alone is fragile at a rounding edge)
        "rmse_constant_3dp": _verdict(
            max(rmse) - min(rmse) < 5e-4, rmse
        ),
    }
    return _report("e73", seed, spec, base, summaries, properties), records


def _run_e74(seed):
    """Value-orientation dependence under a radial response trend."""
    spec = replace(
        _BASE_SPEC, extent=_E74_EXTENT,
        rho=10.0, psi=math.pi / 4.0, c_rad=8.0, delta_beta=0.0, seed=seed,
    )
    base = replace(_BASE_CONFIG, k=30, h=2000.0, n0=20.0, n_min=4.0)
    records, summaries = _fit_variants(spec, {
        "theta_on": base,
        "theta_off": replace(base, theta_z_mode="off"),
    }, wide=True)
    diff = weight_diff(records["theta_on"], records["theta_off"])

    properties = {
        "theta_active_under_on": _verdict(
            summaries["theta_on"].pr_theta_zero == 0.0, summaries["theta_on"].pr_theta_zero
        ),
        "theta_forced_under_off": _verdict(
            summaries["theta_off"].pr_theta_zero == 1.0, summaries["theta_off"].pr_theta_zero
        ),
        "weight_l1_visible": _verdict(diff.mu_l1 > 0.05, diff.mu_l1),
        "rmse_unchanged": _verdict(
            abs(summaries["theta_on"].mu_rmse - summaries["theta_off"].mu_rmse) < 0.005,
            abs(summaries["theta_on"].mu_rmse - summaries["theta_off"].mu_rmse),
        ),
    }
    extra = {"weight_diff": asdict(diff)}
    return _report("e74", seed, spec, base, summaries, properties, extra), records
