import math
from dataclasses import replace

import numpy as np
import pytest

from gimbal.engine import GimbalConfig, fit_all
from gimbal.experiments import run_experiment, summarize, weight_diff
from gimbal.simgen import SimSpec, generate


def records_for(spec, config):
    ds, _ = generate(spec)
    return fit_all(ds, config)


BASE_SPEC = SimSpec(n=100, extent=15_000.0, seed=0)
BASE_CFG = GimbalConfig(k=20)


def test_summary_identical_records_have_zero_sd():
    recs = records_for(BASE_SPEC, BASE_CFG)
    clones = recs.take([0] * 10)
    s = summarize(clones)
    assert s.sd_rmse == pytest.approx(0.0, abs=1e-12)
    assert s.sd_kappa == pytest.approx(0.0, abs=1e-9)
    assert s.sd_eta == pytest.approx(0.0, abs=1e-12)
    assert s.n_targets == 10


def test_summary_of_no_records_raises():
    empty = records_for(BASE_SPEC, BASE_CFG).take(slice(0, 0))
    assert len(empty) == 0
    with pytest.raises(ValueError, match="summarize requires at least one record"):
        summarize(empty)


def test_summary_isotropic_proxy_branch_rates():
    proxy_cfg = replace(BASE_CFG, phi_mode="forced_zero", theta_z_mode="off",
                        eta_mode="forced_one")
    recs = records_for(BASE_SPEC, proxy_cfg)
    s = summarize(recs)
    assert s.pr_phi_zero == 1.0
    assert s.pr_theta_zero == 1.0
    assert s.mu_eta == 1.0
    assert s.sd_eta == 0.0


def test_summary_percentiles_match_sort_oracle():
    recs = records_for(BASE_SPEC, BASE_CFG)
    s = summarize(recs)
    kappas = np.sort(recs.fit.m_nor_condition[recs.fit.well_posed])

    def percentile_oracle(q):
        # linear interpolation between order statistics
        pos = q / 100.0 * (len(kappas) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        return kappas[lo] + (pos - lo) * (kappas[hi] - kappas[lo])

    assert s.p50_kappa == pytest.approx(percentile_oracle(50), rel=1e-12)
    assert s.p95_kappa == pytest.approx(percentile_oracle(95), rel=1e-12)
    assert s.p99_kappa == pytest.approx(percentile_oracle(99), rel=1e-12)


def test_summary_uniform_count_consistency():
    recs = records_for(replace(BASE_SPEC, extent=60_000.0), replace(BASE_CFG, n_min=25.0))
    s = summarize(recs)
    assert s.n_uniform == round(s.pr_uniform * s.n_targets)
    assert s.n_uniform > 0  # the tight n_min forces some fallbacks here


def test_weight_diff_identical_runs():
    recs = records_for(BASE_SPEC, BASE_CFG)
    d = weight_diff(recs, recs)
    assert d.mu_l1 == 0.0
    assert d.mu_corr == pytest.approx(1.0, abs=1e-12)


def test_weight_diff_skips_constant_vectors():
    cfg_a = BASE_CFG
    cfg_b = replace(BASE_CFG, n_min=21.0)  # n_min > K forces uniform everywhere
    recs_a = records_for(BASE_SPEC, cfg_a)
    recs_b = records_for(BASE_SPEC, cfg_b)
    assert np.all(recs_b.weight_map.fallback_uniform)
    d = weight_diff(recs_a, recs_b)
    assert d.n_corr_defined == 0
    assert math.isnan(d.mu_corr)
    assert d.mu_l1 > 0.0
    assert all(0.0 <= v for v in [d.mu_l1]) and d.mu_l1 <= 2.0


def test_weight_diff_matches_direct_recomputation():
    recs_a = records_for(BASE_SPEC, BASE_CFG)
    recs_b = records_for(BASE_SPEC, replace(BASE_CFG, theta_z_mode="off"))
    d = weight_diff(recs_a, recs_b)
    l1 = []
    corr = []
    for wa, wb in zip(recs_a.weight_map.weights, recs_b.weight_map.weights):
        l1.append(np.abs(wa - wb).sum())
        if wa.min() < wa.max() and wb.min() < wb.max():
            corr.append(np.corrcoef(wa, wb)[0, 1])
    assert d.mu_l1 == pytest.approx(np.mean(l1), rel=1e-12)
    assert d.mu_corr == pytest.approx(np.mean(corr), rel=1e-12)
    assert d.n_corr_defined == len(corr)


def test_weight_diff_rejects_mismatched_neighborhoods():
    recs_a = records_for(BASE_SPEC, BASE_CFG)
    recs_b = records_for(BASE_SPEC, replace(BASE_CFG, k=19))
    with pytest.raises(ValueError, match="neighborhood mismatch: the runs have K=20 and K=19"):
        weight_diff(recs_a, recs_b)
    other_data = records_for(replace(BASE_SPEC, seed=1), BASE_CFG)
    with pytest.raises(ValueError, match="neighborhood mismatch at target 0"):
        weight_diff(recs_a, other_data)
    with pytest.raises(ValueError):
        weight_diff(recs_a, recs_a.take(slice(0, -1)))


def test_weight_diff_names_missing_weights():
    recs = records_for(BASE_SPEC, BASE_CFG)
    ds, _ = generate(BASE_SPEC)
    narrow = fit_all(ds, BASE_CFG, keep="records")
    with pytest.raises(ValueError, match="requires weight_map.weights, which result_b does not hold"):
        weight_diff(recs, narrow)
    with pytest.raises(ValueError, match="requires weight_map.weights, which result_a does not hold"):
        weight_diff(narrow, recs)


@pytest.mark.parametrize("exp_id, full", [("e71", False), ("e72", True), ("e73", False), ("e74", True)])
def test_experiment_records_keep_weights_only_where_weight_diff_reads_them(exp_id, full):
    _, records = run_experiment(exp_id, base_seed=2)
    for result in records.values():
        assert (result.weight_map.weights is not None) == full
        assert (result.fit.residuals is not None) == full
        assert (result.neighborhood.distances is not None) == full
        # the records file reads these at every level an experiment fits
        assert result.cond_wls2 is not None and result.fit.rmse_local is not None
        assert result.neighborhood.member_indices is not None


def test_run_experiment_rejects_unknown_id():

    with pytest.raises(ValueError):
        run_experiment("e99")
