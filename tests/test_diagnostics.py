import numpy as np
import pytest

from gimbal.diagnostics import local_moran, reliability_mask
from gimbal.engine import Dataset, GimbalConfig, fit_all
from gimbal.simgen import SimSpec, generate


def line_points(n, spacing=0.01):
    lats = 35.0 + spacing * np.arange(n)
    lons = np.full(n, 135.0)
    return lats, lons


def test_constant_residuals_flagged_undefined():
    lats, lons = line_points(6)
    values, defined = local_moran(np.full(6, 2.5), lats, lons, k_moran=2)
    assert not defined
    assert np.all(values == 0.0)


def test_checkerboard_line_negative_interior():
    # alternating residuals on a line, k=2 adjacent neighbors
    lats, lons = line_points(6)
    residuals = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    values, defined = local_moran(residuals, lats, lons, k_moran=2)
    assert defined
    # interior points: both neighbors carry the opposite sign -> I < 0
    for i in range(1, 5):
        assert values[i] < 0.0
    # hand computation: z = r (mean 0, std 1), interior I_i = z_i * mean(z_adj)
    for i in range(1, 5):
        assert values[i] == pytest.approx(residuals[i] * np.mean([residuals[i - 1], residuals[i + 1]]), rel=1e-12)


def test_random_residuals_mean_near_zero():
    rng = np.random.default_rng(80)
    n = 400
    lats = rng.uniform(34.5, 35.5, n)
    lons = rng.uniform(134.5, 135.5, n)
    residuals = rng.normal(0, 1, n)
    values, defined = local_moran(residuals, lats, lons, k_moran=8)
    assert defined
    # permutation baseline: mean I has standard error ~ 1/sqrt(n * k)
    se = 1.0 / np.sqrt(n * 8)
    assert abs(float(np.mean(values))) < 3 * se


def test_affine_invariance():
    rng = np.random.default_rng(81)
    n = 80
    lats = rng.uniform(34.8, 35.2, n)
    lons = rng.uniform(134.8, 135.2, n)
    residuals = rng.normal(0, 2, n)
    a, _ = local_moran(residuals, lats, lons)
    b, _ = local_moran(5.0 * residuals - 3.0, lats, lons)
    assert np.allclose(a, b, atol=1e-9)


def records_fixture():
    ds, _ = generate(SimSpec(n=120, extent=15_000.0, seed=21))
    return fit_all(ds, GimbalConfig(k=25))


def test_mask_no_flags_when_everything_clean():
    records = records_fixture()
    flags = reliability_mask(records, kappa_quantile=1.0, neff_floor=0.0)
    assert not np.any(flags)


def test_mask_quantile_selects_top_tail():
    records = records_fixture().take(slice(0, 100))
    flags = reliability_mask(records, kappa_quantile=0.95, neff_floor=0.0)
    kappas = records.fit.m_nor_condition
    # sort-based oracle: exactly the strictly-above-quantile records
    expect = kappas > np.quantile(kappas, 0.95)
    assert np.array_equal(flags, expect)
    assert flags.sum() == 5


def test_mask_monotone_in_quantile():
    records = records_fixture()
    loose = reliability_mask(records, kappa_quantile=0.95, neff_floor=0.0)
    tight = reliability_mask(records, kappa_quantile=0.80, neff_floor=0.0)
    assert np.all(tight[loose])  # lowering the quantile never unflags


def test_mask_neff_floor_and_ill_posed():
    records = records_fixture()
    floor = np.median(records.weight_map.n_eff_post)
    flags = reliability_mask(records, kappa_quantile=1.0, neff_floor=floor)
    assert np.array_equal(flags, records.weight_map.n_eff_post < floor)

    # a far cluster with a constant covariate: its neighborhoods are
    # rank-deficient, and each of its targets is flagged
    ds, _ = generate(SimSpec(n=120, extent=15_000.0, seed=21))
    rng = np.random.default_rng(82)
    mixed = Dataset(lat=np.append(ds.lat, 36.0 + rng.uniform(0, 0.01, 25)),
                    lon=np.append(ds.lon, rng.uniform(135.0, 135.01, 25)),
                    x=np.append(ds.x, np.ones(25)), y=np.append(ds.y, rng.normal(0, 1, 25)))
    result = fit_all(mixed, GimbalConfig(k=25))
    ill = ~result.fit.well_posed
    assert ill[120:].all() and not ill[:120].any()
    assert np.array_equal(reliability_mask(result, 1.0, 0.0), ill)
