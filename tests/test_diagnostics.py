import dataclasses

import numpy as np
import pytest

import gimbal.cli
import gimbal.diagnostics
from gimbal.cli import _annotate_and_write, _moran_over_records
from gimbal.diagnostics import local_moran, local_moran_of_rows, moran_adjacency, reliability_mask
from gimbal.engine import CHUNK_TARGETS, Dataset, GimbalConfig, fit_all, fit_variants
from gimbal.neighborhood import ConfigurationError
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


def moran_on_finite(result, k_moran):
    """The reference: local_moran, with its own KNN query, over the rows with
    a finite residual; NaN elsewhere."""
    residuals = result.residual_at_target
    finite = np.isfinite(residuals)
    values = np.full(len(result), np.nan)
    values[finite], _ = local_moran(residuals[finite], result.lat[finite], result.lon[finite], k_moran)
    return values


def cluster_fixture():
    """200 points spread over 0.5 degrees, plus a cluster of 10 points within
    1e-3 degrees, each twice, with a constant covariate: at K=10 the cluster's
    rows are ill-posed, and the rows of spread points near the cluster keep
    fewer than 8 finite members."""
    rng = np.random.default_rng(3)
    lat = np.append(35.0 + rng.uniform(0, 0.5, 200), np.tile(35.2 + rng.uniform(0, 1e-3, 10), 2))
    lon = np.append(135.0 + rng.uniform(0, 0.5, 200), np.tile(135.2 + rng.uniform(0, 1e-3, 10), 2))
    x = np.append(rng.normal(size=200), np.ones(20))
    return Dataset(lat=lat, lon=lon, x=x, y=1.0 + 2.0 * x + rng.normal(size=220))


@pytest.mark.parametrize("k", [10, 50])
def test_moran_of_fit_rows_bitwise_equals_local_moran(k, monkeypatch):
    result = fit_all(cluster_fixture(), GimbalConfig(k=k))
    knn = gimbal.diagnostics.knn
    queried = []

    def counting_knn(lats, lons, target_lats, target_lons, k_moran, exclude=None):
        queried.append(len(target_lats))
        return knn(lats, lons, target_lats, target_lons, k_moran, exclude=exclude)

    monkeypatch.setattr(gimbal.diagnostics, "knn", counting_knn)
    values = _moran_over_records(result, 8)
    if k == 10:
        assert np.sum(~result.fit.well_posed) == 20
        assert len(queried) == 1 and 0 < queried[0] < len(result)  # the short rows only
    else:
        assert queried == []
    monkeypatch.undo()
    assert np.array_equal(values.view(np.int64), moran_on_finite(result, 8).view(np.int64))


def test_moran_of_fit_rows_needs_no_second_query(monkeypatch):
    # every row keeps at least 8 finite members of its K=50 fit row, so the
    # adjacency is read off the fit alone
    ds, _ = generate(SimSpec(n=2 * CHUNK_TARGETS + 40, extent=15_000.0, seed=23))
    result = fit_all(ds, GimbalConfig(k=50))
    expect = moran_on_finite(result, 8)

    def no_query(*args, **kwargs):
        raise AssertionError("the Moran adjacency ran a neighbor query")

    monkeypatch.setattr(gimbal.diagnostics, "knn", no_query)
    values = _moran_over_records(result, 8)
    assert np.isfinite(values).all()
    assert np.array_equal(values.view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("k_moran", [0, -1])
def test_moran_of_rows_rejects_k_below_one(k_moran):
    # as local_moran does, through its knn call
    result = records_fixture()
    with pytest.raises(ConfigurationError):
        local_moran(result.residual_at_target, result.lat, result.lon, k_moran)
    with pytest.raises(ConfigurationError, match=f"k_moran must be >= 1, got {k_moran}"):
        local_moran_of_rows(result.residual_at_target, result.lat, result.lon,
                            result.neighborhood.member_indices, k_moran)


def test_moran_of_rows_with_its_adjacency_given_is_bitwise_equal():
    # the adjacency step and the LISA step, run apart, give the joined values
    result = fit_all(cluster_fixture(), GimbalConfig(k=10))
    residuals, members = result.residual_at_target, result.neighborhood.member_indices
    adjacency = moran_adjacency(np.isfinite(residuals), result.lat, result.lon, members, 8)
    assert adjacency.shape == (np.count_nonzero(np.isfinite(residuals)), 8)
    joined = local_moran_of_rows(residuals, result.lat, result.lon, members, 8)[0]
    apart = local_moran_of_rows(residuals, result.lat, result.lon, members, 8, adjacency)[0]
    assert np.array_equal(apart.view(np.int64), joined.view(np.int64))
    assert np.array_equal(joined.view(np.int64), moran_on_finite(result, 8).view(np.int64))


def test_records_share_one_moran_adjacency_per_rows_and_finite_set(monkeypatch, tmp_path):
    # three n0 variants share one neighborhood and finite set; a variant with
    # one more NaN residual and a separate fit of one config each need their own
    ds = cluster_fixture()
    configs = [GimbalConfig(k=10, n0=n0) for n0 in (6.0, 15.0, 50.0)]
    variants = fit_variants(ds, configs)
    fewer = dataclasses.replace(variants[1], residual_at_target=variants[1].residual_at_target.copy())
    fewer.residual_at_target[0] = np.nan
    results = [*variants, fewer, fit_all(ds, configs[0])]
    builds, written = [], []
    monkeypatch.setattr(gimbal.cli, "moran_adjacency",
                        lambda *args: builds.append(1) or moran_adjacency(*args))
    monkeypatch.setattr(gimbal.cli, "write_records_csv", lambda paths, results, ids, moran, fragile:
                        written.extend(moran))
    _annotate_and_write([tmp_path / f"{i}.csv" for i in range(5)], results, None, 8, 0.95, 0.0)
    assert len(builds) == 3
    monkeypatch.undo()
    for result, values in zip(results, written):
        assert np.array_equal(values.view(np.int64), moran_on_finite(result, 8).view(np.int64))
