import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gimbal.cli
import gimbal.diagnostics
from scalar_geo import nearest_others
from gimbal.cli import _annotate_and_write, _moran_over_records
from gimbal.diagnostics import local_moran, moran_adjacency, reliability_mask
from gimbal.engine import Dataset, GimbalConfig, fit_all, fit_variants
from gimbal.neighborhood import ConfigurationError, batch_rows, batches, knn
from gimbal.simgen import SimSpec, generate


def line_points(n, spacing=0.01):
    lats = 35.0 + spacing * np.arange(n)
    lons = np.full(n, 135.0)
    return lats, lons


def moran(residuals, lats, lons, k_moran=8):
    """local_moran of finite residuals over moran_adjacency of rows that hold
    only the point itself: every row is short, so one query gives it all."""
    n = len(residuals)
    adjacency = moran_adjacency(np.ones(n, dtype=bool), lats, lons, np.arange(n)[:, None], k_moran)
    return local_moran(residuals, adjacency)


def test_constant_residuals_flagged_undefined():
    lats, lons = line_points(6)
    values, defined = moran(np.full(6, 2.5), lats, lons, k_moran=2)
    assert not defined
    assert np.all(values == 0.0)


def test_checkerboard_line_negative_interior():
    # alternating residuals on a line, k=2 adjacent neighbors
    lats, lons = line_points(6)
    residuals = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    values, defined = moran(residuals, lats, lons, k_moran=2)
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
    values, defined = moran(residuals, lats, lons, k_moran=8)
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
    a, _ = moran(residuals, lats, lons)
    b, _ = moran(5.0 * residuals - 3.0, lats, lons)
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


def oracle_adjacency(finite, lats, lons, k_moran):
    """moran_adjacency's reference: each finite point's k_moran nearest other
    finite points by a full haversine sort (nearest_others), no knn."""
    subset = np.flatnonzero(finite)
    return nearest_others(lats[subset], lons[subset], range(subset.size), k_moran)


def moran_on_finite(result, k_moran):
    """The reference: local_moran over oracle_adjacency of the rows with a
    finite residual; NaN elsewhere."""
    residuals = result.residual_at_target
    return local_moran(residuals, oracle_adjacency(np.isfinite(residuals), result.lat, result.lon,
                                                   k_moran))[0]


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
    queried = []

    def counting_knn(lats, lons, target_lats, target_lons, k_query):
        queried.append((len(target_lats), k_query))
        return knn(lats, lons, target_lats, target_lons, k_query)

    monkeypatch.setattr(gimbal.diagnostics, "knn", counting_knn)
    values = _moran_over_records(result, 8)
    if k == 10:
        assert np.sum(~result.fit.well_posed) == 20
        # the short rows only, for their k_moran + 1 nearest
        assert len(queried) == 1 and 0 < queried[0][0] < len(result) and queried[0][1] == 9
    else:
        assert queried == []
    monkeypatch.undo()
    assert np.array_equal(values.view(np.int64), moran_on_finite(result, 8).view(np.int64))


def test_moran_of_fit_rows_needs_no_second_query(monkeypatch):
    # every row keeps at least 8 finite members of its K=50 fit row, so the
    # adjacency is read off the fit alone, over three batches of K=50 rows
    assert len(batches(3 * batch_rows(50) + 40, 50)) == 3
    ds, _ = generate(SimSpec(n=3 * batch_rows(50) + 40, extent=15_000.0, seed=23))
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
    result = records_fixture()
    with pytest.raises(ConfigurationError, match=rf"k_moran={k_moran} outside the eligible range \[1, 119\]"):
        moran_adjacency(np.isfinite(result.residual_at_target), result.lat, result.lon,
                        result.neighborhood.member_indices, k_moran)


def test_moran_adjacency_rejects_k_moran_of_n_finite_or_more(monkeypatch):
    # 118 finite points: k_moran 117 is the largest; the error names k_moran
    # and the finite count, not the K = k_moran + 1 of a neighbor query
    result = records_fixture()
    finite = np.isfinite(result.residual_at_target)
    finite[[4, 90]] = False
    args = (result.lat, result.lon, result.neighborhood.member_indices)
    assert moran_adjacency(finite, *args, 117).shape == (118, 117)
    monkeypatch.setattr(gimbal.diagnostics, "knn", None)
    for k_moran in (118, 119, 500):
        with pytest.raises(ConfigurationError, match=rf"k_moran={k_moran} outside the eligible "
                                                     rf"range \[1, 117\]: 118 points are finite"):
            moran_adjacency(finite, *args, k_moran)


def test_moran_of_rows_with_its_adjacency_given_is_bitwise_equal():
    # the adjacency step equals the brute-force one, and the LISA step over
    # either gives the reference values
    result = fit_all(cluster_fixture(), GimbalConfig(k=10))
    residuals, members = result.residual_at_target, result.neighborhood.member_indices
    finite = np.isfinite(residuals)
    adjacency = moran_adjacency(finite, result.lat, result.lon, members, 8)
    assert adjacency.shape == (np.count_nonzero(finite), 8)
    assert np.array_equal(adjacency, oracle_adjacency(finite, result.lat, result.lon, 8))
    values, defined = local_moran(residuals, adjacency)
    assert defined and np.array_equal(np.isnan(values), ~finite)
    assert np.array_equal(values.view(np.int64), moran_on_finite(result, 8).view(np.int64))


def coincident_field(rng, n, groups):
    """n points spread over 0.5 degrees, with the points at each index array
    of groups moved onto that group's first point."""
    lats, lons = 35.0 + rng.uniform(0, 0.5, n), 135.0 + rng.uniform(0, 0.5, n)
    for group in groups:
        lats[group], lons[group] = lats[group[0]], lons[group[0]]
    return lats, lons


def spied_queries(monkeypatch):
    """Each knn call moran_adjacency makes, as (k, targets' lats, members)."""
    queries = []

    def spy(lats, lons, target_lats, target_lons, k):
        members, distances = knn(lats, lons, target_lats, target_lons, k)
        queries.append((k, target_lats, members))
        return members, distances

    monkeypatch.setattr(gimbal.diagnostics, "knn", spy)
    return queries


@pytest.mark.parametrize("k", [1, 3])
def test_short_rows_drop_the_own_point_or_the_last_among_coincident_points(monkeypatch, k):
    # a group of 3 coincident points keeps each one in its k_moran + 1 = 6
    # nearest; in a group of 12, a point with six smaller indices there is
    # pushed out of its own row, which drops its last point instead. Fit rows
    # of K <= 3 are short for every point, and NaN residuals make positions
    # in the finite subset differ from indices.
    rng = np.random.default_rng(31)
    order = rng.permutation(90)
    lats, lons = coincident_field(rng, 90, [order[:3], np.sort(order[3:15])])
    finite = np.ones(90, dtype=bool)
    finite[order[15:21]] = False
    members, _ = knn(lats, lons, lats, lons, k)
    queries = spied_queries(monkeypatch)
    adjacency = moran_adjacency(finite, lats, lons, members, 5)
    assert [q[0] for q in queries] == [6] and queries[0][1].shape == (84,)
    own = np.arange(84)[:, None] == queries[0][2]
    assert own.any(axis=1).sum() == 84 - 6  # the six pushed out of the group of 12
    assert np.array_equal(adjacency, oracle_adjacency(finite, lats, lons, 5))


@pytest.mark.parametrize("spread", [1e-9, 1e-6])
def test_short_rows_in_a_tight_cluster_among_global_points(monkeypatch, spread):
    # a sub-millimetre (1e-9 deg) or ~0.1 m (1e-6 deg) cluster among points
    # spread over the sphere, up to k_moran = n_finite - 1: cosine keys cannot
    # order the cluster, and the far rows reach the antipodes
    rng = np.random.default_rng(21)
    cl_lats, cl_lons = 35.0 + rng.uniform(-spread / 2, spread / 2, (2, 40))
    gl_lats = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 40)))
    gl_lons = rng.uniform(-180.0, 180.0, 40)
    order = rng.permutation(80)
    lats = np.concatenate([cl_lats, gl_lats])[order]
    lons = np.concatenate([cl_lons + 100.0, gl_lons])[order]
    finite = np.ones(80, dtype=bool)
    for k_moran in (1, 5, 39, 45, 79):
        queries = spied_queries(monkeypatch)
        adjacency = moran_adjacency(finite, lats, lons, np.arange(80)[:, None], k_moran)
        assert len(queries) == 1
        assert np.array_equal(adjacency, oracle_adjacency(finite, lats, lons, k_moran)), k_moran


@st.composite
def short_row_cases(draw):
    """Few distinct points picked with repeats (coincident points), some not
    finite, fit rows of K in [1, n] and k_moran in [1, n_finite - 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** draw(st.floats(-9.0, 1.0))
    lats = 35.0 + rng.uniform(0, spread, draw(st.integers(1, 6)))
    lons = 135.0 + rng.uniform(0, spread, lats.shape[0])
    picks = np.array(draw(st.lists(st.integers(0, lats.shape[0] - 1), min_size=2, max_size=30)))
    n = picks.shape[0]
    finite = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    finite[draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))] = True
    k = draw(st.integers(1, n))
    k_moran = draw(st.integers(1, int(finite.sum()) - 1))
    return lats[picks], lons[picks], finite, k, k_moran


@settings(max_examples=150, deadline=None)
@given(short_row_cases())
def test_property_moran_adjacency_matches_oracle_with_duplicates(case):
    lats, lons, finite, k, k_moran = case
    members, _ = knn(lats, lons, lats, lons, k)
    assert np.array_equal(moran_adjacency(finite, lats, lons, members, k_moran),
                          oracle_adjacency(finite, lats, lons, k_moran))


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
