import dataclasses
import itertools
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gimbal.engine
import gimbal.solver
from gimbal import kernels
from gimbal.engine import (
    BRANCH_ILL_POSED,
    Dataset,
    GimbalConfig,
    branch_codes,
    fit_all,
    fit_location,
    fit_rows,
    fit_variants,
    predict,
    residual_knn_correct,
    standardized_covariate,
)
from gimbal.kernels import orientation_stage
from gimbal.neighborhood import ConfigurationError, batch_rows, batches, knn
from gimbal.simgen import SimSpec, generate
from gimbal.solver import solve_local
from gimbal.weights import frame_quadratic


def small_dataset(seed=0, n=60):
    ds, _ = generate(SimSpec(n=n, extent=8000.0, seed=seed))
    return ds


def test_config_validation():
    with pytest.raises(ConfigurationError):
        GimbalConfig(k=0)
    with pytest.raises(ConfigurationError):
        GimbalConfig(h=-1.0)
    with pytest.raises(ConfigurationError):
        GimbalConfig(eta_max=0.5)
    with pytest.raises(ConfigurationError):
        GimbalConfig(theta_z_mode="maybe")
    for bad in (dict(k=50.5), dict(k=True), dict(u=math.inf), dict(u=math.nan), dict(n0=0.0),
                dict(u=0.0), dict(n0=True), dict(u=False), dict(h="3000"),
                # 1 / h**2, the weight metric's scale: h * h underflows to
                # zero, or to a subnormal whose reciprocal overflows
                dict(h=1e-300), dict(h=1e-160), dict(h=5e-324)):
        with pytest.raises(ConfigurationError):
            GimbalConfig(**bad)
    assert GimbalConfig(h=1e-154).h == 1e-154
    assert GimbalConfig(k=np.int64(7)).k == 7
    assert GimbalConfig(u=None).u_scale == 3000.0
    assert GimbalConfig(u=1234.0).u_scale == 1234.0


def test_dataset_validation_names_row():
    with pytest.raises(ValueError, match="row 1"):
        Dataset(lat=np.array([0.0, 200.0]), lon=np.zeros(2), x=np.zeros(2), y=np.zeros(2))
    # a 2-D column is rejected by name, not left to fail inside the fit
    grid = np.full((20, 10), 35.0)
    with pytest.raises(ConfigurationError, match=r"column lat must be 1-D, got shape \(20, 10\)"):
        Dataset(lat=grid, lon=grid + 100.0, x=np.zeros((20, 10)), y=np.zeros((20, 10)))


def test_dataset_rejects_ids_of_another_length():
    with pytest.raises(ConfigurationError, match="column ids has length 1, expected 3"):
        Dataset(lat=np.zeros(3), lon=np.zeros(3), x=np.zeros(3), y=np.zeros(3), ids=np.array(["a"]))


def test_fit_location_deterministic():
    ds = small_dataset()
    cfg = GimbalConfig(k=20)
    a = fit_location(ds, cfg, 7)
    b = fit_location(ds, cfg, 7)
    assert pickle.dumps(a) == pickle.dumps(b)


def test_mode_overrides():
    ds = small_dataset()
    proxy = GimbalConfig(k=20, phi_mode="forced_zero", theta_z_mode="off",
                         eta_mode="forced_one")
    o = fit_all(ds, proxy).orientation
    assert np.all(o.phi == 0.0)
    assert np.all(o.phi_deactivated)
    assert np.all(o.theta_z == 0.0)
    assert np.all(o.theta_deactivated)
    assert np.all(o.eta == 1.0)
    # diagnostics still reported from data
    assert np.all(o.r_phi > 0.0)
    assert np.all(o.g_ident > 0.0)


def test_isotropic_proxy_weights_are_gaussian_pre_safeguard():
    # proxy mode: candidate weights at h_eff equal the isotropic kernel there
    ds = small_dataset()
    cfg = GimbalConfig(k=20, phi_mode="forced_zero", theta_z_mode="off",
                       eta_mode="forced_one")
    rec = fit_location(ds, cfg, 3)
    wm = rec.weight_map
    if wm.fallback_code == 0:
        from gimbal.geo import tangent_displacements

        east, north = tangent_displacements(
            rec.lat, rec.lon,
            ds.lat[rec.neighborhood.member_indices],
            ds.lon[rec.neighborhood.member_indices],
        )
        expect = np.exp(-(east**2 + north**2) / wm.h_eff**2)
        assert np.allclose(wm.weights, expect / expect.sum(), atol=1e-12)


def test_fit_all_keeps_input_order():
    ds = small_dataset()
    assert fit_all(ds, GimbalConfig(k=15)).index.tolist() == list(range(ds.n))


# a base config, then one config per GimbalConfig field other than k that
# differs from the base in that field alone; the last four fields are read
# only after the orientation stage
ONE_FIELD_BASE = GimbalConfig(k=12)
ONE_FIELD_CHANGES = {
    "h": 2000.0, "u": 1500.0, "eps_phi": 0.30, "eps_theta": 0.5, "eps_eta": 1e6, "eta_max": 2.0,
    "theta_z_mode": "off", "phi_mode": "forced_zero", "eta_mode": "forced_one",
    "gamma": 0.5, "n0": 6.0, "n_min": 12.0, "eps_kappa": 1.0,
}

# an n0 sweep under each of five settings of the fields a fallback row's
# solve reads: two gamma values times two distance scales, and one that
# differs in eps_kappa alone; the configs at n0 = 4 and 6 have fallback rows
SOLVE_KEYS = tuple(GimbalConfig(k=12, h=2000.0, n_min=10.0, n0=n0, **key)
                   for key in ({}, {"gamma": 0.5}, {"u": 1500.0}, {"gamma": 0.5, "u": 1500.0},
                               {"eps_kappa": 1.0})
                   for n0 in (4.0, 6.0, 9.0))

# the variant sets of e71 (proxy modes, eps_phi) and e73 (an n0 sweep at a
# non-default h and n_min), one whose distance scales differ, the one-field
# changes and SOLVE_KEYS, each sharing one K
VARIANT_SETS = {
    "solve_keys": SOLVE_KEYS,
    "one_field": (ONE_FIELD_BASE, *(replace(ONE_FIELD_BASE, **{name: value})
                                    for name, value in ONE_FIELD_CHANGES.items())),
    "scales": (GimbalConfig(k=12, u=1500.0), GimbalConfig(k=12), GimbalConfig(k=12, h=2000.0, u=4000.0)),
    "e71": (
        GimbalConfig(k=12, phi_mode="forced_zero", theta_z_mode="off", eta_mode="forced_one"),
        GimbalConfig(k=12, theta_z_mode="off"),
        GimbalConfig(k=12),
        GimbalConfig(k=12, eps_phi=0.30),
    ),
    "e73": tuple(GimbalConfig(k=12, h=2000.0, n_min=12.0, n0=n0)
                 for n0 in (6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0, 75.0, 100.0)),
}


# about the rows of one chunk of a K=12 fit: every config of VARIANT_SETS,
# and of the chunked tests below, has K=12
CHUNK = batch_rows(12)
assert {config.k for configs in VARIANT_SETS.values() for config in configs} == {12}


def chunk_starts(n):
    """The first row of each chunk of a K=12 fit of n targets, and n."""
    return [rows.start for rows in batches(n, 12)] + [n]


def chunked_dataset(chunks):
    """A dataset of chunks + 1 K=12 chunks, the first one row longer than
    the others, so one or more chunk boundaries are crossed. Its points are
    as dense as 300 in small_dataset's square, where the sparser
    neighborhoods fall back."""
    n = (chunks + 1) * CHUNK + 1
    assert np.diff(chunk_starts(n)).tolist() == [CHUNK + 1] + [CHUNK] * chunks
    ds, _ = generate(SimSpec(n=n, extent=8000.0 * math.sqrt(n / 300), seed=3))
    return ds


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("variants", sorted(VARIANT_SETS))
def test_fit_variants_equals_fit_all_per_config(variants, chunks):
    ds = chunked_dataset(chunks)
    configs = VARIANT_SETS[variants]
    results = fit_variants(ds, configs)
    assert len(results) == len(configs)
    for config, result in zip(configs, results):
        assert pickle.dumps(result) == pickle.dumps(fit_all(ds, config))


def test_each_config_field_moves_the_orientation_stage_unless_read_after_it():
    # every field but k is changed, and each change moves its result, so a
    # config that borrowed another's orientation stage would be caught
    assert set(ONE_FIELD_CHANGES) == {f.name for f in dataclasses.fields(GimbalConfig)} - {"k"}
    assert set(kernels.AFTER_ORIENTATION) < set(ONE_FIELD_CHANGES)
    ds = chunked_dataset(1)
    base, *changed = fit_variants(ds, VARIANT_SETS["one_field"])
    for name, result in zip(ONE_FIELD_CHANGES, changed):
        assert pickle.dumps(result) != pickle.dumps(base), name
        stage = (result.orientation, result.weight_map.n_eff_raw)
        moved = pickle.dumps(stage) != pickle.dumps((base.orientation, base.weight_map.n_eff_raw))
        assert moved == (name not in kernels.AFTER_ORIENTATION), name


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("variants, keys", [("e73", 1), ("scales", 3), ("e71", 4), ("one_field", 10),
                                            ("solve_keys", 2)])
def test_orientation_stage_runs_once_per_key_per_chunk(monkeypatch, variants, keys, chunks):
    # an n0 sweep shares one stage per chunk, and with it one frame form for
    # both bandwidths of every config; configs that differ in a field the
    # stage reads each get their own
    ds = chunked_dataset(chunks)
    calls, forms = [], []

    def counted(east, *args):
        calls.append(east.shape[0])
        return orientation_stage(east, *args)

    def counted_form(east, *args):
        forms.append(east.shape[0])
        return frame_quadratic(east, *args)

    monkeypatch.setattr(kernels, "orientation_stage", counted)
    monkeypatch.setattr(kernels, "frame_quadratic", counted_form)
    fit_variants(ds, VARIANT_SETS[variants])
    once_per_key_per_chunk = sorted(np.diff(chunk_starts(ds.n)).tolist() * keys)
    assert sorted(calls) == once_per_key_per_chunk
    assert sorted(forms) == once_per_key_per_chunk


def spy_solves(monkeypatch):
    """Patch solver.solve_local to record the rows of each call under the
    index of the first target of the chunk it serves: {index: [rows, ...]}."""
    calls, chunk = {}, {}
    fit_targets, solve_local_ = gimbal.engine._fit_targets, gimbal.solver.solve_local

    def tagged(dataset, configs, x_std, lat0, lon0, index, *rest):
        # a chunk's generator runs to its end before the next chunk's starts
        chunk["start"] = int(index[0]) if index.shape[0] else 0
        yield from fit_targets(dataset, configs, x_std, lat0, lon0, index, *rest)

    def counted(X, y, *args):
        calls.setdefault(chunk["start"], []).append(y.shape[0])
        return solve_local_(X, y, *args)

    monkeypatch.setattr(gimbal.engine, "_fit_targets", tagged)
    monkeypatch.setattr(gimbal.solver, "solve_local", counted)
    return calls


@pytest.mark.parametrize("chunks", [1, 2])
def test_one_config_solves_each_chunk_in_one_call(monkeypatch, chunks):
    # each config of fit_variants, fit_all, predict and fit_location solves
    # a chunk in one call over all of its rows, fallback rows included
    ds = chunked_dataset(chunks)
    calls = spy_solves(monkeypatch)
    starts = chunk_starts(ds.n)
    sizes = dict(zip(starts[:-1], np.diff(starts).tolist()))
    for variants in ("e73", "solve_keys"):
        configs = VARIANT_SETS[variants]
        results = fit_variants(ds, configs)
        assert any((result.weight_map.fallback_code != 0).any() for result in results), variants
        assert calls == {start: [size] * len(configs) for start, size in sizes.items()}, variants
        calls.clear()
    config = VARIANT_SETS["e73"][0]
    result = fit_all(ds, config)
    assert (result.weight_map.fallback_code != 0).any()
    assert calls == {start: [size] for start, size in sizes.items()}
    calls.clear()
    # an out-of-sample chunk is tagged by its index, -1
    predict(ds, config, ds.lat[:10], ds.lon[:10], ds.x[:10])
    assert calls == {-1: [10]}
    calls.clear()
    fit_location(ds, config, 7)
    assert calls == {7: [1]}
    calls.clear()
    # no target still makes one, empty, chunk
    assert len(fit_rows(ds, config, [])) == 0
    assert calls == {0: [0]}


@pytest.mark.parametrize("variants", ["solve_keys", "one_field", "e73"])
def test_configs_of_one_scale_share_one_solve_memo_per_chunk(monkeypatch, variants):
    # in a call of several configs, the configs of a distance scale share one
    # memo of the solve's config-free terms per chunk; a one-config fit keeps
    # none
    ds = chunked_dataset(1)
    configs = VARIANT_SETS[variants]
    memos = []
    solve_local_ = gimbal.solver.solve_local

    def spied(X, y, weights, gamma, eps_kappa, shared=None):
        memos.append(shared)
        return solve_local_(X, y, weights, gamma, eps_kappa, shared)

    monkeypatch.setattr(gimbal.solver, "solve_local", spied)
    fit_variants(ds, configs)
    scales = {config.u_scale for config in configs}
    chunks = len(chunk_starts(ds.n)) - 1
    assert len(memos) == chunks * len(configs)
    seen = set()
    for chunk in range(chunks):
        first = {}
        for config, memo in zip(configs, memos[chunk * len(configs):]):
            assert memo is first.setdefault(config.u_scale, memo)
            assert set(memo) == {(1, 1), (1, 2), (2, 2), "ss_tot"}
        assert not seen & set(map(id, first.values()))
        seen |= set(map(id, first.values()))
    assert len(seen) == chunks * len(scales)
    memos.clear()
    fit_all(ds, configs[0])
    predict(ds, configs[0], ds.lat[:10], ds.lon[:10], ds.x[:10])
    fit_rows(ds, configs[0], [3, 1])
    assert memos == [None] * (chunks + 2)


def test_fit_variants_solves_each_config_on_its_own_design():
    # each config's solve sees its own z = d / u column, also where the
    # configs share an orientation stage
    ds = small_dataset(seed=5, n=2 * CHUNK + 44)
    configs = VARIANT_SETS["scales"]
    for config, result in zip(configs, fit_variants(ds, configs)):
        members = result.neighborhood.member_indices
        z = result.neighborhood.distances / config.u_scale
        X = np.stack([np.ones_like(z), ds.x[members], z], axis=-1)
        expect = solve_local(X, ds.y[members], result.weight_map.weights, config.gamma, config.eps_kappa)
        assert pickle.dumps(result.fit) == pickle.dumps(expect)


def test_fit_variants_and_predict_make_one_query(monkeypatch):
    # one query covers every target of a fitted set, whatever its chunks
    ds = small_dataset(seed=4, n=3 * CHUNK + 10)
    calls = []

    def counted_knn(*args, **kwargs):
        calls.append(args[2].shape[0])
        return knn(*args, **kwargs)

    monkeypatch.setattr(gimbal.engine, "knn", counted_knn)
    results = fit_variants(ds, VARIANT_SETS["e73"])
    assert len(results) == 9
    assert calls == [ds.n]
    calls.clear()
    test = small_dataset(seed=5, n=2 * CHUNK + 3)
    predict(ds, GimbalConfig(k=12), test.lat, test.lon, test.x)
    assert calls == [test.n]


def test_fit_variants_share_one_read_only_neighborhood():
    ds = small_dataset(seed=6, n=2 * CHUNK + 30)
    results = fit_variants(ds, VARIANT_SETS["e73"])
    nb = results[0].neighborhood
    assert all(result.neighborhood is nb for result in results)
    assert not nb.member_indices.flags.writeable and not nb.distances.flags.writeable
    with pytest.raises(ValueError):
        nb.member_indices[0, 0] = 1
    members, distances = knn(ds.lat, ds.lon, ds.lat, ds.lon, VARIANT_SETS["e73"][0].k)
    assert np.array_equal(nb.member_indices, members)
    assert np.array_equal(nb.distances, distances)


def test_fit_variants_rejects_mixed_k_and_no_configs():
    ds = small_dataset()
    with pytest.raises(ConfigurationError, match=r"share K, got K in \[10, 12\]"):
        fit_variants(ds, (GimbalConfig(k=10), GimbalConfig(k=12)))
    with pytest.raises(ConfigurationError, match="at least one config"):
        fit_variants(ds, ())


def test_fit_location_equals_its_row_of_fit_all():
    # rows on both sides of a chunk boundary: a target's values do not depend
    # on the other targets of its chunk
    ds = small_dataset(seed=7, n=2 * CHUNK + 20)
    cfg = GimbalConfig(k=12)
    result = fit_all(ds, cfg)
    boundary = chunk_starts(ds.n)[1]
    for i in (0, boundary - 1, boundary, ds.n - 1):
        assert pickle.dumps(fit_location(ds, cfg, i)) == pickle.dumps(result.record(i))


def test_fit_rows_equal_their_rows_of_fit_all():
    # unsorted rows, a repeat and rows across a chunk boundary of fit_rows'
    # own targets: each row is bitwise its row of fit_all, whoever its
    # neighbors in the query and the chunk are
    ds = small_dataset(seed=8, n=2 * CHUNK + 40)
    cfg = GimbalConfig(k=12)
    rows = np.concatenate([[ds.n - 1, 5, 5, 0], np.arange(2 * CHUNK + 30, 10, -1)])
    assert len(chunk_starts(rows.size)) == 3
    assert pickle.dumps(fit_rows(ds, cfg, rows)) == pickle.dumps(fit_all(ds, cfg).take(rows))
    for bad in (np.ones(ds.n, dtype=bool), [0.0, 1.0], [[0, 1]], [-1], [ds.n]):
        with pytest.raises(ConfigurationError, match="rows must"):
            fit_rows(ds, cfg, bad)
    assert len(fit_rows(ds, cfg, [])) == 0


# the K-wide fields a narrow result (wide=False) leaves None
WIDE_ONLY = ("neighborhood.distances", "weight_map.weights", "fit.residuals")


def leaves(result, path=""):
    """(dotted field path, value) of every array or None of a nested result."""
    if not dataclasses.is_dataclass(result):
        return [(path, result)]
    return [leaf for f in dataclasses.fields(result)
            for leaf in leaves(getattr(result, f.name), f"{path}.{f.name}".lstrip("."))]


def assert_narrow_of(narrow, full):
    """narrow holds None at WIDE_ONLY, every other column of full bitwise,
    and no K-wide array but the member rows (a table's (C, K) or a row's
    (K,))."""
    k = full.neighborhood.member_indices.shape[-1]
    narrow_leaves, full_leaves = leaves(narrow), dict(leaves(full))
    assert [path for path, _ in narrow_leaves] == list(full_leaves)
    for path, column in narrow_leaves:
        if path in WIDE_ONLY:
            assert column is None and full_leaves[path] is not None, path
            continue
        expect = full_leaves[path]
        assert column.dtype == expect.dtype and column.shape == expect.shape, path
        assert column.tobytes() == expect.tobytes(), path
        assert column.shape[-1:] != (k,) or path == "neighborhood.member_indices", path


@pytest.mark.parametrize("chunks", [1, 2])
def test_narrow_results_equal_the_full_ones_without_the_k_wide_columns(chunks):
    ds = small_dataset(seed=9, n=(chunks + 1) * CHUNK + 35)
    configs = VARIANT_SETS["e73"] + VARIANT_SETS["solve_keys"][:2]
    cfg = configs[0]
    for narrow, full in zip(fit_variants(ds, configs, wide=False), fit_variants(ds, configs)):
        assert_narrow_of(narrow, full)
    assert_narrow_of(fit_all(ds, cfg, wide=False), fit_all(ds, cfg))
    rows = np.array([ds.n - 1, 3, 3, CHUNK, 0])
    assert_narrow_of(fit_rows(ds, cfg, rows, wide=False), fit_rows(ds, cfg, rows))
    test = small_dataset(seed=10, n=2 * CHUNK + 5)
    (preds, narrow), (full_preds, full) = (predict(ds, cfg, test.lat, test.lon, test.x, wide=wide)
                                           for wide in (False, True))
    assert preds.tobytes() == full_preds.tobytes()
    assert_narrow_of(narrow, full)
    # a row of a narrow result is narrow too
    row = fit_all(ds, cfg, wide=False).record(CHUNK)
    assert_narrow_of(row, fit_location(ds, cfg, CHUNK))
    # the ESS of the final weights needs them (ess(None) would be NaN)
    for result in (narrow, row):
        with pytest.raises(ValueError, match="n_eff_final requires weights"):
            result.weight_map.n_eff_final


def test_narrow_fit_allocates_less_by_the_columns_it_drops(monkeypatch):
    ds, _ = generate(SimSpec(n=2000, seed=3))
    cfg = GimbalConfig(k=50)
    query = gimbal.engine.knn

    def knn_then_reset_peak(*args):
        # the query's own transients are the same either way; the peak of
        # the chunks that follow is the one that differs
        out = query(*args)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(gimbal.engine, "knn", knn_then_reset_peak)

    def traced(wide):
        tracemalloc.start()
        try:
            result = fit_all(ds, cfg, wide=wide)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced(False)  # first-call caches
    full, full_peak = traced(True)
    narrow, narrow_peak = traced(False)
    # the weights and residuals are never allocated as result columns
    # (2 x 2000 x 50 x 8 bytes); the distances are the query's own, held
    # through the chunks either way and only dropped from the result
    assert full_peak - narrow_peak >= full.weight_map.weights.nbytes + full.fit.residuals.nbytes
    held = [sum(column.nbytes for column in gimbal.engine._columns(result)) for result in (full, narrow)]
    assert held[0] - held[1] == sum(dict(leaves(full))[path].nbytes for path in WIDE_ONLY)


def test_fit_longitude_shift_invariance():
    # the same cloud centred on lon 0 and on the antimeridian: neighborhoods
    # are identical, so every record must be too
    rng = np.random.default_rng(12)
    lat = rng.uniform(-0.1, 0.1, 300)
    dlon = rng.uniform(-0.1, 0.1, 300)
    x = rng.normal(0.0, 1.0, 300)
    y = 1.0 + 0.5 * x + rng.normal(0.0, 0.3, 300)
    lon_far = np.where(dlon > 0.0, dlon - 180.0, dlon + 180.0)
    cfg = GimbalConfig(k=30)
    near = fit_all(Dataset(lat=lat, lon=dlon, x=x, y=y), cfg)
    far = fit_all(Dataset(lat=lat, lon=lon_far, x=x, y=y), cfg)
    assert np.array_equal(near.neighborhood.member_indices, far.neighborhood.member_indices)
    for name in ("phi", "r_phi", "theta_z", "g_ident", "eta", "lambda_max", "lambda_min"):
        np.testing.assert_allclose(getattr(far.orientation, name), getattr(near.orientation, name),
                                   rtol=1e-9, atol=1e-9, err_msg=name)
    for a, b in ((far.weight_map.weights, near.weight_map.weights),
                 (far.weight_map.n_eff_post, near.weight_map.n_eff_post),
                 (far.fit.beta, near.fit.beta),
                 (far.residual_at_target, near.residual_at_target)):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)
    for name in ("phi_deactivated", "theta_deactivated"):
        assert np.array_equal(getattr(far.orientation, name), getattr(near.orientation, name))
    assert np.array_equal(far.weight_map.fallback_code, near.weight_map.fallback_code)
    assert np.array_equal(far.fit.well_posed, near.fit.well_posed)


def test_fit_all_k_too_large():
    ds = small_dataset(n=10)
    with pytest.raises(ConfigurationError):
        fit_all(ds, GimbalConfig(k=11))


def test_single_point_dataset_is_ill_posed_not_crash():
    ds = Dataset(lat=np.array([35.0]), lon=np.array([135.0]),
                 x=np.array([1.0]), y=np.array([2.0]))
    recs = fit_all(ds, GimbalConfig(k=1))
    assert len(recs) == 1
    assert not recs.fit.well_posed[0]
    assert BRANCH_ILL_POSED in branch_codes(recs.record(0))[0]


def test_branch_codes_consistent_with_flags():
    ds = small_dataset(seed=5, n=120)
    recs = fit_all(ds, GimbalConfig(k=25, n_min=20.0))
    for r in map(recs.record, range(len(recs))):
        codes = branch_codes(r)[0]
        assert ("phi_iso" in codes) == r.orientation.phi_deactivated
        assert ("theta_nonident" in codes) == r.orientation.theta_deactivated
        has_fallback = "uniform_fallback" in codes or "underflow_fallback" in codes
        assert has_fallback == r.weight_map.fallback_uniform
        assert ("ill_posed" in codes) == (not r.fit.well_posed)


def test_n_eff_final_on_a_table():
    ds = small_dataset(seed=5, n=120)
    k = 25
    result = fit_all(ds, GimbalConfig(k=k, n_min=15.0))
    n_eff = result.weight_map.n_eff_final
    assert n_eff.shape == (len(result),)
    fallback = result.weight_map.fallback_uniform
    assert fallback.any() and not fallback.all()
    for i in range(len(result)):
        assert n_eff[i] == result.record(i).weight_map.n_eff_final
    assert n_eff[fallback] == pytest.approx(float(k), rel=1e-12)


def test_predict_rejects_bad_targets():
    train = small_dataset(seed=2, n=80)
    cfg = GimbalConfig(k=20)
    for lats, lons, message in (([200.0], [135.0], "lat out of range .* row 0"),
                                ([35.0, 35.0], [135.0, 400.0], "lon out of range .* row 1"),
                                ([35.0, math.nan], [135.0, 135.0], "column lat is not finite at row 1"),
                                ([35.0], [math.inf], "column lon is not finite at row 0")):
        with pytest.raises(ValueError, match=message):
            predict(train, cfg, lats, lons, np.zeros(len(lats)))
    with pytest.raises(ValueError, match="column x is not finite at row 0"):
        predict(train, cfg, [35.0], [135.0], [math.nan])
    # a column of another length is not broadcast
    for lats, lons, x, name in (([35.0, 35.01], [135.0], [0.5, 0.5], "lon"),
                                ([35.0, 35.01], [135.0, 135.01], [0.5], "x")):
        with pytest.raises(ValueError, match=f"column {name} has length 1, expected 2"):
            predict(train, cfg, lats, lons, x)
    # scalar and 2-D targets are not 1-D columns
    with pytest.raises(ConfigurationError, match=r"column lat must be 1-D, got shape \(\)"):
        predict(train, cfg, 35.0, 135.0, 1.0)
    with pytest.raises(ConfigurationError, match=r"column lat must be 1-D, got shape \(2, 1\)"):
        predict(train, cfg, [[35.0], [35.01]], [[135.0], [135.01]], [[0.5], [0.5]])


def test_predict_matches_in_sample_fitted_value_at_zero_z():
    # a test point that coincides with a training observation reproduces that
    # location's neighborhood, coefficients, and z=0 fitted value exactly
    train = small_dataset(seed=2, n=80)
    cfg = GimbalConfig(k=20)
    preds, result = predict(train, cfg, train.lat[4:5], train.lon[4:5], train.x[4:5])
    pred, record = preds[0], result.record(0)
    assert record.fit.well_posed
    in_sample = fit_location(train, cfg, 4)
    assert np.array_equal(record.neighborhood.member_indices,
                          in_sample.neighborhood.member_indices)
    assert record.fit.beta == pytest.approx(in_sample.fit.beta, rel=0, abs=0)
    fitted_at_target = in_sample.fit.beta[0] + in_sample.fit.beta[1] * float(train.x[4])
    assert pred == fitted_at_target


def test_prediction_independent_of_beta2():
    train = small_dataset(seed=3, n=80)
    cfg = GimbalConfig(k=20)
    preds, result = predict(train, cfg, [35.01], [135.01], [0.7])
    pred, record = preds[0], result.record(0)
    # recompute the prediction from the record's own coefficients
    assert pred == pytest.approx(record.fit.beta[0] + record.fit.beta[1] * 0.7)


def test_predict_neighborhood_is_training_only():
    train = small_dataset(seed=4, n=50)
    cfg = GimbalConfig(k=50)  # all training points
    record = predict(train, cfg, [35.02], [135.02], [0.0])[1].record(0)
    assert sorted(record.neighborhood.member_indices.tolist()) == list(range(50))
    assert record.index == -1
    assert math.isnan(record.residual_at_target)  # the target is no member


def test_predict_oos_rmse_sanity_envelope():
    ds, _ = generate(SimSpec(n=300, extent=8000.0, seed=11))
    train = Dataset(lat=ds.lat[:240], lon=ds.lon[:240], x=ds.x[:240], y=ds.y[:240])
    test = Dataset(lat=ds.lat[240:], lon=ds.lon[240:], x=ds.x[240:], y=ds.y[240:])
    cfg = GimbalConfig(k=30)
    in_sample = fit_all(train, cfg)
    mu_in = float(np.mean(in_sample.fit.rmse_local))
    preds, _ = predict(train, cfg, test.lat, test.lon, test.x)
    rmse_out = math.sqrt(float(np.mean((preds - test.y) ** 2)))
    assert math.isfinite(rmse_out)
    assert rmse_out < 2.0 * max(mu_in, 1.0)


def prediction_members(lats, lons, target_lats, target_lons, k):
    """The (distance, index)-ordered neighbor rows of a K=k prediction from
    the training points (lats, lons) at the targets."""
    rng = np.random.default_rng(0)
    train = Dataset(lat=lats, lon=lons, x=rng.normal(size=len(lats)), y=rng.normal(size=len(lats)))
    _, result = predict(train, GimbalConfig(k=k), target_lats, target_lons, np.zeros(len(target_lats)))
    return result.neighborhood.member_indices


def test_residual_knn_correct():
    lats = np.array([35.0, 35.1, 35.2, 35.3])
    lons = np.full(4, 135.0)
    res = np.array([1.0, 2.0, 3.0, 4.0])
    members = prediction_members(lats, lons, [35.05], [135.0], 4)
    assert residual_knn_correct(np.zeros(4), members, 2).tolist() == [0.0]
    members = prediction_members(lats, lons, [35.09, 35.21], [135.0, 135.0], 4)
    assert residual_knn_correct(res, members, 1).tolist() == [2.0, 3.0]
    # brute-force check
    rng = np.random.default_rng(70)
    lats = rng.uniform(34.8, 35.2, 30)
    lons = rng.uniform(134.8, 135.2, 30)
    res = rng.normal(0, 1, 30)
    from scalar_geo import haversine_distance

    order = sorted(range(30), key=lambda i: (haversine_distance((35.0, 135.0), (lats[i], lons[i])), i))
    members = prediction_members(lats, lons, [35.0], [135.0], 12)
    for k in (5, 12):
        expect = float(np.mean(res[order[:k]]))
        assert residual_knn_correct(res, members, k)[0] == pytest.approx(expect, rel=1e-12)


def lattice_with_duplicates():
    """A 12 x 12 lattice of 0.01-degree steps, every point twice, and targets
    on lattice points (distance-0 duplicates) and between them (ties)."""
    lat, lon = (g.ravel() for g in np.meshgrid(35.0 + 0.01 * np.arange(12), 135.0 + 0.01 * np.arange(12)))
    lats, lons = np.tile(lat, 2), np.tile(lon, 2)
    target_lats = np.append(lat[::7], lat[::11] + 0.005)
    target_lons = np.append(lon[::7], lon[::11] + 0.005)
    return lats, lons, target_lats, target_lons


@pytest.mark.parametrize("k", [1, 10, 30])
def test_residual_knn_correct_equals_own_query_bitwise(k):
    # the first k of a (distance, index)-ordered K-row are the k nearest
    lats, lons, target_lats, target_lons = lattice_with_duplicates()
    res = np.random.default_rng(71).normal(size=len(lats))
    members = prediction_members(lats, lons, target_lats, target_lons, 30)
    expect = np.mean(res[knn(lats, lons, target_lats, target_lons, k)[0]], -1)
    assert np.array_equal(residual_knn_correct(res, members, k).view(np.int64), expect.view(np.int64))


def test_residual_knn_correct_makes_no_query(monkeypatch):
    lats, lons, target_lats, target_lons = lattice_with_duplicates()
    res = np.random.default_rng(72).normal(size=len(lats))
    members = prediction_members(lats, lons, target_lats, target_lons, 30)
    expect = np.mean(res[knn(lats, lons, target_lats, target_lons, 10)[0]], -1)

    def no_query(*args, **kwargs):
        raise AssertionError("the residual correction ran a neighbor query")

    monkeypatch.setattr(gimbal.engine, "knn", no_query)
    assert np.array_equal(residual_knn_correct(res, members, 10), expect)


def test_residual_knn_correct_bounds():
    lats, lons, target_lats, target_lons = lattice_with_duplicates()
    members = prediction_members(lats, lons, target_lats, target_lons, 30)
    for k in (0, -1, 31):
        with pytest.raises(ConfigurationError, match=rf"k_resid={k} outside \[1, K=30\]"):
            residual_knn_correct(np.zeros(len(lats)), members, k)


def test_standardized_covariate_constant_column():
    x_std = standardized_covariate(np.full(5, 3.0))
    assert np.all(x_std == 0.0)


def test_records_depend_only_on_own_data():
    # permuting other rows only relabels; the target's record is unchanged
    ds = small_dataset(seed=6, n=40)
    cfg = GimbalConfig(k=10)
    rec = fit_location(ds, cfg, 0)
    perm = np.concatenate([[0], 1 + np.random.default_rng(1).permutation(39)])
    ds2 = Dataset(lat=ds.lat[perm], lon=ds.lon[perm], x=ds.x[perm], y=ds.y[perm])
    rec2 = fit_location(ds2, cfg, 0)
    assert rec2.fit.beta == pytest.approx(rec.fit.beta, rel=1e-12)
    assert rec2.weight_map.n_eff_post == pytest.approx(rec.weight_map.n_eff_post, rel=1e-12)


@st.composite
def permuted_fits(draw):
    """(dataset, config, perm): a random cloud whose rows have no exact tie
    among their first K + 1 distances, so that a permutation only relabels
    neighbors, and a random permutation of its rows. K is large, so a chunk
    holds a few hundred rows and the permutation moves rows across chunks."""
    k = draw(st.sampled_from([100, 200]))
    two_chunks = next(n for n in itertools.count(k) if len(batches(n, k)) > 1)
    n = draw(st.integers(two_chunks, 700))
    ds, _ = generate(SimSpec(n=n, sampling=draw(st.sampled_from(["uniform", "gaussian"])),
                             extent=draw(st.sampled_from([3000.0, 40_000.0])), seed=draw(st.integers(0, 2**16))))
    _, distances = knn(ds.lat, ds.lon, ds.lat, ds.lon, k + 1)
    assume(np.all(np.diff(distances, axis=-1) > 0.0))
    config = GimbalConfig(k=k, h=draw(st.sampled_from([1000.0, 3000.0, 20_000.0])))
    return ds, config, np.array(draw(st.permutations(range(n))))


@settings(max_examples=50, deadline=None)
@given(permuted_fits())
def test_property_fit_all_is_equivariant_under_input_permutation(case):
    # row i of the permuted input is row perm[i] of the input: its fit is
    # that row's bit for bit, its members mapped back through perm, but for
    # cond_wls2, whose standardized covariate reads the moments of all of x
    ds, config, perm = case
    expect = fit_all(ds, config).take(perm)
    permuted = fit_all(Dataset(lat=ds.lat[perm], lon=ds.lon[perm], x=ds.x[perm], y=ds.y[perm]), config)
    assert expect.index.tolist() == perm.tolist() and permuted.index.tolist() == list(range(ds.n))
    got = dict(leaves(permuted))
    for path, column in leaves(expect):
        if path == "index":
            continue
        if path == "neighborhood.member_indices":
            assert np.array_equal(perm[got[path]], column)
        elif path == "cond_wls2":
            np.testing.assert_allclose(got[path], column, rtol=1e-12, atol=0.0)
        else:
            assert got[path].dtype == column.dtype and got[path].tobytes() == column.tobytes(), path
    assert branch_codes(permuted) == branch_codes(expect)
