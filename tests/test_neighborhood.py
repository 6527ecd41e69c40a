import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gimbal.neighborhood as neighborhood
from scalar_geo import haversine_distance, haversine_to_all, nearest_others
from gimbal.diagnostics import moran_adjacency
from gimbal.geo import EARTH_RADIUS_M, unit_vectors
from gimbal.neighborhood import BATCH_ELEMENTS, KEY_ELEMENTS, ConfigurationError, batches, knn
from gimbal.simgen import SimSpec, generate


@pytest.mark.parametrize("width", [1, 5, 12, 22, 30, 50, 200, 4097, BATCH_ELEMENTS // 2, 3 * BATCH_ELEMENTS])
def test_batches_are_equal_and_near_the_budget(width):
    # n * width / BATCH_ELEMENTS batches rounded half up, at least one and at
    # most n; sizes differ by at most one row, the batches cover range(n) in
    # order, and none holds 1.5 BATCH_ELEMENTS elements unless one row holds
    # more than half of them
    rng = np.random.default_rng(width)
    near = [round(m * BATCH_ELEMENTS / width) + d for m in (0.5, 1, 1.5, 2, 2.5, 7.3) for d in (-1, 0, 1)]
    for n in sorted({0, 1, 2, 3, *near, *rng.integers(0, 40 * BATCH_ELEMENTS // width + 3, 40).tolist()}):
        if n < 0:
            continue
        cut = batches(n, width)
        expect = max(1, min(n, math.floor(Fraction(n * width, BATCH_ELEMENTS) + Fraction(1, 2))))
        assert len(cut) == expect, n
        sizes = [rows.stop - rows.start for rows in cut]
        assert all(rows.step is None for rows in cut)
        assert [rows.start for rows in cut] == [0, *itertools.accumulate(sizes)][:-1] and cut[-1].stop == n
        assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True), n
        if 2 * width <= BATCH_ELEMENTS:
            assert max(sizes) * width < 1.5 * BATCH_ELEMENTS, n
        else:
            assert max(sizes) * width < 1.5 * BATCH_ELEMENTS or max(sizes) == 1, n
    # no target still makes one empty batch, and the workloads' shapes
    assert batches(0, width) == [slice(0, 0)]
    assert batches(1200, 30) == [slice(0, 1200)]
    assert [rows.stop - rows.start for rows in batches(4800, 50)] == [686] * 5 + [685] * 2


def scan_oracle(lats, lons, target, k):
    """Exhaustive (distance, index) sort, written independently of knn."""
    pairs = []
    for i in range(len(lats)):
        pairs.append((haversine_distance(target, (lats[i], lons[i])), i))
    pairs.sort()
    return [i for _, i in pairs[:k]]


def knn_one(lats, lons, target_lat, target_lon, k):
    """knn at one target, as (K,) members and distances."""
    members, distances = knn(lats, lons, [target_lat], [target_lon], k)
    return members[0], distances[0]


def assert_matches_oracle(lats, lons, target_lats, target_lons, k):
    members, distances = knn(lats, lons, target_lats, target_lons, k)
    assert members.shape == distances.shape == (len(target_lats), k)
    for i, target in enumerate(zip(target_lats, target_lons)):
        assert members[i].tolist() == scan_oracle(lats, lons, target, k), i
        assert np.all(np.diff(distances[i]) >= 0)
    assert_member_distances(lats, lons, target_lats, target_lons, members, distances)


def assert_member_distances(lats, lons, target_lats, target_lons, members, distances):
    """The reported distances are haversine_to_all of the members, bit for
    bit: the query's gathered haversine table changes no bit."""
    tlats, tlons = np.asarray(target_lats, float), np.asarray(target_lons, float)
    expected = haversine_to_all(np.asarray(lats)[members], np.asarray(lons)[members],
                                tlats[:, None], tlons[:, None])
    assert np.array_equal(distances.view(np.int64), expected.view(np.int64))


def random_cloud(rng, n, spread=1.0):
    """n points uniform in a square of side spread degrees about (35, 135)."""
    return (rng.uniform(35.0 - spread / 2, 35.0 + spread / 2, n),
            rng.uniform(135.0 - spread / 2, 135.0 + spread / 2, n))


def sphere_points(rng, n):
    """n points uniform over the whole sphere."""
    return np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n))), rng.uniform(-180.0, 180.0, n)


def test_self_is_member_zero():
    lats = np.array([35.0, 35.1, 35.2])
    lons = np.array([135.0, 135.0, 135.0])
    members, distances = knn_one(lats, lons, 35.1, 135.0, 2)
    assert members[0] == 1
    assert distances[0] == 0.0


def test_k_equals_n_returns_everything():
    rng = np.random.default_rng(7)
    lats, lons = random_cloud(rng, 12)
    members, _ = knn_one(lats, lons, 35.0, 135.0, 12)
    assert sorted(members.tolist()) == list(range(12))


def test_matches_exhaustive_scan_oracle():
    rng = np.random.default_rng(8)
    lats, lons = random_cloud(rng, 50)
    for _ in range(20):
        tlat = rng.uniform(34.5, 35.5)
        tlon = rng.uniform(134.5, 135.5)
        members, _ = knn_one(lats, lons, tlat, tlon, 5)
        assert members.tolist() == scan_oracle(lats, lons, (tlat, tlon), 5)


def test_distances_nondecreasing():
    rng = np.random.default_rng(9)
    lats, lons = random_cloud(rng, 80)
    _, distances = knn_one(lats, lons, 35.0, 135.0, 30)
    assert np.all(np.diff(distances) >= 0)


def test_tie_break_by_original_index():
    # three coincident points: smaller indices win the tie
    lats = np.array([35.0, 35.0, 35.0, 35.5])
    lons = np.array([135.0, 135.0, 135.0, 135.0])
    members, _ = knn_one(lats, lons, 35.0, 135.0, 2)
    assert members.tolist() == [0, 1]


def test_determinism_two_identical_calls():
    rng = np.random.default_rng(10)
    lats, lons = random_cloud(rng, 40)
    a = knn_one(lats, lons, 35.2, 135.2, 10)
    b = knn_one(lats, lons, 35.2, 135.2, 10)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_k_outside_eligible_range_raises():
    lats = np.array([35.0, 35.1])
    lons = np.array([135.0, 135.1])
    with pytest.raises(ConfigurationError, match=r"K=3 outside the eligible range \[1, 2\]"):
        knn_one(lats, lons, 35.0, 135.0, 3)
    with pytest.raises(ConfigurationError):
        knn_one(lats, lons, 35.0, 135.0, 0)


# ---- batched queries against the oracle on tie-heavy and edge geometry

def test_exact_tie_lattice():
    # a lattice symmetric about the equator and the prime meridian: the four
    # mirror images of each offset tie exactly, and K cuts through tie groups
    steps = np.arange(-3, 4) * 0.01
    lats, lons = (a.ravel() for a in np.meshgrid(steps, steps, indexing="ij"))
    for k in (2, 3, 6, 11, 24, 49):
        assert_matches_oracle(lats, lons, [0.0], [0.0], k)
    members, distances = knn_one(lats, lons, 0.0, 0.0, 5)
    assert members[0] == 24
    # the four nearest lattice points tie at one distance, taken in index order
    assert len(set(distances[1:5].tolist())) == 1
    assert members[1:5].tolist() == sorted(members[1:5].tolist())


def test_duplicate_points():
    rng = np.random.default_rng(12)
    lats, lons = random_cloud(rng, 6)
    picks = rng.integers(0, 6, 40)
    lats, lons = lats[picks], lons[picks]
    for k in (1, 5, 13, 40):
        assert_matches_oracle(lats, lons, lats, lons, k)


def test_k_equals_n_full_order():
    rng = np.random.default_rng(13)
    lats, lons = random_cloud(rng, 30)
    assert_matches_oracle(lats, lons, lats[:10], lons[:10], 30)


def test_cloud_straddling_antimeridian():
    rng = np.random.default_rng(15)
    lons = rng.uniform(179.9, 180.1, 120)
    lons = np.where(lons > 180.0, lons - 360.0, lons)
    lats = rng.uniform(-0.1, 0.1, 120)
    assert_matches_oracle(lats, lons, lats[:30], lons[:30], 15)
    assert_matches_oracle(lats, lons, [0.0, 0.0], [180.0, -180.0], 15)


def test_ring_near_pole():
    rng = np.random.default_rng(16)
    lats = np.append(rng.uniform(89.95, 90.0, 150), 90.0)
    lons = np.append(rng.uniform(-180.0, 180.0, 150), 0.0)
    assert_matches_oracle(lats, lons, lats[::10], lons[::10], 20)
    assert_matches_oracle(lats, lons, [90.0, 89.99], [45.0, -170.0], 20)


def test_more_targets_than_one_block():
    rng = np.random.default_rng(17)
    n = 1000
    lats, lons = random_cloud(rng, n)
    # three full-scan blocks of targets and one more row
    targets = 3 * (KEY_ELEMENTS // n) + 1
    tlats, tlons = random_cloud(rng, targets)
    assert_matches_oracle(lats, lons, tlats, tlons, 12)


# ---- the cosine prefilter where cosines cannot order the points: clusters
# finer than the key's rounding, antipodes, and mixed scales

def test_sub_millimetre_cluster():
    # ~1e-9 deg (~0.1 mm) apart: every cosine rounds to within a few ulp of 1
    rng = np.random.default_rng(18)
    lats, lons = random_cloud(rng, 60, spread=1e-9)
    for k in (1, 4, 10, 30, 60):
        assert_matches_oracle(lats, lons, lats[::3], lons[::3], k)


def test_antipodal_targets_on_the_sphere():
    rng = np.random.default_rng(20)
    lats, lons = sphere_points(rng, 80)
    # each point's antipode: that point is the farthest of the whole pool
    tlats = -lats
    tlons = np.where(lons > 0.0, lons - 180.0, lons + 180.0)
    for k in (1, 9, 40, 80):
        assert_matches_oracle(lats, lons, tlats, tlons, k)
    members, _ = knn(lats, lons, tlats, tlons, 80)
    assert np.array_equal(members[:, -1], np.arange(80))


@st.composite
def point_sets(draw):
    """Few distinct points, picked with repeats; targets among the picks.
    The pool's spread runs from ~1e-9 deg (sub-millimetre) to 90 deg."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** draw(st.floats(-9.0, np.log10(90.0)))
    pool_lats, pool_lons = random_cloud(rng, draw(st.integers(1, 6)), spread)
    picks = np.array(draw(st.lists(st.integers(0, len(pool_lats) - 1), min_size=2, max_size=25)))
    n = picks.shape[0]
    targets = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)))
    k = draw(st.integers(1, n))
    return pool_lats[picks], pool_lons[picks], targets, k


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_property_matches_oracle_with_duplicates(case):
    lats, lons, targets, k = case
    assert_matches_oracle(lats, lons, lats[targets], lons[targets], k)


def great_circle_shift(lats, lons, shift, bearing):
    """The points shift meters from (lats, lons) along the great circle at
    bearing (radians from north)."""
    delta = shift / EARTH_RADIUS_M
    phi, lam = np.radians(lats), np.radians(lons)
    phi2 = np.arcsin(np.sin(phi) * np.cos(delta) + np.cos(phi) * np.sin(delta) * np.cos(bearing))
    lam2 = lam + np.arctan2(np.sin(bearing) * np.sin(delta) * np.cos(phi),
                            np.cos(delta) - np.sin(phi) * np.sin(phi2))
    return np.degrees(phi2), np.degrees(lam2)


@st.composite
def gap_cases(draw):
    """30-600 uniform, gaussian or clustered points, a tenth of them copies
    of others and ten in a cluster about 0.1 m wide; a K, and for each point
    a fraction of its allowed shift (half of them 0.999) and a bearing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(30, 600))
    kind = draw(st.sampled_from(["uniform", "gaussian", "clustered"]))
    if kind == "uniform":
        lats, lons = random_cloud(rng, n, 0.5)
    elif kind == "gaussian":
        lats, lons = 35.0 + rng.normal(0.0, 0.1, n), 135.0 + rng.normal(0.0, 0.1, n)
    else:
        centres = rng.integers(0, 5, n)
        lats = 35.0 + rng.uniform(-0.3, 0.3, 5)[centres] + rng.normal(0.0, 1e-3, n)
        lons = 135.0 + rng.uniform(-0.3, 0.3, 5)[centres] + rng.normal(0.0, 1e-3, n)
    copies = n // 10
    lats[:copies], lons[:copies] = lats[-copies:], lons[-copies:]
    lats[copies:copies + 10] = lats[copies] + rng.uniform(-5e-7, 5e-7, 10)
    lons[copies:copies + 10] = lons[copies] + rng.uniform(-5e-7, 5e-7, 10)
    k = draw(st.integers(1, min(60, n - 1)))
    fraction = np.where(rng.random(n) < 0.5, 0.999, rng.random(n))
    return lats, lons, k, fraction, rng.uniform(0.0, 2.0 * np.pi, n)


@settings(max_examples=40, deadline=None)
@given(gap_cases())
def test_property_shift_within_the_gap_keeps_the_members(case):
    # a shift moves every distance by at most itself, so a target moved by
    # less than half the gap between its k-th and (k+1)-th distances (less a
    # micrometre for rounding) keeps its k nearest points
    lats, lons, k, fraction, bearing = case
    members, distances = knn(lats, lons, lats, lons, k + 1)
    gap = distances[:, k] - distances[:, k - 1]
    rows = np.flatnonzero(gap > 1e-6)
    shift = fraction[rows] * (gap[rows] - 1e-6) / 2.0
    assert np.all(2.0 * shift + 1e-6 < gap[rows])
    moved, _ = knn(lats, lons, *great_circle_shift(lats[rows], lons[rows], shift, bearing[rows]), k)
    assert np.array_equal(np.sort(moved, axis=-1), np.sort(members[rows, :k], axis=-1))


# ---- the cell grid: rows answered from a 3x3x3 block of cells agree bit for
# bit with the full scan, the grid's coarsest level

def full_scan(monkeypatch, *args, **kwargs):
    """knn with every row sent to the full scan."""
    with monkeypatch.context() as m:
        m.setattr(neighborhood, "FULL_SCAN_SHARE", 0.0)
        return knn(*args, **kwargs)


def grid_answered(monkeypatch, query, n_targets):
    """query()'s result, and a mask of the n_targets rows its knn call answered
    on the grid (no full-scan block)."""
    scanned = []
    key_blocks = neighborhood._key_blocks

    def spied(*spy_args):
        for block, cos, grid, *columns in key_blocks(*spy_args):
            if grid is None:
                scanned.append(block.copy())
            yield block, cos, grid, *columns

    with monkeypatch.context() as m:
        m.setattr(neighborhood, "_key_blocks", spied)
        result = query()
    answered = np.ones(n_targets, dtype=bool)
    for block in scanned:
        answered[block] = False
    return result, answered


def assert_grid_matches(monkeypatch, lats, lons, target_lats, target_lons, k, oracle_rows=()):
    """knn equals the full scan bit for bit, and the oracle on oracle_rows;
    returns the mask of rows the grid answered."""
    (members, distances), answered = grid_answered(
        monkeypatch, lambda: knn(lats, lons, target_lats, target_lons, k), len(target_lats))
    full_members, full_distances = full_scan(monkeypatch, lats, lons, target_lats, target_lons, k)
    assert np.array_equal(members, full_members)
    assert np.array_equal(distances, full_distances)
    assert_member_distances(lats, lons, target_lats, target_lons, members, distances)
    for i in oracle_rows:
        target = (target_lats[i], target_lons[i])
        assert members[i].tolist() == scan_oracle(lats, lons, target, k), i
    return answered


def assert_moran_rows_match(monkeypatch, lats, lons, k_moran, oracle_rows):
    """moran_adjacency of fit rows that hold only the point itself, so that
    every row is short and one knn of k_moran + 1 answers all of them, equals
    nearest_others on oracle_rows; returns the mask of rows the grid answered."""
    n = len(lats)
    adjacency, answered = grid_answered(monkeypatch, lambda: moran_adjacency(
        np.ones(n, dtype=bool), lats, lons, np.arange(n)[:, None], k_moran), n)
    assert np.array_equal(adjacency[oracle_rows], nearest_others(lats, lons, oracle_rows, k_moran))
    return answered


def test_grid_dense_cluster_in_sparse_field(monkeypatch):
    # a ~2 km cluster, and a sub-millimetre one 3 degrees north of it, inside
    # a 20-degree field
    rng = np.random.default_rng(22)
    field_lats, field_lons = random_cloud(rng, 1500, spread=20.0)
    dense_lats, dense_lons = random_cloud(rng, 1200, spread=0.02)
    tiny_lats, tiny_lons = random_cloud(rng, 300, spread=1e-9)
    tiny_lats = tiny_lats + 3.0
    order = rng.permutation(3000)
    lats = np.concatenate([field_lats, dense_lats, tiny_lats])[order]
    lons = np.concatenate([field_lons, dense_lons, tiny_lons])[order]
    tlats, tlons = lats[::7], lons[::7]
    for k in (1, 10, 60):
        answered = assert_grid_matches(monkeypatch, lats, lons, tlats, tlons, k,
                                       oracle_rows=range(0, tlats.shape[0], 43))
        # a field point whose block takes in the cluster gets the full scan
        assert answered.mean() > 0.6


def test_grid_targets_on_cell_boundaries(monkeypatch):
    # a lattice about lat 0 / lon 0 and one across lon 180: unit-vector
    # components of 0 and +-1 are exact multiples of every cell side, and
    # the lattice's mirror images tie exactly
    steps = np.arange(-20, 21) * 0.001
    lat_grid, lon_grid = (a.ravel() for a in np.meshgrid(steps, steps, indexing="ij"))
    lats = np.concatenate([lat_grid, lat_grid])
    lons = np.concatenate([lon_grid, np.where(lon_grid > 0.0, lon_grid - 180.0, lon_grid + 180.0)])
    tlats = np.array([0.0, 0.0, 0.0, 0.001, -0.02, 0.0, 0.0, 0.0, 0.005])
    tlons = np.array([0.0, 180.0, -180.0, 0.0, 0.02, 0.01, 179.99, -179.99, -180.0])
    for k in (2, 3, 6, 11, 24, 49, 120):
        answered = assert_grid_matches(monkeypatch, lats, lons, tlats, tlons, k,
                                       oracle_rows=range(tlats.shape[0]))
        assert answered.all()


def test_grid_near_the_poles(monkeypatch):
    rng = np.random.default_rng(23)
    lats = np.concatenate([rng.uniform(89.9, 90.0, 800), [90.0, 90.0],
                           rng.uniform(-90.0, -89.9, 800), [-90.0]])
    lons = np.concatenate([rng.uniform(-180.0, 180.0, 800), [0.0, 180.0],
                           rng.uniform(-180.0, 180.0, 800), [-180.0]])
    tlats = np.concatenate([[90.0, -90.0, 90.0], lats[::40]])
    tlons = np.concatenate([[0.0, 0.0, 180.0], lons[::40]])
    for k in (1, 12, 50):
        answered = assert_grid_matches(monkeypatch, lats, lons, tlats, tlons, k,
                                       oracle_rows=range(0, tlats.shape[0], 4))
        assert answered[:3].all()


def test_grid_duplicates_straddling_a_boundary(monkeypatch):
    # duplicated points on the equator (z = 0, a cell boundary at every level)
    # and a hair either side of it, in a field that engages the grid
    rng = np.random.default_rng(24)
    base_lats = np.array([-1e-9, 0.0, 1e-9, 0.0, -1e-7, 1e-7])
    base_lons = np.array([0.0, 0.0, 0.0, 1e-9, 0.0, 0.0])
    picks = rng.integers(0, base_lats.shape[0], 300)
    field_lats = rng.uniform(-0.5, 0.5, 900)
    field_lons = rng.uniform(-0.5, 0.5, 900)
    lats = np.concatenate([base_lats[picks], field_lats])
    lons = np.concatenate([base_lons[picks], field_lons])
    targets = np.concatenate([np.arange(0, 300, 11), np.arange(300, 1200, 37)])
    for k in (1, 7, 49, 50, 51, 90):
        answered = assert_grid_matches(monkeypatch, lats, lons, lats[targets], lons[targets], k,
                                       oracle_rows=range(0, targets.shape[0], 5))
        assert answered.any()


def test_grid_answers_moran_short_rows_among_duplicates(monkeypatch):
    # 300 of 1800 points repeat another: a repeat's own point may be pushed
    # out of its k_moran + 1 row
    rng = np.random.default_rng(25)
    lats, lons = random_cloud(rng, 1500, spread=2.0)
    picks = rng.integers(0, 1500, 300)
    lats, lons = np.concatenate([lats, lats[picks]]), np.concatenate([lons, lons[picks]])
    rows = np.concatenate([np.arange(0, 1500, 29), np.arange(1500, 1800, 3)])
    for k_moran in (1, 8, 40):
        answered = assert_moran_rows_match(monkeypatch, lats, lons, k_moran, rows)
        assert answered.mean() > 0.9
    # k_moran = n - 1: every block is too small, and every row is a full scan
    small = slice(0, 40)
    answered = assert_moran_rows_match(monkeypatch, lats[small], lons[small], 39, np.arange(40))
    assert not answered.any()


def test_grid_widens_to_full_scan_for_antipodal_targets(monkeypatch):
    # targets outside a regional pool: the cloud's antipode and points far
    # from every training point must reach the full scan, the rest not
    rng = np.random.default_rng(26)
    lats, lons = random_cloud(rng, 2000, spread=1.0)
    far_lats = np.array([-35.0, -35.3, -34.6, 35.0, 0.0])
    far_lons = np.array([-45.0, -44.8, -45.4, -45.0, 45.0])
    near_lats, near_lons = random_cloud(rng, 20, spread=1.0)
    tlats = np.concatenate([far_lats, near_lats])
    tlons = np.concatenate([far_lons, near_lons])
    for k in (1, 25, 50):
        answered = assert_grid_matches(monkeypatch, lats, lons, tlats, tlons, k,
                                       oracle_rows=range(tlats.shape[0]))
        assert not answered[:far_lats.shape[0]].any()
        assert answered[far_lats.shape[0]:].mean() > 0.5


@pytest.mark.parametrize("k, moran", [(50, False), (8, True)])
def test_grid_equals_full_scan_at_scale(monkeypatch, k, moran):
    # the fit_large data shape at N=19200, every 50th target; with moran, a
    # Moran adjacency whose rows are all short, against the brute-force sort
    ds, _ = generate(SimSpec(n=19200, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1))
    rows = np.arange(0, ds.n, 50)
    if moran:
        answered = assert_moran_rows_match(monkeypatch, ds.lat, ds.lon, k, rows)
    else:
        answered = assert_grid_matches(monkeypatch, ds.lat, ds.lon, ds.lat[rows], ds.lon[rows], k)
    assert answered.mean() > 0.95


def test_grids_finer_than_every_row_left_are_dropped_and_built_once(monkeypatch):
    # rows only retry coarser, so a grid finer than every row still to be
    # answered is dropped (the walk's probes finer than every first level
    # among them), and no level's grid is built twice
    ds, _ = generate(SimSpec(n=19200, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1))
    events, first = [], []
    missing, first_levels = neighborhood._Grids.__missing__, neighborhood._first_levels

    def built(grids, level):
        events.append(("build", level))
        return missing(grids, level)

    def dropped(grids, level):
        events.append(("drop", level))
        dict.__delitem__(grids, level)

    def spied_first_levels(*args):
        first.append(first_levels(*args))
        return first[-1]

    monkeypatch.setattr(neighborhood._Grids, "__missing__", built)
    monkeypatch.setattr(neighborhood._Grids, "__delitem__", dropped)
    monkeypatch.setattr(neighborhood, "_first_levels", spied_first_levels)
    knn(ds.lat, ds.lon, ds.lat, ds.lon, 50)
    levels = [level for what, level in events if what == "build"]
    assert len(levels) == len(set(levels))
    probes = {level for level in levels if level > first[0].max()}
    assert probes and probes <= {level for what, level in events if what == "drop"}
    for i, (what, level) in enumerate(events):
        if what == "drop":
            assert ("build", level) in events[:i] and ("build", level) not in events[i:]


def test_one_pass_keys_each_level_once_with_the_rows_retried_from_above(monkeypatch):
    # fit_large's data: the levels are keyed once each, finest first, and a
    # row that fails its bound is keyed with the next coarser level's own
    # rows (seed 1: 1 990 rows whose first level is 8 and 101 from level 9)
    ds, _ = generate(SimSpec(n=4800, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1))
    first, calls = [], []
    first_levels, key_blocks = neighborhood._first_levels, neighborhood._key_blocks

    def spied_first_levels(*args):
        level = first_levels(*args)
        first.append(level.copy())
        return level

    def spied_key_blocks(grids, level, pool, targets, rows):
        calls.append((level, rows.copy()))
        return key_blocks(grids, level, pool, targets, rows)

    with monkeypatch.context() as m:
        m.setattr(neighborhood, "_first_levels", spied_first_levels)
        m.setattr(neighborhood, "_key_blocks", spied_key_blocks)
        members, distances = knn(ds.lat, ds.lon, ds.lat, ds.lon, 50)
    levels = [level for level, _ in calls]
    assert len(first) == 1 and len(levels) >= 4
    assert levels == sorted(set(levels), reverse=True)
    # each row is keyed first at its first level, then only one level below
    # the one it failed at
    last = first[0] + 1
    mixed = 0
    for level, rows in calls:
        assert np.all(last[rows] == level + 1), level
        last[rows] = level
        own = first[0][rows] == level
        mixed += own.any() and not own.all()
    assert mixed
    full_members, full_distances = full_scan(monkeypatch, ds.lat, ds.lon, ds.lat, ds.lon, 50)
    assert np.array_equal(members, full_members)
    assert np.array_equal(distances.view(np.int64), full_distances.view(np.int64))


@pytest.mark.parametrize("k", [50, 5])
def test_cell_products_equal_full_scan_at_scale(monkeypatch, k):
    # N=19200 fit_large-shaped data and 400 copies of its first point,
    # queried by every pool point (a cell holds several rows, the copies'
    # cell more than one padded product can hold) and by a cloud outside the
    # pool: some key block holds cells of unequal block sizes and row counts,
    # no padded product exceeds KEY_ELEMENTS keys, one comes within a tenth
    # of it, and every row is the full scan's bit for bit
    ds, _ = generate(SimSpec(n=19200, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1))
    out, _ = generate(SimSpec(n=1200, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=2))
    lats = np.concatenate([ds.lat, np.full(400, ds.lat[0])])
    lons = np.concatenate([ds.lon, np.full(400, ds.lon[0])])
    assert 400 * 400 > KEY_ELEMENTS
    matmul, key_blocks = np.matmul, neighborhood._key_blocks
    for target_lats, target_lons in ((lats, lons), (out.lat, out.lon)):
        products, mixed = [], []

        def spied_matmul(*args):
            keys = matmul(*args)
            products.append(keys.size)
            return keys

        def spied(*spy_args):
            for block, cos, grid, positions, row_piece in key_blocks(*spy_args):
                if grid is not None:
                    widths = np.unique(np.isfinite(cos).sum(axis=-1))
                    mixed.append(widths.shape[0] > 1 and np.unique(np.bincount(row_piece)).shape[0] > 1)
                yield block, cos, grid, positions, row_piece

        with monkeypatch.context() as m:
            m.setattr(np, "matmul", spied_matmul)
            m.setattr(neighborhood, "_key_blocks", spied)
            members, distances = knn(lats, lons, target_lats, target_lons, k)
        assert products and 0.9 * KEY_ELEMENTS <= max(products) <= KEY_ELEMENTS
        assert any(mixed)
        rows = np.arange(0, target_lats.shape[0], 7)
        full_members, full_distances = full_scan(
            monkeypatch, lats, lons, target_lats[rows], target_lons[rows], k)
        assert np.array_equal(members[rows], full_members)
        assert np.array_equal(distances[rows], full_distances)


# ---- the acceptance bound, the level walk and the tie-only lexsort

def on_face(axis, value, lat, lon):
    """(lat, lon) with lat (axis 2, z) or lon (axis 1, y) stepped ulp by ulp
    until the unit vector's component on axis is exactly value."""
    point = [lat, lon]
    moved = 0 if axis == 2 else 1
    for _ in range(400):
        component = unit_vectors(np.array(point[:1]), np.array(point[1:]))[0, axis]
        if component == value:
            return tuple(point)
        point[moved] = np.nextafter(point[moved], np.inf if component < value else -np.inf)
    raise AssertionError("no such point")


def ring(lat0, lon0, inner, outer, n, rng):
    """n points at central angles uniform in [inner, outer] radians around
    (lat0, lon0), in every direction."""
    t = unit_vectors(np.array([lat0]), np.array([lon0]))[0]
    phi, lam = np.radians(lat0), np.radians(lon0)
    east = np.array([-np.sin(lam), np.cos(lam), 0.0])
    north = np.array([-np.sin(phi) * np.cos(lam), -np.sin(phi) * np.sin(lam), np.cos(phi)])
    angle = rng.uniform(inner, outer, n)[:, None]
    bearing = rng.uniform(0.0, 2.0 * np.pi, n)[:, None]
    p = np.cos(angle) * t + np.sin(angle) * (np.cos(bearing) * east + np.sin(bearing) * north)
    return np.degrees(np.arcsin(p[:, 2])), np.degrees(np.arctan2(p[:, 1], p[:, 0]))


def test_grid_targets_on_a_cell_face_edge_and_corner(monkeypatch):
    # z = 1/2 is a cell face at every level from 1; lat 0 with y = 1/4 an
    # edge from level 2; lat 0, lon 0 (the point (1, 0, 0)) a corner at
    # every level. Such a target's clearance is one cell side, so a ring of
    # points just beyond one cell side puts some of its nearest points just
    # outside its block on the face side.
    face = on_face(2, 0.5, 30.0, 12.3)
    edge = on_face(1, 0.25, 0.0, np.degrees(np.arcsin(0.25)))
    corner = (0.0, 0.0)
    targets = np.array([face, edge, corner])
    p = unit_vectors(targets[:, 0], targets[:, 1])
    assert p[0, 2] == 0.5 and p[1, 2] == 0.0 and p[1, 1] == 0.25
    assert p[2].tolist() == [1.0, 0.0, 0.0]
    for level in (2, 9, 12, 17):
        grid = neighborhood._Grid(p, level)
        assert np.array_equal(grid.clearance(p), np.full(3, 2.0 ** -level))
    rng = np.random.default_rng(27)
    side = 2.0 ** -12
    lats, lons = [], []
    for lat, lon in targets:
        for inner, outer, n in ((1.02 * side, 1.3 * side, 400), (0.0, 30 * side, 300)):
            ring_lats, ring_lons = ring(lat, lon, inner, outer, n, rng)
            lats.append(ring_lats)
            lons.append(ring_lons)
    lats, lons = np.concatenate(lats), np.concatenate(lons)
    tlats = np.concatenate([targets[:, 0], lats[::40]])
    tlons = np.concatenate([targets[:, 1], lons[::40]])
    for k in (1, 20, 60, 90):
        answered = assert_grid_matches(monkeypatch, lats, lons, tlats, tlons, k,
                                       oracle_rows=range(0, tlats.shape[0], 3))
        assert answered[:3].all()


def test_clearance_bounds_every_point_outside_the_block():
    rng = np.random.default_rng(29)
    pool = unit_vectors(*sphere_points(rng, 3000))
    for level in (1, 3, 6):
        grid = neighborhood._Grid(pool, level)
        side = 2.0 ** -level
        targets = pool[:200]
        clearance = grid.clearance(targets)
        assert np.all(clearance >= side) and np.all(clearance < 2 * side)
        cells = np.floor(pool * 2.0 ** level)
        outside = np.any(np.abs(np.floor(targets * 2.0 ** level)[:, None] - cells[None]) > 1, axis=-1)
        chord = np.linalg.norm(targets[:, None] - pool[None], axis=-1)
        assert np.all(np.where(outside, chord, np.inf).min(axis=1) >= clearance * (1 - 1e-12))


def test_clearance_accepts_rows_the_cell_side_would_retry(monkeypatch):
    # rows whose k-th key clears their own block's bound 1 - clearance**2 / 2
    # but not the cell side's 1 - s**2 / 2 are answered at their first level
    ds, _ = generate(SimSpec(n=4800, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1))
    k = 50
    seen = []
    key_blocks = neighborhood._key_blocks

    def spied(grids, level, pool, targets, rows):
        for block, cos, grid, *columns in key_blocks(grids, level, pool, targets, rows):
            w = cos.shape[1]
            seen.append((block.copy(), level if grid is not None else -1,
                         np.partition(cos, w - k, axis=-1)[:, w - k]))
            yield block, cos, grid, *columns

    with monkeypatch.context() as m:
        m.setattr(neighborhood, "_key_blocks", spied)
        members, distances = knn(ds.lat, ds.lon, ds.lat, ds.lon, k)
    full_members, full_distances = full_scan(monkeypatch, ds.lat, ds.lon, ds.lat, ds.lon, k)
    assert np.array_equal(members, full_members)
    assert np.array_equal(distances, full_distances)
    assert_member_distances(ds.lat, ds.lon, ds.lat, ds.lon, members, distances)
    tries = np.bincount(np.concatenate([block for block, _, _ in seen]), minlength=ds.n)
    only_clearance = 0
    for block, level, kth in seen:
        if level < 0:
            continue
        first_try = tries[block] == 1
        side = 2.0 ** -level
        cell_side_retries = kth - neighborhood.MARGIN <= 1.0 - 0.5 * side * side + neighborhood.MARGIN
        only_clearance += np.count_nonzero(first_try & cell_side_retries)
    # 341 rows on this data; 165 still retry
    assert only_clearance > 200
    assert np.count_nonzero(tries > 1) < only_clearance


def brute_first_levels(pool, targets, need):
    """The finest level in [0, FINEST_LEVEL] whose 3x3x3 block around each
    target's cell holds at least need points, by counting every point's cell
    offset at every level; -1 if none does."""
    first = np.full(targets.shape[0], -1)
    for level in range(neighborhood.FINEST_LEVEL + 1):
        scale = 2.0 ** level
        offset = np.floor(targets * scale)[:, None, :] - np.floor(pool * scale)[None, :, :]
        held = np.count_nonzero(np.all(np.abs(offset) <= 1, axis=-1), axis=1) >= need
        first[held] = level
    return first


def pole_points(rng):
    lats = np.concatenate([rng.uniform(89.9, 90.0, 500), [90.0], rng.uniform(-90.0, -89.99, 300)])
    lons = np.concatenate([rng.uniform(-180.0, 180.0, 500), [0.0], rng.uniform(-180.0, 180.0, 300)])
    return lats, lons


def cluster_points(rng):
    field_lats, field_lons = random_cloud(rng, 500, spread=20.0)
    dense_lats, dense_lons = random_cloud(rng, 400, spread=0.02)
    tiny_lats, tiny_lons = random_cloud(rng, 100, spread=1e-9)
    return (np.concatenate([field_lats, dense_lats, tiny_lats + 3.0]),
            np.concatenate([field_lons, dense_lons, tiny_lons]))


def lattice_points(rng):
    steps = np.arange(-15, 16) * 0.001
    lats, lons = (a.ravel() for a in np.meshgrid(steps, steps, indexing="ij"))
    return lats, lons


@pytest.mark.parametrize("points", [cluster_points, lattice_points, pole_points])
def test_first_levels_are_the_finest_that_hold_need(points):
    rng = np.random.default_rng(28)
    lats, lons = points(rng)
    pool = unit_vectors(lats, lons)
    targets = np.concatenate([pool[::7], unit_vectors(*random_cloud(rng, 20, spread=30.0))])
    grids = neighborhood._Grids(pool)
    for need in (1, 3, 30, 150):
        assert np.array_equal(neighborhood._first_levels(grids, targets, need),
                              brute_first_levels(pool, targets, need)), need


@pytest.mark.parametrize("points", [cluster_points, lattice_points, pole_points])
def test_first_levels_walk_finds_them_from_every_start_level(monkeypatch, points):
    rng = np.random.default_rng(27)
    pool = unit_vectors(*points(rng))
    targets = np.concatenate([pool[::11], unit_vectors(*random_cloud(rng, 20, spread=30.0))])
    for need in (3, 150):
        expect = brute_first_levels(pool, targets, need)
        for start in range(neighborhood.FINEST_LEVEL + 1):
            monkeypatch.setattr(neighborhood, "_start_level", lambda pool, need: start)
            grids = neighborhood._Grids(pool)
            assert np.array_equal(neighborhood._first_levels(grids, targets, need), expect), (need, start)


def walk_probes(monkeypatch, pool, need, start=None):
    """Rows probed by _Grid.blocks while _first_levels walks every point of
    pool, from start if given, else from _start_level."""
    probes = []
    blocks = neighborhood._Grid.blocks

    def counted(grid, points):
        probes.append(points.shape[0])
        return blocks(grid, points)

    with monkeypatch.context() as m:
        m.setattr(neighborhood._Grid, "blocks", counted)
        if start is not None:
            m.setattr(neighborhood, "_start_level", lambda pool, need: start)
        neighborhood._first_levels(neighborhood._Grids(pool), pool, need)
    return sum(probes)


@pytest.mark.parametrize("spec, per_row", [
    (SimSpec(n=4800, seed=1), 2.0),  # 19 029 probes from the middle level
    (SimSpec(n=4800, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1), 2.2),  # 12 166
])
def test_walk_from_the_start_level_takes_about_two_probes_a_row(monkeypatch, spec, per_row):
    ds, _ = generate(spec)
    need = neighborhood.FILL * 50
    assert walk_probes(monkeypatch, unit_vectors(ds.lat, ds.lon), need) <= per_row * ds.n


def test_start_level_follows_the_pool_spread(monkeypatch):
    need = neighborhood.FILL * 10
    # coincident points: every block holds them all, down to the finest level
    assert neighborhood._start_level(np.tile([[0.6, 0.0, 0.8]], (200, 1)), need) == neighborhood.FINEST_LEVEL
    # on a pool of one scale the walk from it probes fewer rows than one from
    # the middle level (a pool of mixed scales has no typical level)
    rng = np.random.default_rng(5)
    for pool in (unit_vectors(*sphere_points(rng, 2000)), unit_vectors(*random_cloud(rng, 2000, 0.01)),
                 unit_vectors(*random_cloud(rng, 2000, 2.0))):
        middle = walk_probes(monkeypatch, pool, need, neighborhood.FINEST_LEVEL // 2)
        assert walk_probes(monkeypatch, pool, need) < middle


def transect(n=4800):
    """n points along one meridian over 0.5 degrees, with ~0.5 m of jitter
    across it: a pool spread in one dimension."""
    rng = np.random.default_rng(36)
    return (35.0 + rng.uniform(0.0, 0.5, n) + rng.normal(0.0, 0.5 / 111e3, n),
            135.0 + rng.normal(0.0, 0.5 / 91e3, n))


def test_a_transect_starts_where_its_blocks_hold_need(monkeypatch):
    # read as a 2-D Gaussian, the transect's density would start the walk at
    # level 16, four probes a row above its first levels; read in one
    # dimension it starts at 13
    lats, lons = transect()
    pool = unit_vectors(lats, lons)
    need = neighborhood.FILL * 50
    assert neighborhood._start_level(pool, need) == 13
    assert walk_probes(monkeypatch, pool, need) <= 2 * pool.shape[0]
    rows = np.arange(0, pool.shape[0], 3)
    assert_grid_matches(monkeypatch, lats, lons, lats[rows], lons[rows], 50)
    # the workloads' pools are spread in two dimensions: their start levels
    # are the 2-D reading's (predict_pool, fit_large, experiment_sweep)
    for spec, k, level in ((SimSpec(n=4800, seed=1), 50, 10),
                           (SimSpec(n=4800, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1), 50, 9),
                           (SimSpec(extent=25_000.0, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, c_rad=0.0,
                                    seed=1), 30, 9)):
        ds, _ = generate(spec)
        assert neighborhood._start_level(unit_vectors(ds.lat, ds.lon), neighborhood.FILL * k) == level


# ---- one index per pool: a PoolIndex answers every query on its pool as a
# one-shot query does, whatever the queries before it left in its grids

def read_only(*columns):
    """Read-only float copies of the columns, as a Dataset holds lat and lon."""
    copies = [np.array(column, dtype=np.float64) for column in columns]
    for column in copies:
        column.flags.writeable = False
    return copies


def index_fixtures(rng):
    """The grid tests' pools, each as (lats, lons, target lats, target lons)
    with targets given as points, as a prediction's are, some of them on
    pool points: the lattice on cell faces and across lon 180, points about
    both poles, a dense cluster in a sparse field, and duplicates straddling
    the equator in a field."""
    steps = np.arange(-20, 21) * 0.001
    lat_grid, lon_grid = (a.ravel() for a in np.meshgrid(steps, steps, indexing="ij"))
    lattice = (np.concatenate([lat_grid, lat_grid]),
               np.concatenate([lon_grid, np.where(lon_grid > 0.0, lon_grid - 180.0, lon_grid + 180.0)]),
               np.array([0.0, 0.0, 0.0, 0.0015, -0.0205, 0.0, 0.0, 0.0, 0.0055]),
               np.array([0.0005, 180.0, -180.0, 0.0, 0.02, 0.0105, 179.9995, -179.9905, -180.0]))
    poles = (*pole_points(rng), np.array([90.0, -90.0, 89.95, -89.995]), np.array([0.0, 0.0, 180.0, -37.0]))
    cluster = (*cluster_points(rng), *random_cloud(rng, 40, spread=20.0))
    base_lats = np.array([-1e-9, 0.0, 1e-9, 0.0, -1e-7, 1e-7])
    base_lons = np.array([0.0, 0.0, 0.0, 1e-9, 0.0, 0.0])
    picks = rng.integers(0, base_lats.shape[0], 300)
    duplicates = (np.concatenate([base_lats[picks], rng.uniform(-0.5, 0.5, 900)]),
                  np.concatenate([base_lons[picks], rng.uniform(-0.5, 0.5, 900)]),
                  np.concatenate([[0.0, 5e-10], rng.uniform(-0.01, 0.01, 30)]),
                  np.concatenate([[0.0, 0.0], rng.uniform(-0.01, 0.01, 30)]))
    return {"lattice": lattice, "poles": poles, "cluster": cluster, "duplicates": duplicates}


@pytest.mark.parametrize("fixture", ["lattice", "poles", "cluster", "duplicates"])
def test_a_shared_index_answers_as_one_shot_queries(monkeypatch, fixture):
    # out-of-pool targets, then in-sample rows, then those rows at another k,
    # all through one index: each answer is bitwise that of a one-shot query
    # (on copies of the pool, which no index holds) and of the full scan
    lats, lons, target_lats, target_lons = index_fixtures(np.random.default_rng(35))[fixture]
    lats, lons = read_only(lats, lons)
    index = neighborhood.PoolIndex(lats, lons)
    rows = np.arange(0, lats.shape[0], 7)
    for tlats, tlons, k in ((target_lats, target_lons, 12), (lats[rows], lons[rows], 12),
                            (lats[rows], lons[rows], 40)):
        members, distances = knn(lats, lons, tlats, tlons, k)
        one_shot = knn(lats.copy(), lons.copy(), tlats, tlons, k)
        full = full_scan(monkeypatch, lats.copy(), lons.copy(), tlats, tlons, k)
        for expect_members, expect_distances in (one_shot, full):
            assert np.array_equal(members, expect_members)
            assert np.array_equal(distances.view(np.int64), expect_distances.view(np.int64))
    # the queries went through the index, which kept its grids
    assert len(index.grids) >= 2


def test_a_pool_index_is_queried_only_on_its_own_arrays():
    # knn finds an index by its lats and lons arrays, never by equal values,
    # and an index no longer held is gone
    rng = np.random.default_rng(37)
    lats, lons = read_only(*random_cloud(rng, 500))
    index = neighborhood.PoolIndex(lats, lons)
    for other_lats, other_lons in ((lats.copy(), lons), (lats, lons.copy())):
        knn(other_lats, other_lons, lats[:20], lons[:20], 10)
        assert not index.grids
    knn(lats, lons, lats[:20], lons[:20], 10)
    assert index.grids
    del index
    assert id(lats) not in neighborhood._INDEXES


@st.composite
def bound_cases(draw):
    """A pool, targets among and about it, and a level in [0, FINEST_LEVEL):
    uniform or clustered points, polar ones, or a 3-D lattice of the level's
    half-cell faces (points off the sphere: a grid bins any point of the
    cube [-1, 1]**3)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice", "polar"]))
    level = draw(st.integers(0, neighborhood.FINEST_LEVEL - 1))
    n = draw(st.integers(1, 400))
    scale = 2.0 ** -level
    if kind == "uniform":
        pool = unit_vectors(*random_cloud(rng, n, spread=4e4 * scale * rng.uniform(0.1, 10.0)))
    elif kind == "clustered":
        centres = rng.integers(0, 4, n)
        spread = 60.0 * scale * rng.uniform(0.01, 3.0)
        pool = unit_vectors(35.0 + rng.uniform(-30.0, 30.0, 4)[centres] * scale + rng.normal(0.0, spread, n),
                            135.0 + rng.uniform(-30.0, 30.0, 4)[centres] * scale + rng.normal(0.0, spread, n))
    elif kind == "lattice":
        base = np.floor(rng.uniform(-1.0, 1.0, 3) / scale) * scale
        pool = np.clip(base + rng.integers(-6, 7, (n, 3)) * scale / 2.0, -1.0, 1.0)
    else:
        lats = np.where(rng.random(n) < 0.5, 1.0, -1.0) * (90.0 - rng.uniform(0.0, 1e3 * scale, n))
        lats[:min(n, 3)] = 90.0
        pool = unit_vectors(lats, rng.uniform(-180.0, 180.0, n))
    step = scale / 2.0 if kind == "lattice" else scale * rng.uniform(0.0, 2.0)
    targets = np.concatenate([pool[:30], pool[:20] + rng.integers(-3, 4, (min(n, 20), 3)) * step])
    return pool, np.clip(targets, -1.0, 1.0), level


@settings(max_examples=300, deadline=None)
@given(bound_cases())
def test_property_the_walks_bound_holds_the_finer_block(case):
    # the 2x2x2 cells of a level on a target's side of its cell on each axis
    # hold every point of its block one level finer: blocks' inner counts
    # them, and is never below the finer block's count
    pool, targets, level = case
    grid = neighborhood._Grid(pool, level)
    cell_of, _, lengths, inner = grid.blocks(targets)
    bound = inner[grid.octants(targets), cell_of]
    cells, finer_cells = (np.floor(points * 2.0 ** level) for points in (pool, pool * 2.0))
    own, finer_own = (np.floor(points * 2.0 ** level) for points in (targets, targets * 2.0))
    offset, finer_offset = own[:, None] - cells[None], finer_own[:, None] - finer_cells[None]
    block = np.count_nonzero(np.all(np.abs(offset) <= 1, axis=-1), axis=1)
    finer_block = np.count_nonzero(np.all(np.abs(finer_offset) <= 1, axis=-1), axis=1)
    # the upper half of a cell is an odd cell one level finer
    upper = (finer_own - 2.0 * own)[:, None]
    sides = np.count_nonzero(np.all((offset == 0) | (offset == 1 - 2 * upper), axis=-1), axis=1)
    assert np.array_equal(np.sum(lengths, axis=-1)[cell_of], block)
    assert np.array_equal(bound, sides)
    assert np.all(bound >= finer_block)


def test_only_rows_tied_among_their_first_k_plus_one_take_the_lexsort(monkeypatch):
    steps = np.arange(-20, 21) * 0.001
    lats, lons = (a.ravel() for a in np.meshgrid(steps, steps, indexing="ij"))
    lexsorted = []
    lexsort = np.lexsort

    def spied(keys, *args, **kwargs):
        lexsorted.append(np.shape(keys[0])[0])
        return lexsort(keys, *args, **kwargs)

    def rows_lexsorted(tlat, tlon, k):
        lexsorted.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "lexsort", spied)
            members, _ = knn(lats, lons, [tlat], [tlon], k)
        assert members[0].tolist() == scan_oracle(lats, lons, (tlat, tlon), k)
        return sum(lexsorted)

    # the centre lattice point: its four nearest tie, so at k = 2 and 3 the
    # k-th distance ties with the next, and at k = 5 and 9 the first k hold
    # ties; at k = 1 the first two (itself, then one of four) do not tie
    for k in (2, 3, 5, 9):
        assert rows_lexsorted(0.0, 0.0, k) == 1, k
    assert rows_lexsorted(0.0, 0.0, 1) == 0
    # a target off the lattice's symmetry lines has no tie
    tlat, tlon = 0.00137, 0.00291
    d = np.sort(haversine_to_all(lats, lons, tlat, tlon))
    for k in (1, 4, 25, 60):
        assert np.all(np.diff(d[:k + 1]) > 0)
        assert rows_lexsorted(tlat, tlon, k) == 0, k


# ---- one stage: each key product re-ranked where it is computed

def reranked(monkeypatch, query):
    """query()'s result, and its knn calls' events in order: ("product",
    rows, full) for each key product (full: a full-scan product) and
    ("rerank", rows, count) for each _rerank call."""
    events = []
    key_blocks, rerank = neighborhood._key_blocks, neighborhood._rerank

    def spied_key_blocks(*spy_args):
        for block, cos, grid, *columns in key_blocks(*spy_args):
            events.append(("product", block.copy(), grid is None))
            yield block, cos, grid, *columns

    def spied_rerank(table, target_table, k, rows, count, cand):
        events.append(("rerank", rows.copy(), count.copy()))
        return rerank(table, target_table, k, rows, count, cand)

    with monkeypatch.context() as m:
        m.setattr(neighborhood, "_key_blocks", spied_key_blocks)
        m.setattr(neighborhood, "_rerank", spied_rerank)
        result = query()
    return result, events


def assert_one_rerank_per_product(events, n_targets):
    """Each _rerank call directly follows its key product and answers that
    product's rows in order, but for those keyed again later (retried
    coarser); every row is re-ranked exactly once."""
    later = np.zeros(n_targets, dtype=int)
    for event in events:
        if event[0] == "product":
            later[event[1]] += 1
    answered = []
    for i, event in enumerate(events):
        if event[0] == "product":
            later[event[1]] -= 1
            final = event[1][later[event[1]] == 0]
            follows = events[i + 1] if i + 1 < len(events) else None
            if final.shape[0]:
                assert follows is not None and follows[0] == "rerank", i
                assert np.array_equal(follows[1], final), i
                answered.append(final)
            else:
                assert follows is None or follows[0] == "product", i
        else:
            assert events[i - 1][0] == "product", i
    assert np.array_equal(np.sort(np.concatenate(answered)), np.arange(n_targets))


def assert_reranks_hold_the_key_budget(events):
    """No re-rank pads more candidates (rows x widest gather) than a key
    product may hold keys, unless it holds one row."""
    for event in events:
        if event[0] == "rerank":
            rows, count = event[1], event[2]
            assert rows.shape[0] * count.max() <= neighborhood.KEY_ELEMENTS or rows.shape[0] == 1


@pytest.mark.parametrize("k", [50, 9])
def test_each_key_product_is_reranked_where_it_is_computed(monkeypatch, k):
    # fit_large-shaped data: several key products, each followed by one
    # re-rank of the rows it answers, every row re-ranked once
    ds, _ = generate(SimSpec(n=2000, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1))
    (members, distances), events = reranked(monkeypatch, lambda: knn(ds.lat, ds.lon, ds.lat, ds.lon, k))
    assert sum(event[0] == "rerank" for event in events) >= 3
    assert_one_rerank_per_product(events, ds.n)
    assert_reranks_hold_the_key_budget(events)
    full_members, full_distances = full_scan(monkeypatch, ds.lat, ds.lon, ds.lat, ds.lon, k)
    assert np.array_equal(members, full_members)
    assert np.array_equal(distances, full_distances)


def test_reranks_of_fast_wide_retried_and_full_scan_rows_hold_the_key_budget(monkeypatch):
    # a smooth cloud, a lattice about (0, 0) (exact ties), one moved by under
    # 1e-12 deg per point (near ties), repeated points (twelve copies each
    # of six, sixty of one) and targets far from every point: re-ranks take
    # rows answered at their first level with k candidates, rows that
    # gathered more (some with fast rows, padded to the wider gather), rows
    # keyed again coarser and full-scan rows, and none pads past the key
    # budget unless it holds one row
    rng = np.random.default_rng(41)
    cloud_lats, cloud_lons = rng.normal(35.0, 0.2, 3000), rng.normal(135.0, 0.2, 3000)
    steps = np.arange(-10, 11) * 0.001
    lattice_lats, lattice_lons = (a.ravel() for a in np.meshgrid(steps, steps, indexing="ij"))
    jitter = rng.uniform(-1e-12, 1e-12, (2, lattice_lats.shape[0]))
    copies = np.concatenate([np.repeat(np.arange(0, 3000, 500), 12), np.full(60, 7)])
    lats = np.concatenate([cloud_lats, lattice_lats, lattice_lats + 0.5 + jitter[0], cloud_lats[copies]])
    lons = np.concatenate([cloud_lons, lattice_lons, lattice_lons + 0.5 + jitter[1], cloud_lons[copies]])
    tlats = np.concatenate([lats[::4], lattice_lats, [-35.0, -34.8, 0.0, 60.0, -80.0]])
    tlons = np.concatenate([lons[::4], lattice_lons, [-45.0, -45.2, 90.0, -100.0, 10.0]])
    k = 10
    (members, distances), events = reranked(monkeypatch, lambda: knn(lats, lons, tlats, tlons, k))
    assert_one_rerank_per_product(events, tlats.shape[0])
    assert_reranks_hold_the_key_budget(events)
    products = [event[1:] for event in events if event[0] == "product"]
    tries = np.bincount(np.concatenate([block for block, _ in products]), minlength=tlats.shape[0])
    scanned = np.zeros(tlats.shape[0], dtype=bool)
    for block, full in products:
        scanned[block] |= full
    reranks = [event[1:] for event in events if event[0] == "rerank"]
    fast = [(count == k) & (tries[rows] == 1) & ~scanned[rows] for rows, count in reranks]
    assert any(f.any() and (count > k).any() for f, (_, count) in zip(fast, reranks))
    assert any((tries[rows] > 1).any() for rows, _ in reranks)
    assert any(scanned[rows].all() for rows, _ in reranks)
    full_members, full_distances = full_scan(monkeypatch, lats, lons, tlats, tlons, k)
    assert np.array_equal(members, full_members)
    assert np.array_equal(distances.view(np.int64), full_distances.view(np.int64))
    assert_member_distances(lats, lons, tlats, tlons, members, distances)
    for i in range(0, tlats.shape[0], 29):
        assert members[i].tolist() == scan_oracle(lats, lons, (tlats[i], tlons[i]), k), i


def test_dense_cluster_equals_full_scan_within_the_key_budget(monkeypatch):
    # fit_large-shaped data with a fifth of its points in one Gaussian
    # cluster of sigma 1e-5 deg (~1 m), finer than a grid cell: the
    # cluster's rows gather hundreds of candidates each
    ds, _ = generate(SimSpec(n=4800, sampling="gaussian", rho=10.0, psi=np.pi / 4.0, seed=1))
    rng = np.random.default_rng(43)
    lats, lons = ds.lat.copy(), ds.lon.copy()
    cluster = rng.permutation(ds.n)[:960]
    lats[cluster] = ds.lat[0] + rng.normal(0.0, 1e-5, 960)
    lons[cluster] = ds.lon[0] + rng.normal(0.0, 1e-5, 960)
    k = 50
    (members, distances), events = reranked(monkeypatch, lambda: knn(lats, lons, lats, lons, k))
    assert_one_rerank_per_product(events, ds.n)
    assert_reranks_hold_the_key_budget(events)
    assert max(event[2].max() for event in events if event[0] == "rerank") > 4 * k
    rows = np.arange(0, ds.n, 10)
    full_members, full_distances = full_scan(monkeypatch, lats, lons, lats[rows], lons[rows], k)
    assert np.array_equal(members[rows], full_members)
    assert np.array_equal(distances[rows].view(np.int64), full_distances.view(np.int64))
