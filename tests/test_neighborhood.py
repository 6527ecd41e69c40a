import numpy as np
import pytest

from scalar_geo import haversine_distance
from gimbal.neighborhood import ConfigurationError, knn


def scan_oracle(lats, lons, target, k, exclude=None):
    """Exhaustive (distance, index) sort, written independently of knn."""
    pairs = []
    for i in range(len(lats)):
        if i == exclude:
            continue
        pairs.append((haversine_distance(target, (lats[i], lons[i])), i))
    pairs.sort()
    return [i for _, i in pairs[:k]]


def random_cloud(rng, n):
    return rng.uniform(34.5, 35.5, n), rng.uniform(134.5, 135.5, n)


def test_self_is_member_zero():
    lats = np.array([35.0, 35.1, 35.2])
    lons = np.array([135.0, 135.0, 135.0])
    nb = knn(lats, lons, 35.1, 135.0, 2, target_index=1)
    assert nb.member_indices[0] == 1
    assert nb.distances[0] == 0.0
    assert nb.self_included


def test_k_equals_n_returns_everything():
    rng = np.random.default_rng(7)
    lats, lons = random_cloud(rng, 12)
    nb = knn(lats, lons, 35.0, 135.0, 12)
    assert sorted(nb.member_indices.tolist()) == list(range(12))


def test_matches_exhaustive_scan_oracle():
    rng = np.random.default_rng(8)
    lats, lons = random_cloud(rng, 50)
    for _ in range(20):
        tlat = rng.uniform(34.5, 35.5)
        tlon = rng.uniform(134.5, 135.5)
        nb = knn(lats, lons, tlat, tlon, 5)
        assert nb.member_indices.tolist() == scan_oracle(lats, lons, (tlat, tlon), 5)


def test_distances_nondecreasing():
    rng = np.random.default_rng(9)
    lats, lons = random_cloud(rng, 80)
    nb = knn(lats, lons, 35.0, 135.0, 30)
    assert np.all(np.diff(nb.distances) >= 0)


def test_tie_break_by_original_index():
    # three coincident points: smaller indices win the tie
    lats = np.array([35.0, 35.0, 35.0, 35.5])
    lons = np.array([135.0, 135.0, 135.0, 135.0])
    nb = knn(lats, lons, 35.0, 135.0, 2)
    assert nb.member_indices.tolist() == [0, 1]


def test_determinism_two_identical_calls():
    rng = np.random.default_rng(10)
    lats, lons = random_cloud(rng, 40)
    a = knn(lats, lons, 35.2, 135.2, 10)
    b = knn(lats, lons, 35.2, 135.2, 10)
    assert np.array_equal(a.member_indices, b.member_indices)
    assert np.array_equal(a.distances, b.distances)


def test_exclude_index_never_member():
    rng = np.random.default_rng(11)
    lats, lons = random_cloud(rng, 20)
    nb = knn(lats, lons, lats[3], lons[3], 19, exclude_index=3)
    assert 3 not in nb.member_indices
    assert nb.member_indices.tolist() == scan_oracle(lats, lons, (lats[3], lons[3]), 19, exclude=3)


def test_k_exceeding_eligible_reports_target():
    lats = np.array([35.0, 35.1])
    lons = np.array([135.0, 135.1])
    with pytest.raises(ConfigurationError, match="target index 5"):
        knn(lats, lons, 35.0, 135.0, 2, exclude_index=0, target_index=5)
    with pytest.raises(ConfigurationError):
        knn(lats, lons, 35.0, 135.0, 0)
