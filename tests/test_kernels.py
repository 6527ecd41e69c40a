import numpy as np

from gimbal import kernels
from gimbal.engine import GimbalConfig
from gimbal.geo import tangent_displacements
from gimbal.solver import cond_wls2, solve_local


def stacked_neighborhoods(rng, c, k):
    """c random neighborhoods of k points, spread from far inside to far
    outside the bandwidth; every third has a zero displacement."""
    lat0 = rng.uniform(-60.0, 60.0, c)
    lon0 = rng.uniform(-179.0, 179.0, c)
    spread = rng.choice([0.003, 0.03, 20.0], (c, 1))
    lats = lat0[:, None] + spread * rng.normal(0.0, 1.0, (c, k))
    lons = lon0[:, None] + spread * rng.normal(0.0, 1.0, (c, k))
    lats[::3, 0] = lat0[::3]
    lons[::3, 0] = lon0[::3]
    return lat0, lon0, lats, lons


def assert_rows_equal(stacked, rows):
    for name, value in vars(stacked).items():
        joined = np.concatenate([vars(r)[name] for r in rows])
        assert np.array_equal(value, joined, equal_nan=True), name


def test_batched_stages_equal_one_row_calls_bitwise():
    rng = np.random.default_rng(60)
    c, k = 40, 25
    lat0, lon0, lats, lons = stacked_neighborhoods(rng, c, k)
    east, north = tangent_displacements(lat0, lon0, lats, lons)
    assert np.any((east == 0.0) & (north == 0.0))
    dist = np.hypot(east, north)
    z = dist / 3000.0
    x = rng.normal(0.0, 1.0, (c, k))
    y = rng.normal(0.0, 1.0, (c, k))
    config = GimbalConfig(k=k, n0=10.0, n_min=6.0)

    orient, wmap = kernels.weight_map(east, north, dist, z, y, config, {})
    X = np.stack([np.ones_like(z), x, z], axis=-1)
    fit = solve_local(X, y, wmap.weights, config.gamma)
    cw2 = cond_wls2(x, wmap.weights)

    one = [slice(i, i + 1) for i in range(c)]
    rows = [tangent_displacements(lat0[s], lon0[s], lats[s], lons[s]) for s in one]
    assert np.array_equal(east, np.concatenate([r[0] for r in rows]))
    assert np.array_equal(north, np.concatenate([r[1] for r in rows]))
    rows = [kernels.weight_map(east[s], north[s], dist[s], z[s], y[s], config, {}) for s in one]
    assert_rows_equal(orient, [r[0] for r in rows])
    assert_rows_equal(wmap, [r[1] for r in rows])
    assert_rows_equal(fit, [solve_local(X[s], y[s], wmap.weights[s], config.gamma) for s in one])
    assert np.array_equal(cw2, np.concatenate([cond_wls2(x[s], wmap.weights[s]) for s in one]))
    # the stack exercises every branch of the safeguard
    assert set(wmap.fallback_code.tolist()) == {0, 1, 2}
