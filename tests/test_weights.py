import math

import numpy as np
import pytest

from gimbal.orientation import OrientationResult
from gimbal.weights import (
    FALLBACK_NONE,
    FALLBACK_UNDERFLOW,
    FALLBACK_UNIFORM,
    ess,
    frame_quadratic,
    one_shot_safeguard,
    raw_ess,
)


def orient(phi=0.0, theta=0.0, eta=1.0):
    return OrientationResult(
        phi=phi, r_phi=0.5, phi_deactivated=(phi == 0.0),
        theta_z=theta, g_ident=1.0, theta_deactivated=(theta == 0.0),
        eta=eta, lambda_max=1.0, lambda_min=1.0,
    )


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def metric_oracle(phi, theta, eta, h):
    """M = Q diag(1, eta^-2) Q^T / h^2 with Q = R(phi) R(theta_z), built
    from its definition."""
    q = rotation(phi) @ rotation(theta)
    return q @ np.diag([1.0, eta**-2]) @ q.T / h**2


def safeguard(east, north, o, h, n0, n_min):
    """one_shot_safeguard of displacements under orientation o."""
    q = frame_quadratic(east, north, o)
    return one_shot_safeguard(q, h, n0, n_min, raw_ess(q, h))


def test_metric_isotropic_reduction():
    # every mechanism off: q / h^2 = |Delta|^2 / h^2, M = I / h^2
    east = np.array([0.0, 1000.0, -300.0, 2.5])
    north = np.array([0.0, 0.0, 400.0, -7.0])
    assert np.array_equal(frame_quadratic(east, north, orient()), east * east + north * north)


def test_metric_eigenvalues_invariant_under_orientation():
    # over unit displacements q / h^2 spans [h^-2 eta^-2, h^-2], reached on
    # the frame's axes phi + theta_z and phi + theta_z + pi/2
    rng = np.random.default_rng(30)
    for _ in range(50):
        phi, theta = rng.uniform(-math.pi, math.pi, 2)
        eta = rng.uniform(1, 50)
        h = rng.uniform(500, 5000)
        bearing = phi + theta + np.concatenate([[0.0, math.pi / 2], rng.uniform(-math.pi, math.pi, 20)])
        quad = frame_quadratic(np.cos(bearing), np.sin(bearing), orient(phi, theta, eta)) / h**2
        assert quad[:2] == pytest.approx([h**-2, h**-2 * eta**-2], rel=1e-12)
        assert np.all(quad >= h**-2 * eta**-2 * (1 - 1e-12)) and np.all(quad <= h**-2 * (1 + 1e-12))


def test_metric_quadratic_form_coordinate_oracle():
    # q / h^2 is Delta^T M Delta, M built from its definition, over random
    # orientations and bandwidths
    rng = np.random.default_rng(31)
    for _ in range(50):
        phi, theta = rng.uniform(-math.pi, math.pi, 2)
        eta = rng.uniform(1, 50)
        h = rng.uniform(500, 5000)
        m = metric_oracle(phi, theta, eta, h)
        east, north = rng.normal(0, 2000, (2, 20))
        quad = frame_quadratic(east, north, orient(phi, theta, eta)) / h**2
        for e, n, got in zip(east, north, quad):
            delta = np.array([e, n])
            assert got == pytest.approx(delta @ m @ delta, rel=1e-12)


def test_raw_weights_basics():
    w = np.exp(-frame_quadratic(np.array([0.0, 1000.0]), np.array([0.0, 0.0]), orient()) / 1000.0**2)
    assert w[0] == 1.0
    assert w[1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_raw_weights_anisotropic_axis_preference():
    # equal-length displacements: the eta-scaled axis decays slower
    eta, h = 3.0, 1000.0
    quad = frame_quadratic(np.array([800.0, 0.0]), np.array([0.0, 800.0]), orient(eta=eta))
    along_major, along_minor = np.exp(-quad / h**2)
    assert along_minor > along_major
    assert along_minor == pytest.approx(math.exp(-(800 / h) ** 2 / eta**2), rel=1e-12)


def test_ess_uniform_and_point_mass():
    assert ess(np.full(50, 1.0 / 50)) == pytest.approx(50.0, rel=1e-12)
    w = np.zeros(10)
    w[4] = 1.0
    assert ess(w) == pytest.approx(1.0, rel=1e-15)
    assert ess(np.array([0.5, 0.25, 0.25])) == pytest.approx(1 / 0.375, rel=1e-12)


def test_ess_rejects_bad_input():
    with pytest.raises(ValueError):
        ess(np.zeros(5))
    with pytest.raises(ValueError):
        ess(np.array([0.3, 0.3]))


def test_ess_of_a_stack_is_per_row():
    stack = np.array([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0], [0.5, 0.25, 0.25, 0.0]])
    np.testing.assert_allclose(ess(stack), [4.0, 1.0, 1 / 0.375], rtol=1e-12)
    # one bad row fails the whole stack
    with pytest.raises(ValueError, match="all-zero"):
        ess(np.vstack([stack, np.zeros(4)]))
    with pytest.raises(ValueError, match="sum=0.6"):
        ess(np.vstack([stack, [0.3, 0.3, 0.0, 0.0]]))


def random_cloud(rng, n, scale=2000.0):
    east = rng.normal(0, scale, n)
    north = rng.normal(0, scale, n)
    return east, north, np.hypot(east, north)


def test_safeguard_fixed_point_when_ess_equals_target():
    # equidistant ring: weights already uniform, ESS = n = n0 -> h_eff = h
    n = 12
    ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
    east = 1000.0 * np.cos(ang)
    north = 1000.0 * np.sin(ang)
    wm = safeguard(east, north, orient(), 2000.0, n0=float(n), n_min=2.0)
    assert wm.h_eff == pytest.approx(2000.0, rel=1e-12)
    assert wm.n_eff_raw == pytest.approx(n, rel=1e-12)
    assert wm.fallback_code == FALLBACK_NONE
    assert np.allclose(wm.weights, 1.0 / n, atol=1e-15)


def test_safeguard_uniform_fallback_branch():
    # one dominant weight and unreachable n_min forces the uniform branch
    east = np.array([0.0, 50_000.0, 60_000.0, 70_000.0])
    north = np.zeros(4)
    wm = safeguard(east, north, orient(), 1000.0, n0=1.0, n_min=3.9)
    assert wm.fallback_code == FALLBACK_UNIFORM
    assert np.allclose(wm.weights, 0.25)
    assert wm.n_eff_final == pytest.approx(4.0, rel=1e-12)
    assert wm.n_eff_post < 3.9


def test_safeguard_underflow_branch():
    # no self pair and huge distances: every raw weight underflows
    east = np.full(5, 1.0e7)
    north = np.zeros(5)
    wm = safeguard(east, north, orient(), 100.0, n0=10.0, n_min=2.0)
    assert wm.fallback_code == FALLBACK_UNDERFLOW
    assert wm.n_eff_raw == 0.0
    assert math.isnan(wm.h_eff)
    assert wm.n_recompute == 0
    assert np.allclose(wm.weights, 0.2)


def test_safeguard_exactly_one_recomputation():
    rng = np.random.default_rng(32)
    for _ in range(50):
        east, north, _ = random_cloud(rng, 20)
        wm = safeguard(east, north, orient(eta=rng.uniform(1, 10)), 1500.0, n0=10.0, n_min=4.0)
        assert wm.n_recompute == 1


def test_final_weights_normalized_and_nonnegative():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = rng.integers(2, 60)
        east, north, _ = random_cloud(rng, n, scale=rng.uniform(200, 20000))
        wm = safeguard(
            east, north,
            orient(phi=rng.uniform(-3, 3), theta=rng.uniform(-1.5, 1.5), eta=rng.uniform(1, 50)),
            rng.uniform(300, 5000), n0=rng.uniform(1, 40), n_min=rng.uniform(0, 10),
        )
        assert abs(wm.weights.sum() - 1.0) < 1e-12
        assert np.all(wm.weights >= 0)
        assert 1.0 - 1e-9 <= wm.n_eff_final <= n + 1e-9


def test_isotropic_deactivated_equals_gaussian_within_1e12():
    # all mechanisms off: pre-safeguard weights are normalized exp(-d^2/h^2)
    rng = np.random.default_rng(34)
    east, north, d = random_cloud(rng, 40)
    h = 2500.0
    w = np.exp(-frame_quadratic(east, north, orient()) / h**2)
    expect = np.exp(-(d / h) ** 2)
    assert np.allclose(w / w.sum(), expect / expect.sum(), atol=1e-12, rtol=1e-12)


def test_safeguard_monotone_in_n0_on_seeded_cloud():
    rng = np.random.default_rng(35)
    east, north, _ = random_cloud(rng, 30, scale=4000.0)
    posts = []
    for n0 in (6, 8, 10, 15, 20, 30, 50, 75, 100):
        wm = safeguard(east, north, orient(), 2000.0, n0=float(n0), n_min=12.0)
        posts.append(wm.n_eff_post)
    assert all(b >= a for a, b in zip(posts, posts[1:]))
