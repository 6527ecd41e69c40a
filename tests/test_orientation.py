import cmath
import math

import numpy as np
import pytest

from gimbal.geo import tangent_displacements
from gimbal.orientation import (
    anisotropy_ratio,
    bearing_resultant,
    decay_weights,
    sym2_eigvals,
    value_orientation,
)


def resultant_of_bearings(th, d, h, eps_phi):
    """bearing_resultant of neighbors at bearings th and distances d."""
    th = np.asarray(th, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    return bearing_resultant(d * np.cos(th), d * np.sin(th), decay_weights(d, h), eps_phi)


def test_bearing_resultant_aligned_field():
    th = np.full(6, 0.7)
    d = np.linspace(100, 2000, 6)
    phi, r, deact = resultant_of_bearings(th, d, 1500.0, 1e-3)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert phi == pytest.approx(0.7, abs=1e-12)
    assert not deact


def test_bearing_resultant_perfect_balance_deactivates():
    th = np.array([0.4, 0.4 + math.pi])
    d = np.array([500.0, 500.0])
    phi, r, deact = resultant_of_bearings(th, d, 1000.0, 1e-3)
    assert r <= 1e-3
    assert phi == 0.0
    assert deact


def test_bearing_resultant_complex_sum_oracle():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = 5
        th = rng.uniform(-math.pi, math.pi, n)
        d = rng.uniform(10, 5000, n)
        h = 2000.0
        phi, r, deact = resultant_of_bearings(th, d, h, 1e-3)
        # independent complex-arithmetic evaluation
        total = sum(math.exp(-(di * di) / (h * h)) * cmath.exp(1j * ti)
                    for di, ti in zip(d, th))
        wsum = sum(math.exp(-(di * di) / (h * h)) for di in d)
        assert r == pytest.approx(abs(total) / wsum, abs=1e-12)
        if not deact:
            assert phi == pytest.approx(cmath.phase(total), abs=1e-12)


def test_bearing_resultant_permutation_invariant():
    rng = np.random.default_rng(21)
    th = rng.uniform(-math.pi, math.pi, 30)
    d = rng.uniform(10, 5000, 30)
    phi_a, r_a, _ = resultant_of_bearings(th, d, 3000.0, 1e-3)
    perm = rng.permutation(30)
    phi_b, r_b, _ = resultant_of_bearings(th[perm], d[perm], 3000.0, 1e-3)
    assert phi_a == pytest.approx(phi_b, abs=1e-12)
    assert r_a == pytest.approx(r_b, abs=1e-12)


def test_bearing_resultant_empty_is_isotropic():
    phi, r, deact = resultant_of_bearings(np.array([]), np.array([]), 1000.0, 1e-3)
    assert (phi, r, deact) == (0.0, 0.0, True)


def test_bearing_resultant_ignores_zero_displacements():
    rng = np.random.default_rng(29)
    east = rng.normal(0, 1500, 12)
    north = rng.normal(0, 1500, 12)
    d = np.hypot(east, north)
    with_self = bearing_resultant(np.append(0.0, east), np.append(0.0, north),
                                  decay_weights(np.append(0.0, d), 2000.0), 1e-3)
    without = bearing_resultant(east, north, decay_weights(d, 2000.0), 1e-3)
    # approx compares a tuple of 0-d arrays only bit for bit: compare floats
    assert float(with_self[0]) == pytest.approx(float(without[0]), abs=1e-12)
    assert float(with_self[1]) == pytest.approx(float(without[1]), abs=1e-12)
    assert with_self[2] == without[2]
    # only coincident points: no bearing at all
    zeros = np.zeros(3)
    assert bearing_resultant(zeros, zeros, decay_weights(zeros, 2000.0), 1e-3) == (0.0, 0.0, True)


def test_bearing_resultant_decay_underflow_is_isotropic():
    # distances so large that every decay weight underflows to zero
    th = np.array([0.1, 0.2, 0.3])
    d = np.full(3, 1.0e9)
    phi, r, deact = resultant_of_bearings(th, d, 10.0, 1e-3)
    assert (phi, r, deact) == (0.0, 0.0, True)


def test_value_orientation_equal_pair_gives_zero():
    rng = np.random.default_rng(22)
    z = rng.normal(0, 1, 30)
    theta, g, deact = value_orientation(z, z.copy(), 1e-8)
    # Var equal, Cov = Var > 0 -> atan2(0, +) = 0
    assert theta == 0.0
    assert not deact
    assert g == pytest.approx(2.0 * np.var(z), rel=1e-12)


def test_value_orientation_pure_variance_difference():
    # Var(y) - Var(z) = c > 0 with Cov = 0 -> theta = pi/4
    z = np.array([1.0, -1.0, 1.0, -1.0])
    y = np.array([2.0, 2.0, -2.0, -2.0])
    theta, g, deact = value_orientation(z, y, 1e-8)
    assert theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert not deact


def test_value_orientation_constant_inputs_deactivate():
    z = np.full(10, 3.0)
    y = np.full(10, -1.0)
    theta, g, deact = value_orientation(z, y, 1e-8)
    assert (theta, g, deact) == (0.0, 0.0, True)


def test_value_orientation_scalar_recomputation_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        z = rng.normal(0, 2, 20)
        y = rng.normal(1, 3, 20)
        theta, g, deact = value_orientation(z, y, 1e-8)
        # plain-python population moments
        zm = sum(z) / 20
        ym = sum(y) / 20
        var_z = sum((v - zm) ** 2 for v in z) / 20
        var_y = sum((v - ym) ** 2 for v in y) / 20
        cov = sum((a - zm) * (b - ym) for a, b in zip(z, y)) / 20
        assert g == pytest.approx(abs(var_y - var_z) + abs(2 * cov), rel=1e-12)
        assert theta == pytest.approx(0.5 * math.atan2(var_y - var_z, 2 * cov), abs=1e-12)


def test_value_orientation_angle_geometry():
    """The realized angle sits 45 degrees from the diagonalizing rotation.

    Rotating the centered pairs by -theta maximizes the cross-moment at
    sqrt(D^2 + 4B^2) / 2, while the quarter-turn-shifted angle zeroes it.
    """
    rng = np.random.default_rng(24)
    for _ in range(20):
        z = rng.normal(0, 2, 40)
        y = 0.5 * z + rng.normal(0, 1, 40)
        theta, _, _ = value_orientation(z, y, 1e-8)
        zc = z - z.mean()
        yc = y - y.mean()
        diff = np.var(y) - np.var(z)
        cov = float(np.mean(zc * yc))

        def cross_moment(angle):
            c, s = math.cos(angle), math.sin(angle)
            v1 = c * zc + s * yc
            v2 = -s * zc + c * yc
            return float(np.mean(v1 * v2))

        extremal = 0.5 * math.sqrt(diff * diff + 4 * cov * cov)
        assert abs(cross_moment(theta)) == pytest.approx(extremal, rel=1e-9)
        assert cross_moment(theta - math.pi / 4) == pytest.approx(0.0, abs=1e-10 * max(1.0, extremal))


def test_anisotropy_axes_configuration_is_isotropic():
    east = np.array([1000.0, -1000.0, 0.0, 0.0])
    north = np.array([0.0, 0.0, 1000.0, -1000.0])
    d = np.full(4, 1000.0)
    eta, lam_max, lam_min = anisotropy_ratio(east, north, decay_weights(d, 2000.0), 1e-8, 50.0)
    assert eta == 1.0
    assert lam_max == pytest.approx(lam_min, rel=1e-12)


def test_anisotropy_collinear_hits_cap():
    east = np.array([500.0, 1000.0, -800.0, 1500.0])
    north = np.zeros(4)
    d = np.abs(east)
    eta, lam_max, lam_min = anisotropy_ratio(east, north, decay_weights(d, 2000.0), 1e-8, 50.0)
    assert lam_min == pytest.approx(0.0, abs=1e-9)
    assert eta == 50.0


def test_anisotropy_matches_iterative_eigen_oracle():
    rng = np.random.default_rng(25)
    for _ in range(50):
        n = 20
        east = rng.normal(0, 1500, n)
        north = rng.normal(0, 400, n)
        d = np.hypot(east, north)
        h = 2500.0
        eta, lam_max, lam_min = anisotropy_ratio(east, north, decay_weights(d, h), 1e-8, 50.0)
        om = np.exp(-(d / h) ** 2)
        om = om / om.sum()
        s_mat = (np.stack([east, north]) * om) @ np.stack([east, north]).T
        oracle = np.linalg.eigvalsh(s_mat)
        assert lam_max == pytest.approx(oracle[1], rel=1e-10)
        assert lam_min == pytest.approx(oracle[0], rel=1e-10, abs=1e-12)
        assert eta == pytest.approx(
            min(max(math.sqrt(oracle[1] / max(oracle[0], 1e-8)), 1.0), 50.0), rel=1e-9
        )


def test_anisotropy_rotation_invariant():
    rng = np.random.default_rng(26)
    east = rng.normal(0, 2000, 30)
    north = rng.normal(0, 500, 30)
    d = np.hypot(east, north)
    eta_a, lmax_a, lmin_a = anisotropy_ratio(east, north, decay_weights(d, 3000.0), 1e-8, 50.0)
    alpha = 0.83
    e2 = math.cos(alpha) * east - math.sin(alpha) * north
    n2 = math.sin(alpha) * east + math.cos(alpha) * north
    eta_b, lmax_b, lmin_b = anisotropy_ratio(e2, n2, decay_weights(d, 3000.0), 1e-8, 50.0)
    assert eta_a == pytest.approx(eta_b, abs=1e-9)
    assert lmax_a == pytest.approx(lmax_b, rel=1e-9)
    assert lmin_a == pytest.approx(lmin_b, rel=1e-9, abs=1e-9)


def test_sym2_eigvals_against_numpy():
    rng = np.random.default_rng(27)
    for _ in range(100):
        a, b, c = rng.normal(0, 5, 3)
        lam_max, lam_min = sym2_eigvals(a, b, c)
        ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
        assert lam_max == pytest.approx(ref[1], rel=1e-10, abs=1e-10)
        assert lam_min == pytest.approx(ref[0], rel=1e-10, abs=1e-10)


def test_flags_match_threshold_predicates():
    rng = np.random.default_rng(28)
    for _ in range(100):
        n = rng.integers(2, 12)
        th = rng.uniform(-math.pi, math.pi, n)
        d = rng.uniform(1, 4000, n)
        eps = rng.uniform(0, 1)
        phi, r, deact = resultant_of_bearings(th, d, 1500.0, eps)
        assert deact == (r <= eps)
        assert 0.0 <= r <= 1.0 + 1e-12
        if deact:
            assert phi == 0.0


def trigonometric_resultant(east, north, decay, eps_phi):
    """bearing_resultant by the angle of each bearing: arctan2, then cos and sin."""
    th = np.arctan2(north, east)
    om = np.where((east != 0.0) | (north != 0.0), decay, 0.0)
    wsum = np.sum(om, axis=-1)
    c = np.sum(om * np.cos(th), axis=-1)
    s = np.sum(om * np.sin(th), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_phi = np.where(wsum > 0.0, np.sqrt(c * c + s * s) / wsum, 0.0)
    deactivated = (wsum <= 0.0) | (r_phi <= eps_phi)
    return np.where(deactivated, 0.0, np.arctan2(s, c)), r_phi, deactivated


def test_bearing_resultant_matches_the_trigonometric_form():
    # stacked neighborhoods with zero displacements, axis-aligned neighbors
    # and offsets from a millimetre to 1e6 km agree with arctan2/cos/sin
    rng = np.random.default_rng(30)
    c, k = 200, 40
    scale = 10.0 ** rng.uniform(-3.0, 9.0, (c, 1))
    east = rng.normal(0.0, 1.0, (c, k)) * scale
    north = rng.normal(0.0, 1.0, (c, k)) * scale
    east[:, 0] = north[:, 0] = 0.0
    east[:, 1] = 0.0
    north[:, 2] = 0.0
    decay = rng.uniform(0.0, 1.0, (c, k))
    phi, r_phi, deact = bearing_resultant(east, north, decay, 1e-3)
    ref_phi, ref_r, ref_deact = trigonometric_resultant(east, north, decay, 1e-3)
    assert np.array_equal(deact, ref_deact)
    assert np.allclose(phi, ref_phi, rtol=0.0, atol=1e-12)
    assert np.allclose(r_phi, ref_r, rtol=0.0, atol=1e-12)


def test_bearing_resultant_keeps_a_subnormal_offset():
    # a neighbor at lon 1e-300 beside a target at 0.0 lies due east, ~1e-295 m
    # away: its squared offset underflows to 0, so it needs hypot to keep its
    # bearing; so do a subnormal offset and one whose square overflows
    east, north = tangent_displacements(0.0, 0.0, np.array([0.0, 0.0]), np.array([0.0, 1e-300]))
    assert east[1] > 0.0 and east[1] * east[1] == 0.0
    phi, r_phi, deact = bearing_resultant(east, north, np.ones(2), 1e-3)
    assert (float(phi), float(r_phi), bool(deact)) == (0.0, 1.0, False)
    # due north and due south cancel; north-east is left
    east = np.array([0.0, 0.0, 1e200])
    north = np.array([5e-324, -5e-324, 1e200])
    phi, r_phi, deact = bearing_resultant(east, north, np.ones(3), 1e-3)
    assert not deact
    assert float(phi) == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert float(r_phi) == pytest.approx(1.0 / 3.0, abs=1e-12)
