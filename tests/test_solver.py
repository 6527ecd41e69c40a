import math

import numpy as np
import pytest

from gimbal.solver import (
    cond_wls2,
    local_fit_summaries,
    operator_norm_bound,
    solve_local,
)


def stability_bound(X, weights, gamma):
    """operator_norm_bound of one design; it is undefined when ill-posed."""
    fit = solve_local(X, np.zeros(X.shape[0]), weights, gamma)
    if not fit.well_posed:
        raise np.linalg.LinAlgError("stability bound undefined: singular normal matrix")
    return float(operator_norm_bound(X, weights, gamma))


def random_instance(rng, n=30, p=3):
    """Well-conditioned random local problem with normalized weights."""
    X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, p - 1))])
    y = rng.normal(0, 1, n)
    w = rng.uniform(0.2, 1.0, n)
    w = w / w.sum()
    return X, y, w


def ols_oracle(X, y):
    return np.linalg.lstsq(X, y, rcond=None)[0]


def wls_oracle(X, y, w):
    sw = np.sqrt(w)
    return np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]


def test_gamma_zero_is_ols():
    rng = np.random.default_rng(40)
    for _ in range(100):
        X, y, w = random_instance(rng)
        fit = solve_local(X, y, w, gamma=0.0)
        ref = ols_oracle(X, y)
        assert np.linalg.norm(fit.beta - ref) <= 1e-10 * np.linalg.norm(ref)


def test_uniform_weights_reduce_to_ols_for_any_gamma():
    rng = np.random.default_rng(41)
    for gamma in (0.0, 0.5, 1.0, 10.0):
        X, y, _ = random_instance(rng)
        w = np.full(X.shape[0], 1.0 / X.shape[0])
        fit = solve_local(X, y, w, gamma=gamma)
        ref = ols_oracle(X, y)
        assert np.linalg.norm(fit.beta - ref) <= 1e-10 * np.linalg.norm(ref)


def test_large_gamma_approaches_wls():
    rng = np.random.default_rng(42)
    for _ in range(20):
        X, y, w = random_instance(rng)
        fit = solve_local(X, y, w, gamma=1e8)
        ref = wls_oracle(X, y, w)
        assert np.linalg.norm(fit.beta - ref) <= 1e-4 * np.linalg.norm(ref)


def test_rank_deficient_design_flags_ill_posed():
    rng = np.random.default_rng(43)
    x = rng.normal(0, 1, 20)
    X = np.column_stack([np.ones(20), x, x])  # duplicated column
    y = rng.normal(0, 1, 20)
    w = np.full(20, 1 / 20)
    fit = solve_local(X, y, w, gamma=0.0)
    assert not fit.well_posed
    assert np.all(np.isnan(fit.beta))
    assert math.isnan(fit.rmse_local)


def test_linearity_in_y():
    rng = np.random.default_rng(44)
    X, _, w = random_instance(rng)
    y1 = rng.normal(0, 1, 30)
    y2 = rng.normal(0, 1, 30)
    a, b = 1.7, -0.4
    beta_combo = solve_local(X, a * y1 + b * y2, w, 1.0).beta
    beta_sep = a * solve_local(X, y1, w, 1.0).beta + b * solve_local(X, y2, w, 1.0).beta
    assert np.linalg.norm(beta_combo - beta_sep) <= 1e-9 * max(1.0, np.linalg.norm(beta_sep))


def test_stability_bound_never_violated():
    rng = np.random.default_rng(45)
    for _ in range(100):
        X, _, w = random_instance(rng, n=25)
        gamma = rng.uniform(0, 5)
        bound = stability_bound(X, w, gamma)
        for _ in range(100):
            y1 = rng.normal(0, 1, 25)
            y2 = rng.normal(0, 1, 25)
            b1 = solve_local(X, y1, w, gamma).beta
            b2 = solve_local(X, y2, w, gamma).beta
            lhs = np.linalg.norm(b1 - b2)
            rhs = bound * np.linalg.norm(y1 - y2)
            assert lhs <= rhs * (1 + 1e-9)


def test_stability_bound_dominates_exact_operator_norm():
    rng = np.random.default_rng(46)
    for _ in range(20):
        X, _, w = random_instance(rng, n=15)
        gamma = rng.uniform(0, 3)
        m_nor = X.T @ X + 2 * gamma * X.T @ (X * w[:, None])
        b_op = X.T * (1 + 2 * gamma * w)[None, :]
        exact = np.linalg.svd(np.linalg.solve(m_nor, b_op), compute_uv=False)[0]
        assert stability_bound(X, w, gamma) >= exact * (1 - 1e-12)


def test_stability_bound_orthonormal_case():
    # gamma=0 with orthonormal columns: A = X^T, bound >= ||A||_2 = 1
    rng = np.random.default_rng(47)
    q, _ = np.linalg.qr(rng.normal(0, 1, (20, 3)))
    w = rng.uniform(0, 1, 20)
    bound = stability_bound(q, w / w.sum(), 0.0)
    assert bound >= 1.0 - 1e-12


def test_stability_bound_requires_well_posed():
    X = np.column_stack([np.ones(10), np.ones(10), np.zeros(10)])
    with pytest.raises(np.linalg.LinAlgError):
        stability_bound(X, np.full(10, 0.1), 1.0)


def test_operator_norm_bound_is_bitwise_the_product_expression():
    # ||M_nor^-1||_2 ||B||_2 written out inline: the two Gram matrices summed
    # in the same order, and their batched eigenvalues
    rng = np.random.default_rng(48)
    C, K = 40, 25
    x, z = rng.normal(0, 1, (C, K)), rng.uniform(0, 2, (C, K))
    x[3] = 1.5  # a constant covariate: ill-posed, NaN
    w = rng.uniform(0.0, 1.0, (C, K))
    w /= w.sum(axis=-1, keepdims=True)
    gamma = 1.7
    X = np.stack([np.ones((C, K)), x, z], axis=-1)

    scale = 1.0 + 2.0 * gamma * w
    m_nor = np.empty((C, 3, 3))
    b_gram = np.empty((C, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            m_nor[:, a, b] = m_nor[:, b, a] = np.sum(X[..., a] * X[..., b] * scale, axis=-1)
            b_gram[:, a, b] = b_gram[:, b, a] = np.sum(X[..., a] * X[..., b] * (scale * scale), axis=-1)
    evals = np.linalg.eigvalsh(m_nor)
    well_posed = (evals[:, -1] > 0.0) & (evals[:, 0] > 1e-12 * evals[:, -1])
    b_norm = np.sqrt(np.linalg.eigvalsh(b_gram)[:, -1])
    expected = np.where(well_posed, b_norm / evals[:, 0], np.nan)

    assert np.isnan(expected[3]) and np.count_nonzero(np.isnan(expected)) == 1
    for design in (X, (None, x, z)):
        got = operator_norm_bound(design, w, gamma)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # one row alone is its row of the stack
    one = operator_norm_bound(X[5], w[5], gamma)
    assert one.view(np.int64) == expected[5].view(np.int64)


def test_gamma_interpolates_between_ols_and_wls():
    # weak interpolation check: endpoints match the limits and intermediate
    # solutions stay within the endpoint distance from OLS
    rng = np.random.default_rng(51)
    for _ in range(20):
        X, y, w = random_instance(rng)
        beta_ols = ols_oracle(X, y)
        beta_wls = wls_oracle(X, y, w)
        endpoint_dist = np.linalg.norm(beta_wls - beta_ols)
        for gamma in (0.0, 1.0, 10.0, 1e3, 1e6):
            beta = solve_local(X, y, w, gamma).beta
            assert np.linalg.norm(beta - beta_ols) <= endpoint_dist * (1 + 1e-6) + 1e-12
        assert np.linalg.norm(solve_local(X, y, w, 0.0).beta - beta_ols) <= 1e-10 * np.linalg.norm(beta_ols)
        assert np.linalg.norm(solve_local(X, y, w, 1e8).beta - beta_wls) <= 1e-4 * np.linalg.norm(beta_wls)


def test_summaries_exact_fit_and_forced_zero():
    rng = np.random.default_rng(48)
    X, _, _ = random_instance(rng, n=12)
    beta_true = np.array([0.5, -1.0, 2.0])
    y = X @ beta_true
    rmse, r2, defined, res = local_fit_summaries(X, y, beta_true)
    assert rmse == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert defined
    # beta forced to zero on centered y: R^2 = 0
    yc = y - y.mean()
    rmse0, r20, _, _ = local_fit_summaries(X, yc, np.zeros(3))
    assert r20 == pytest.approx(0.0, abs=1e-12)


def test_summaries_match_direct_formulas():
    rng = np.random.default_rng(49)
    X, y, _ = random_instance(rng, n=18)
    beta = ols_oracle(X, y)
    rmse, r2, defined, res = local_fit_summaries(X, y, beta)
    r_direct = y - X @ beta
    assert np.allclose(res, r_direct)
    assert rmse == pytest.approx(math.sqrt(np.mean(r_direct**2)), rel=1e-12)
    assert r2 == pytest.approx(1 - r_direct @ r_direct / ((y - y.mean()) @ (y - y.mean())), rel=1e-12)


def test_summaries_constant_y_sentinel():
    X = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0) ** 2])
    y = np.full(5, 2.0)
    rmse, r2, defined, _ = local_fit_summaries(X, y, np.zeros(3))
    assert not defined
    assert r2 == 0.0


def test_cond_wls2_constant_column_hits_floor():
    w = np.full(10, 0.1)
    kappa = cond_wls2(np.zeros(10), w, eps_kappa=1e-12)
    assert kappa == pytest.approx(1.0 / 1e-12, rel=1e-6)
    assert math.isfinite(kappa)


def test_cond_wls2_isotropic_gram_is_one():
    # x orthogonal to 1 under W with matching weighted second moment
    x = np.array([1.0, -1.0, 1.0, -1.0])
    w = np.full(4, 0.25)
    assert cond_wls2(x, w) == pytest.approx(1.0, rel=1e-12)


def test_cond_wls2_matches_eigen_oracle():
    rng = np.random.default_rng(50)
    for _ in range(50):
        x = rng.normal(0, 1, 25)
        w = rng.uniform(0.01, 1, 25)
        w = w / w.sum()
        X2 = np.column_stack([np.ones(25), x])
        g = X2.T @ (X2 * w[:, None])
        evals = np.linalg.eigvalsh(g)
        expect = evals[1] / max(evals[0], 1e-12)
        assert cond_wls2(x, w) == pytest.approx(expect, rel=1e-10)


def assert_fits_bitwise_equal(a, b):
    for name, value in vars(a).items():
        other = getattr(b, name)
        assert value.dtype == other.dtype and value.shape == other.shape, name
        if value.dtype == np.float64:
            value, other = value.view(np.int64), other.view(np.int64)
        assert np.array_equal(value, other), name


@pytest.mark.parametrize("k", [30, 50])
def test_column_path_equals_stacked_design_bitwise(k):
    # the engine's (None, x, z) columns skip the intercept's products; the
    # stack [1, x, z] computes them, and every field agrees bit for bit
    rng = np.random.default_rng(52 + k)
    c = 64
    x = rng.normal(0.0, 1.0, (c, k))
    z = rng.uniform(0.0, 2.0, (c, k))
    y = 1.0 + 0.5 * x - z + rng.normal(0.0, 0.3, (c, k))
    w = rng.uniform(0.01, 1.0, (c, k))
    x[:8] = 1.5  # collinear with the intercept: ill-posed
    z[8:16] = 2.0 * x[8:16]  # collinear with x: ill-posed
    y[16:24] = -0.25  # constant response: r2 undefined
    w[24:32] = 1.0  # uniform weights, as on a fallback row
    w /= w.sum(axis=-1, keepdims=True)
    stacked = np.stack([np.ones_like(z), x, z], axis=-1)
    for gamma in (0.0, 1.0, 4.0):
        fit = solve_local((None, x, z), y, w, gamma)
        assert not fit.well_posed[:16].any() and fit.well_posed[16:].all()
        assert not fit.r2_defined[16:24].any() and fit.r2_defined[24:].all()
        assert_fits_bitwise_equal(fit, solve_local(stacked, y, w, gamma))
        # one neighborhood at a time, too
        assert_fits_bitwise_equal(solve_local((None, x[20], z[20]), y[20], w[20], gamma),
                                  solve_local(stacked[20], y[20], w[20], gamma))


def test_kappa_reported_even_when_ill_posed():
    X = np.column_stack([np.ones(8), np.ones(8), np.zeros(8)])
    fit = solve_local(X, np.arange(8.0), np.full(8, 1 / 8), 1.0)
    assert not fit.well_posed
    assert fit.m_nor_condition >= 1e10
