import math
import sys

import numpy as np
import pytest

import gimbal.solver as solver
from gimbal.solver import (
    cond_wls2,
    operator_norm_bound,
    solve_local,
)

EPS = np.finfo(np.float64).eps


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
    # in the same order, M's Cholesky factor, and the closed-form largest
    # eigenvalues of M, M^-1 and B B^T; eigvalsh is the oracle
    rng = np.random.default_rng(48)
    C, K = 40, 25
    x, z = rng.normal(0, 1, (C, K)), rng.uniform(0, 2, (C, K))
    x[3] = 1.5  # a constant covariate: ill-posed, NaN
    w = rng.uniform(0.0, 1.0, (C, K))
    w /= w.sum(axis=-1, keepdims=True)
    gamma = 1.7
    X = np.stack([np.ones((C, K)), x, z], axis=-1)

    scale = 1.0 + 2.0 * gamma * w
    m_nor, b_gram = {}, {}
    for a in range(3):
        for b in range(a, 3):
            m_nor[a, b] = np.sum(X[..., a] * X[..., b] * scale, axis=-1)
            b_gram[a, b] = np.sum(X[..., a] * X[..., b] * (scale * scale), axis=-1)
    low, broken = solver._cholesky(m_nor)
    lam_max = solver._largest_eigenvalue(m_nor)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam_min = np.where(broken, 0.0, 1.0 / solver._largest_eigenvalue(solver._inverse_gram(low)))
        well_posed = (lam_max > 0.0) & (lam_min > 1e-12 * lam_max)
        b_norm = np.sqrt(solver._largest_eigenvalue(b_gram))
        expected = np.where(well_posed, b_norm / lam_min, np.nan)

    assert np.isnan(expected[3]) and np.count_nonzero(np.isnan(expected)) == 1
    for design in (X, (None, x, z)):
        got = operator_norm_bound(design, w, gamma)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # one row alone is its row of the stack
    one = operator_norm_bound(X[5], w[5], gamma)
    assert one.view(np.int64) == expected[5].view(np.int64)

    # against LAPACK: lam_min and ||B||_2 each within a few ulp of their
    # matrix's norm, so the bound within 16 eps kappa relative
    def full(g):
        return np.stack([np.stack([g[min(a, b), max(a, b)] for b in range(3)], -1) for a in range(3)], -2)

    evals = np.linalg.eigvalsh(full(m_nor))
    oracle = np.sqrt(np.linalg.eigvalsh(full(b_gram))[:, -1]) / evals[:, 0]
    kappa = evals[:, -1] / evals[:, 0]
    ok = well_posed
    assert np.all(np.abs(expected[ok] - oracle[ok]) <= 16 * EPS * kappa[ok] * oracle[ok])


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_rows_with_a_non_finite_normal_matrix_are_ill_posed():
    # an overflowing covariate, NaN weights (h_eff**2 underflowed) and a
    # gamma whose 2 * gamma overflows each make the normal matrix non-finite,
    # which the eigensolver cannot take; the other rows solve as alone
    rng = np.random.default_rng(50)
    X = np.stack([random_instance(rng, n=20)[0] for _ in range(4)])
    y = rng.normal(0, 1, (4, 20))
    w = np.full((4, 20), 0.05)
    X[1, 3, 1] = 1e160
    w[2, 5] = np.nan
    fit = solve_local(X, y, w, 1.0)
    assert fit.well_posed.tolist() == [True, False, False, True]
    assert np.isnan(fit.beta[1:3]).all() and np.isinf(fit.m_nor_condition[1:3]).all()
    for row in (0, 3):
        alone = solve_local(X[row], y[row], w[row], 1.0)
        assert np.array_equal(fit.beta[row], alone.beta)
    bound = operator_norm_bound(X, w, 1.0)
    assert np.isnan(bound[1:3]).all() and np.isfinite(bound[[0, 3]]).all()
    overflowed = solve_local(X[0], y[0], w[0], 1e308)
    assert not overflowed.well_posed and np.isnan(operator_norm_bound(X[0], w[0], 1e308))


# the unweighted fit summaries over the neighborhood rows, read off the
# local OLS solve (gamma = 0)

def test_summaries_exact_fit_and_forced_zero():
    rng = np.random.default_rng(48)
    X, _, w = random_instance(rng, n=12)
    beta_true = np.array([0.5, -1.0, 2.0])
    fit = solve_local(X, X @ beta_true, w, 0.0)
    assert fit.rmse_local == pytest.approx(0.0, abs=1e-12)
    assert fit.r2_local == pytest.approx(1.0, abs=1e-12)
    assert fit.r2_defined
    # a response orthogonal to every column (an OLS residual, so centered)
    # forces beta to zero: R^2 = 0
    y = rng.normal(0, 1, 12)
    fit = solve_local(X, y - X @ ols_oracle(X, y), w, 0.0)
    assert np.allclose(fit.beta, 0.0, atol=1e-12)
    assert fit.r2_local == pytest.approx(0.0, abs=1e-12)


def test_summaries_match_direct_formulas():
    rng = np.random.default_rng(49)
    X, y, w = random_instance(rng, n=18)
    fit = solve_local(X, y, w, 0.0)
    r_direct = y - X @ fit.beta
    assert np.allclose(fit.beta, ols_oracle(X, y))
    assert np.allclose(fit.residuals, r_direct)
    assert fit.rmse_local == pytest.approx(math.sqrt(np.mean(r_direct**2)), rel=1e-12)
    assert fit.r2_local == pytest.approx(1 - r_direct @ r_direct / ((y - y.mean()) @ (y - y.mean())),
                                         rel=1e-12)


def test_summaries_constant_y_sentinel():
    X = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0) ** 2])
    fit = solve_local(X, np.full(5, 2.0), np.full(5, 0.2), 0.0)
    assert fit.well_posed
    assert not fit.r2_defined
    assert fit.r2_local == 0.0


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
def test_shared_terms_change_no_bit(seed):
    # one memo serves several solves of one (None, x, z) design and y, as an
    # n0 sweep's configs share it: each equals the solve without it, on
    # random stacks with ill-posed, overflowing, NaN-weight, non-finite-y,
    # constant-y and uniform-weight rows, and at gamma = 0
    rng = np.random.default_rng(70 + seed)
    c, k = 48, int(rng.integers(5, 60))
    x = rng.normal(0.0, 1.0, (c, k)) * 10.0 ** rng.integers(-3, 4, (c, 1))
    z = rng.uniform(0.0, 2.0, (c, k))
    y = 1.0 + 0.5 * x - z + rng.normal(0.0, 0.3, (c, k))
    x[:4] = 1.5  # collinear with the intercept
    z[4:8] = 2.0 * x[4:8]  # collinear with x
    x[8, 0] = 1e160  # an overflowing product
    y[9, 1] = np.inf
    y[10:14] = -0.25  # constant response
    shared = {}
    for gamma in rng.permutation([0.0, 0.5, 1.0, 4.0, 1e308]):
        w = rng.uniform(0.01, 1.0, (c, k))
        w[14:18] = 1.0  # uniform weights, as on a fallback row
        w[18, 2] = np.nan
        w /= w.sum(axis=-1, keepdims=True)
        alone = solve_local((None, x, z), y, w, gamma)
        assert_fits_bitwise_equal(solve_local((None, x, z), y, w, gamma, shared=shared), alone)
        assert not alone.well_posed[:9].any() and not alone.well_posed[18]
        assert set(shared) == {(1, 1), (1, 2), (2, 2), "ss_tot"}
    # without an intercept column every product of two columns is kept
    X = (np.ones_like(x), x, z)
    full = {}
    assert_fits_bitwise_equal(solve_local(X, y, w, 2.0, shared=full), solve_local(X, y, w, 2.0))
    assert len(full) == 7


def test_kappa_reported_even_when_ill_posed():
    X = np.column_stack([np.ones(8), np.ones(8), np.zeros(8)])
    fit = solve_local(X, np.arange(8.0), np.full(8, 1 / 8), 1.0)
    assert not fit.well_posed
    assert fit.m_nor_condition >= 1e10


# the closed-form Cholesky solve against LAPACK on the same normal matrices

def conditioned_designs(rng, c, k, kappa):
    """(c, k, 3) designs X = U diag(s) V^T whose X^T X has condition number
    kappa: U with orthonormal columns, V a random rotation, s from 1 down to
    kappa**-0.5."""
    s = np.array([1.0, kappa ** -0.25, kappa ** -0.5])
    designs = []
    for _ in range(c):
        u = np.linalg.qr(rng.normal(size=(k, 3)))[0]
        v = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        designs.append((u * s) @ v.T)
    return np.stack(designs)


@pytest.mark.parametrize("kappa", [1.0, 1e3, 1e7, 1e11])
def test_closed_form_solve_matches_lapack(kappa):
    # beta of each row against np.linalg.solve of the same assembled normal
    # equations: both are backward stable, so they agree to a small multiple
    # of kappa * u; one neighborhood alone gives its stacked row bit for bit
    rng = np.random.default_rng(int(math.log10(kappa)) + 60)
    c, k = 40, 30
    X = conditioned_designs(rng, c, k, kappa)
    y = rng.normal(0.0, 1.0, (c, k))
    w = rng.uniform(0.01, 1.0, (c, k))
    w /= w.sum(axis=-1, keepdims=True)
    for gamma in (0.0, 2.0):
        fit = solve_local(X, y, w, gamma)
        assert fit.well_posed.all()
        scale = 1.0 + 2.0 * gamma * w
        m_nor = np.einsum("cka,ck,ckb->cab", X, scale, X)
        rhs = np.einsum("cka,ck,ck->ca", X, scale, y)
        reference = np.linalg.solve(m_nor, rhs[..., None])[..., 0]
        cond = np.linalg.cond(m_nor)
        error = np.linalg.norm(fit.beta - reference, axis=-1) / np.linalg.norm(reference, axis=-1)
        assert (error <= 16.0 * cond * np.finfo(float).eps).all(), error.max()
        one = solve_local(X[3], y[3], w[3], gamma)
        assert one.beta.shape == (3,) and one.well_posed.shape == ()
        assert np.array_equal(one.beta, fit.beta[3])
        assert np.array_equal(one.residuals, fit.residuals[3])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_closed_form_solve_leaves_ill_posed_and_non_finite_rows_nan():
    # singular, nearly singular (kappa past 1e12), overflowing and NaN-weight
    # rows carry NaN coefficients; the rows between them solve as alone
    rng = np.random.default_rng(64)
    c, k = 6, 20
    X = conditioned_designs(rng, c, k, 1e4)
    X[1] = conditioned_designs(rng, 1, k, 1e14)[0]
    X[2, :, 2] = 3.0 * X[2, :, 1]
    X[3, 4, 1] = 1e160
    y = rng.normal(0.0, 1.0, (c, k))
    y[5, 2] = np.inf
    w = np.full((c, k), 1.0 / k)
    w[4, 7] = np.nan
    fit = solve_local(X, y, w, 1.0)
    assert fit.well_posed.tolist() == [True, False, False, False, False, True]
    assert np.isnan(fit.beta[1:5]).all() and np.isnan(fit.residuals[1:5]).all()
    # a non-finite response leaves the normal matrix well posed; the
    # coefficients it reaches are not finite
    assert not np.isfinite(fit.beta[5]).all()
    alone = solve_local(X[0], y[0], w[0], 1.0)
    assert np.array_equal(fit.beta[0], alone.beta) and np.isfinite(alone.beta).all()


# the extreme eigenvalues in closed form: no LAPACK call, and LAPACK's
# accuracy

def test_fits_predictions_and_the_bound_make_no_linalg_call(monkeypatch):
    # every np.linalg function records its caller; the only one left is the
    # neighbor query's _start_level, whose eigenvalues pick where its level
    # walk starts, never a result
    from gimbal.engine import GimbalConfig, fit_all, predict
    from gimbal.simgen import SimSpec, generate

    callers = []

    def spy(name, fn):
        def called(*args, **kwargs):
            callers.append((name, sys._getframe(1).f_code.co_name))
            return fn(*args, **kwargs)
        return called

    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, spy(name, fn))
    ds, _ = generate(SimSpec(n=400, seed=3))
    config = GimbalConfig(k=20)
    result = fit_all(ds, config)
    predict(ds, config, ds.lat[:50] + 0.01, ds.lon[:50], ds.x[:50])
    assert result.fit.well_posed.any()
    assert callers and {caller for _, caller in callers} == {"_start_level"}
    callers.clear()
    rng = np.random.default_rng(70)
    X, _, w = random_instance(rng)
    operator_norm_bound(X, w, 1.0)
    solve_local(X, rng.normal(0, 1, 30), w, 1.0)
    assert callers == []


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e5, 1e8, 1e11])
def test_extreme_eigenvalues_within_lapacks_error(kappa):
    # SPD stacks of condition number kappa (times a random scale): lam_max
    # and lam_min each within C_EIG eps lam_max of eigvalsh's, the class of
    # eigvalsh's own error, so kappa within C_EIG eps kappa relative
    C_EIG = 16
    rng = np.random.default_rng(int(math.log10(kappa)) + 71)
    c, k = 200, 30
    X = conditioned_designs(rng, c, k, kappa) * rng.uniform(1e-3, 1e3, (c, 1, 1))
    w = rng.uniform(0.01, 1.0, (c, k))
    w /= w.sum(axis=-1, keepdims=True)
    for gamma in (0.0, 3.0):
        scale = 1.0 + 2.0 * gamma * w
        _, lam_min, lam_max, well_posed = solver._normal_matrix(solver._design_columns(X), scale)
        evals = np.linalg.eigvalsh(np.einsum("cka,ck,ckb->cab", X, scale, X))
        assert well_posed.all()
        assert np.all(np.abs(lam_max - evals[:, -1]) <= C_EIG * EPS * evals[:, -1])
        assert np.all(np.abs(lam_min - evals[:, 0]) <= C_EIG * EPS * evals[:, -1])
        fit = solve_local(X, np.zeros((c, k)), w, gamma, eps_kappa=0.0)
        oracle = evals[:, -1] / evals[:, 0]
        assert np.all(np.abs(fit.m_nor_condition - oracle) <= 2 * C_EIG * EPS * oracle * oracle)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_singular_non_finite_and_one_row_systems_keep_their_outputs():
    rng = np.random.default_rng(75)
    k = 12
    good = conditioned_designs(rng, 1, k, 10.0)[0]
    designs = {
        "good": good,
        # an exactly repeated column: the factorization breaks down
        "repeated": np.column_stack([np.ones(k), good[:, 1], good[:, 1]]),
        "zero": np.zeros((k, 3)),
        "overflow": np.column_stack([np.ones(k), np.full(k, 1e160), good[:, 2]]),
        "nan": np.column_stack([np.ones(k), np.full(k, np.nan), good[:, 2]]),
    }
    y = rng.normal(0.0, 1.0, k)
    w = np.full(k, 1.0 / k)
    for name, X in designs.items():
        fit = solve_local(X, y, w, 1.0)
        assert bool(fit.well_posed) == (name == "good"), name
        assert np.isnan(fit.beta).all() != (name == "good"), name
        assert np.isnan(operator_norm_bound(X, w, 1.0)) != (name == "good"), name
    # a broken factorization reports lam_min 0: kappa is lam_max / eps_kappa
    repeated = designs["repeated"]
    lam_max = np.linalg.eigvalsh(repeated.T @ (repeated * (1.0 + 2.0 * w)[:, None]))[-1]
    fit = solve_local(repeated, y, w, 1.0)
    assert fit.m_nor_condition == pytest.approx(lam_max / 1e-12, rel=1e-13)
    # no positive eigenvalue, or a matrix that is not finite: kappa inf
    for name in ("zero", "overflow", "nan"):
        assert solve_local(designs[name], y, w, 1.0).m_nor_condition == np.inf, name
    # one row: a rank-one normal matrix, ill-posed, NaN summaries
    one = solve_local(good[:1], y[:1], w[:1], 1.0)
    assert not one.well_posed and np.isnan(one.beta).all() and np.isnan(one.rmse_local)
    assert np.isnan(one.r2_local) and not one.r2_defined and one.m_nor_condition >= 1e10
