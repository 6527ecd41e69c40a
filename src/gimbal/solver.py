"""Closed-form modulated local solve and its conditioning diagnostics.

The local coefficients solve

    (X^T X + 2 gamma X^T W X) beta = X^T y + 2 gamma X^T W y

with W = diag(w). gamma = 0 gives local OLS; gamma -> infinity gives local
WLS. Well-posedness is decided deterministically from the eigenvalues of the
normal matrix (relative floor 1e-12); singular locations are flagged and
excluded downstream, never pseudo-inverted. A well-posed system is solved by
its Cholesky factor, written out over the p columns on arrays of rows, and
forward and back substitution: no LAPACK call, and no pivoting, since the
eigenvalue test admits condition numbers below 1e12 only.

A design X of shape (K, p) is one neighborhood; (C, K, p) with (C, K) y and
weights is a stack of C neighborhoods, solved together row by row. Each row's
result depends on that row alone. X may also be given as a tuple of its p
columns ((K,) or (C, K) arrays), with None for an intercept column of ones:
every product with the intercept is then skipped, which changes no bit, since
1.0 * v == v in IEEE arithmetic. Both shapes run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orientation import sym2_eigvals

# lambda_min / lambda_max at or below this ratio declares the solve singular
SINGULARITY_RTOL = 1e-12
DEFAULT_EPS_KAPPA = 1e-12


@dataclass(frozen=True)
class LocalFit:
    """Local solve of one neighborhood (scalars, (p,) beta, (K,) residuals) or
    of a stack ((C,) arrays, (C, p) beta, (C, K) residuals).

    Ill-posed rows carry NaN coefficients, residuals and fit summaries.
    """

    beta: np.ndarray
    m_nor_condition: float
    well_posed: bool
    rmse_local: float
    r2_local: float
    r2_defined: bool
    residuals: np.ndarray


def _design_columns(X):
    """The design's columns: a tuple of columns as given (None is the
    intercept), or an array's last-axis slices, each made contiguous so every
    reduction runs along contiguous rows."""
    if isinstance(X, tuple):
        return [None if c is None else np.asarray(c, dtype=np.float64) for c in X]
    X = np.asarray(X, dtype=np.float64)
    return [np.ascontiguousarray(X[..., a]) for a in range(X.shape[-1])]


def _product(*factors):
    """The factors multiplied left to right, skipping None (the intercept's
    ones)."""
    present = [f for f in factors if f is not None]
    out = present[0]
    for f in present[1:]:
        out = out * f
    return out


def _weighted_gram(columns, scale):
    """Stacked symmetric matrices G[a, b] = sum_k columns[a] columns[b] scale."""
    p = len(columns)
    out = np.empty(scale.shape[:-1] + (p, p))
    for a in range(p):
        for b in range(a, p):
            out[..., a, b] = out[..., b, a] = np.sum(_product(columns[a], columns[b], scale), axis=-1)
    return out


def _eigvals(m):
    """Ascending eigenvalues of each symmetric (..., p, p) matrix; NaN for a
    matrix that is not finite (an overflowed product or NaN weights), which
    the eigensolver cannot take: it sees the identity in its place."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    evals = np.linalg.eigvalsh(np.where(finite[..., None, None], m, np.eye(m.shape[-1])))
    return np.where(finite[..., None], evals, np.nan)


def _normal_matrix(cols, scale):
    """The normal matrix M = X^T (I + 2 gamma W) X of each row (scale is
    1 + 2 gamma w), its smallest and largest eigenvalues, and whether the
    row is well posed: (m_nor, lam_min, lam_max, well_posed). A row whose
    matrix is not finite has NaN eigenvalues and is ill-posed."""
    m_nor = _weighted_gram(cols, scale)
    evals = _eigvals(m_nor)
    lam_min = evals[..., 0]
    lam_max = evals[..., -1]
    well_posed = (lam_max > 0.0) & (lam_min > SINGULARITY_RTOL * lam_max)
    return m_nor, lam_min, lam_max, well_posed


def _cholesky_solve(m, rhs):
    """The solution of m x = rhs for each symmetric positive definite
    (..., p, p) matrix m and the list rhs of its p right-hand sides, as p
    arrays: m = L L^T by the Cholesky factorization written out over the p
    columns, then L z = rhs forward and L^T x = z back."""
    p = len(rhs)
    low = {}
    for j in range(p):
        for r in range(j, p):
            entry = m[..., r, j] - sum(low[r, i] * low[j, i] for i in range(j))
            low[r, j] = np.sqrt(entry) if r == j else entry / low[j, j]
    z = []
    for r in range(p):
        z.append((rhs[r] - sum(low[r, i] * z[i] for i in range(r))) / low[r, r])
    x = [None] * p
    for r in reversed(range(p)):
        x[r] = (z[r] - sum(low[i, r] * x[i] for i in range(r + 1, p))) / low[r, r]
    return x


def solve_local(X, y, weights, gamma, eps_kappa=DEFAULT_EPS_KAPPA):
    """Solve the modulated normal equations of one or many neighborhoods.

    X is a design array or a tuple of its columns (see the module
    docstring). Returns a LocalFit; a row whose normal matrix is singular
    carries well_posed=False and NaN coefficients (the location is flagged,
    not regularized).
    """
    cols = _design_columns(X)
    y = np.asarray(y, dtype=np.float64)
    scale = 1.0 + 2.0 * gamma * np.asarray(weights, dtype=np.float64)
    p = len(cols)

    m_nor, lam_min, lam_max, well_posed = _normal_matrix(cols, scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(lam_max > 0.0, lam_max / np.maximum(lam_min, eps_kappa), np.inf)

    # The eigenvalue test admits condition numbers below 1e12 only, where a
    # Cholesky factorization cannot break down in double precision. Singular
    # rows are factored as the identity and their results discarded.
    m = np.where(well_posed[..., None, None], m_nor, np.eye(p))
    rhs = [np.sum(_product(c, scale, y), axis=-1) for c in cols]
    beta = np.stack(_cholesky_solve(m, rhs), axis=-1)
    beta = np.where(well_posed[..., None], beta, np.nan)

    rmse, r2, r2_defined, residuals = _summaries(cols, y, beta)
    return LocalFit(
        beta=beta,
        m_nor_condition=kappa,
        well_posed=well_posed,
        rmse_local=rmse,
        r2_local=np.where(well_posed, r2, np.nan),
        r2_defined=r2_defined & well_posed,
        residuals=residuals,
    )


def operator_norm_bound(X, weights, gamma):
    """The paper's stability bound ||M_nor^-1||_2 ||B||_2 of each row, with
    B = X^T (I + 2 gamma W): an upper bound on the local estimator's
    Lipschitz constant in y. ||B||_2 is the square root of the largest
    eigenvalue of B B^T. NaN where the row is ill-posed. X, weights and
    gamma are as solve_local takes them; no fit computes this.
    """
    cols = _design_columns(X)
    scale = 1.0 + 2.0 * gamma * np.asarray(weights, dtype=np.float64)
    _, lam_min, _, well_posed = _normal_matrix(cols, scale)
    b_norm = np.sqrt(_eigvals(_weighted_gram(cols, scale * scale))[..., -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(well_posed, b_norm / lam_min, np.nan)


def _summaries(cols, y, beta):
    # the fitted values summed left to right over the columns, as a
    # last-axis sum of the products with a design array adds them
    fitted = None
    for a, c in enumerate(cols):
        term = _product(c, beta[..., a, None])
        fitted = term if fitted is None else fitted + term
    residuals = y - fitted
    ss_res = np.sum(residuals * residuals, axis=-1)
    rmse = np.sqrt(ss_res / y.shape[-1])
    ss_tot = np.sum((y - np.mean(y, axis=-1, keepdims=True)) ** 2, axis=-1)
    defined = ss_tot > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(defined, 1.0 - ss_res / ss_tot, 0.0)
    return rmse, r2, defined, residuals


def cond_wls2(x_standardized, weights, eps_kappa=DEFAULT_EPS_KAPPA):
    """Condition number of X2^T W X2 under the standardized design [1, x].

    Comparability diagnostic across local solvers; computed alongside the fit
    but never used inside the estimator path.
    """
    x = np.asarray(x_standardized, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    g11 = np.sum(w, axis=-1)
    g12 = np.sum(w * x, axis=-1)
    g22 = np.sum(w * x * x, axis=-1)
    lam_max, lam_min = sym2_eigvals(g11, g12, g22)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam_max > 0.0, lam_max / np.maximum(lam_min, eps_kappa), np.inf)
