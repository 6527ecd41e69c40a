"""Closed-form modulated local solve and its conditioning diagnostics.

The local coefficients solve

    (X^T X + 2 gamma X^T W X) beta = X^T y + 2 gamma X^T W y

with W = diag(w). gamma = 0 gives local OLS; gamma -> infinity gives local
WLS. Each finite normal matrix is factored by Cholesky, written out over the
p columns on arrays of rows, with no pivoting; a factorization that breaks
down is ill-posed. Well-posedness is then decided deterministically from the
extreme eigenvalues (relative floor 1e-12): the largest in closed form, the
smallest as the reciprocal of the inverse's largest, the inverse formed from
the factor. Singular locations are flagged and excluded downstream, never
pseudo-inverted. A well-posed system is solved by forward and back
substitution on its factor. No step calls LAPACK. The eigenvalues are
written out for three columns, the design [1, x, z] of the estimator.

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

    Ill-posed rows carry NaN coefficients, residuals and fit summaries. A
    solve without summaries (solve_local(summaries=False)) has None for
    rmse_local, r2_local, r2_defined and residuals.
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


def _kept(shared, key, compute):
    """compute(), kept under key in the memo shared and computed only where
    it holds none; computed afresh where shared is None."""
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


def _weighted_gram(columns, scale, shared=None):
    """The upper entries g[a, b], a <= b, of the stacked symmetric matrices
    G[a, b] = sum_k columns[a] columns[b] scale, as a dict of arrays.
    shared is None or solve_local's memo, which keeps each product
    columns[a] columns[b] of two columns that are not the intercept."""
    p = len(columns)
    g = {}
    for a in range(p):
        for b in range(a, p):
            if columns[a] is None or columns[b] is None:
                g[a, b] = np.sum(_product(columns[a], columns[b], scale), axis=-1)
            else:
                g[a, b] = np.sum(_kept(shared, (a, b), lambda: columns[a] * columns[b]) * scale, axis=-1)
    return g


def _finite_or_identity(g):
    """(g with each matrix that is not finite replaced by the identity,
    whether each matrix is finite): an overflowed product or NaN weights
    leave a row no eigenvalues and no factor."""
    finite = np.logical_and.reduce([np.isfinite(v) for v in g.values()])
    return {(a, b): np.where(finite, v, float(a == b)) for (a, b), v in g.items()}, finite


def _largest_eigenvalue(g):
    """The largest eigenvalue of each symmetric positive semidefinite 3x3
    matrix A with finite upper entries g, by the trigonometric solution of
    its characteristic cubic (O. K. Smith, Commun. ACM 4(4), 1961): with q
    the mean of A's diagonal, p**2 = ||A - q I||_F**2 / 6 and
    r = det(A - q I) / (2 p**3) in [-1, 1], it is
    q + 2 p cos(arccos(r) / 3), within a few ulp of A's norm. A is first
    scaled by its largest diagonal entry, which bounds every entry, so that
    no square overflows and none that counts underflows."""
    s = np.maximum(np.maximum(g[0, 0], g[1, 1]), g[2, 2])
    s = np.where(s > 0.0, s, 1.0)
    a00, a01, a02, a11, a12, a22 = (g[key] / s for key in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    q = (a00 + a11 + a22) / 3.0
    d0, d1, d2 = a00 - q, a11 - q, a22 - q
    p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0
    p = np.sqrt(p2)
    det = d0 * (d1 * d2 - a12 * a12) - a01 * (a01 * d2 - a12 * a02) + a02 * (a01 * a12 - d1 * a02)
    # p = 0 is a multiple of the identity, and det = 0 with it
    r = np.minimum(np.maximum(det / np.where(p2 > 0.0, 2.0 * p2 * p, 1.0), -1.0), 1.0)
    return (q + 2.0 * p * np.cos(np.arccos(r) / 3.0)) * s


def _cholesky(g):
    """The Cholesky factor L (g = L L^T) of each symmetric matrix with upper
    entries g, written out over the p columns: low[r, j] for r >= j, and
    whether each matrix broke down (a pivot not positive, so the matrix is
    not numerically positive definite). A broken pivot is taken as 1, which
    keeps the row's arithmetic finite; its results are never read."""
    p = max(a for a, _ in g) + 1
    low = {}
    broken = False
    for j in range(p):
        for r in range(j, p):
            entry = g[j, r] - sum(low[r, i] * low[j, i] for i in range(j))
            if r == j:
                positive = entry > 0.0
                broken = broken | ~positive
                low[j, j] = np.sqrt(np.where(positive, entry, 1.0))
            else:
                low[r, j] = entry / low[j, j]
    return low, broken


def _inverse_gram(low):
    """The upper entries of M^-1 = L^-T L^-1 from the Cholesky factor L of
    M, with L^-1 written out by forward substitution."""
    p = max(r for r, _ in low) + 1
    inv = {}
    for j in range(p):
        inv[j, j] = 1.0 / low[j, j]
        for r in range(j + 1, p):
            inv[r, j] = -sum(low[r, i] * inv[i, j] for i in range(j, r)) / low[r, r]
    return {(a, b): sum(inv[k, a] * inv[k, b] for k in range(b, p)) for a in range(p) for b in range(a, p)}


def _normal_matrix(cols, scale, shared=None):
    """The Cholesky factor of the normal matrix M = X^T (I + 2 gamma W) X of
    each row (scale is 1 + 2 gamma w; see _cholesky), its smallest and
    largest eigenvalues, and whether the row is well posed:
    (low, lam_min, lam_max, well_posed).

    lam_max is M's largest eigenvalue in closed form, lam_min the reciprocal
    of M^-1's, with M^-1 from the factor: every finite row is factored
    before the eigenvalue test. A row whose factorization breaks down has
    lam_min 0, and one whose M^-1 overflows NaN; both are ill-posed. A row
    whose matrix is not finite has NaN eigenvalues and is ill-posed.
    shared as for _weighted_gram."""
    g, finite = _finite_or_identity(_weighted_gram(cols, scale, shared))
    low, broken = _cholesky(g)
    lam_max = np.where(finite, _largest_eigenvalue(g), np.nan)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam_min = np.where(broken, 0.0, 1.0 / _largest_eigenvalue(_inverse_gram(low)))
    well_posed = (lam_max > 0.0) & (lam_min > SINGULARITY_RTOL * lam_max)
    return low, lam_min, lam_max, well_posed


def _cholesky_solve(low, rhs):
    """The solution of L L^T x = rhs for the Cholesky factor low of each
    matrix (see _cholesky) and the list rhs of its p right-hand sides, as p
    arrays: L z = rhs forward, then L^T x = z back."""
    p = len(rhs)
    z = []
    for r in range(p):
        z.append((rhs[r] - sum(low[r, i] * z[i] for i in range(r))) / low[r, r])
    x = [None] * p
    for r in reversed(range(p)):
        x[r] = (z[r] - sum(low[i, r] * x[i] for i in range(r + 1, p))) / low[r, r]
    return x


def solve_local(X, y, weights, gamma, eps_kappa=DEFAULT_EPS_KAPPA, shared=None, summaries=True):
    """Solve the modulated normal equations of one or many neighborhoods.

    X is a design array or a tuple of its columns (see the module
    docstring). Returns a LocalFit; a row whose normal matrix is singular
    carries well_posed=False and NaN coefficients (the location is flagged,
    not regularized). Unless summaries, the K-wide residuals and the fit
    summaries read off them are not computed (None); fitted_values gives
    any column's fitted value, bitwise the residuals' own.

    shared is a memo of the terms that neither the weights nor gamma move,
    read and filled here, for calls on the same design and y: the product
    of each two design columns other than the intercept, and y's total sum
    of squares. Each is computed in the same operations as without it, so
    the result is bitwise the same; None keeps nothing past the call.
    """
    cols = _design_columns(X)
    y = np.asarray(y, dtype=np.float64)
    scale = 1.0 + 2.0 * gamma * np.asarray(weights, dtype=np.float64)

    low, lam_min, lam_max, well_posed = _normal_matrix(cols, scale, shared)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a lam_min that is NaN (M^-1 overflowed) lies below eps_kappa
        kappa = np.where(lam_max > 0.0, lam_max / np.fmax(lam_min, eps_kappa), np.inf)

    # A well-posed row's factor is that of a matrix with kappa below 1e12,
    # where a Cholesky factorization cannot break down in double precision;
    # the other rows' results are discarded.
    rhs = [np.sum(_product(c, scale, y), axis=-1) for c in cols]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        beta = np.stack(_cholesky_solve(low, rhs), axis=-1)
    beta = np.where(well_posed[..., None], beta, np.nan)

    rmse = r2 = r2_defined = residuals = None
    if summaries:
        rmse, r2, r2_defined, residuals = _summaries(cols, y, beta, shared)
        r2, r2_defined = np.where(well_posed, r2, np.nan), r2_defined & well_posed
    return LocalFit(
        beta=beta,
        m_nor_condition=kappa,
        well_posed=well_posed,
        rmse_local=rmse,
        r2_local=r2,
        r2_defined=r2_defined,
        residuals=residuals,
    )


def fitted_values(X, beta):
    """The fitted values of the design X (as solve_local takes it) under the
    coefficients beta, whose last axis runs over X's columns and whose other
    axes broadcast against them: the products summed left to right over the
    columns, as a last-axis sum of the products with a design array adds
    them. A row's residual y - fitted_values(...) is bitwise its entry of
    solve_local's residuals, whatever other columns are fitted with it."""
    fitted = None
    for a, c in enumerate(_design_columns(X)):
        term = _product(c, beta[..., a])
        fitted = term if fitted is None else fitted + term
    return fitted


def operator_norm_bound(X, weights, gamma):
    """The paper's stability bound ||M_nor^-1||_2 ||B||_2 of each row, with
    B = X^T (I + 2 gamma W): an upper bound on the local estimator's
    Lipschitz constant in y. ||M_nor^-1||_2 is 1 / lam_min (see
    _normal_matrix), and ||B||_2 the square root of the largest eigenvalue
    of B B^T, in closed form. NaN where the row is ill-posed. X, weights
    and gamma are as solve_local takes them; no fit computes this.
    """
    cols = _design_columns(X)
    scale = 1.0 + 2.0 * gamma * np.asarray(weights, dtype=np.float64)
    _, lam_min, _, well_posed = _normal_matrix(cols, scale)
    b_gram, finite = _finite_or_identity(_weighted_gram(cols, scale * scale))
    b_norm = np.where(finite, np.sqrt(_largest_eigenvalue(b_gram)), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(well_posed, b_norm / lam_min, np.nan)


def _summaries(cols, y, beta, shared=None):
    """(rmse, r2, r2_defined, residuals) of each row's K-wide fit; shared as
    for solve_local."""
    residuals = y - fitted_values(tuple(cols), beta[..., None, :])
    ss_res = np.sum(residuals * residuals, axis=-1)
    rmse = np.sqrt(ss_res / y.shape[-1])
    ss_tot = _kept(shared, "ss_tot", lambda: np.sum((y - np.mean(y, axis=-1, keepdims=True)) ** 2, axis=-1))
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
