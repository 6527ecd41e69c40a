"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them). Each criterion's number and meaning are
given by the _criterion description on its test."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from gimbal.cli import main
from gimbal.engine import Dataset, GimbalConfig, branch_bits, branch_codes, fit_all, fit_location
from gimbal.experiments import E73_N0_SWEEP, run_experiment
from gimbal.orientation import sym2_eigvals
from gimbal.simgen import SimSpec, generate
from gimbal.solver import operator_norm_bound, solve_local
from gimbal.weights import ess, frame_quadratic, one_shot_safeguard, raw_ess
from gimbal.orientation import OrientationResult


def _criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except AssertionError:
                print(f"[FAIL] criterion {num}: {desc}")
                raise
            print(f"[PASS] criterion {num}: {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def experiment_reports():
    return {eid: run_experiment(eid, base_seed=0) for eid in ("e71", "e72", "e73", "e74")}


def random_instance(rng, n=30, p=3):
    X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, p - 1))])
    y = rng.normal(0, 1, n)
    w = rng.uniform(0.2, 1.0, n)
    return X, y, w / w.sum()


@_criterion(1, "gamma=0 equals OLS oracle within 1e-10 relative (100 instances)")
def test_criterion_1_ols_reduction():
    rng = np.random.default_rng(100)
    for _ in range(100):
        X, y, w = random_instance(rng)
        beta = solve_local(X, y, w, gamma=0.0).beta
        ref = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.linalg.norm(beta - ref) <= 1e-10 * np.linalg.norm(ref)


@_criterion(2, "uniform weights give OLS for gamma in {0, 0.5, 1, 10} within 1e-10")
def test_criterion_2_uniform_weight_identity():
    rng = np.random.default_rng(101)
    for gamma in (0.0, 0.5, 1.0, 10.0):
        for _ in range(25):
            X, y, _ = random_instance(rng)
            w = np.full(X.shape[0], 1.0 / X.shape[0])
            beta = solve_local(X, y, w, gamma=gamma).beta
            ref = np.linalg.lstsq(X, y, rcond=None)[0]
            assert np.linalg.norm(beta - ref) <= 1e-10 * np.linalg.norm(ref)


@_criterion(3, "gamma=1e8 within 1e-4 relative of the WLS oracle")
def test_criterion_3_wls_limit():
    rng = np.random.default_rng(102)
    for _ in range(100):
        X, y, w = random_instance(rng)
        beta = solve_local(X, y, w, gamma=1e8).beta
        sw = np.sqrt(w)
        ref = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]
        assert np.linalg.norm(beta - ref) <= 1e-4 * np.linalg.norm(ref)


@_criterion(4, "stability bound never violated over 1e4 perturbation pairs")
def test_criterion_4_stability_bound():
    rng = np.random.default_rng(103)
    violations = 0
    for _ in range(100):
        X, _, w = random_instance(rng, n=25)
        gamma = rng.uniform(0, 5)
        bound = operator_norm_bound(X, w, gamma)
        for _ in range(100):
            y1 = rng.normal(0, 1, 25)
            y2 = rng.normal(0, 1, 25)
            b1 = solve_local(X, y1, w, gamma).beta
            b2 = solve_local(X, y2, w, gamma).beta
            if np.linalg.norm(b1 - b2) > bound * np.linalg.norm(y1 - y2) * (1 + 1e-9):
                violations += 1
    assert violations == 0


@_criterion(5, "ESS algebra exact; safeguard recomputes exactly once")
def test_criterion_5_ess_algebra():
    assert ess(np.full(50, 1.0 / 50)) == pytest.approx(50.0, rel=1e-13)
    point = np.zeros(20)
    point[3] = 1.0
    assert ess(point) == 1.0
    orient = OrientationResult(0.0, 0.3, True, 0.0, 1.0, True, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        east = rng.normal(0, 3000, n)
        north = rng.normal(0, 3000, n)
        q = frame_quadratic(east, north, orient)
        wm = one_shot_safeguard(q, 2000.0, n0=10.0, n_min=4.0, raw=raw_ess(q, 2000.0))
        assert wm.n_recompute == 1


@_criterion(6, "deactivated mechanisms give normalized isotropic Gaussian within 1e-12")
def test_criterion_6_isotropic_reduction():
    ds, _ = generate(SimSpec(n=150, extent=12_000.0, seed=6))
    cfg = GimbalConfig(k=30, phi_mode="forced_zero", theta_z_mode="off",
                       eta_mode="forced_one")
    from gimbal.geo import tangent_displacements
    from gimbal.neighborhood import PoolIndex, knn

    for i in (0, 42, 99):
        members, _ = knn(PoolIndex(ds.lat, ds.lon), ds.lat[[i]], ds.lon[[i]], 30)
        east, north = tangent_displacements(
            float(ds.lat[i]), float(ds.lon[i]), ds.lat[members[0]], ds.lon[members[0]])
        orient = OrientationResult(0.0, 0.0, True, 0.0, 0.0, True, 1.0, 0.0, 0.0)
        w = np.exp(-frame_quadratic(east, north, orient) / cfg.h**2)
        planar_sq = east**2 + north**2
        expect = np.exp(-planar_sq / cfg.h**2)
        assert np.allclose(w / w.sum(), expect / expect.sum(), rtol=1e-12, atol=1e-15)


@_criterion(7, "experiment 7.1 no-harm: RMSE gap < 0.01; theta branch 0 vs 1")
def test_criterion_7_experiment_71(experiment_reports):
    report, _ = experiment_reports["e71"]
    s = report["summaries"]
    assert abs(s["full"]["mu_rmse"] - s["isotropic_proxy"]["mu_rmse"]) < 0.01
    assert s["full"]["pr_theta_zero"] == 0.0
    assert s["isotropic_proxy"]["pr_theta_zero"] == 1.0
    assert all(v["pass"] for v in report["properties"].values()), report["properties"]


@_criterion(8, "experiment 7.2 activation: proxy eta==1, GR eta>2.5, l1>0.2, corr<0.99")
def test_criterion_8_experiment_72(experiment_reports):
    report, _ = experiment_reports["e72"]
    s = report["summaries"]
    d = report["weight_diff"]
    assert s["isotropic_proxy"]["mu_eta"] == 1.0
    assert s["full"]["mu_eta"] > 2.5
    assert d["mu_l1"] > 0.2
    assert d["mu_corr"] < 0.99


@_criterion(9, "experiment 7.3: ESS monotone, fallback monotone, RMSE constant to 3dp")
def test_criterion_9_experiment_73(experiment_reports):
    report, records = experiment_reports["e73"]
    s = report["summaries"]
    neff = [s[f"n0_{n:g}"]["mu_neff_post"] for n in E73_N0_SWEEP]
    prun = [s[f"n0_{n:g}"]["pr_uniform"] for n in E73_N0_SWEEP]
    rmse = [s[f"n0_{n:g}"]["mu_rmse"] for n in E73_N0_SWEEP]
    assert all(b >= a for a, b in zip(neff, neff[1:])), neff
    assert all(b <= a for a, b in zip(prun, prun[1:])), prun
    assert max(rmse) - min(rmse) < 5e-4, rmse
    # the safeguard is one-shot at every target of every variant
    assert all(np.all(r.weight_map.n_recompute <= 1) for r in records.values())


@_criterion(10, "experiment 7.4: theta 0 vs 1, l1 > 0.05, RMSE gap < 0.005")
def test_criterion_10_experiment_74(experiment_reports):
    report, _ = experiment_reports["e74"]
    s = report["summaries"]
    d = report["weight_diff"]
    assert s["theta_on"]["pr_theta_zero"] == 0.0
    assert s["theta_off"]["pr_theta_zero"] == 1.0
    assert d["mu_l1"] > 0.05
    assert abs(s["theta_on"]["mu_rmse"] - s["theta_off"]["mu_rmse"]) < 0.005


@_criterion(11, "byte-identical experiment reruns")
def test_criterion_11_determinism(tmp_path):
    for tag in ("a", "b"):
        rc = main(["experiment", "--id", "7.2", "--seed", "5",
                   "--outdir", str(tmp_path / tag)])
        assert rc == 0
    for name in ("e72_full.csv", "e72_isotropic_proxy.csv", "e72_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# -- criterion 12: straight-line brute-force oracle, no shared helpers -------

_R = 6_371_000.0


def _oracle_weight_vector(lat_t, lon_t, lats, lons, ys, h, u, eps_phi,
                          eps_theta, eps_eta, eta_max, n0, n_min):
    """Literal reimplementation of the realized weight map in scalar math."""
    deg = math.pi / 180.0
    n = len(lats)
    east, north, dist, z = [], [], [], []
    for j in range(n):
        east.append(_R * math.cos(lat_t * deg) * (lons[j] - lon_t) * deg)
        north.append(_R * (lats[j] - lat_t) * deg)
        s = (math.sin((lats[j] - lat_t) * deg / 2) ** 2
             + math.cos(lat_t * deg) * math.cos(lats[j] * deg)
             * math.sin((lons[j] - lon_t) * deg / 2) ** 2)
        dist.append(2 * _R * math.asin(min(1.0, math.sqrt(s))))
        z.append(dist[j] / u)

    # bearing resultant (zero displacements dropped)
    c = s_sin = wsum = 0.0
    for j in range(n):
        if east[j] == 0.0 and north[j] == 0.0:
            continue
        om = math.exp(-dist[j] ** 2 / h**2)
        th = math.atan2(north[j], east[j])
        c += om * math.cos(th)
        s_sin += om * math.sin(th)
        wsum += om
    r_phi = math.sqrt(c**2 + s_sin**2) / wsum if wsum > 0 else 0.0
    phi = math.atan2(s_sin, c) if (wsum > 0 and r_phi > eps_phi) else 0.0

    # value orientation
    zbar = sum(z) / n
    ybar = sum(ys) / n
    var_z = sum((v - zbar) ** 2 for v in z) / n
    var_y = sum((v - ybar) ** 2 for v in ys) / n
    cov = sum((a - zbar) * (b - ybar) for a, b in zip(z, ys)) / n
    g = abs(var_y - var_z) + abs(2 * cov)
    theta = 0.5 * math.atan2(var_y - var_z, 2 * cov) if g > eps_theta else 0.0

    # anisotropy ratio
    om_all = [math.exp(-d**2 / h**2) for d in dist]
    om_sum = sum(om_all)
    sxx = sum(o * e * e for o, e in zip(om_all, east)) / om_sum
    sxy = sum(o * e * nn for o, e, nn in zip(om_all, east, north)) / om_sum
    syy = sum(o * nn * nn for o, nn in zip(om_all, north)) / om_sum
    half = 0.5 * (sxx + syy)
    rad = math.sqrt(max(0.0, (0.5 * (sxx - syy)) ** 2 + sxy**2))
    lam_hi, lam_lo = half + rad, half - rad
    eta = math.sqrt(max(0.0, lam_hi) / max(lam_lo, eps_eta))
    eta = min(max(eta, 1.0), eta_max)

    def weights_at(bandwidth):
        ca, sa = math.cos(phi), math.sin(phi)
        cb, sb = math.cos(theta), math.sin(theta)
        q11 = ca * cb - sa * sb
        q12 = -ca * sb - sa * cb
        q21 = sa * cb + ca * sb
        q22 = ca * cb - sa * sb
        l1 = 1.0 / bandwidth**2
        l2 = 1.0 / (bandwidth**2 * eta**2)
        m11 = l1 * q11 * q11 + l2 * q12 * q12
        m12 = l1 * q11 * q21 + l2 * q12 * q22
        m22 = l1 * q21 * q21 + l2 * q22 * q22
        return [math.exp(-(m11 * e * e + 2 * m12 * e * nn + m22 * nn * nn))
                for e, nn in zip(east, north)]

    w_raw = weights_at(h)
    s_raw = sum(w_raw)
    if s_raw == 0.0:
        return [1.0 / n] * n
    tilde = [w / s_raw for w in w_raw]
    n_eff_raw = 1.0 / sum(w * w for w in tilde)
    h_eff = h * math.sqrt(n0 / n_eff_raw)
    w1 = weights_at(h_eff)
    s1 = sum(w1)
    if s1 == 0.0:
        return [1.0 / n] * n
    tilde1 = [w / s1 for w in w1]
    n_eff_post = 1.0 / sum(w * w for w in tilde1)
    if n_eff_post < n_min:
        return [1.0 / n] * n
    return tilde1


@_criterion(12, "weights/KNN/eigenvalues match independent brute-force oracles")
def test_criterion_12_oracles():
    from gimbal.neighborhood import PoolIndex, knn
    from scalar_geo import haversine_distance

    rng = np.random.default_rng(105)
    ds, _ = generate(SimSpec(n=200, extent=15_000.0, seed=12))
    cfg = GimbalConfig(k=25)
    for _ in range(50):
        i = int(rng.integers(0, 200))
        rec = fit_location(ds, cfg, i)
        members = rec.neighborhood.member_indices
        oracle_w = _oracle_weight_vector(
            float(ds.lat[i]), float(ds.lon[i]),
            [float(v) for v in ds.lat[members]],
            [float(v) for v in ds.lon[members]],
            [float(v) for v in ds.y[members]],
            cfg.h, cfg.u_scale, cfg.eps_phi, cfg.eps_theta, cfg.eps_eta,
            cfg.eta_max, cfg.n0, cfg.n_min,
        )
        assert np.allclose(rec.weight_map.weights, oracle_w, rtol=0, atol=1e-12)

    # KNN vs exhaustive scan
    for _ in range(20):
        tlat = float(rng.uniform(34.8, 35.2))
        tlon = float(rng.uniform(134.8, 135.2))
        members, _ = knn(PoolIndex(ds.lat, ds.lon), [tlat], [tlon], 10)
        pairs = sorted(
            (haversine_distance((tlat, tlon), (float(ds.lat[j]), float(ds.lon[j]))), j)
            for j in range(ds.n)
        )
        assert members[0].tolist() == [j for _, j in pairs[:10]]

    # closed-form 2x2 eigenvalues vs LAPACK's iterative solver
    for _ in range(100):
        a, b, c = rng.normal(0, 10, 3)
        lam_max, lam_min = sym2_eigvals(a, b, c)
        ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
        scale = max(1.0, abs(ref[0]), abs(ref[1]))
        assert abs(lam_max - ref[1]) <= 1e-10 * scale
        assert abs(lam_min - ref[0]) <= 1e-10 * scale


@_criterion(13, "1000 adversarial neighborhoods: clean flags, no crashes")
def test_criterion_13_degeneracy_fuzz():
    rng = np.random.default_rng(106)
    eta_cap_seen = False
    ill_posed_seen = False
    for trial in range(1000):
        kind = trial % 5
        n = int(rng.integers(1, 12))
        base_lat, base_lon = 35.0, 135.0
        if kind == 0:  # collinear east-west line
            lats = np.full(n, base_lat)
            lons = base_lon + np.sort(rng.uniform(0, 0.05, n))
            x = rng.normal(0, 1, n)
        elif kind == 1:  # all points coincident
            lats = np.full(n, base_lat)
            lons = np.full(n, base_lon)
            x = rng.normal(0, 1, n)
        elif kind == 2:  # constant covariate (rank-deficient design)
            lats = base_lat + rng.uniform(-0.05, 0.05, n)
            lons = base_lon + rng.uniform(-0.05, 0.05, n)
            x = np.full(n, 2.0)
        elif kind == 3:  # near-duplicate pairs
            half = base_lat + rng.uniform(-0.02, 0.02, (n + 1) // 2)
            lats = np.repeat(half, 2)[:n]
            lons = np.full(n, base_lon)
            x = rng.normal(0, 1, n)
        else:  # huge spread against a tiny bandwidth
            lats = base_lat + rng.uniform(-5, 5, n)
            lons = base_lon + rng.uniform(-5, 5, n)
            x = rng.normal(0, 1, n)
        ds = Dataset(lat=lats, lon=lons, x=x, y=rng.normal(0, 1, n))
        cfg = GimbalConfig(k=n, h=50.0 if kind == 4 else 2000.0, n_min=2.0)
        rec = fit_location(ds, cfg, int(rng.integers(0, n)))
        w = rec.weight_map.weights
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0)
        if kind == 0 and n >= 3:
            assert rec.orientation.eta == cfg.eta_max
            eta_cap_seen = True
        if not rec.fit.well_posed:
            ill_posed_seen = True
            assert np.all(np.isnan(rec.fit.beta))
            assert "ill_posed" in branch_codes(rec)[0]
    assert eta_cap_seen
    assert ill_posed_seen


@_criterion(14, "theta_z off: fit_all linear in y, branches fixed, stability bound holds")
def test_criterion_14_linearity_in_y():
    # with the value orientation off, the weights, branches and well-posedness
    # read coordinates only, so every target's map is linear in y
    ds, _ = generate(SimSpec(n=1200, seed=14))
    cfg = GimbalConfig(theta_z_mode="off")
    base = fit_all(ds, cfg)
    ok = base.fit.well_posed
    beta = base.fit.beta[ok]
    members = base.neighborhood.member_indices[ok]
    # each well-posed row's design [1, x, d / u], as the fit solved it
    design = (None, ds.x[members], base.neighborhood.distances[ok] / cfg.u_scale)
    row_bound = operator_norm_bound(design, base.weight_map.weights[ok], cfg.gamma)
    noise = np.random.default_rng(114).normal(0.0, np.std(ds.y), ds.n)
    for scale in (1e-6, 1e-3, 1.0):
        delta = scale * noise
        moved = fit_all(dataclasses.replace(ds, y=ds.y + delta), cfg)
        alone = fit_all(dataclasses.replace(ds, y=delta), cfg)
        for result in (moved, alone):
            assert np.array_equal(branch_bits(result), branch_bits(base))
        d_beta = moved.fit.beta[ok] - beta
        assert np.all(np.abs(d_beta - alone.fit.beta[ok]) <= 1e-12 * (1.0 + np.abs(beta)))
        bound = row_bound * np.linalg.norm(delta[members], axis=1)
        assert np.all(np.linalg.norm(d_beta, axis=1) <= bound * (1 + 1e-9))
