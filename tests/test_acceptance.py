"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings. Criterion 12 needs the public survey CSV and a
matching run config (HDSDM_NOAA_CONFIG env var) and is skipped otherwise.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import kstest

from hdsdm.bases import BSplineBasis1D, IndicatorBasis, LinearBasis, eval_basis
from hdsdm.bases import lattice_adjacency, prune_basis, tensor_basis
from hdsdm.distributions import PointCloud, UniformInterval, UniformLevels
from hdsdm.exceptions import CalibrationError
from hdsdm.gmrf import build_icar, build_iid, build_rw1, build_rw2
from hdsdm.mcmc import McmcSettings, fit, metrics
from hdsdm.model import Dataset, EffectDecl, ModelSpec, assemble
from hdsdm.partition import finite_pop_variance, phi, sensitivity_sweep
from hdsdm.priors import (
    PriorSpec,
    kld_distance,
    pc0_calibrate,
    pc0_cdf,
    pc0_quantile,
    pc0_sample,
    pc_variance_lambda,
    sum_of_ranks_check,
)
from hdsdm.standardize import split_pspline, standardize
from hdsdm.tree import EffectLabel, build_default_tree, from_variances, to_variances

from conftest import mc_effect_variance


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS  {description}  ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# shared constructions
# ---------------------------------------------------------------------------


def l_shaped_cloud(resolution=30):
    g = np.linspace(0.0, 1.0, resolution)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    keep = ~((xx > 0.5) & (yy > 0.5))
    return np.column_stack([xx[keep], yy[keep]])


def spatial_effect_6x6():
    one_d = BSplineBasis1D(n_funcs=6, lower=0.0, upper=1.0)
    spec = tensor_basis(one_d, one_d)
    cloud = l_shaped_cloud()
    pruned, retained = prune_basis(spec, cloud)
    W = lattice_adjacency(retained, spec.grid_dims)
    return standardize(pruned, build_icar(W), PointCloud(cloud), "spatial")


def contract_effects():
    """The five effect types of criterion 3, standardized."""
    interval = UniformInterval(0.0, 1.0)
    linear = standardize(
        LinearBasis(center=interval.mean(), scale=interval.sd()),
        build_iid(1),
        interval,
        "linear",
    )
    iid2 = standardize(IndicatorBasis(2), build_iid(2), UniformLevels(2), "iid2")
    rw1_20 = standardize(
        IndicatorBasis(20), build_rw1(20), UniformLevels(20), "temporal"
    )
    _, nonlin = split_pspline(
        BSplineBasis1D(n_funcs=20, lower=0.0, upper=1.0), interval, "ps_lin", "ps_nonlin"
    )
    return {
        "linear": linear,
        "iid_k2": iid2,
        "rw1_k20": rw1_20,
        "rw2_pspline_nonlinear_k20": nonlin,
        "spatial_6x6_pruned": spatial_effect_6x6(),
    }


def linear_vs_nonlinear_covariances(k1=5, n=50):
    dist = UniformInterval(0.0, 1.0, n_grid=n)
    grid = dist.grid()
    x_std = (grid - dist.mean()) / dist.sd()
    Sigma0 = np.outer(x_std, x_std)
    basis = BSplineBasis1D(n_funcs=k1, lower=0.0, upper=1.0)
    trend = (x_std[:, None] * eval_basis(basis, grid)).mean(axis=0)
    effect = standardize(basis, build_rw2(k1), dist, "nl", extra_constraints=[trend])
    G = eval_basis(basis, grid)
    Sigma1 = G @ effect.law.covariance() @ G.T
    Sigma0 /= np.linalg.eigvalsh(Sigma0).max()
    Sigma1 /= np.linalg.eigvalsh(Sigma1).max()
    return Sigma0, Sigma1


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_simplified_prior_median():
    with criterion(1, "simplified shrinkage prior median at rate 0.1", 1.0):
        analytic = float(pc0_quantile(0.5, 0.1))
        assert analytic == pytest.approx(0.238, abs=1e-3)
        draws = pc0_sample(100_000, 0.1, np.random.default_rng(1))
        assert float(np.median(draws)) == pytest.approx(analytic, abs=5e-3)


def test_criterion_02_calibration_bound():
    with criterion(2, "calibration feasibility bound alpha >= sqrt(U)", 1.0):
        with pytest.raises(CalibrationError) as err:
            pc0_calibrate(0.3, 0.5)  # 0.5 < sqrt(0.3) ~ 0.548
        assert err.value.bound == pytest.approx(np.sqrt(0.3))
        lam = pc0_calibrate(0.2, 0.5)
        assert lam > 0 and pc0_cdf(0.2, lam) == pytest.approx(0.5, abs=1e-9)
        # the median tends to 1/4 in the flat-rate limit
        assert float(pc0_quantile(0.5, 1e-7)) == pytest.approx(0.25, abs=1e-3)


def test_criterion_03_standardization_contract():
    with criterion(3, "Var[f | sigma2=1] in [0.98, 1.02], 1e6 draws x 5 effects", 60.0):
        rng = np.random.default_rng(2)
        for name, effect in contract_effects().items():
            var = mc_effect_variance(effect, 1.0, 1_000_000, rng)
            assert 0.98 <= var <= 1.02, f"{name}: MC variance {var:.4f}"


def test_criterion_04_zero_mean_every_draw():
    with criterion(4, "|E_X[f]| < 1e-8 for every constrained draw", 10.0):
        rng = np.random.default_rng(3)
        for name, effect in contract_effects().items():
            d = effect.quadrature_design().mean(axis=0)
            T = effect.whitening_transform()
            z = rng.standard_normal((1000, T.shape[1]))
            means = z @ (T.T @ d)
            assert np.abs(means).max() < 1e-8, f"{name}: max |E_X[f]| {np.abs(means).max():.2e}"


def random_tree(rng):
    labels = []
    n_cov = rng.integers(1, 5)
    for c in range(n_cov):
        if rng.uniform() < 0.5:
            labels.append(EffectLabel(f"c{c}_lin", side="abiotic", group=f"c{c}"))
            labels.append(EffectLabel(f"c{c}_nonlin", side="abiotic", group=f"c{c}"))
        else:
            labels.append(EffectLabel(f"c{c}", side="abiotic"))
    if rng.uniform() < 0.3:
        labels.append(EffectLabel("inter", side="abiotic", role="interaction"))
    if rng.uniform() < 0.8:
        labels.append(EffectLabel("spatial", side="biotic", group="spatial"))
    if rng.uniform() < 0.8:
        labels.append(EffectLabel("temporal", side="biotic", group="temporal"))
    try:
        return build_default_tree(labels)
    except Exception:
        return None


def test_criterion_05_tree_bijection():
    with criterion(5, "1e3 random round-trips < 1e-12 + reference-tree algebra", 5.0):
        rng = np.random.default_rng(4)
        done = 0
        while done < 1000:
            tree = random_tree(rng)
            if tree is None or not tree.splits:
                continue
            sigma2 = {l: float(rng.lognormal()) for l in tree.leaves}
            p = from_variances(tree, sigma2)
            back = to_variances(tree, p)
            err = max(abs(back[l] - sigma2[l]) for l in tree.leaves)
            assert err < 1e-12
            done += 1

        # reference tree: hand-chosen variances reproduce the proportions
        labels = []
        for c in range(1, 6):
            labels.append(EffectLabel(f"x{c}_lin", side="abiotic", group=f"x{c}"))
            labels.append(EffectLabel(f"x{c}_nonlin", side="abiotic", group=f"x{c}"))
        labels.append(EffectLabel("vessel", side="abiotic"))
        labels.append(EffectLabel("spatial", side="biotic", group="spatial"))
        labels.append(EffectLabel("temporal", side="biotic", group="temporal"))
        tree = build_default_tree(labels)
        assert tree.n_leaves == 13
        sigma2 = {l: 0.5 for l in tree.leaves}
        sigma2["spatial"], sigma2["temporal"] = 3.0, 1.0
        p = from_variances(tree, sigma2)
        V = 5.0 + 0.5 + 4.0
        assert p.total == pytest.approx(V, abs=1e-12)
        assert p.omega(tree, "abiotic_vs_biotic") == pytest.approx(5.5 / V, abs=1e-12)
        np.testing.assert_allclose(
            p.proportions["covariates"], [1 / 5.5] * 5 + [0.5 / 5.5], atol=1e-12
        )
        assert p.omega(tree, "spatial_vs_temporal") == pytest.approx(0.75, abs=1e-12)
        for c in range(1, 6):
            assert p.omega(tree, f"x{c}_flex") == pytest.approx(0.5, abs=1e-12)


def test_criterion_06_kld_limit():
    with criterion(6, "d^2 * w0 -> R(1) w within 1% at w0=1e-6 (K1=5, N=50)", 10.0):
        Sigma0, Sigma1 = linear_vs_nonlinear_covariances(k1=5, n=50)
        info = sum_of_ranks_check(1, 50, 5, 50, 50, Sigma0, Sigma1)
        assert info.condition_holds
        lam1 = np.linalg.eigvalsh(Sigma1)
        r1 = int(np.sum(lam1 > 1e-9 * lam1.max()))
        assert r1 == 3
        for w in (0.1, 0.5, 0.9):
            d = kld_distance(w, 1e-6, Sigma0, Sigma1)
            assert d * d * 1e-6 == pytest.approx(r1 * w, rel=0.01)


def test_criterion_07_sum_of_ranks_cases():
    with criterion(7, "three rank-condition cases: bounds and eigen-counts agree", 10.0):
        # case A: linear vs non-linear on a shared covariate
        Sigma0, Sigma1 = linear_vs_nonlinear_covariances(k1=5, n=50)
        by_bounds = sum_of_ranks_check(1, 50, 5, 50, 50)
        assert by_bounds.condition_holds and by_bounds.conclusive
        r0 = np.linalg.matrix_rank(Sigma0, hermitian=True)
        r1 = np.linalg.matrix_rank(Sigma1, tol=1e-9 * np.linalg.eigvalsh(Sigma1).max(),
                                   hermitian=True)
        assert r0 + r1 <= 50  # eigen path agrees

        # case B: linear mains vs their product interaction (5x5 design grid)
        na = nb = 5
        N = na * nb
        by_bounds = sum_of_ranks_check(2, N, 1, N, N)
        assert by_bounds.condition_holds and by_bounds.conclusive
        xa = np.linspace(-1, 1, na)
        xb = np.linspace(-1, 1, nb)
        XA, XB = np.meshgrid(xa, xb, indexing="ij")
        D0 = np.column_stack([np.sqrt(0.7) * XA.ravel(), np.sqrt(0.3) * XB.ravel()])
        inter = (XA * XB).ravel()
        info = sum_of_ranks_check(2, N, 1, N, N, D0 @ D0.T, np.outer(inter, inter))
        assert info.condition_holds

        # case C: Kronecker-product interaction on a coarse 3x3 grid fails
        ka = kb = 4
        na = nb = 3
        N = na * nb
        inconclusive = sum_of_ranks_check(ka + kb, N, ka * kb, N, N)
        assert not inconclusive.conclusive  # 4+4 and 16 overwhelm N=9 bounds
        rng = np.random.default_rng(5)
        DA = rng.standard_normal((na, ka))
        DB = rng.standard_normal((nb, kb))
        D0 = np.hstack([np.kron(DA, np.ones((nb, 1))), np.kron(np.ones((na, 1)), DB)])
        D1 = np.einsum("ik,jl->ijkl", DA, DB).reshape(N, ka * kb)
        info = sum_of_ranks_check(ka + kb, N, ka * kb, N, N, D0 @ D0.T, D1 @ D1.T)
        assert info.method == "eigen_count"
        assert not info.condition_holds and info.r0 + info.r1 > N


def small_survey_model():
    """Case-study prior set on a reduced tree (2 psplines, vessel, space, time)."""
    cloud = l_shaped_cloud(15)
    effects = [
        EffectDecl("x1", "pspline", "x1", UniformInterval(0, 1), side="abiotic",
                    n_basis=6),
        EffectDecl("x2", "pspline", "x2", UniformInterval(0, 1), side="abiotic",
                    n_basis=6),
        EffectDecl("vessel", "iid", "v", UniformLevels(2), side="abiotic"),
        EffectDecl("spatial", "spatial2d", ("z1", "z2"), PointCloud(cloud),
                    side="biotic", group="spatial", n_basis_2d=(5, 5)),
        EffectDecl("temporal", "rw1", "t", UniformLevels(10), side="biotic",
                    group="temporal"),
    ]
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        "covariates": PriorSpec("covariates", "dirichlet", {"q": 0.5}),
        "spatial_vs_temporal": PriorSpec("spatial_vs_temporal", "uniform"),
        "x1_flex": PriorSpec("x1_flex", "pc0", {"lam": 0.1}),
        "x2_flex": PriorSpec("x2_flex", "pc0", {"lam": 0.1}),
    }
    return ModelSpec(effects=effects, priors=priors)


def test_criterion_08_prior_only_mcmc():
    with criterion(8, "prior-only marginals pass KS at 0.01 (1e4 retained)", 120.0):
        model = small_survey_model()
        settings = McmcSettings(
            chains=1, iterations=5000 + 25 * 10_000, burn_in=5000, thinning=25, seed=12
        )
        result = fit(model, None, settings, likelihood_weight=0.0)
        draws = {
            name: result.hyper_draws[0, :, j]
            for j, name in enumerate(result.hyper_names)
        }
        assert draws["omega_abiotic_vs_biotic"].size == 10_000

        ks_uniform = kstest(draws["omega_abiotic_vs_biotic"], lambda w: w)
        assert ks_uniform.pvalue > 0.01, f"omega_A KS p={ks_uniform.pvalue:.4f}"

        ks_pc0 = kstest(draws["omega_x1_flex"], lambda w: pc0_cdf(w, 0.1))
        assert ks_pc0.pvalue > 0.01, f"omega_N1 KS p={ks_pc0.pvalue:.4f}"

        # companion run with the exponential-on-sqrt(V) prior for the V check
        effects = [
            EffectDecl("lin", "linear", "x", UniformInterval(-1, 1), side="abiotic"),
            EffectDecl("ran", "iid", "g", UniformLevels(2), side="biotic"),
        ]
        lam = pc_variance_lambda(3.0, 0.05)
        priors = {
            "total_variance": PriorSpec("total_variance", "pc", {"lam": lam}),
            "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        }
        model_v = ModelSpec(effects=effects, priors=priors)
        settings_v = McmcSettings(
            chains=1, iterations=4000 + 20 * 10_000, burn_in=4000, thinning=20, seed=13
        )
        result_v = fit(model_v, None, settings_v, likelihood_weight=0.0)
        v = result_v.hyper_draws[0, :, result_v.hyper_names.index("V")]
        ks_v = kstest(np.sqrt(v), lambda s: -np.expm1(-lam * s))
        assert ks_v.pvalue > 0.01, f"sqrt(V) KS p={ks_v.pvalue:.4f}"


def synthetic_three_effect(n=2000, seed=21, target_phi=(0.5, 0.3, 0.2), total=1.0):
    """Observations from a known 3-effect model with exact realized shares."""
    rng = np.random.default_rng(seed)
    effects = [
        EffectDecl("env", "linear", "x", UniformInterval(-1.0, 1.0), side="abiotic"),
        EffectDecl("site", "iid", "g", UniformLevels(2), side="abiotic"),
        EffectDecl("temporal", "rw1", "t", UniformLevels(20), side="biotic",
                    group="temporal"),
    ]
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        "covariates": PriorSpec("covariates", "dirichlet", {"q": 0.5}),
    }
    model = ModelSpec(effects=effects, priors=priors)

    cols = {
        "x": rng.uniform(-1, 1, n),
        "g": rng.integers(1, 3, n).astype(float),
        "t": rng.integers(1, 21, n).astype(float),
    }
    placeholder = Dataset.from_arrays(y=np.zeros(n, dtype=int), **cols)
    asm = assemble(model, placeholder)
    order = ["env", "temporal", "site"]
    true_u = {}
    for leaf, target in zip(order, target_phi):
        eff = asm.effects[leaf]
        u = eff.sample_coefficients(total * target, rng).values
        realized = finite_pop_variance(eff, u)
        true_u[leaf] = u * np.sqrt(total * target / realized)
    mu_true = -0.2
    eta = asm.linear_predictor(true_u, mu_true)
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    data = Dataset.from_arrays(y=y, **cols)
    return model, data, order


def test_criterion_09_synthetic_recovery():
    with criterion(9, "phi recovery within 0.1 and split-Rhat < 1.05 (4 chains)", 600.0):
        model, data, order = synthetic_three_effect()
        settings = McmcSettings(
            chains=4, iterations=9000, burn_in=4000, thinning=5, seed=31
        )
        result = fit(model, data, settings)
        for name, value in result.rhat.items():
            assert value < 1.05, f"split-Rhat[{name}] = {value:.3f}"
        res = phi(result)
        shares = dict(zip(res.group_names, res.phi_mean))
        for leaf, target in zip(order, (0.5, 0.3, 0.2)):
            assert abs(shares[leaf] - target) <= 0.1, (
                f"phi[{leaf}] = {shares[leaf]:.3f}, target {target}"
            )


def test_criterion_10_metrics_correctness():
    with criterion(10, "hand-computed and trivial metric values", 1.0):
        out = metrics(np.array([0.8, 0.4, 0.6]), np.array([1, 0, 1]))
        assert out["brier"] == pytest.approx(0.12, abs=1e-12)
        assert out["tjur_r2"] == pytest.approx(0.3, abs=1e-12)
        perfect = metrics(np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1]))
        assert perfect["brier"] == 0.0 and perfect["accuracy"] == 1.0
        half = metrics(np.full(4, 0.5), np.array([1, 0, 1, 0]))
        assert half["brier"] == pytest.approx(0.25) and half["tjur_r2"] == 0.0


def test_criterion_11_sensitivity_monotonicity():
    with criterion(11, "null covariate share non-increasing over q=1, 0.5, 1/6", 900.0):
        rng = np.random.default_rng(41)
        n = 800
        effects = [
            EffectDecl(f"x{i}", "linear", f"x{i}", UniformInterval(-1, 1),
                        side="abiotic")
            for i in range(1, 5)
        ]
        priors = {
            "total_variance": PriorSpec("total_variance", "jeffreys"),
            "covariates": PriorSpec("covariates", "dirichlet", {"q": 1.0}),
        }
        model = ModelSpec(effects=effects, priors=priors)
        cols = {f"x{i}": rng.uniform(-1, 1, n) for i in range(1, 5)}
        sd = UniformInterval(-1, 1).sd()
        eta = 0.9 * cols["x1"] / sd + 0.7 * cols["x2"] / sd + 0.5 * cols["x3"] / sd
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-eta))).astype(int)
        data = Dataset.from_arrays(y=y, **cols)
        settings = McmcSettings(
            chains=2, iterations=6000, burn_in=2500, thinning=4, seed=51
        )
        entries = sensitivity_sweep(model, data, [1.0, 0.5, 1.0 / 6.0], settings)
        null_means = []
        for entry in entries:
            j = entry.partition.group_names.index("x4")
            null_means.append(float(entry.partition.s2[:, j].mean()))
        assert null_means[0] >= null_means[1] >= null_means[2], (
            f"posterior-mean s2 of the null covariate not non-increasing: {null_means}"
        )


def test_criterion_12_noaa_integration():
    config_path = os.environ.get("HDSDM_NOAA_CONFIG")
    if not config_path:
        pytest.skip(
            "dataset-dependent integration check: set HDSDM_NOAA_CONFIG to a run "
            "config pointing at the public survey CSV"
        )
    with criterion(12, "survey CSV ingestion counts and end-to-end fit", 3600.0):
        from hdsdm.config import RunConfig, build_model, build_settings, ingest
        from hdsdm.mcmc import predict

        cfg = RunConfig.load(config_path)
        base = os.path.dirname(config_path)
        data = ingest(cfg.data["path"], cfg, base)
        assert data.n == 5892
        assert int((~data.train_mask).sum()) == 1028
        model = build_model(cfg, base)
        result = fit(model, data, build_settings(cfg))
        p_hat = predict(result, data, mask=~data.train_mask)
        out = metrics(p_hat, data.y[~data.train_mask])
        assert set(out) == {"loglik", "brier", "tjur_r2", "accuracy"}
