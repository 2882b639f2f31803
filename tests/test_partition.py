"""Finite-population variances and posterior variance shares."""

import numpy as np
import pytest

from hdsdm.distributions import UniformInterval, UniformLevels
from hdsdm.gmrf import CoefficientBlock, build_iid
from hdsdm.bases import IndicatorBasis, LinearBasis
from hdsdm.mcmc import McmcSettings, PosteriorSample, fit
from hdsdm.model import Dataset, EffectDecl, ModelSpec, assemble
from hdsdm.exceptions import ValidationError
from hdsdm.partition import (
    PHI_CHUNK,
    finite_pop_variance,
    phi,
    posterior_mean_trends,
    sensitivity_sweep,
)
from hdsdm.priors import PriorSpec
from hdsdm.standardize import standardize
from hdsdm.tree import HDParams


def make_sample(asm, coeff_map, mu=0.0):
    coeffs = {
        l: CoefficientBlock(np.asarray(coeff_map.get(l, np.zeros(asm.effects[l].n_coef))), l)
        for l in asm.leaf_ids
    }
    return PosteriorSample(
        hd=HDParams(total=1.0), coefficients=coeffs, mu=mu, eta=np.zeros(0)
    )


def three_effect_model():
    effects = [
        EffectDecl("lin", "linear", "x", UniformInterval(-1.0, 1.0), side="abiotic"),
        EffectDecl("vessel", "iid", "v", UniformLevels(2), side="abiotic"),
        EffectDecl("temporal", "rw1", "t", UniformLevels(10), side="biotic",
                    group="temporal"),
    ]
    priors = {
        "total_variance": PriorSpec("total_variance", "pc", {"lam": 1.0}),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        "covariates": PriorSpec("covariates", "dirichlet", {"q": 0.5}),
    }
    return ModelSpec(effects=effects, priors=priors)


class TestFinitePopVariance:
    def test_zero_coefficients(self):
        dist = UniformLevels(4)
        eff = standardize(IndicatorBasis(4), build_iid(4), dist, "e")
        assert finite_pop_variance(eff, np.zeros(4)) == 0.0

    def test_linear_unit_slope(self):
        dist = UniformInterval(0.0, 2.0)
        eff = standardize(LinearBasis(center=dist.mean(), scale=dist.sd()), build_iid(1),
                          dist, "lin")
        # slope 1 on the standardized covariate: variance 1 up to grid error
        assert finite_pop_variance(eff, np.ones(1)) == pytest.approx(1.0, rel=5e-3)

    def test_two_level_by_hand(self):
        dist = UniformLevels(2)
        eff = standardize(IndicatorBasis(2), build_iid(2), dist, "v")
        c = 0.8
        assert finite_pop_variance(eff, np.array([c, -c])) == pytest.approx(c * c)


class TestPhi:
    def test_single_nonzero_effect(self):
        asm = assemble(three_effect_model(), None)
        s = make_sample(asm, {"vessel": [0.5, -0.5]})
        res = phi([s], asm)
        j = res.group_names.index("vessel")
        assert res.phi[0, j] == pytest.approx(1.0)

    def test_two_equal_effects(self):
        asm = assemble(three_effect_model(), None)
        c = 0.3
        s = make_sample(asm, {"vessel": [c, -c], "lin": [np.sqrt(2) * c * 0.0 + c]})
        # scale linear slope so its realized variance matches the iid one
        grid_var = finite_pop_variance(asm.effects["lin"], np.array([1.0]))
        s = make_sample(
            asm, {"vessel": [c, -c], "lin": [c / np.sqrt(grid_var)]}
        )
        res = phi([s], asm)
        jl = res.group_names.index("lin")
        jv = res.group_names.index("vessel")
        assert res.phi[0, jl] == pytest.approx(0.5, rel=1e-10)
        assert res.phi[0, jv] == pytest.approx(0.5, rel=1e-10)

    def test_group_spanning_covariates_adds_their_variances(self):
        # the trends of two covariates were summed point i with point i, as
        # if sst and depth took their i-th grid values together
        effects = [
            EffectDecl("sst", "linear", "sst", UniformInterval(3.0, 27.0), group="climate"),
            EffectDecl("depth", "linear", "depth", UniformInterval(10.0, 500.0),
                       group="climate"),
        ]
        priors = {"total_variance": PriorSpec("total_variance", "jeffreys"),
                  "climate_flex": PriorSpec("climate_flex", "uniform")}
        asm = assemble(ModelSpec(effects=effects, priors=priors), None)
        res = phi([make_sample(asm, {"sst": [1.0], "depth": [1.0]})], asm)
        expected = (finite_pop_variance(asm.effects["sst"], np.ones(1))
                    + finite_pop_variance(asm.effects["depth"], np.ones(1)))
        assert res.group_names == ["climate"]
        assert res.s2[0, 0] == pytest.approx(expected, rel=1e-12)
        result = fit(ModelSpec(effects=effects, priors=priors), None,
                     McmcSettings(chains=1, iterations=60, burn_in=30, seed=1))
        assert posterior_mean_trends(result) == {}  # no one curve for two covariates

    def test_three_hand_built_samples_mean(self):
        asm = assemble(three_effect_model(), None)
        samples = [
            make_sample(asm, {"vessel": [1.0, -1.0]}),
            make_sample(asm, {"lin": [1.0]}),
            make_sample(asm, {"vessel": [1.0, -1.0]}),
        ]
        res = phi(samples, asm)
        jv = res.group_names.index("vessel")
        expected = np.mean([1.0, 0.0, 1.0])
        assert res.phi_mean[jv] == pytest.approx(expected)

    def test_zero_sample_skipped_with_count(self):
        asm = assemble(three_effect_model(), None)
        samples = [make_sample(asm, {}), make_sample(asm, {"vessel": [1.0, -1.0]})]
        res = phi(samples, asm)
        assert res.n_skipped == 1
        assert res.phi.shape[0] == 1

    def test_simplex_property_per_sample(self):
        rng = np.random.default_rng(0)
        asm = assemble(three_effect_model(), None)
        samples = []
        for _ in range(50):
            coeffs = {
                l: asm.effects[l].sample_coefficients(rng.uniform(0.1, 2.0), rng).values
                for l in asm.leaf_ids
            }
            samples.append(make_sample(asm, coeffs))
        res = phi(samples, asm)
        np.testing.assert_allclose(res.phi.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(res.phi >= 0)

    def test_matches_per_draw_loop_across_chunks(self):
        rng = np.random.default_rng(3)
        asm = assemble(three_effect_model(), None)
        n = 2 * PHI_CHUNK + 37
        samples = [
            make_sample(asm, {
                l: asm.effects[l].sample_coefficients(rng.uniform(0.1, 2.0), rng).values
                for l in asm.leaf_ids
            })
            for _ in range(n)
        ]
        res = phi(samples, asm)
        expected = np.array([
            [finite_pop_variance(asm.effects[g], s.coefficients[g].values)
             for g in res.group_names]
            for s in samples
        ])
        assert res.s2.shape == (n, 3)
        np.testing.assert_allclose(res.s2, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            res.phi, expected / expected.sum(axis=1, keepdims=True), rtol=0, atol=1e-12
        )

    def test_prior_expected_share_matches_sigma2_contract(self):
        # with standardized effects, posterior-expected realized variance
        # tracks the prior-expected sigma2 (here: equal shares by symmetry)
        rng = np.random.default_rng(1)
        asm = assemble(three_effect_model(), None)
        n = 10_000
        s2_draws = {l: [] for l in asm.leaf_ids}
        realized = {l: [] for l in asm.leaf_ids}
        for _ in range(n):
            sqrtV = rng.exponential(1.0)
            V = sqrtV**2
            wA = rng.uniform()
            wX = rng.dirichlet([0.5, 0.5])
            sigma2 = {
                "lin": V * wA * wX[0],
                "vessel": V * wA * wX[1],
                "temporal": V * (1 - wA),
            }
            for l in asm.leaf_ids:
                u = asm.effects[l].sample_coefficients(sigma2[l], rng).values
                s2_draws[l].append(sigma2[l])
                realized[l].append(finite_pop_variance(asm.effects[l], u))
        for l in asm.leaf_ids:
            expected = np.mean(s2_draws[l])
            got = np.mean(realized[l])
            assert got == pytest.approx(expected, rel=0.10)


class TestPriorOnlyContract:
    def test_mcmc_prior_run_matches_sigma2_in_expectation(self):
        # the operational variance-contribution contract: over a prior-only
        # MCMC run, mean realized variance tracks mean sigma2 per effect
        model = three_effect_model()
        settings = McmcSettings(
            chains=1, iterations=1000 + 5 * 10_000, burn_in=1000, thinning=5, seed=3
        )
        result = fit(model, None, settings, likelihood_weight=0.0)
        assert result.n_samples == 10_000
        asm = result.assembled
        from hdsdm.tree import from_unconstrained, to_variances

        sums_s2 = {l: 0.0 for l in asm.leaf_ids}
        sums_sigma2 = {l: 0.0 for l in asm.leaf_ids}
        for i, theta in enumerate(result.theta[0]):
            sigma2 = to_variances(asm.tree, from_unconstrained(asm.tree, theta))
            for l in asm.leaf_ids:
                sums_s2[l] += finite_pop_variance(asm.effects[l], result.coefficients[l][0, i])
                sums_sigma2[l] += sigma2[l]
        for l in asm.leaf_ids:
            assert sums_s2[l] == pytest.approx(sums_sigma2[l], rel=0.10), l


class TestTrends:
    def test_centered_posterior_mean_curves(self):
        model = three_effect_model()
        rng = np.random.default_rng(2)
        n = 150
        data = Dataset.from_arrays(
            y=rng.integers(0, 2, n),
            x=rng.uniform(-1, 1, n),
            v=rng.integers(1, 3, n).astype(float),
            t=rng.integers(1, 11, n).astype(float),
        )
        res = fit(model, data, McmcSettings(chains=1, iterations=300, burn_in=150, seed=0))
        trends = posterior_mean_trends(res)
        assert set(trends) == {"lin", "vessel", "temporal"}
        for name, (grid, curve) in trends.items():
            assert grid.shape == curve.shape
            assert abs(curve.mean()) < 1e-10
            G = res.assembled.effects[name].quadrature_design()
            per_draw = np.mean([G @ s.coefficients[name].values for s in res.samples], axis=0)
            np.testing.assert_allclose(curve, per_draw - per_draw.mean(), rtol=0, atol=1e-12)


class TestSensitivitySweep:
    def test_fit_error_keeps_its_type_and_names_the_q(self):
        data = Dataset.from_arrays(
            y=np.array([0, 1, 1, 0]), x=np.linspace(-0.5, 0.5, 4),
            v=np.array([1.0, 2.0, 1.0, 2.0]), t=np.array([1.0, 2.0, 3.0, 4.0]),
            train_mask=np.zeros(4, dtype=bool),
        )
        settings = McmcSettings(chains=1, iterations=4, burn_in=2)
        message = r"^sensitivity fit failed at q=0\.5: the data have no training rows"
        with pytest.raises(ValidationError, match=message):
            sensitivity_sweep(three_effect_model(), data, [0.5, 1.0], settings)

    def test_unknown_split_rejected_before_fitting(self, monkeypatch):
        # a Dirichlet q on a node the tree lacks would change nothing
        import hdsdm.partition

        def no_fit(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr(hdsdm.partition, "fit", no_fit)
        settings = McmcSettings(chains=1, iterations=4, burn_in=2)
        with pytest.raises(ValidationError, match=r"unknown tree nodes: \['bogus'\]"):
            sensitivity_sweep(three_effect_model(), None, [1.0, 0.1], settings,
                              split_name="bogus")
