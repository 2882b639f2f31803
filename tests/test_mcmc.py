"""Posterior evaluation, sampler correctness oracles, prediction, metrics."""

import dataclasses
import itertools
import math
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st
from scipy.stats import norm

from hdsdm.distributions import UniformInterval, UniformLevels
from hdsdm import mcmc, partition, runtime
from hdsdm.exceptions import DiagnosticError, ValidationError
from hdsdm.gmrf import CoefficientBlock
from hdsdm.mcmc import (
    KERNELS,
    PROPOSAL_BLOCK,
    McmcSettings,
    ModelState,
    bernoulli_loglik,
    fit,
    hyper_param_names,
    log_posterior,
    metrics,
    predict,
    split_rhat,
)
from hdsdm.model import MU_PRIOR_SD, Dataset, EffectDecl, ModelSpec, assemble
from hdsdm.partition import phi
from hdsdm.priors import HDEvaluator, PriorSpec
from test_priors import trees_and_priors
from hdsdm.tree import (
    EffectLabel,
    build_default_tree,
    from_unconstrained,
    natural_values,
    to_unconstrained,
)


def toy_model():
    """One linear abiotic effect + one 2-level iid biotic effect."""
    effects = [
        EffectDecl("lin", "linear", "x", UniformInterval(-1.0, 1.0), side="abiotic"),
        EffectDecl("ran", "iid", "g", UniformLevels(2), side="biotic"),
    ]
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
    }
    return ModelSpec(effects=effects, priors=priors)


def toy_data(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_arrays(
        y=rng.integers(0, 2, n),
        x=rng.uniform(-1, 1, n),
        g=rng.integers(1, 3, n).astype(float),
    )


def rw1_model():
    """The toy model with a 6-level rw1 walk (5 free coefficients) for its
    biotic effect."""
    effects = [
        EffectDecl("lin", "linear", "x", UniformInterval(-1.0, 1.0), side="abiotic"),
        EffectDecl("walk", "rw1", "t", UniformLevels(6), side="biotic", group="temporal"),
    ]
    return ModelSpec(effects=effects, priors=toy_model().priors)


def three_covariate_model():
    """Three linear abiotic effects under a 3-child split, one iid biotic effect."""
    effects = [
        EffectDecl(x, "linear", x, UniformInterval(-1.0, 1.0), side="abiotic")
        for x in ("a", "b", "c")
    ] + [EffectDecl("d", "iid", "g", UniformLevels(2), side="biotic")]
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        "covariates": PriorSpec("covariates", "dirichlet", {"q": 0.5}),
    }
    return ModelSpec(effects=effects, priors=priors)


def survey_tree():
    """The tree of the survey model: linear and flexible parts of two
    covariates and a vessel effect under a 3-child split, space and time."""
    labels = [
        EffectLabel(f"{g}_{part}", "abiotic", group=g)
        for g in ("sst", "depth")
        for part in ("lin", "nonlin")
    ] + [
        EffectLabel("vessel", "abiotic"),
        EffectLabel("spatial", "biotic", group="spatial"),
        EffectLabel("temporal", "biotic", group="temporal"),
    ]
    return build_default_tree(labels)


def hyper_values_per_draw(tree, theta, mu):
    """Reference for the reported hyperparameters: one ``from_unconstrained``
    per draw, read out in ``hyper_param_names`` order."""
    rows = []
    for th, m in zip(theta, mu):
        hd = from_unconstrained(tree, th)
        row = [hd.total]
        for s in tree.splits:
            if s.is_binary:
                row.append(hd.proportions[s.name][s.omega_index])
            else:
                row.extend(hd.proportions[s.name])
        rows.append(row + [m])
    return np.array(rows)


class TestLogPosterior:
    def test_zero_state_likelihood_is_n_log_half(self):
        asm = assemble(toy_model(), toy_data(n=5))
        state = ModelState(
            theta=np.array([0.1, -0.3]),
            mu=0.0,
            coefficients={l: np.zeros(asm.effects[l].n_coef) for l in asm.leaf_ids},
        )
        full = log_posterior(asm, state, likelihood_weight=1.0)
        prior_only = log_posterior(asm, state, likelihood_weight=0.0)
        assert full - prior_only == pytest.approx(5 * np.log(0.5), abs=1e-12)

    def test_prior_only_equals_prior_plus_coefficient_terms(self):
        asm = assemble(toy_model(), toy_data(n=7))
        rng = np.random.default_rng(1)
        theta = np.array([0.4, 0.2])
        coeffs = {
            "lin": rng.normal(size=1),
            "ran": np.array([0.7, -0.7]) / np.sqrt(2) * rng.normal(),
        }
        state = ModelState(theta=theta, mu=0.5, coefficients=coeffs)
        got = log_posterior(asm, state, likelihood_weight=0.0)

        from hdsdm.priors import log_prior_unconstrained
        from hdsdm.tree import from_unconstrained, to_variances

        hd = from_unconstrained(asm.tree, theta)
        s2 = to_variances(asm.tree, hd)
        expected = log_prior_unconstrained(asm.tree, asm.model.priors, theta)
        for leaf in asm.leaf_ids:
            expected += asm.effects[leaf].coefficient_logpdf(coeffs[leaf], s2[leaf])
        expected += norm.logpdf(0.5, scale=MU_PRIOR_SD)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("weight", [0.5, 2.0, True, np.nan])
    def test_bad_likelihood_weight_rejected(self, weight):
        asm = assemble(toy_model(), toy_data(n=5))
        state = ModelState(
            theta=np.zeros(2), mu=0.0,
            coefficients={l: np.zeros(asm.effects[l].n_coef) for l in asm.leaf_ids},
        )
        with pytest.raises(ValidationError, match="likelihood_weight must be 0 or 1"):
            log_posterior(asm, state, likelihood_weight=weight)

    def test_matches_bruteforce_reimplementation(self):
        # independent oracle on a 5-observation toy model: Bernoulli pmf +
        # eigendecomposition-based subspace Gaussians + closed-form HD prior
        asm = assemble(toy_model(), toy_data(n=5))
        rng = np.random.default_rng(2)
        theta = np.array([0.3, -0.6])
        u_lin = rng.normal(size=1)
        a = rng.normal()
        u_ran = np.array([a, -a])
        mu = 0.27
        state = ModelState(theta=theta, mu=mu, coefficients={"lin": u_lin, "ran": u_ran})
        got = log_posterior(asm, state)

        V, omega = np.exp(theta[0]), 1.0 / (1.0 + np.exp(-theta[1]))
        s2 = {"lin": V * omega, "ran": V * (1 - omega)}
        # Jeffreys on V (truncated, normalized) + uniform omega, with Jacobian
        expected = -np.log(V) - np.log(60.0) + theta[0] + np.log(omega * (1 - omega))
        for leaf, u in (("lin", u_lin), ("ran", u_ran)):
            eff = asm.effects[leaf]
            cov = (
                eff.law.covariance() / eff.scale_constant**2 * s2[leaf]
            )
            lam, vec = np.linalg.eigh(cov)
            nz = lam > 1e-12 * lam.max()
            w = vec[:, nz].T @ u
            expected += -0.5 * (
                np.sum(np.log(2 * np.pi * lam[nz])) + np.sum(w**2 / lam[nz])
            )
        expected += norm.logpdf(mu, scale=MU_PRIOR_SD)
        eta = (
            mu
            + asm.designs["lin"] @ u_lin
            + asm.designs["ran"] @ u_ran
        )
        p = 1 / (1 + np.exp(-eta))
        y = asm.y_train
        expected += np.sum(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_bernoulli_loglik_stable(self):
        eta = np.array([500.0, -500.0])
        y = np.array([1.0, 0.0])
        assert bernoulli_loglik((1.0 - 2.0 * y) * eta) == pytest.approx(0.0)
        y = np.array([0.0, 1.0])
        assert np.isfinite(bernoulli_loglik((1.0 - 2.0 * y) * eta))

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 400.0])
    def test_bernoulli_loglik_matches_logaddexp(self, scale):
        rng = np.random.default_rng(int(scale * 10))
        eta = scale * rng.standard_normal(5000)
        for y in (rng.integers(0, 2, eta.size).astype(float), np.zeros(eta.size),
                  np.ones(eta.size)):
            x = (1.0 - 2.0 * y) * eta
            ref = -np.logaddexp(0.0, x).sum()
            assert bernoulli_loglik(x) == pytest.approx(ref, rel=1e-12)
            assert bernoulli_loglik(x, np.empty_like(x)) == bernoulli_loglik(x)

    def test_bernoulli_loglik_exact_at_extremes(self):
        values = [1e4, -1e4, 745.0, -745.0, np.inf, -np.inf, 0.0]
        for v in values:
            for y in (0.0, 1.0):
                x = np.array([(1.0 - 2.0 * y) * v])
                ref = -np.logaddexp(0.0, x[0])
                assert bernoulli_loglik(x) == ref
                assert bernoulli_loglik(x, np.empty(1)) == ref
        eta = np.array(values * 2)
        y = np.repeat([0.0, 1.0], len(values))
        x = (1.0 - 2.0 * y) * eta
        assert bernoulli_loglik(x) == -np.logaddexp(0.0, x).sum()
        assert bernoulli_loglik(x, np.empty_like(x)) == bernoulli_loglik(x)
        assert bernoulli_loglik(np.zeros(0)) == 0.0

    @staticmethod
    def stable_loglik(x):
        """The stable form of the kernel: -(max(x, 0) + log1p(exp(-|x|)))."""
        return float(-(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))).sum())

    def test_bernoulli_loglik_non_positive_rows_give_the_stable_bits(self):
        x = -np.abs(3.0 * np.random.default_rng(4).standard_normal(5020))
        x[:3] = (0.0, -0.0, -800.0)
        assert bernoulli_loglik(x) == self.stable_loglik(x)

    @pytest.mark.parametrize("big", [709.78, 709.79, 710.0, 1e4])
    def test_bernoulli_loglik_at_the_overflow_boundary(self, big):
        # exp overflows from about 709.78 on; the kernel then falls back to
        # the stable form, which it must match exactly and without a warning
        x = -np.abs(np.random.default_rng(5).standard_normal(1000))
        x[[3, 500]] = big
        out = np.empty_like(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bernoulli_loglik(x, out)
        assert got == self.stable_loglik(x)
        assert got < -2 * big

    def test_bernoulli_loglik_nan_in_gives_nan_out(self):
        x = -np.abs(np.random.default_rng(6).standard_normal(100))
        for bad in ([np.nan], [np.nan, 1e4], [np.nan, np.inf]):
            x[: len(bad)] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isnan(bernoulli_loglik(x))

    def test_single_block_change_is_local(self):
        # changing one coefficient block moves only that block's Gaussian
        # term (prior-weight view) plus the likelihood (full view)
        asm = assemble(toy_model(), toy_data(n=9))
        rng = np.random.default_rng(11)
        theta = np.array([0.2, -0.1])
        coeffs = {"lin": rng.normal(size=1), "ran": np.array([0.4, -0.4])}
        state = ModelState(theta=theta, mu=0.1, coefficients=coeffs)
        new_coeffs = dict(coeffs)
        new_coeffs["ran"] = np.array([-0.9, 0.9])
        new_state = ModelState(theta=theta, mu=0.1, coefficients=new_coeffs)

        from hdsdm.tree import from_unconstrained, to_variances

        s2 = to_variances(asm.tree, from_unconstrained(asm.tree, theta))
        gauss_delta = asm.effects["ran"].coefficient_logpdf(
            new_coeffs["ran"], s2["ran"]
        ) - asm.effects["ran"].coefficient_logpdf(coeffs["ran"], s2["ran"])
        prior_delta = log_posterior(asm, new_state, 0.0) - log_posterior(asm, state, 0.0)
        assert prior_delta == pytest.approx(gauss_delta, rel=1e-12)

        sign = 1.0 - 2.0 * asm.y_train
        lik_delta = bernoulli_loglik(
            sign * asm.linear_predictor(new_coeffs, 0.1)
        ) - bernoulli_loglik(sign * asm.linear_predictor(coeffs, 0.1))
        full_delta = log_posterior(asm, new_state) - log_posterior(asm, state)
        assert full_delta == pytest.approx(gauss_delta + lik_delta, rel=1e-12)


    def test_centered_ratio_matches_the_log_posterior(self):
        # the centered move (b) holds the effects u = sigma T xi fixed, so its
        # ratio plus the change of the HD prior is the change of the joint
        # density at likelihood weight 0; log_posterior reaches the effects'
        # densities through coefficient_logpdf and the prior through
        # log_prior_unconstrained, and shares no code with the ratio
        from test_model import survey_data, survey_model

        asm = assemble(survey_model(), survey_data(n=300, seed=3))
        evaluator = HDEvaluator(asm.tree, asm.model.priors)
        transforms = [asm.effects[l].whitening_transform() for l in asm.leaf_ids]
        dims = [T.shape[1] for T in transforms]
        rng = np.random.default_rng(22)
        for _ in range(200):
            theta = rng.normal(0.0, 1.5, asm.tree.n_coordinates)
            theta_new = theta + rng.normal(0.0, 0.5, theta.size)
            lp, lsig = evaluator.evaluate(theta)
            lp_new, lsig_new = evaluator.evaluate(theta_new)
            xi = [rng.standard_normal(n) for n in dims]
            coefficients = {
                l: math.exp(s) * (T @ z) for l, s, T, z in zip(asm.leaf_ids, lsig, transforms, xi)
            }
            want = log_posterior(
                asm, ModelState(theta_new, 0.3, coefficients), likelihood_weight=0.0
            ) - log_posterior(asm, ModelState(theta, 0.3, coefficients), likelihood_weight=0.0)
            qnorm = [float(z @ z) for z in xi]
            got = mcmc._centered_ratio(dims)(lsig, lsig_new, qnorm) + lp_new - lp
            assert got == pytest.approx(want, rel=1e-9)

    def test_overflowing_total_variance_gives_minus_inf_without_a_warning(self):
        # at theta_0 = 1500, V = exp(1500) overflows to inf, where the pc
        # density of V is 0: the reference prior and the joint density are
        # -inf, and the overflow is no warning
        from hdsdm.priors import log_prior_unconstrained

        priors = dict(toy_model().priors,
                      total_variance=PriorSpec("total_variance", "pc", {"lam": 1.0}))
        asm = assemble(ModelSpec(effects=toy_model().effects, priors=priors), toy_data(n=5))
        state = ModelState(
            theta=np.array([1500.0, 0.3]), mu=0.0,
            coefficients={l: np.zeros(asm.effects[l].n_coef) for l in asm.leaf_ids},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_prior_unconstrained(asm.tree, priors, state.theta) == -np.inf
            for weight in (0.0, 1.0):
                assert log_posterior(asm, state, likelihood_weight=weight) == -np.inf


class TestBitIdentity:
    """The sampler's shortcuts give the same bits as the plain computations."""

    trees = pytest.mark.parametrize("tree", [survey_tree(), build_default_tree(
        [EffectLabel(e, "abiotic") for e in ("a", "b", "c")] + [EffectLabel("d", "biotic")]
    )], ids=["survey", "three_covariates"])

    @trees
    def test_hyper_columns_match_from_unconstrained(self, tree):
        rng = np.random.default_rng(12)
        d = tree.n_coordinates
        theta = 3.0 * rng.standard_normal((300, d))
        theta[:50] = rng.choice([-40.0, 40.0], size=(50, d))  # saturates every map
        mu = rng.standard_normal(300)
        ref = hyper_values_per_draw(tree, theta, mu)
        out = natural_values(tree, theta)
        np.testing.assert_array_equal(out, ref[:, :-1])
        assert (out[:50, 1:] == 1e-12).any()  # the clamp was hit

    @trees
    def test_unconstrained_round_trip(self, tree):
        # to_unconstrained shares no code with natural_values, so the round
        # trip checks the map against an independent inverse
        rng = np.random.default_rng(13)
        for theta in 2.0 * rng.standard_normal((200, tree.n_coordinates)):
            back = to_unconstrained(tree, from_unconstrained(tree, theta))
            np.testing.assert_allclose(back, theta, rtol=1e-9, atol=1e-9)

    def test_fit_hyper_draws_match_theta(self):
        data = Dataset.from_arrays(
            y=np.arange(40) % 2,
            g=1.0 + np.arange(40) % 2,
            **{x: np.linspace(-0.9, 0.9, 40) ** (i + 1) for i, x in enumerate("abc")},
        )
        settings = McmcSettings(chains=2, iterations=300, burn_in=150, seed=2)
        result = fit(three_covariate_model(), data, settings)
        assert result.hyper_names[-1] == "mu"
        for c in range(2):
            ref = hyper_values_per_draw(result.assembled.tree, result.theta[c], result.mu[c])
            np.testing.assert_array_equal(result.hyper_draws[c], ref)

    def test_centered_ratio_rejects_at_the_extremes(self):
        # log-sigma differences of about +-460 (sigma = 1e-200 or 1e200
        # against 1) and infinite ones (a zero or infinite sigma): where
        # exp(-2D) overflows, or q = 0 meets an infinite term, the move is
        # rejected, and no exception escapes; where exp(-2D) underflows the
        # ratio is -dims D + q/2
        dims = [1, 1, 4, 16, 2, 9, 25]
        ratio = mcmc._centered_ratio(dims)
        unit = [0.0] * 7  # log sigma of sigma = 1
        big = math.log(1e200)
        for k in range(7):
            for bad in (-big, big, -math.inf, math.inf):
                moved = unit.copy()
                moved[k] = bad
                for lsig, lsig_new in ((moved, unit), (unit, moved)):
                    delta = lsig_new[k] - lsig[k]
                    for q in (0.0, 1.0):
                        got = ratio(lsig, lsig_new, [q] * 7)
                        if delta < 0:
                            assert got == -math.inf
                        else:
                            assert got == pytest.approx(-dims[k] * delta + 0.5 * q, rel=1e-15)

    def test_one_column_image_is_the_matrix_product(self):
        rng = np.random.default_rng(4)
        whitened = rng.standard_normal((PROPOSAL_BLOCK + 1, 1))
        design_t = rng.standard_normal((1, 5020))
        np.testing.assert_array_equal(
            np.multiply(whitened, design_t), np.matmul(whitened, design_t)
        )

    def test_signed_design_images_are_the_signed_images(self):
        # the chain multiplies each design row by 1 - 2y and tracks
        # x = sig @ V + mu * sign; negation is exact, so every image, and the
        # predictor formed from them, is the sign times the unsigned one
        from test_model import survey_data, survey_model

        asm = assemble(survey_model(), survey_data(n=5020, seed=3))
        sign = 1.0 - 2.0 * asm.y_train
        rng = np.random.default_rng(14)
        V, V_signed = [], []
        for leaf in asm.leaf_ids:
            transform = asm.effects[leaf].whitening_transform()
            mapped = rng.standard_normal((PROPOSAL_BLOCK + 1, transform.shape[1])) @ transform.T
            design_t = np.ascontiguousarray(asm.designs[leaf].T)
            op = np.multiply if design_t.shape[0] == 1 else np.matmul
            images, signed = op(mapped, design_t), op(mapped, design_t * sign)
            np.testing.assert_array_equal(signed, sign * images)
            V.append(images[0])
            V_signed.append(signed[0])
        sig, mu = rng.uniform(0.1, 3.0, len(V)), -0.7
        x = sig @ np.array(V_signed) + mu * sign
        np.testing.assert_array_equal(x, sign * (sig @ np.array(V) + mu))


class TestDivergenceCheck:
    def test_pinned_rates_raise(self):
        from hdsdm.exceptions import DiagnosticError
        from hdsdm.mcmc import _Accept, _check_divergent

        ok = _Accept(0.0, 0.3)
        for _ in range(100):
            ok.update(0.4, 0, adapting=False)
        stuck = _Accept(0.0, 0.3)
        for _ in range(100):
            stuck.update(0.0, 0, adapting=False)
        assert _check_divergent({"a": ok})["a"] == pytest.approx(0.4)
        with pytest.raises(DiagnosticError, match="pinned"):
            _check_divergent({"a": ok, "b": stuck})

    def test_incremental_eta_check(self):
        from hdsdm.exceptions import DiagnosticError
        from hdsdm.mcmc import _check_eta

        asm = assemble(toy_model(), toy_data(n=40, seed=12))
        rng = np.random.default_rng(13)
        coefs = {}
        for leaf in asm.leaf_ids:
            T = asm.effects[leaf].whitening_transform()
            coefs[leaf] = 0.7 * (T @ rng.standard_normal(T.shape[1]))
        mu = -0.4
        # the predictor as the sampler builds it, one term at a time
        eta = np.full(asm.n_train, mu)
        for leaf in asm.leaf_ids:
            eta += asm.designs[leaf] @ coefs[leaf]
        _check_eta(asm, coefs, mu, eta)
        eta[17] += 1e-4
        with pytest.raises(DiagnosticError, match="drifted"):
            _check_eta(asm, coefs, mu, eta)

    def test_short_kernels_not_flagged(self):
        from hdsdm.mcmc import _Accept, _check_divergent

        brief = _Accept(0.0, 0.3)
        for _ in range(10):
            brief.update(1.0, 0, adapting=False)
        _check_divergent({"a": brief})  # fewer than 50 proposals: no error


class TestSplitRhat:
    def test_identical_chains_unity(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=400)
        draws = np.stack([row, row.copy()])
        assert split_rhat(draws) == pytest.approx(1.0, abs=0.05)

    def test_shifted_chains_flagged(self):
        rng = np.random.default_rng(4)
        draws = np.stack([rng.normal(size=400), rng.normal(size=400) + 5.0])
        assert split_rhat(draws) > 1.5


class TestFit:
    def test_settings_validation(self):
        with pytest.raises(ValidationError):
            McmcSettings(iterations=100, burn_in=100)
        with pytest.raises(ValidationError):
            McmcSettings(chains=0)
        with pytest.raises(ValidationError):
            McmcSettings(thinning=0)
        for name, bad in [("seed", -1), ("seed", 1.5), ("iterations", 100.5),
                          ("chains", 2.0), ("burn_in", "10"), ("thinning", True),
                          ("seed", None)]:
            with pytest.raises(ValidationError, match=name):
                McmcSettings(**{name: bad})
        assert McmcSettings(chains=np.int64(2), seed=np.uint32(7)).seed == 7
        # the adaptation constants are not settings
        assert [f.name for f in dataclasses.fields(McmcSettings)] == [
            "chains", "iterations", "burn_in", "thinning", "seed"]

    def test_intercept_only_recovery_against_grid_oracle(self):
        rng = np.random.default_rng(5)
        n = 500
        y = (rng.uniform(size=n) < 0.7).astype(int)
        data = Dataset.from_arrays(y=y)
        model = ModelSpec(effects=[], priors={})
        settings = McmcSettings(
            chains=2, iterations=4000, burn_in=1000, thinning=1, seed=11
        )
        result = fit(model, data, settings)
        post_mean_p = np.mean(1 / (1 + np.exp(-result.mu)))

        # grid-integration oracle over mu with the same N(0, 10^2) prior
        grid = np.linspace(-4, 4, 20001)
        logpost = (
            norm.logpdf(grid, scale=10.0)
            + y.sum() * -np.logaddexp(0, -grid)
            + (n - y.sum()) * -np.logaddexp(0, grid)
        )
        wgt = np.exp(logpost - logpost.max())
        oracle = np.sum(wgt / (1 + np.exp(-grid))) / wgt.sum()
        assert post_mean_p == pytest.approx(oracle, abs=0.01)
        assert abs(post_mean_p - y.mean()) < 0.05

    def test_deterministic_given_seed(self):
        model = toy_model()
        data = toy_data(n=60, seed=6)
        settings = McmcSettings(chains=2, iterations=400, burn_in=200, seed=3)
        r1 = fit(model, data, settings)
        r2 = fit(model, data, settings)
        np.testing.assert_array_equal(r1.hyper_draws, r2.hyper_draws)
        np.testing.assert_array_equal(r1.theta, r2.theta)
        np.testing.assert_array_equal(r1.mu, r2.mu)
        assert r1.coefficients.keys() == r2.coefficients.keys()
        for leaf, draws in r1.coefficients.items():
            np.testing.assert_array_equal(draws, r2.coefficients[leaf])

    def test_record_list_matches_arrays_bit_for_bit(self):
        model = toy_model()
        data = toy_data(n=60, seed=10)
        result = fit(model, data, McmcSettings(chains=2, iterations=400, burn_in=200, seed=8))
        new = {"x": np.array([-0.9, 0.0, 0.7]), "g": np.array([1.0, 2.0, 2.0])}
        np.testing.assert_array_equal(
            predict(result.samples, new, assembled=result.assembled), predict(result, new)
        )
        np.testing.assert_array_equal(
            phi(result.samples, result.assembled).phi, phi(result).phi
        )

    def test_samples_are_built_on_access(self):
        result = fit(toy_model(), toy_data(n=60, seed=10),
                     McmcSettings(chains=2, iterations=300, burn_in=200, seed=8))
        samples = result.samples
        n = result.mu.size
        assert len(samples) == n == 200
        flat = result.flat_coefficients()
        for i in (0, 1, 137, n - 1, -1, -n, np.int64(5)):
            record = samples[i]
            assert record.hd is None and record.eta is None
            assert record.mu == result.mu.ravel()[i]
            for leaf, block in record.coefficients.items():
                assert block.effect_id == leaf
                np.testing.assert_array_equal(block.values, flat[leaf][i])
        assert [s.mu for s in samples[3:9:2]] == result.mu.ravel()[3:9:2].tolist()
        assert [s.mu for s in samples] == result.mu.ravel().tolist()
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                samples[bad]
        with pytest.raises(TypeError):
            samples[0] = samples[1]
        assert samples[2] is not samples[2]  # nothing is kept between accesses

    def test_prior_only_uniform_share_centered(self):
        model = toy_model()
        settings = McmcSettings(
            chains=2, iterations=6000, burn_in=1000, thinning=5, seed=4
        )
        result = fit(model, None, settings, likelihood_weight=0.0)
        j = result.hyper_names.index("omega_abiotic_vs_biotic")
        omegas = result.hyper_draws[:, :, j].ravel()
        assert omegas.mean() == pytest.approx(0.5, abs=0.03)
        assert omegas.std() == pytest.approx(np.sqrt(1 / 12), abs=0.03)

    def test_samples_satisfy_constraints(self):
        model = toy_model()
        data = toy_data(n=80, seed=7)
        settings = McmcSettings(chains=1, iterations=300, burn_in=150, seed=5)
        result = fit(model, data, settings)
        u = result.coefficients["ran"]
        assert u.shape == (1, 150, 2)
        assert np.abs(u.sum(axis=-1)).max() < 1e-9  # zero-mean over two equal levels

    def test_kernel_timings_cover_at_most_the_fit(self):
        # timings are summed over chains, and concurrent chains can sum to
        # more than the wall time; each chain's kernels still fit in the fit.
        # A chain without rows runs, and times, a loop of its own.
        for data, chains in itertools.product((toy_data(n=60, seed=8), None), (1, 2)):
            settings = McmcSettings(chains=chains, iterations=400, burn_in=200, seed=6)
            t0 = time.perf_counter()
            result = fit(toy_model(), data, settings)
            wall = time.perf_counter() - t0
            assert set(result.timings) == set(KERNELS)
            assert all(t >= 0.0 for t in result.timings.values())
            assert sum(result.timings.values()) <= chains * wall

    def test_rhat_reported_per_parameter(self):
        model = toy_model()
        data = toy_data(n=60, seed=8)
        settings = McmcSettings(chains=2, iterations=400, burn_in=200, seed=6)
        result = fit(model, data, settings)
        assert set(result.rhat) == set(hyper_param_names(result.assembled))


def assert_same_draws(a, b):
    for name in ("theta", "mu", "hyper_draws"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.coefficients.keys() == b.coefficients.keys()
    for leaf, draws in a.coefficients.items():
        np.testing.assert_array_equal(draws, b.coefficients[leaf])


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def assert_no_children():
    if hasattr(os, "waitpid"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestExactDraws:
    """Without a likelihood term, (c) and (d) draw from their priors exactly."""

    settings = McmcSettings(chains=2, iterations=600, burn_in=300, seed=9)

    def test_weight_zero_with_rows_gives_the_draws_without_data(self):
        # at weight 0 the chains see no rows, also when the data have some
        with_rows = fit(toy_model(), toy_data(n=60, seed=3), self.settings,
                        likelihood_weight=0.0)
        without = fit(toy_model(), None, self.settings, likelihood_weight=0.0)
        assert with_rows.assembled.n_train == 0
        assert not hasattr(with_rows, "likelihood_weight")
        assert_same_draws(with_rows, without)
        assert with_rows.acceptance == without.acceptance

    def test_exact_kernels_report_rate_one(self):
        prior = fit(toy_model(), None, self.settings)  # no rows, so no likelihood
        assert {k: r for k, r in prior.acceptance.items() if not k.startswith("hyper")} \
            == {"mu": 1.0, "coef[lin]": 1.0, "coef[ran]": 1.0}
        assert 0.01 < prior.acceptance["hyper"] < 0.99
        assert 0.01 < prior.acceptance["hyper_centered"] < 0.99
        # with a likelihood the same kernels are random walks
        fitted = fit(toy_model(), toy_data(n=60, seed=3), self.settings)
        assert fitted.acceptance.keys() == prior.acceptance.keys()
        assert all(0.01 < r < 0.99 for r in fitted.acceptance.values())

    @pytest.mark.parametrize("model", [toy_model(), rw1_model()], ids=["toy", "rw1"])
    def test_kept_coefficients_follow_their_prior_law(self, model):
        # an oracle that shares no code with the chain: each whitened draw
        # xi = T^+ u / sigma, with sigma from the reference map of theta, is
        # N(0, I), so |xi|^2 is chi^2 with the leaf's free dimension and each
        # coordinate is N(0, 1); the effects keep their constraints
        from scipy.stats import chi2, kstest

        from hdsdm.tree import to_variances

        result = fit(model, None, McmcSettings(chains=2, iterations=2500, burn_in=500, seed=21))
        asm = result.assembled
        variances = [to_variances(asm.tree, from_unconstrained(asm.tree, th))
                     for th in result.theta.reshape(-1, result.theta.shape[-1])]
        pvalues = {"mu": kstest(result.mu.ravel() / MU_PRIOR_SD, norm.cdf).pvalue}
        for leaf, u in result.flat_coefficients().items():
            effect = asm.effects[leaf]
            T = effect.whitening_transform()
            sigma = np.sqrt([v[leaf] for v in variances])
            xi = u @ np.linalg.pinv(T).T / sigma[:, None]
            pvalues[leaf] = kstest((xi**2).sum(axis=1), chi2(T.shape[1]).cdf).pvalue
            pvalues[f"{leaf}[0]"] = kstest(xi[:, 0], norm.cdf).pvalue
            if effect.constraints is not None:
                assert np.all(np.abs(u @ effect.constraints) <= 1e-9 * sigma[:, None])
        assert min(pvalues.values()) > 1e-3, pvalues

    def test_no_likelihood_evaluated_and_same_draws_on_any_cpu_count(self, monkeypatch):
        def no_likelihood(*args):
            raise AssertionError("a likelihood was evaluated")

        monkeypatch.setattr(mcmc, "bernoulli_loglik", no_likelihood)
        forked = fit(toy_model(), None, self.settings)
        if runtime._loaded_openblas():
            assert forked.chain_workers == min(2, usable_cpus())
        # mu and the effects are written after each chain's loop, so a chain
        # that wrote a private copy would leave zeros here
        assert np.all(forked.mu != 0.0)
        assert all(np.all(np.abs(u).max(axis=-1) > 0.0) for u in forked.coefficients.values())
        assert_no_children()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = fit(toy_model(), None, self.settings)
        assert serial.chain_workers == 1
        assert_same_draws(forked, serial)
        assert serial.acceptance == forked.acceptance

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -1.0, True, "1", 0.5, 2.0])
    def test_bad_likelihood_weight_rejected_before_sampling(self, monkeypatch, weight):
        def no_chain(*args):
            raise AssertionError("a chain was started")

        monkeypatch.setattr(mcmc, "_run_chain", no_chain)
        with pytest.raises(ValidationError, match="likelihood_weight"):
            fit(toy_model(), toy_data(n=20), self.settings, likelihood_weight=weight)

    def test_assembled_model_with_data_rejected(self):
        # the data would be ignored: an assembled model without rows would run
        # a prior-only fit
        with pytest.raises(ValidationError, match="assembled model"):
            fit(assemble(toy_model(), None), toy_data(n=20), self.settings)


def reference_centered_log_ratio(lsig, lsig_new, qnorm, dims):
    """The log ratio of move (b), less its prior terms, as a loop over the
    leaves: the reference of the generated ratio."""
    out = 0.0
    try:
        for n, a, b, q in zip(dims, lsig, lsig_new, qnorm):
            delta = b - a
            out -= n * delta + 0.5 * q * (math.exp(-2.0 * delta) - 1.0)
    except OverflowError:
        return -math.inf
    return -math.inf if math.isnan(out) else out


def reference_prior_chain(result, c, rng, leaves, transforms, dims):
    """``mcmc._run_prior_chain`` as a loop over iterations, with theta a
    list, the ``_Accept`` records, ``_alpha``, ``_adapt`` at every burn-in
    iteration and the per-leaf centered ratio: the reference that the
    compiled windows must match bit for bit."""
    settings = result.settings
    evaluator, theta, lp_theta, lsig, acc = mcmc._hyper_start(result.assembled)
    d, theta = theta.size, theta.tolist()
    acc_a, acc_b = acc["hyper"], acc["hyper_centered"]
    qnorm = [0.0] * len(leaves)
    n_keep = result.mu.shape[1]
    kept = np.empty((n_keep, 2, len(leaves)))
    prop_chol = np.eye(d)
    theta_history = np.empty((settings.burn_in, d))

    t_prop = t_hyper = t_centered = t_store = 0.0
    clock = time.perf_counter
    for start in range(0, settings.iterations, mcmc.ADAPTATION_WINDOW) if d else ():
        t0 = clock()
        n = min(mcmc.ADAPTATION_WINDOW, settings.iterations - start)
        steps = (rng.standard_normal((n, 2, d)) @ prop_chol.T).tolist()
        uniforms = rng.random((n, 2)).tolist()
        norms = rng.chisquare(dims, (n, len(leaves))).tolist()
        t1 = clock()
        t_prop += t1 - t0
        for it, (step_a, step_b), (u_a, u_b), q_new in zip(
            range(start, start + n), steps, uniforms, norms
        ):
            adapting = it < settings.burn_in
            s = acc_a.scale
            theta_new = [t + s * z for t, z in zip(theta, step_a)]
            lp_new, lsig_new = evaluator.evaluate(theta_new)
            alpha = mcmc._alpha(lp_new - lp_theta)
            if u_a < alpha:
                theta, lsig, lp_theta = theta_new, lsig_new, lp_new
            acc_a.update(alpha, it, adapting)
            t0 = clock()
            t_hyper += t0 - t1

            s = acc_b.scale
            theta_new = [t + s * z for t, z in zip(theta, step_b)]
            lp_new, lsig_new = evaluator.evaluate(theta_new)
            logr = -math.inf
            if math.isfinite(lp_new):
                logr = (reference_centered_log_ratio(lsig, lsig_new, qnorm, dims)
                        + lp_new - lp_theta)
            alpha = mcmc._alpha(logr)
            if u_b < alpha:
                theta, lsig, lp_theta = theta_new, lsig_new, lp_new
            acc_b.update(alpha, it, adapting)
            t1 = clock()
            t_centered += t1 - t0

            qnorm = q_new
            if adapting:
                theta_history[it] = theta
                prop_chol = mcmc._adapt(theta_history, it, settings.burn_in, prop_chol, acc)
            k, skip = divmod(it - settings.burn_in, settings.thinning)
            if k >= 0 and skip == 0:
                result.theta[c, k] = theta
                kept[k] = lsig, qnorm
            t0 = clock()
            t_store += t0 - t1
            t1 = t0

    t0 = clock()
    result.mu[c] = MU_PRIOR_SD * rng.standard_normal(n_keep)
    t_mu, t0 = clock() - t0, clock()
    scales = np.exp(kept[:, 0]) * np.sqrt(kept[:, 1])
    for k, l in enumerate(leaves):
        g = rng.standard_normal((n_keep, dims[k]))
        g *= (scales[:, k] / np.linalg.norm(g, axis=1))[:, None]
        np.matmul(g, transforms[k].T, out=result.coefficients[l][c])
    t_coef = clock() - t0

    rates = mcmc._check_divergent(acc)
    rates["mu"] = 1.0
    rates.update((f"coef[{l}]", 1.0) for l in leaves)
    return rates, dict(zip(KERNELS, (t_hyper, t_centered, t_mu, t_coef, t_prop, t_store)))


def prior_fit_outcome(model, settings):
    """A likelihood-free fit, or the message of the DiagnosticError it raised."""
    try:
        return fit(model, None, settings, likelihood_weight=0.0)
    except DiagnosticError as err:
        return str(err)


class TestPriorWindow:
    """A chain without rows, run in compiled adaptation windows, gives the
    theta, intercepts, coefficients and acceptance rates of the per-iteration
    loop bit for bit, and the same timing keys."""

    @staticmethod
    def assert_matches_reference(model, settings):
        got = prior_fit_outcome(model, settings)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcmc, "_run_prior_chain", reference_prior_chain)
            want = prior_fit_outcome(model, settings)
        if isinstance(want, str):
            assert got == want
            return
        for name in ("theta", "mu"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.coefficients.keys() == want.coefficients.keys()
        for leaf, draws in want.coefficients.items():
            assert got.coefficients[leaf].tobytes() == draws.tobytes()
        assert got.acceptance == want.acceptance
        assert got.timings.keys() == want.timings.keys()

    # burn-in a multiple of the window, ending mid-window, at zero and inside
    # the first window; thinning 1 and above
    schedules = pytest.mark.parametrize("iterations, burn_in, thinning", [
        (1200, 500, 1), (1234, 321, 1), (1000, 0, 1), (1037, 30, 7), (1500, 275, 25),
    ])

    @schedules
    def test_criterion_08_tree(self, iterations, burn_in, thinning):
        from test_acceptance import small_survey_model

        settings = McmcSettings(chains=2, iterations=iterations, burn_in=burn_in,
                                thinning=thinning, seed=12)
        self.assert_matches_reference(small_survey_model(), settings)

    @schedules
    def test_survey_tree_with_pc_and_beta_priors(self, iterations, burn_in, thinning):
        from test_model import survey_model
        from test_priors import TestLogPrior

        effects = survey_model().effects
        priors = TestLogPrior().pc_beta_priors(survey_tree())
        settings = McmcSettings(chains=1, iterations=iterations, burn_in=burn_in,
                                thinning=thinning, seed=5)
        self.assert_matches_reference(ModelSpec(effects=effects, priors=priors), settings)

    @hyp_settings(max_examples=40, deadline=None, derandomize=True, database=None)
    # every declared effect is a main effect
    @given(model=trees_and_priors(with_labels=True, roles=("main",)), data=st.data())
    def test_random_trees(self, model, data):
        _, priors, labels = model
        effects = [
            EffectDecl(lab.effect_id, "linear", f"x{i}", UniformInterval(-1.0, 1.0),
                       side=lab.side, group=lab.group)
            for i, lab in enumerate(labels)
        ]
        burn_in = data.draw(st.integers(0, 260))
        settings = McmcSettings(chains=1, iterations=burn_in + data.draw(st.integers(1, 240)),
                                burn_in=burn_in, thinning=data.draw(st.integers(1, 6)),
                                seed=data.draw(st.integers(0, 1000)))
        self.assert_matches_reference(ModelSpec(effects=effects, priors=priors), settings)

    def test_ratio_matches_the_loop(self):
        # the generated ratio against the per-leaf loop, on random log sigma
        # and at the extremes where exp overflows or meets an infinite term
        rng = np.random.default_rng(31)
        dims = [1, 5, 4, 16, 2, 9, 25]
        ratio = mcmc._centered_ratio(dims)
        values = [0.0, -math.inf, math.inf, math.log(1e200), -math.log(1e200)]
        for _ in range(2000):
            lsig = rng.normal(0.0, 2.0, 7)
            lsig, lsig_new = lsig.tolist(), (lsig + rng.normal(0.0, 0.5, 7)).tolist()
            qnorm = rng.chisquare(dims).tolist()
            k = rng.integers(0, 7)
            if rng.random() < 0.3:
                lsig_new[k] = float(rng.choice(values))
            if rng.random() < 0.3:
                qnorm[k] = 0.0
            want = reference_centered_log_ratio(lsig, lsig_new, qnorm, dims)
            assert repr(ratio(lsig, lsig_new, qnorm)) == repr(want)


class TestParallelChains:
    """Chains forked into worker processes give the draws of a serial fit."""

    settings = McmcSettings(chains=2, iterations=300, burn_in=150, seed=4)

    def fit_toy(self, settings=None):
        return fit(toy_model(), toy_data(n=60, seed=2), settings or self.settings)

    def test_chain_zero_equals_one_chain_fit(self):
        both = self.fit_toy()
        one = self.fit_toy(McmcSettings(chains=1, iterations=300, burn_in=150, seed=4))
        if runtime._loaded_openblas():
            assert both.chain_workers == min(2, usable_cpus())
        assert one.chain_workers == 1
        np.testing.assert_array_equal(both.theta[:1], one.theta)
        np.testing.assert_array_equal(both.mu[:1], one.mu)
        np.testing.assert_array_equal(both.hyper_draws[:1], one.hyper_draws)
        for leaf, draws in one.coefficients.items():
            np.testing.assert_array_equal(both.coefficients[leaf][:1], draws)
        assert_no_children()

    def test_one_cpu_runs_in_process_with_the_same_draws(self, monkeypatch):
        forked = self.fit_toy()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = self.fit_toy()
        assert serial.chain_workers == 1
        assert_same_draws(forked, serial)
        assert serial.acceptance == forked.acceptance

    def test_five_chains_queued_on_two_workers(self, monkeypatch, tmp_path):
        if not runtime._loaded_openblas():
            pytest.skip("no OpenBLAS to pin: chains run in-process")
        settings = dataclasses.replace(self.settings, chains=5)
        run_chain = mcmc._run_chain

        def recording_chain(result, c, rng):
            (tmp_path / str(c)).write_text(str(os.getpid()))
            return run_chain(result, c, rng)

        monkeypatch.setattr(mcmc, "_run_chain", recording_chain)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pooled = self.fit_toy(settings)
        assert pooled.chain_workers == 2
        ran_here = {int(p.name) for p in tmp_path.iterdir()
                    if p.read_text() == str(os.getpid())}
        assert ran_here == {0, 2, 4}  # the rest ran in the pool
        assert_no_children()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = self.fit_toy(settings)
        assert serial.chain_workers == 1
        assert_same_draws(pooled, serial)
        assert serial.acceptance == pooled.acceptance

    def test_failing_chain_zero_cancels_the_queued_chains(self, monkeypatch, tmp_path):
        if not runtime._loaded_openblas():
            pytest.skip("no OpenBLAS to pin: chains run in-process")

        def chain(result, c, rng):
            (tmp_path / str(c)).touch()
            if c == 0:
                raise ValidationError("chain 0 failed")
            time.sleep(0.2)  # keep the worker busy while the error is raised
            return {}, {}

        monkeypatch.setattr(mcmc, "_run_chain", chain)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(ValidationError, match="chain 0 failed"):
            self.fit_toy(dataclasses.replace(self.settings, chains=8))
        started = {int(p.name) for p in tmp_path.iterdir()}
        assert 0 in started and not started & {2, 4, 6}  # the caller stopped at chain 0
        assert not {1, 3, 5, 7} <= started  # queued chains were cancelled
        assert_no_children()

    def test_chain_error_raised_and_children_reaped(self, monkeypatch):
        def drifted(*args):
            raise DiagnosticError("incremental linear predictor drifted by 1 (test)")

        monkeypatch.setattr(mcmc, "_check_eta", drifted)
        with pytest.raises(DiagnosticError, match=r"^incremental .* by 1 \(test\)$"):
            self.fit_toy()
        assert_no_children()

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        run_chain = mcmc._run_chain

        def failing_chain_one(result, c, rng):
            if c == 1:
                raise ValidationError(f"chain {c} failed in pid {os.getpid()}")
            return run_chain(result, c, rng)

        monkeypatch.setattr(mcmc, "_run_chain", failing_chain_one)
        with pytest.raises(ValidationError, match="chain 1 failed") as err:
            self.fit_toy()
        if runtime._loaded_openblas() and usable_cpus() > 1:
            assert f"pid {os.getpid()}" not in str(err.value)  # raised in a worker
        assert_no_children()

    @pytest.mark.skipif(usable_cpus() < 2, reason="needs a second CPU for a worker")
    def test_worker_without_a_result_is_an_error(self, monkeypatch):
        if not runtime._loaded_openblas():
            pytest.skip("no OpenBLAS to pin: chains run in-process")
        run_chain = mcmc._run_chain

        def dying_chain_one(result, c, rng):
            if c == 1:
                os._exit(3)
            return run_chain(result, c, rng)

        monkeypatch.setattr(mcmc, "_run_chain", dying_chain_one)
        with pytest.raises(DiagnosticError, match="exited without a result"):
            self.fit_toy()
        assert_no_children()

    def test_blas_threads_pinned_during_the_chains_and_restored(self, monkeypatch):
        apis = runtime._loaded_openblas()
        if not apis:
            pytest.skip("no OpenBLAS thread setter found")
        original = [get() for get, _ in apis]
        seen = []
        run_chain = mcmc._run_chain

        def recording_chain(result, c, rng):
            seen.append([get() for get, _ in apis])
            return run_chain(result, c, rng)

        monkeypatch.setattr(mcmc, "_run_chain", recording_chain)
        try:
            for _, set_ in apis:
                set_(2)
            self.fit_toy()
            assert [get() for get, _ in apis] == [2] * len(apis)
        finally:
            for (_, set_), n in zip(apis, original):
                set_(n)
        assert seen and all(counts == [1] * len(apis) for counts in seen)


class TestBlasPin:
    """One module finds the OpenBLAS libraries, once per process, and pins
    them for the chains and for phi's grid factors."""

    settings = McmcSettings(chains=2, iterations=200, burn_in=100, seed=6)

    def fit_toy(self):
        return fit(toy_model(), toy_data(n=60, seed=2), self.settings)

    def test_libraries_looked_up_once_per_process(self, monkeypatch):
        reads = []

        def counting_open(path, *args, **kwargs):
            reads.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(runtime, "open", counting_open, raising=False)
        runtime._loaded_openblas.cache_clear()
        results = [self.fit_toy(), self.fit_toy()]
        for result in (*results, results[0]):
            phi(result)
        assert reads == ["/proc/self/maps"]
        assert_no_children()

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_phi_factors_on_one_thread_and_restores(self, monkeypatch, fail):
        apis = runtime._loaded_openblas()
        if not apis:
            pytest.skip("no OpenBLAS thread setter found")
        result = self.fit_toy()
        original = [get() for get, _ in apis]
        seen = []
        grid_factor = partition._grid_factor

        def recording_factor(assembled, leaves):
            seen.append([get() for get, _ in apis])
            if fail:
                raise ValidationError("factor failed")
            return grid_factor(assembled, leaves)

        monkeypatch.setattr(partition, "_grid_factor", recording_factor)
        try:
            for _, set_ in apis:
                set_(2)
            if fail:
                with pytest.raises(ValidationError, match="factor failed"):
                    phi(result)
            else:
                phi(result)
            assert [get() for get, _ in apis] == [2] * len(apis)
        finally:
            for (_, set_), n in zip(apis, original):
                set_(n)
        assert seen and all(counts == [1] * len(apis) for counts in seen)


class TestPredict:
    def make_result(self):
        model = toy_model()
        data = toy_data(n=40, seed=9)
        asm = assemble(model, data)
        samples = []
        for mu, b in ((0.0, 0.5), (1.0, -0.5), (0.5, 0.0)):
            coeffs = {
                "lin": CoefficientBlock(np.array([b]), "lin"),
                "ran": CoefficientBlock(np.array([0.2, -0.2]), "ran"),
            }
            samples.append(
                type(
                    "S", (), {"coefficients": coeffs, "mu": mu, "hd": None, "eta": None}
                )()
            )
        return asm, samples

    def test_matches_hand_average(self):
        asm, samples = self.make_result()
        new = {"x": np.array([0.0, 0.5, -0.5, 1.0]), "g": np.array([1.0, 2.0, 1.0, 2.0])}
        p = predict(samples, new, assembled=asm)
        # hand computation: eta_s(x, g) = mu_s + b_s * x + u_s[g]
        x_std = (new["x"] - 0.0) / (2.0 / np.sqrt(12.0))
        etas = []
        for mu, b in ((0.0, 0.5), (1.0, -0.5), (0.5, 0.0)):
            u = np.where(new["g"] == 1.0, 0.2, -0.2)
            etas.append(mu + b * x_std + u)
        expected = 1 / (1 + np.exp(-np.mean(etas, axis=0)))
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_single_sample_pointwise_logistic(self):
        asm, samples = self.make_result()
        new = {"x": np.array([0.25]), "g": np.array([2.0])}
        p = predict(samples[:1], new, assembled=asm)
        x_std = 0.25 / (2.0 / np.sqrt(12.0))
        eta = 0.0 + 0.5 * x_std - 0.2
        assert p[0] == pytest.approx(1 / (1 + np.exp(-eta)), rel=1e-12)

    def test_zero_coefficients_give_logistic_mean_mu(self):
        asm, _ = self.make_result()
        samples = []
        for mu in (0.3, 0.9):
            coeffs = {
                "lin": CoefficientBlock(np.zeros(1), "lin"),
                "ran": CoefficientBlock(np.zeros(2), "ran"),
            }
            samples.append(
                type(
                    "S", (), {"coefficients": coeffs, "mu": mu, "hd": None, "eta": None}
                )()
            )
        p = predict(samples, {"x": np.array([0.1]), "g": np.array([1.0])}, assembled=asm)
        assert p[0] == pytest.approx(1 / (1 + np.exp(-0.6)), rel=1e-12)

    @pytest.mark.parametrize("mask", [
        np.ones(39, dtype=bool),  # one entry short
        np.ones(41, dtype=bool),
        np.arange(5),  # row indices, not a mask
        np.ones(40, dtype=int),
    ], ids=["short", "long", "indices", "integer"])
    def test_mask_must_be_boolean_per_row(self, mask):
        asm, samples = self.make_result()
        data = toy_data(n=40, seed=9)
        with pytest.raises(ValidationError, match="mask"):
            predict(samples, data, assembled=asm, mask=mask)
        p = predict(samples, data, assembled=asm, mask=np.arange(40) < 5)
        assert p.shape == (5,)
        with pytest.raises(ValidationError, match="mask"):  # no Dataset to mask
            predict(samples, data.rows(data.train_mask), assembled=asm, mask=np.arange(40) < 5)

    def test_intercept_only_fit(self):
        # no design blocks, so the rows are counted from the Dataset's mask;
        # every model has its intercept, so a ModelSpec is given nothing else
        # (its tree is derived from the effects)
        assert [f.name for f in dataclasses.fields(ModelSpec) if f.init] == ["effects", "priors"]
        rng = np.random.default_rng(15)
        data = Dataset.from_arrays(y=rng.integers(0, 2, 40), train_mask=np.arange(40) < 30)
        result = fit(ModelSpec(effects=[], priors={}), data,
                     McmcSettings(chains=1, iterations=200, burn_in=100, seed=1))
        p = predict(result, data, mask=~data.train_mask)
        expected = 1.0 / (1.0 + np.exp(-result.mu.mean()))
        np.testing.assert_allclose(p, np.full(10, expected), rtol=1e-15)
        assert predict(result, data).shape == (40,)
        for columns in ({}, {"x": np.zeros(3), "g": np.ones(2)}):
            with pytest.raises(ValidationError, match="one length"):
                predict(result, columns)

    def test_out_of_support_newdata_rejected(self):
        from hdsdm.exceptions import DomainError

        asm, samples = self.make_result()
        with pytest.raises(DomainError):
            predict(samples, {"x": np.array([5.0]), "g": np.array([1.0])}, assembled=asm)


class TestMetrics:
    def test_perfect_predictions(self):
        out = metrics(np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1]))
        assert out["brier"] == 0.0
        assert out["accuracy"] == 1.0
        assert out["loglik"] == pytest.approx(0.0)

    def test_coin_flip_predictions(self):
        out = metrics(np.full(4, 0.5), np.array([1, 0, 1, 0]))
        assert out["brier"] == pytest.approx(0.25)
        assert out["tjur_r2"] == pytest.approx(0.0)

    def test_hand_computed_three_points(self):
        out = metrics(np.array([0.8, 0.4, 0.6]), np.array([1, 0, 1]))
        assert out["brier"] == pytest.approx(0.12)
        assert out["tjur_r2"] == pytest.approx(0.3)
        assert out["accuracy"] == pytest.approx(1.0)
        assert out["loglik"] == pytest.approx(np.log(0.8) + np.log(0.6) + np.log(0.6))

    def test_exact_zero_or_one_on_wrong_class_gives_minus_inf_loglik(self):
        assert metrics(np.array([0.0, 0.2]), np.array([1, 0]))["loglik"] == -np.inf
        assert metrics(np.array([0.8, 1.0]), np.array([1, 0]))["loglik"] == -np.inf

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan, np.inf])
    def test_impossible_p_hat_rejected(self, bad):
        with pytest.raises(ValidationError, match="within"):
            metrics(np.array([bad, 0.2, 0.4]), np.array([1, 0, 0]))

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="single class"):
            metrics(np.array([0.5, 0.6]), np.array([1, 1]))
        with pytest.raises(ValidationError, match="test set is empty"):
            metrics(np.array([]), np.array([]))
