"""Prior densities, calibration solvers, rank condition and KLD distance."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from hdsdm.bases import BSplineBasis1D, eval_basis
from hdsdm.distributions import UniformInterval, UniformLevels
from hdsdm.exceptions import CalibrationError, ValidationError
from hdsdm.gmrf import build_rw2
from hdsdm.mcmc import McmcSettings, fit
from hdsdm.model import Dataset, EffectDecl, ModelSpec
from hdsdm.priors import (
    JEFFREYS_LOG_BOUNDS,
    HDEvaluator,
    PriorSpec,
    dirichlet_q_calibrate,
    kld_distance,
    log_prior,
    log_prior_unconstrained,
    marginal_cdfs,
    pc0_calibrate,
    pc0_cdf,
    pc0_exact_logpdf_numeric,
    pc0_quantile,
    pc0_sample,
    pc0_simplified_logpdf,
    pc_variance_lambda,
    sum_of_ranks_check,
)
from hdsdm.standardize import standardize
from hdsdm.tree import EffectLabel, HDParams, build_default_tree, to_unconstrained, to_variances


class TestPcVarianceLambda:
    def test_paper_rate(self):
        # solve exp(-3 lam) = 0.05
        assert pc_variance_lambda(3.0, 0.05) == pytest.approx(0.99858, abs=1e-4)

    def test_unit_rate(self):
        assert pc_variance_lambda(1.0, np.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_survival_round_trip(self):
        for U, alpha in [(3.0, 0.05), (0.7, 0.2), (10.0, 0.5)]:
            lam = pc_variance_lambda(U, alpha)
            assert np.exp(-lam * U) == pytest.approx(alpha, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            pc_variance_lambda(-1.0, 0.5)
        with pytest.raises(ValidationError):
            pc_variance_lambda(1.0, 1.5)


class TestSimplifiedShrinkagePrior:
    def test_median_at_rate_point_one(self):
        assert pc0_quantile(0.5, 0.1) == pytest.approx(0.238, abs=1e-3)

    def test_cdf_reaches_one(self):
        for lam in (0.01, 0.1, 1.0, 25.0):
            assert pc0_cdf(1.0, lam) == pytest.approx(1.0, rel=1e-14)

    def test_density_integrates_to_one(self):
        for lam in (0.1, 2.0):
            val, err = quad(lambda w: np.exp(pc0_simplified_logpdf(w, lam)), 0.0, 1.0)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_quantile_cdf_inverse(self):
        lam = 0.4
        p = np.linspace(0.001, 0.999, 101)
        np.testing.assert_allclose(pc0_cdf(pc0_quantile(p, lam), lam), p, atol=1e-12)
        w = np.linspace(0.001, 0.999, 101)
        np.testing.assert_allclose(pc0_quantile(pc0_cdf(w, lam), lam), w, atol=1e-10)

    def test_inverse_cdf_sampling_ks(self):
        rng = np.random.default_rng(0)
        lam = 0.7
        draws = pc0_sample(100_000, lam, rng)
        stat = kstest(draws, lambda w: pc0_cdf(w, lam))
        assert stat.pvalue > 0.01

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            pc0_simplified_logpdf(0.0, 0.1)
        with pytest.raises(ValidationError):
            pc0_simplified_logpdf(0.5, -1.0)

    @pytest.mark.parametrize("law", [pc0_simplified_logpdf, pc0_cdf, pc0_quantile])
    def test_zero_rate_rejected(self, law):
        with pytest.raises(ValidationError, match=r"^lam must be positive, got 0\.0$"):
            law(0.5, 0.0)


class TestCalibration:
    def test_matches_stated_median(self):
        # 0.238 is the 3-decimal rounding of the exact median at rate 0.1
        assert pc0_calibrate(0.238, 0.5) == pytest.approx(0.1, abs=5e-3)
        exact_median = float(pc0_quantile(0.5, 0.1))
        assert pc0_calibrate(exact_median, 0.5) == pytest.approx(0.1, abs=1e-6)

    def test_infeasible_below_bound(self):
        with pytest.raises(CalibrationError) as err:
            pc0_calibrate(0.3, 0.5)  # 0.5 < sqrt(0.3)
        assert err.value.bound == pytest.approx(np.sqrt(0.3))

    def test_boundary_median_quarter(self):
        # the median can be at most 0.25, attained only as lam -> 0
        with pytest.raises(CalibrationError):
            pc0_calibrate(0.25, 0.5)
        assert pc0_quantile(0.5, 1e-6) == pytest.approx(0.25, abs=1e-3)

    def test_accepts_feasible_target(self):
        lam = pc0_calibrate(0.2, 0.5)
        assert lam > 0
        assert pc0_cdf(0.2, lam) == pytest.approx(0.5, abs=1e-10)

    def test_small_target_residual(self):
        lam = pc0_calibrate(0.04, 0.5)
        assert abs(pc0_cdf(0.04, lam) - 0.5) <= 1e-10

    def test_round_trip_with_quantile(self):
        lam = 0.8
        U = float(pc0_quantile(0.37, lam))
        assert pc0_calibrate(U, 0.37) == pytest.approx(lam, abs=1e-8)

    def test_priorspec_names_its_node_on_an_infeasible_target(self):
        with pytest.raises(ValidationError, match="^" + re.escape(
                "prior 'sst_flex': infeasible target: alpha=0.1 < sqrt(U)=0.447214; ")):
            PriorSpec("sst_flex", "pc0", {"U": 0.2, "alpha": 0.1})
        with pytest.raises(ValidationError, match="^prior 'sst_flex': boundary target"):
            PriorSpec("sst_flex", "pc0", {"U": 0.25, "alpha": 0.5})
        # the free function keeps its own error and bound
        with pytest.raises(CalibrationError) as err:
            pc0_calibrate(0.2, 0.1)
        assert err.value.bound == pytest.approx(np.sqrt(0.2))

    def test_priorspec_calibrates_from_tail_statement(self):
        spec = PriorSpec("some_flex", "pc0", {"U": 0.2, "alpha": 0.5})
        assert spec.params["lam"] == pytest.approx(pc0_calibrate(0.2, 0.5), abs=1e-9)
        spec_v = PriorSpec("total_variance", "pc", {"U": 3.0, "alpha": 0.05})
        assert spec_v.params["lam"] == pytest.approx(0.99858, abs=1e-4)


class TestDirichletCalibration:
    @pytest.mark.parametrize("P", [2, 6])
    def test_mc_verification(self, P):
        q = dirichlet_q_calibrate(P)
        assert q > 0
        rng = np.random.default_rng(10 + P)
        draws = rng.beta(q, (P - 1) * q, size=1_000_000)

        def logit(x):
            return np.log(x / (1 - x))

        inside = (logit(draws) - logit(1 / P) > logit(0.25)) & (
            logit(draws) - logit(1 / P) < logit(0.75)
        )
        assert inside.mean() == pytest.approx(0.5, abs=0.01)

    def test_all_positive(self):
        for P in range(2, 9):
            assert dirichlet_q_calibrate(P) > 0

    def test_invalid(self):
        with pytest.raises(ValidationError):
            dirichlet_q_calibrate(1)


def linear_vs_nonlinear_instance(k1=5, n=50):
    """Covariances of a linear effect and a trend-free spline on a shared grid.

    Both are normalized to unit spectral norm (the rank condition, the limit
    identity and the induced prior are all scale-free) so that eigenvalue
    classification stays well separated at extreme mixing weights.
    """
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


class TestSumOfRanks:
    def test_linear_vs_nonlinear_via_bounds_and_eigen(self):
        n, k1 = 50, 5
        info = sum_of_ranks_check(K0=1, N0=n, K1=k1, N1=n, N=n)
        assert info.condition_holds and info.method == "upper_bound"
        Sigma0, Sigma1 = linear_vs_nonlinear_instance(k1, n)
        info2 = sum_of_ranks_check(1, n, k1, n, n, Sigma0, Sigma1)
        # bounds were conclusive, so the supplied matrices are not needed;
        # force the eigen path through a deliberately small N budget instead
        assert info2.condition_holds
        from hdsdm.priors import _rank

        assert _rank(Sigma0) == 1
        assert _rank(Sigma1) == k1 - 2
        assert _rank(Sigma0) + _rank(Sigma1) <= n

    def test_linear_mains_vs_interaction(self):
        # two continuous covariates on a 5x5 product grid
        na = nb = 5
        info = sum_of_ranks_check(K0=2, N0=na * nb, K1=1, N1=na * nb, N=na * nb)
        assert info.condition_holds
        xa = np.linspace(-1, 1, na)
        xb = np.linspace(-1, 1, nb)
        XA, XB = np.meshgrid(xa, xb, indexing="ij")
        phi = 0.3
        D0 = np.column_stack(
            [np.sqrt(1 - phi) * XA.ravel(), np.sqrt(phi) * XB.ravel()]
        )
        Sigma0 = D0 @ D0.T
        inter = (XA * XB).ravel()
        Sigma1 = np.outer(inter, inter)
        info2 = sum_of_ranks_check(2, na * nb, 1, na * nb, na * nb, Sigma0, Sigma1)
        assert info2.condition_holds
        from hdsdm.priors import _rank

        assert _rank(Sigma0) + _rank(Sigma1) == 3

    def test_kronecker_interaction_fails_via_actual_ranks(self):
        ka = kb = 4
        na = nb = 3
        N = na * nb
        bounds_only = sum_of_ranks_check(K0=ka + kb, N0=N, K1=ka * kb, N1=N, N=N)
        assert not bounds_only.condition_holds and not bounds_only.conclusive

        rng = np.random.default_rng(4)
        DA = rng.standard_normal((na, ka))
        DB = rng.standard_normal((nb, kb))
        ones_a, ones_b = np.ones((na, 1)), np.ones((nb, 1))
        D0 = np.hstack([np.kron(DA, ones_b), np.kron(ones_a, DB)])
        Sigma0 = D0 @ D0.T
        D1 = np.einsum("ik,jl->ijkl", DA, DB).reshape(N, ka * kb)
        Sigma1 = D1 @ D1.T
        info = sum_of_ranks_check(ka + kb, N, ka * kb, N, N, Sigma0, Sigma1)
        assert info.method == "eigen_count"
        assert not info.condition_holds
        assert info.r0 + info.r1 > N

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            sum_of_ranks_check(0, 1, 1, 1, 1)

    def test_ranks_summing_to_n_hold(self):
        # R(0) + R(1) = N is the boundary of the condition, by bounds and by ranks
        info = sum_of_ranks_check(K0=2, N0=6, K1=3, N1=6, N=5)
        assert info.condition_holds and info.method == "upper_bound"
        rng = np.random.default_rng(0)
        D0, D1 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        info = sum_of_ranks_check(3, 4, 3, 4, 4, D0 @ D0.T, D1 @ D1.T)
        assert info.method == "eigen_count" and (info.r0, info.r1) == (2, 2)
        assert info.condition_holds


class TestKldDistance:
    def test_zero_at_base(self):
        Sigma0 = np.diag([1.0, 0.0, 0.0])
        Sigma1 = np.diag([0.0, 2.0, 3.0])
        assert kld_distance(0.4, 0.4, Sigma0, Sigma1) == pytest.approx(0.0, abs=1e-10)

    def test_disjoint_diagonal_closed_form(self):
        # eigen simplification: contributions (1-w)/(1-w0) and w/w0 per branch rank
        a = np.array([0.8, 1.3])
        b = np.array([0.5, 2.0, 1.1])
        Sigma0 = np.diag(np.r_[a, np.zeros(3), 0.0])
        Sigma1 = np.diag(np.r_[np.zeros(2), b, 0.0])
        w, w0 = 0.7, 0.2
        r0, r1 = 2, 3
        expected_sq = (
            r0 * (1 - w) / (1 - w0)
            + r1 * w / w0
            - (r0 + r1)
            - r0 * np.log((1 - w) / (1 - w0))
            - r1 * np.log(w / w0)
        )
        got = kld_distance(w, w0, Sigma0, Sigma1)
        assert got == pytest.approx(np.sqrt(expected_sq), rel=1e-10)

    def test_limit_matches_rank_scaling(self):
        Sigma0, Sigma1 = linear_vs_nonlinear_instance(k1=5, n=50)
        r1 = 3  # k1 - 2 constraints
        w0 = 1e-6
        for w in (0.1, 0.5, 0.9):
            d = kld_distance(w, w0, Sigma0, Sigma1)
            assert d * d * w0 == pytest.approx(r1 * w, rel=0.01)

    def test_continuity_in_omega(self):
        Sigma0, Sigma1 = linear_vs_nonlinear_instance(k1=5, n=30)
        grid = np.linspace(0.05, 1.0, 60)
        vals = np.array([kld_distance(w, 0.01, Sigma0, Sigma1) for w in grid])
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 5 * np.median(jumps) + 1e-6

    def test_exact_density_matches_simplified_form(self):
        Sigma0, Sigma1 = linear_vs_nonlinear_instance(k1=5, n=50)
        lam = 0.7
        grid = np.linspace(0.05, 0.95, 7)
        exact = pc0_exact_logpdf_numeric(grid, lam, Sigma0, Sigma1)
        simplified = pc0_simplified_logpdf(grid, lam)
        np.testing.assert_allclose(exact, simplified, atol=0.02)

    def test_return_shapes(self):
        # a Python float for one omega, whether given as a scalar or as one entry
        Sigma0, Sigma1 = linear_vs_nonlinear_instance(k1=5, n=30)
        assert type(kld_distance(0.5, 0.01, Sigma0, Sigma1)) is float
        for omega in (0.5, np.array([0.5])):
            assert type(pc0_exact_logpdf_numeric(omega, 0.7, Sigma0, Sigma1)) is float
        for k in (2, 3):
            grid = np.linspace(0.2, 0.8, k)
            assert pc0_exact_logpdf_numeric(grid, 0.7, Sigma0, Sigma1).shape == (k,)

    def test_validation(self):
        S = np.eye(2)
        with pytest.raises(ValidationError):
            kld_distance(0.0, 0.5, S, S)
        with pytest.raises(ValidationError):
            kld_distance(0.5, 0.5, S, np.eye(3))


def two_leaf_tree():
    return build_default_tree(
        [EffectLabel("a", side="abiotic"), EffectLabel("b", side="biotic")]
    )


class TestLogPrior:
    def survey_priors(self, tree):
        priors = {
            "total_variance": PriorSpec("total_variance", "jeffreys"),
            "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
            "covariates": PriorSpec("covariates", "dirichlet", {"q": 0.5}),
            "spatial_vs_temporal": PriorSpec("spatial_vs_temporal", "uniform"),
        }
        for p in range(1, 6):
            priors[f"x{p}_flex"] = PriorSpec(f"x{p}_flex", "pc0", {"lam": 0.1})
        return priors

    def test_uniform_tree_constant_in_omega(self):
        tree = two_leaf_tree()
        priors = {
            "total_variance": PriorSpec("total_variance", "jeffreys"),
            "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        }
        vals = [
            log_prior(
                tree,
                priors,
                HDParams(total=1.0, proportions={"abiotic_vs_biotic": np.array([w, 1 - w])}),
            )
            for w in (0.1, 0.4, 0.9)
        ]
        assert np.ptp(vals) < 1e-12

    def test_survey_prior_set_evaluates(self):
        from test_tree import survey_tree

        tree = survey_tree()
        priors = self.survey_priors(tree)
        props = {
            "abiotic_vs_biotic": np.array([0.6, 0.4]),
            "covariates": np.full(6, 1 / 6),
            "spatial_vs_temporal": np.array([0.5, 0.5]),
        }
        for p in range(1, 6):
            props[f"x{p}_flex"] = np.array([0.8, 0.2])
        val = log_prior(tree, priors, HDParams(total=2.0, proportions=props))
        assert np.isfinite(val)

    def test_missing_prior_rejected(self):
        tree = two_leaf_tree()
        with pytest.raises(ValidationError):
            log_prior(
                tree,
                {"total_variance": PriorSpec("total_variance", "jeffreys")},
                HDParams(total=1.0, proportions={"abiotic_vs_biotic": np.array([0.5, 0.5])}),
            )

    def test_unconstrained_density_integrates_to_one(self):
        # proper priors on a 2-leaf tree; tensor Gauss-Legendre quadrature
        # over a box of the 2 unconstrained coordinates. sqrt(V) = exp(t/2)
        # is Exp(1), so the box leaves out the mass exp(-13) = 2.3e-6 below
        # t = -26 and exp(-e^3) above t = 6; the logit of the Beta(2, 3)
        # proportion has tails below e^-24 beyond |x| = 12. At these 80 x 50
        # = 4,000 nodes the integral has converged to within 1e-7 of its
        # value on the box (checked against 120 x 80 nodes)
        tree = two_leaf_tree()
        priors = {
            "total_variance": PriorSpec("total_variance", "pc", {"lam": 1.0}),
            "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "beta", {"a": 2.0, "b": 3.0}),
        }

        def rule(n, lo, hi):
            nodes, weights = np.polynomial.legendre.leggauss(n)
            return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights

        (t, w_t), (x, w_x) = rule(80, -26.0, 6.0), rule(50, -12.0, 12.0)
        density = np.array([
            [np.exp(log_prior_unconstrained(tree, priors, np.array([a, b]))) for b in x]
            for a in t
        ])
        assert w_t @ density @ w_x == pytest.approx(1.0, abs=1e-5)

    def pc_beta_priors(self, tree):
        """The survey priors with ``pc`` on V and ``beta`` on both binary
        top-level splits."""
        return {
            **self.survey_priors(tree),
            "total_variance": PriorSpec("total_variance", "pc", {"lam": 0.7}),
            "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "beta", {"a": 2.0, "b": 5.0}),
            "spatial_vs_temporal": PriorSpec("spatial_vs_temporal", "beta",
                                             {"a": 0.5, "b": 1.5}),
        }

    def test_compiled_evaluator_matches_slow_path(self):
        from test_tree import survey_tree

        from hdsdm.priors import HDEvaluator
        from hdsdm.tree import from_unconstrained, to_variances

        tree = survey_tree()
        for pc_beta in (False, True):
            priors = self.pc_beta_priors(tree) if pc_beta else self.survey_priors(tree)
            ev = HDEvaluator(tree, priors)
            rng = np.random.default_rng(9)
            for _ in range(50):
                theta = rng.normal(scale=2.0, size=tree.n_coordinates)
                lp_fast, lsig = ev.evaluate(theta)
                lp_slow = log_prior_unconstrained(tree, priors, theta)
                s2_slow = to_variances(tree, from_unconstrained(tree, theta))
                assert lp_fast == pytest.approx(lp_slow, rel=1e-10, abs=1e-10)
                np.testing.assert_allclose(
                    np.exp(2.0 * np.array(lsig)), [s2_slow[l] for l in tree.leaves], rtol=1e-10
                )
            theta = np.zeros(tree.n_coordinates)
            theta[0] = 35.0
            if pc_beta:
                # pc is not truncated: finite both ways
                assert np.isfinite(ev.evaluate(theta)[0])
                assert np.isfinite(log_prior_unconstrained(tree, priors, theta))
                # until exp(t) overflows: a rejection both ways, not an error
                theta[0] = 1500.0
                assert ev.evaluate(theta) == (-np.inf, None)
                assert log_prior_unconstrained(tree, priors, theta) == -np.inf
            else:
                # outside the Jeffreys truncation: -inf both ways
                assert ev.evaluate(theta)[0] == -np.inf
                assert log_prior_unconstrained(tree, priors, theta) == -np.inf
            # exp(t) underflows to V = 0: a rejection both ways, not an error
            theta[0] = -1500.0
            assert ev.evaluate(theta) == (-np.inf, None)
            assert log_prior_unconstrained(tree, priors, theta) == -np.inf

    def test_pc_and_beta_marginals_and_medians_match_scipy(self):
        from scipy.stats import beta, expon
        from test_tree import survey_tree

        from hdsdm.priors import prior_median_theta
        from hdsdm.tree import from_unconstrained

        tree = survey_tree()
        priors = self.pc_beta_priors(tree)
        cdfs = marginal_cdfs(tree, priors)
        median = from_unconstrained(tree, prior_median_theta(tree, priors))
        # pc on V: the standard deviation sqrt(V) is exponential with rate lam
        sd_law = expon(scale=1.0 / 0.7)
        v = np.array([1e-6, 0.01, 0.5, 1.0, 4.0, 30.0])
        np.testing.assert_allclose(cdfs["V"](v), sd_law.cdf(np.sqrt(v)), rtol=1e-12)
        assert median.total == pytest.approx(sd_law.median() ** 2, rel=1e-12)
        w = np.linspace(0.001, 0.999, 41)
        for name, (a, b) in (("abiotic_vs_biotic", (2.0, 5.0)),
                             ("spatial_vs_temporal", (0.5, 1.5))):
            split = next(s for s in tree.splits if s.name == name)
            key = f"{name}:{split.child_names[split.omega_index]}"
            np.testing.assert_allclose(cdfs[key](w), beta(a, b).cdf(w), rtol=1e-12)
            omega = median.proportions[name][split.omega_index]
            assert omega == pytest.approx(beta(a, b).median(), rel=1e-9)

    def test_marginal_cdfs_cover_nodes(self):
        from test_tree import survey_tree

        tree = survey_tree()
        cdfs = marginal_cdfs(tree, self.survey_priors(tree))
        assert "V" in cdfs
        assert "x1_flex:x1_nonlin" in cdfs
        grid = np.linspace(0.01, 0.99, 9)
        for fn in cdfs.values():
            vals = np.asarray(fn(grid))
            assert np.all(np.diff(vals) >= -1e-12)


def three_covariate_tree():
    """Abiotic-vs-biotic split over a 3-child 'covariates' split."""
    return build_default_tree(
        [EffectLabel(e, side="abiotic") for e in ("a", "b", "c")]
        + [EffectLabel("d", side="biotic")]
    )


def three_covariate_priors(**overrides):
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        "covariates": PriorSpec("covariates", "dirichlet", {"q": 0.5}),
    }
    priors.update(overrides)
    return priors


def three_covariate_effects():
    return [
        EffectDecl(x, "linear", x, UniformInterval(-1.0, 1.0), side="abiotic")
        for x in ("a", "b", "c")
    ] + [EffectDecl("d", "iid", "g", UniformLevels(2), side="biotic")]


def three_covariate_fit(priors):
    effects = three_covariate_effects()
    rng = np.random.default_rng(0)
    data = Dataset.from_arrays(
        y=rng.integers(0, 2, 20),
        g=rng.integers(1, 3, 20).astype(float),
        **{x: rng.uniform(-1, 1, 20) for x in ("a", "b", "c")},
    )
    settings = McmcSettings(chains=1, iterations=4, burn_in=2)
    return fit(ModelSpec(effects=effects, priors=priors), data, settings)


class TestPriorValidation:
    def test_dirichlet_q_of_wrong_length_rejected(self):
        tree = three_covariate_tree()
        priors = three_covariate_priors(
            covariates=PriorSpec("covariates", "dirichlet", {"q": [0.5, 0.5]})
        )
        props = {
            "abiotic_vs_biotic": np.array([0.5, 0.5]),
            "covariates": np.full(3, 1 / 3),
        }
        for call in (
            lambda: HDEvaluator(tree, priors),
            lambda: log_prior(tree, priors, HDParams(total=1.0, proportions=props)),
            lambda: marginal_cdfs(tree, priors),
        ):
            with pytest.raises(ValidationError, match="'covariates'.*3 entries"):
                call()

    def test_dirichlet_q_vector_matches_scalar(self):
        tree = three_covariate_tree()
        vector = three_covariate_priors(
            covariates=PriorSpec("covariates", "dirichlet", {"q": [0.5, 0.5, 0.5]})
        )
        theta = np.array([0.3, -0.2, 0.7, -1.1])
        assert HDEvaluator(tree, vector).evaluate(theta)[0] == pytest.approx(
            HDEvaluator(tree, three_covariate_priors()).evaluate(theta)[0], rel=1e-12
        )

    @pytest.mark.parametrize(
        "family, params, missing",
        [
            ("pc", {}, "U"),
            ("pc", {"U": 1.0}, "alpha"),
            ("pc0", {}, "U"),
            ("pc0", {"U": 0.5}, "alpha"),
            ("beta", {"a": 2.0}, "b"),
            ("dirichlet", {}, "q"),
        ],
    )
    def test_missing_family_parameters_rejected(self, family, params, missing):
        with pytest.raises(ValidationError, match=rf"'node7'.*'{missing}'"):
            PriorSpec("node7", family, params)

    @pytest.mark.parametrize(
        "family, params, key",
        [
            ("pc", {"lam": np.nan}, "lam"),
            ("pc", {"lam": np.inf}, "lam"),
            ("pc", {"U": np.nan, "alpha": 0.05}, "lam"),
            ("dirichlet", {"q": np.nan}, "q"),
            ("dirichlet", {"q": [0.5, np.nan]}, "q"),
            ("beta", {"a": np.nan, "b": 2.0}, "a"),
            ("pc0", {"lam": np.inf}, "lam"),
            ("beta", {"a": "two", "b": 2.0}, "a"),
            # lam, a and b are one number each; only q may be a vector
            ("pc", {"lam": [0.7]}, "lam"),
            ("pc0", {"lam": np.array([0.1])}, "lam"),
            ("beta", {"a": [2.0, 3.0], "b": 2.0}, "a"),
            ("beta", {"a": 2.0, "b": "3"}, "b"),
            ("pc", {"lam": True}, "lam"),
            # q is one such number or a vector of them, not text or a bool
            ("dirichlet", {"q": "0.5"}, "q"),
            ("dirichlet", {"q": ["0.5", "2"]}, "q"),
            ("dirichlet", {"q": True}, "q"),
            ("dirichlet", {"q": [True, 2.0]}, "q"),
            ("dirichlet", {"q": np.array([True, True])}, "q"),
            ("dirichlet", {"q": [0.5, 10**400]}, "q"),  # above the largest float
        ],
        ids=["pc_lam_nan", "pc_lam_inf", "pc_U_nan", "dirichlet_q_nan",
             "dirichlet_q_vector_nan", "beta_a_nan", "pc0_lam_inf", "beta_a_text",
             "pc_lam_list", "pc0_lam_array", "beta_a_list", "beta_b_text", "pc_lam_bool",
             "dirichlet_q_text", "dirichlet_q_text_vector", "dirichlet_q_bool",
             "dirichlet_q_bool_in_vector", "dirichlet_q_bool_array", "dirichlet_q_huge"],
    )
    def test_non_finite_parameters_rejected(self, family, params, key):
        with pytest.raises(ValidationError, match=rf"'node7'.*{key} must be finite"):
            PriorSpec("node7", family, params)

    @pytest.mark.parametrize(
        "family, params, key",
        [
            ("pc0", {"U": "0.2", "alpha": 0.5}, "U"),
            ("pc0", {"U": 0.2, "alpha": [0.5]}, "alpha"),
            ("pc", {"U": True, "alpha": 0.05}, "U"),
            ("pc", {"U": 1.0, "alpha": "0.05"}, "alpha"),
        ],
        ids=["pc0_U_text", "pc0_alpha_list", "pc_U_bool", "pc_alpha_text"],
    )
    def test_calibration_targets_checked_before_calibrating(self, family, params, key):
        with pytest.raises(ValidationError, match=rf"'node7': {key} must be one real number"):
            PriorSpec("node7", family, params)

    def test_numpy_scalars_and_a_q_vector_accepted(self):
        PriorSpec("node7", "pc", {"lam": np.float64(0.7)})
        PriorSpec("node7", "beta", {"a": np.int64(2), "b": 3})
        PriorSpec("node7", "dirichlet", {"q": [0.5, 2.0]})
        PriorSpec("node7", "dirichlet", {"q": np.array([0.5, 2.0])})
        PriorSpec("node7", "pc0", {"U": np.float64(0.2), "alpha": 0.5})

    @pytest.mark.parametrize(
        "spec",
        [
            PriorSpec("covariates", "beta", {"a": 2.0, "b": 3.0}),
            PriorSpec("covariates", "pc0", {"lam": 0.1}),
            PriorSpec("total_variance", "dirichlet", {"q": 0.5}),
            PriorSpec("abiotic_vs_biotic", "pc", {"lam": 1.0}),
        ],
        ids=["beta_multi_branch", "pc0_multi_branch", "dirichlet_on_V", "pc_on_split"],
    )
    def test_misplaced_family_rejected_before_sampling(self, spec):
        priors = three_covariate_priors(**{spec.node: spec})
        with pytest.raises(ValidationError, match="not valid|needs a binary split"):
            HDEvaluator(three_covariate_tree(), priors)
        with pytest.raises(ValidationError, match="not valid|needs a binary split"):
            three_covariate_fit(priors)
        with pytest.raises(ValidationError, match="not valid|needs a binary split"):
            ModelSpec(effects=three_covariate_effects(), priors=priors)

    def test_exact_construction_is_not_a_family(self):
        with pytest.raises(ValidationError, match="unknown prior family"):
            PriorSpec("x1_flex", "pc0_exact", {"lam": 0.1})

    def test_prior_keyed_by_another_node_rejected(self):
        # its law would be read under the key and its errors name the wrong node
        priors = three_covariate_priors(
            abiotic_vs_biotic=PriorSpec("not_a_node", "beta", {"a": 2.0, "b": 3.0}))
        with pytest.raises(ValidationError, match="^the prior keyed 'abiotic_vs_biotic' "
                                                  "is for node 'not_a_node'$"):
            ModelSpec(effects=three_covariate_effects(), priors=priors)

    @pytest.mark.parametrize(
        "node, family, params, key",
        [
            ("x1_flex", "uniform", {"q": 0.2}, "q"),
            ("x1_flex", "beta", {"a": 2.0, "b": 3.0, "q": 0.5}, "q"),
            ("total_variance", "jeffreys", {"lam": 1.0}, "lam"),
            ("x1_flex", "pc0", {"lamda": 0.1}, "lamda"),
        ],
        ids=["uniform_q", "beta_q", "jeffreys_lam", "pc0_misspelt_lam"],
    )
    def test_key_the_family_does_not_take_rejected(self, node, family, params, key):
        # each was dropped without a word: a uniform prior with q fitted q = 1
        with pytest.raises(ValidationError,
                           match=rf"^prior '{node}': family '{family}' takes .*'{key}'"):
            PriorSpec(node, family, params)

    @pytest.mark.parametrize("family, U, alpha", [("pc", 3.0, 0.05), ("pc0", 0.2, 0.5)])
    def test_lam_next_to_u_and_alpha_is_their_calibration(self, family, U, alpha):
        spec = PriorSpec("node7", family, {"U": U, "alpha": alpha})
        assert PriorSpec("node7", family, spec.params).params == spec.params
        # a lam that disagrees used to override U and alpha without a word
        with pytest.raises(ValidationError, match=r"^prior 'node7': lam 1\.5 is not .*, the rate"):
            PriorSpec("node7", family, {"U": U, "alpha": alpha, "lam": 1.5})
        with pytest.raises(ValidationError, match=r"'node7'.* is missing \['alpha'\]$"):
            PriorSpec("node7", family, {"U": U, "lam": spec.params["lam"]})

    @pytest.mark.parametrize("reader", [
        to_variances, to_unconstrained, lambda t, p: log_prior(t, three_covariate_priors(), p),
    ], ids=["to_variances", "to_unconstrained", "log_prior"])
    def test_every_proportion_reader_names_a_missing_split(self, reader):
        # each was a bare KeyError
        p = HDParams(total=1.0, proportions={"abiotic_vs_biotic": [0.5, 0.5]})
        with pytest.raises(ValidationError, match="^split 'covariates': no proportions given$"):
            reader(three_covariate_tree(), p)

    def test_log_prior_checks_the_count_of_proportions(self):
        # two proportions for the 3-way split were a bare broadcasting ValueError
        p = HDParams(total=1.0, proportions={"abiotic_vs_biotic": [0.5, 0.5],
                                             "covariates": [0.5, 0.5]})
        with pytest.raises(ValidationError,
                           match=r"^split 'covariates': \[0\.5 0\.5\] are not 3 proportions$"):
            log_prior(three_covariate_tree(), three_covariate_priors(), p)

    @pytest.mark.parametrize("theta", [np.zeros(3), [0.0] * 5, np.zeros((1, 4))],
                             ids=["short", "long_list", "one_row_2d"])
    def test_evaluate_at_theta_of_another_length(self, theta):
        # a bare unpacking ValueError before; the evaluator's tree has d = 4
        evaluator = HDEvaluator(three_covariate_tree(), three_covariate_priors())
        with pytest.raises(ValidationError, match="^expected rows of 4 coordinates, got shape"):
            evaluator.evaluate(theta)


# what each family may be given, as the README states it
FAMILY_KEYS = {"jeffreys": set(), "pc": {"lam", "U", "alpha"}, "uniform": set(),
               "beta": {"a", "b"}, "dirichlet": {"q"}, "pc0": {"lam", "U", "alpha"}}
PARAM_VALUES = st.one_of(
    st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 10**400), st.booleans(), st.text(max_size=3), st.none(),
    st.lists(st.floats(0.1, 5.0), max_size=3),
)


class TestPriorSpecProperty:
    @hyp_settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(sorted(FAMILY_KEYS)),
           params=st.dictionaries(st.sampled_from(["lam", "U", "alpha", "q", "a", "b", "stray"]),
                                  PARAM_VALUES))
    def test_a_spec_builds_or_is_a_validation_error(self, family, params):
        try:
            spec = PriorSpec("node7", family, params)
        except CalibrationError:  # an infeasible pc0 target, with its bound
            return
        except ValidationError as err:
            assert "'node7'" in str(err)
            return
        assert set(spec.params) <= FAMILY_KEYS[family]
        rebuilt = PriorSpec(spec.node, spec.family, spec.params)
        assert rebuilt.params.keys() == spec.params.keys()
        assert rebuilt.params.get("lam") == spec.params.get("lam")


@st.composite
def trees_and_priors(draw, with_labels=False, roles=("main", "main", "interaction")):
    """A default tree of 1-7 effects with random sides, roles (drawn from
    ``roles``) and groups, and a random family with random parameters on each
    node; with the effects' labels last when ``with_labels`` is set."""
    labels = []
    for i in range(draw(st.integers(1, 7))):
        side = draw(st.sampled_from(["abiotic", "biotic"]))
        role = draw(st.sampled_from(roles))
        group = draw(st.sampled_from([None, f"{side}_{role}_1", f"{side}_{role}_2"]))
        labels.append(EffectLabel(f"e{i}", side, role=role, group=group))
    tree = build_default_tree(labels)
    positive = st.floats(0.2, 5.0)
    if draw(st.booleans()):
        priors = {"total_variance": PriorSpec("total_variance", "jeffreys")}
    else:
        priors = {"total_variance": PriorSpec("total_variance", "pc", {"lam": draw(positive)})}
    for s in tree.splits:
        families = ["uniform", "dirichlet", "dirichlet vector"]
        family = draw(st.sampled_from(families + (["beta", "pc0"] if s.is_binary else [])))
        if family == "uniform":
            spec = PriorSpec(s.name, "uniform")
        elif family == "dirichlet":
            spec = PriorSpec(s.name, "dirichlet", {"q": draw(positive)})
        elif family == "dirichlet vector":
            q = draw(st.lists(positive, min_size=s.n_children, max_size=s.n_children))
            spec = PriorSpec(s.name, "dirichlet", {"q": q})
        elif family == "beta":
            spec = PriorSpec(s.name, "beta", {"a": draw(positive), "b": draw(positive)})
        else:
            spec = PriorSpec(s.name, "pc0", {"lam": draw(positive)})
        priors[s.name] = spec
    return (tree, priors, labels) if with_labels else (tree, priors)


def unclamped_log_prior(tree, priors, theta):
    """(log prior incl. Jacobian, log sigma per leaf) with log-softmax
    proportions that are never clamped: the oracle beyond the floor."""
    from scipy.special import betaln, gammaln, log_softmax

    t = theta[0]
    spec = priors["total_variance"]
    if spec.family == "jeffreys":
        lo, hi = JEFFREYS_LOG_BOUNDS
        lp = -np.log(hi - lo) if lo <= t <= hi else -np.inf
    else:  # density lam / (2 sqrt(V)) exp(-lam sqrt(V)), times dV/dt = V
        lam = spec.params["lam"]
        lp = np.log(lam / 2.0) + 0.5 * t - lam * np.exp(0.5 * t)
    log_var = dict.fromkeys(tree.leaves, t)
    pos = 1
    for s in tree.splits:
        spec = priors[s.name]
        if s.is_binary:
            x = theta[pos]
            logs = np.empty(2)
            logs[s.omega_index] = -np.logaddexp(0.0, -x)
            logs[1 - s.omega_index] = -np.logaddexp(0.0, x)
            pos += 1
        else:
            logs = log_softmax(np.append(theta[pos : pos + s.n_children - 1], 0.0))
            pos += s.n_children - 1
        lp += logs.sum()  # the Jacobian of the logit or the additive log-ratio
        log_w = logs[s.omega_index]
        if spec.family in ("uniform", "dirichlet"):
            conc = np.ones(s.n_children) * spec.params.get("q", 1.0)
            lp += gammaln(conc.sum()) - gammaln(conc).sum() + ((conc - 1.0) * logs).sum()
        elif spec.family == "beta":
            a, b = spec.params["a"], spec.params["b"]
            lp += -betaln(a, b) + (a - 1.0) * log_w + (b - 1.0) * logs[1 - s.omega_index]
        else:  # pc0: lam / (2 sqrt(w)) exp(-lam sqrt(w)) / (1 - exp(-lam))
            lam = spec.params["lam"]
            lp += (np.log(lam / 2.0) - 0.5 * log_w - lam * np.exp(0.5 * log_w)
                   - np.log(-np.expm1(-lam)))
        for child_log, leaves in zip(logs, s.child_leaves):
            for leaf in leaves:
                log_var[leaf] += child_log
    return lp, [0.5 * log_var[leaf] for leaf in tree.leaves]


class TestEvaluatorProperty:
    """HDEvaluator on random trees and prior families: where every proportion
    is above the floor it agrees with log_prior_unconstrained and
    to_variances; beyond it, with the unclamped log-softmax density."""

    @staticmethod
    def coordinates(data, tree, priors, split_bound):
        t_bound = 29.0 if priors["total_variance"].family == "jeffreys" else 20.0
        coords = st.floats(-split_bound, split_bound)
        return np.array([data.draw(st.floats(-t_bound, t_bound))] + data.draw(
            st.lists(coords, min_size=tree.n_coordinates - 1, max_size=tree.n_coordinates - 1)
        ))

    @hyp_settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(model=trees_and_priors(), data=st.data())
    def test_matches_the_reference_above_the_floor(self, model, data):
        from hdsdm.tree import from_unconstrained, to_variances

        tree, priors = model
        # |coordinate| <= 12 keeps every proportion above 6e-12 > PROPORTION_FLOOR,
        # and far enough from 1 that the reference's 1 - w is accurate
        theta = self.coordinates(data, tree, priors, 12.0)
        lp, lsig = HDEvaluator(tree, priors).evaluate(theta)
        assert lp == pytest.approx(log_prior_unconstrained(tree, priors, theta),
                                   rel=1e-9, abs=1e-9)
        s2 = to_variances(tree, from_unconstrained(tree, theta))
        np.testing.assert_allclose(lsig, [0.5 * np.log(s2[l]) for l in tree.leaves],
                                   rtol=1e-9, atol=1e-9)

    @hyp_settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(model=trees_and_priors(), data=st.data())
    def test_matches_the_unclamped_density_beyond_the_floor(self, model, data):
        tree, priors = model
        theta = self.coordinates(data, tree, priors, 800.0)
        lp, lsig = HDEvaluator(tree, priors).evaluate(theta)
        want_lp, want_lsig = unclamped_log_prior(tree, priors, theta)
        assert lp == pytest.approx(want_lp, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(lsig, want_lsig, rtol=1e-9, atol=1e-9)

    def test_the_reference_clamps_where_the_evaluator_does_not(self):
        from test_tree import survey_tree

        tree = survey_tree()
        priors = TestLogPrior().survey_priors(tree)
        theta = np.zeros(tree.n_coordinates)
        theta[2] = 800.0  # the first coordinate of the 'covariates' split
        lp = HDEvaluator(tree, priors).evaluate(theta)[0]
        assert lp == pytest.approx(unclamped_log_prior(tree, priors, theta)[0], rel=1e-12)
        assert lp < -2000.0 < -100.0 < log_prior_unconstrained(tree, priors, theta)


class TestCompiledEvaluator:
    """HDEvaluator compiles one straight-line function per tree, and the
    chains call it through the method on the class."""

    def test_a_list_and_an_array_give_the_same_values(self):
        from test_tree import survey_tree

        tree = survey_tree()
        for priors in (TestLogPrior().survey_priors(tree), TestLogPrior().pc_beta_priors(tree)):
            ev = HDEvaluator(tree, priors)
            rng = np.random.default_rng(4)
            for _ in range(20):
                theta = rng.normal(scale=3.0, size=tree.n_coordinates)
                assert ev.evaluate(theta) == ev.evaluate(theta.tolist())

    @pytest.mark.parametrize("spec", [
        PriorSpec("total_variance", "jeffreys"),
        PriorSpec("total_variance", "pc", {"lam": 0.7}),
    ], ids=["jeffreys", "pc"])
    def test_one_leaf_without_splits(self, spec):
        tree = build_default_tree([EffectLabel("e0", "abiotic")])
        assert tree.splits == ()
        ev = HDEvaluator(tree, [spec])
        assert "return lp, [0.5 * t]" in ev.source
        for t0 in (-3.0, 0.0, 0.4, 12.5):
            lp, lsig = ev.evaluate(np.array([t0]))
            assert lsig == [0.5 * t0]
            assert lp == pytest.approx(log_prior_unconstrained(tree, [spec], np.array([t0])),
                                       rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("rows", [True, False], ids=["rows", "no_rows"])
    def test_a_chain_calls_the_method_twice_per_iteration(self, monkeypatch, rows):
        # the benchmark traces HDEvaluator.evaluate on the class: a chain that
        # called the compiled function around the method would go uncounted
        from test_mcmc import toy_data, toy_model

        calls = []
        method = HDEvaluator.evaluate

        def counting(self, theta):
            calls.append(None)
            return method(self, theta)

        monkeypatch.setattr(HDEvaluator, "evaluate", counting)
        settings = McmcSettings(chains=1, iterations=150, burn_in=50, seed=3)
        if rows:
            fit(toy_model(), toy_data(n=40), settings)
        else:
            fit(toy_model(), None, settings, likelihood_weight=0.0)
        assert len(calls) == 2 * settings.iterations + 1


class TestStartAndMarginalsProperty:
    """prior_median_theta and marginal_cdfs on random trees and prior
    families, against the law of each node as its PriorSpec states it."""

    @hyp_settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(model=trees_and_priors())
    def test_the_start_is_the_median_of_each_node_law(self, model):
        from scipy.stats import beta

        from hdsdm.priors import prior_median_theta
        from hdsdm.tree import from_unconstrained

        tree, priors = model
        cdfs = marginal_cdfs(tree, priors)
        start = from_unconstrained(tree, prior_median_theta(tree, priors))
        assert cdfs["V"](start.total) == pytest.approx(0.5, abs=1e-9)
        grid = np.linspace(0.005, 0.995, 25)
        for s in tree.splits:
            spec = priors[s.name]
            designated = s.child_names[s.omega_index]
            if spec.family == "pc0":
                laws = {designated: lambda w, lam=spec.params["lam"]: pc0_cdf(w, lam)}
            else:
                if spec.family == "beta":
                    q = np.empty(2)
                    q[s.omega_index], q[1 - s.omega_index] = spec.params["a"], spec.params["b"]
                elif spec.family == "dirichlet":
                    q = np.ones(s.n_children) * spec.params["q"]
                else:  # uniform
                    q = np.ones(s.n_children)
                laws = {child: beta(q[i], q.sum() - q[i]).cdf
                        for i, child in enumerate(s.child_names)}
            for child, cdf in laws.items():
                np.testing.assert_allclose(cdfs[f"{s.name}:{child}"](grid), cdf(grid),
                                           rtol=1e-9, atol=1e-12)
            if s.is_binary:
                omega = start.proportions[s.name][s.omega_index]
                assert cdfs[f"{s.name}:{designated}"](omega) == pytest.approx(0.5, abs=1e-9)


class TestLayoutProperty:
    """The tree lays out theta and the natural row once: each split's
    ``coords`` and ``columns`` tile them in preorder, and ``in_child_order``
    is the one swap of a binary split's children."""

    @hyp_settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(model=trees_and_priors(), data=st.data())
    def test_splits_tile_theta_and_the_natural_row(self, model, data):
        from hdsdm.tree import from_unconstrained, natural_columns, natural_values

        tree, _ = model
        coords, columns = [], []
        for s in tree.splits:
            assert s.coords.step is None and s.columns.step is None
            assert s.coords.stop - s.coords.start == s.n_children - 1
            assert s.columns.stop - s.columns.start == (1 if s.is_binary else s.n_children)
            coords += range(s.coords.start, s.coords.stop)
            columns += range(s.columns.start, s.columns.stop)
            # the columns are the split's own, named after it
            for name, key in natural_columns(tree)[s.columns]:
                assert name.startswith(f"omega_{s.name}")
                assert key.partition(":")[0] == s.name
        d, p = tree.n_coordinates, len(natural_columns(tree))
        assert coords == list(range(1, d))
        assert columns == list(range(1, p))
        assert (tree.n_coordinates, tree.n_columns) == (d, p)

        theta = np.array(data.draw(st.lists(st.floats(-12.0, 12.0), min_size=d, max_size=d)))
        row = natural_values(tree, theta[None])[0]
        hd = from_unconstrained(tree, theta)
        for s in tree.splits:
            if s.is_binary:
                w = row[s.columns][0]
                np.testing.assert_array_equal(hd.proportions[s.name],
                                              s.in_child_order(w, 1.0 - w))
                assert hd.proportions[s.name][s.omega_index] == w
            else:
                np.testing.assert_array_equal(hd.proportions[s.name], row[s.columns])
