"""Zero-mean constraints, reference variances and the P-spline split."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from hdsdm.bases import BSplineBasis1D, IndicatorBasis, LinearBasis, eval_basis
from hdsdm.bases import lattice_adjacency, prune_basis, tensor_basis
from hdsdm.distributions import PointCloud, UniformInterval, UniformLevels
from hdsdm.exceptions import DegenerateEffectError, ValidationError
from hdsdm.gmrf import build_icar, build_iid, build_rw1, build_rw2
from hdsdm.model import EffectDecl, build_effects
from hdsdm.standardize import (
    reference_variance,
    split_pspline,
    standardize,
    zero_mean_constraint,
)


class TestZeroMeanConstraint:
    def test_indicator_uniform_levels(self):
        d = zero_mean_constraint(IndicatorBasis(3), UniformLevels(3))
        np.testing.assert_allclose(d, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_centered_linear_needs_no_constraint(self):
        dist = UniformInterval(-2.0, 6.0)
        d = zero_mean_constraint(LinearBasis(center=dist.mean(), scale=dist.sd()), dist)
        assert np.linalg.norm(d) < 1e-12

    def test_bspline_constraint_kills_quadrature_mean(self):
        dist = UniformInterval(0.0, 1.0)
        basis = BSplineBasis1D(n_funcs=20, lower=0.0, upper=1.0)
        effect = standardize(basis, build_rw2(20), dist, "f",
                             extra_constraints=[_linear_trend(basis, dist)])
        rng = np.random.default_rng(0)
        G = eval_basis(basis, dist.grid())
        for _ in range(20):
            u = effect.sample_coefficients(1.0, rng).values
            assert abs((G @ u).mean()) < 1e-10


def _linear_trend(basis, dist):
    grid = dist.grid()
    x_std = (grid - dist.mean()) / dist.sd()
    return (x_std[:, None] * eval_basis(basis, grid)).mean(axis=0)


class TestReferenceVariance:
    def test_unit_variance_linear(self):
        # discrete uniform: the grid variance equals the analytic variance,
        # so a pre-standardized covariate with a unit-precision coefficient
        # contributes exactly 1
        dist = UniformLevels(5)
        basis = LinearBasis(center=dist.mean(), scale=dist.sd())
        c2 = reference_variance(basis, build_iid(1), None, dist)
        assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_iid_two_levels_half(self):
        dist = UniformLevels(2)
        c2 = reference_variance(IndicatorBasis(2), build_iid(2), np.ones((2, 1)), dist)
        assert c2 == pytest.approx(0.5, abs=1e-12)

    def test_iid_two_levels_against_mc(self, mc_variance):
        dist = UniformLevels(2)
        effect = standardize(IndicatorBasis(2), build_iid(2), dist, "vessel")
        assert effect.scale_constant == pytest.approx(np.sqrt(0.5), abs=1e-12)
        var = mc_variance(effect, 1.0, 200_000, np.random.default_rng(1))
        assert var == pytest.approx(1.0, abs=0.02)

    def test_pspline_matches_mc(self, mc_variance):
        dist = UniformInterval(0.0, 1.0)
        basis = BSplineBasis1D(n_funcs=20, lower=0.0, upper=1.0)
        effect = standardize(
            basis, build_rw2(20), dist, "f", extra_constraints=[_linear_trend(basis, dist)]
        )
        var = mc_variance(effect, 1.0, 400_000, np.random.default_rng(2))
        assert var == pytest.approx(1.0, abs=0.02)

    def test_degenerate_effect_rejected(self):
        dist = UniformLevels(2)
        # a linear basis that is identically zero on the support
        with pytest.raises(DegenerateEffectError):
            zero = LinearBasis(center=0.0, scale=1.0)
            reference_variance(
                zero, build_iid(1), None, UniformInterval(-1e-9, 1e-9, n_grid=3)
            )


class TestStandardize:
    def test_already_standard_linear_unchanged(self):
        dist = UniformLevels(9)
        effect = standardize(
            LinearBasis(center=dist.mean(), scale=dist.sd()), build_iid(1), dist, "lin"
        )
        assert effect.scale_constant == pytest.approx(1.0, abs=1e-12)
        assert effect.constraints is None

    def test_linear_scale_invariant_to_support(self):
        # the reference scaling acts on the standardized covariate, so
        # stretching or shifting the support leaves C unchanged
        effects = []
        for lo, hi in ((0.0, 1.0), (-5.0, 23.0), (100.0, 100.5)):
            dist = UniformInterval(lo, hi)
            effects.append(
                standardize(
                    LinearBasis(center=dist.mean(), scale=dist.sd()),
                    build_iid(1), dist, "lin",
                )
            )
        c0 = effects[0].scale_constant
        for e in effects[1:]:
            assert e.scale_constant == pytest.approx(c0, rel=1e-12)

    def test_temporal_rw1(self, mc_variance):
        dist = UniformLevels(20)
        effect = standardize(IndicatorBasis(20), build_rw1(20), dist, "temporal")
        var = mc_variance(effect, 1.0, 400_000, np.random.default_rng(3))
        assert var == pytest.approx(1.0, abs=0.02)

    def test_spatial_pruned_lattice_zero_mean(self):
        effect = make_spatial_effect(6)
        rng = np.random.default_rng(4)
        G = effect.quadrature_design()
        for _ in range(20):
            u = effect.sample_coefficients(1.0, rng).values
            assert abs((G @ u).mean()) < 1e-8

    def test_spatial_variance_contract(self, mc_variance):
        effect = make_spatial_effect(6)
        var = mc_variance(effect, 1.0, 400_000, np.random.default_rng(5))
        assert var == pytest.approx(1.0, abs=0.02)


def make_spatial_effect(n_funcs):
    """Tensor spline over an L-shaped cloud with ICAR precision on retained cells."""
    one_d = BSplineBasis1D(n_funcs=n_funcs, lower=0.0, upper=1.0)
    spec = tensor_basis(one_d, one_d)
    g = np.linspace(0, 1, 30)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    keep = ~((xx > 0.5) & (yy > 0.5))
    cloud = np.column_stack([xx[keep], yy[keep]])
    pruned, retained = prune_basis(spec, cloud)
    W = lattice_adjacency(retained, spec.grid_dims)
    return standardize(pruned, build_icar(W), PointCloud(cloud), "spatial")


class TestCenteredBasis:
    def test_linear_effect_far_from_zero_keeps_its_coefficient(self):
        # on [32, 32.01] the grid mean of the standardized covariate is about
        # 1e-12 from rounding alone; a zero-mean constraint would pin u = 0
        decl = EffectDecl("x", "linear", "x", UniformInterval(32.0, 32.01))
        (effect,) = build_effects(decl)
        assert effect.constraints is None
        assert effect.free_dim == 1


class TestSplitPspline:
    def setup_method(self):
        self.dist = UniformInterval(-1.0, 2.0)
        self.basis = BSplineBasis1D(n_funcs=20, lower=-1.0, upper=2.0)
        self.linear, self.nonlinear = split_pspline(self.basis, self.dist, "x1")

    def test_ids(self):
        assert self.linear.effect_id == "x1_lin"
        assert self.nonlinear.effect_id == "x1_nonlin"

    def test_components_uncorrelated_per_draw(self):
        rng = np.random.default_rng(6)
        grid = self.dist.grid()
        x_std = (grid - self.dist.mean()) / self.dist.sd()
        G = self.nonlinear.design(grid)
        for _ in range(50):
            f_n = G @ self.nonlinear.sample_coefficients(1.0, rng).values
            cov = np.mean(x_std * f_n) - x_std.mean() * f_n.mean()
            assert abs(cov) < 1e-8

    def test_both_scaled_to_unit_contribution(self, mc_variance):
        for effect in (self.linear, self.nonlinear):
            var = mc_variance(effect, 1.0, 300_000, np.random.default_rng(7))
            assert var == pytest.approx(1.0, abs=0.02)

    def test_combined_variance_additive(self):
        # orthogonality makes variances add: estimate Var[f_L + f_N] by MC
        rng = np.random.default_rng(8)
        s2l, s2n = 0.7, 0.4
        grid = self.dist.grid()
        GL = self.linear.design(grid)
        GN = self.nonlinear.design(grid)
        n = 200_000
        q = grid.size
        ix = rng.integers(0, q, size=n)
        zl = rng.standard_normal((n, self.linear.free_dim))
        zn = rng.standard_normal((n, self.nonlinear.free_dim))
        TL = self.linear.whitening_transform() * np.sqrt(s2l)
        TN = self.nonlinear.whitening_transform() * np.sqrt(s2n)
        f = np.einsum("ij,ij->i", (GL @ TL)[ix], zl) + np.einsum(
            "ij,ij->i", (GN @ TN)[ix], zn
        )
        assert f.var() == pytest.approx(s2l + s2n, rel=0.02)

    def test_rejects_wrong_basis(self):
        with pytest.raises(ValidationError):
            split_pspline(LinearBasis(), self.dist, "x")


class TestContractProperty:
    """The standardization contract of the library's effects on random
    interval supports and basis sizes: zero quadrature mean, a unit
    variance contribution at unit scale, and orthogonal P-spline parts."""

    @hyp_settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_supports_and_sizes(self, data):
        kind = data.draw(st.sampled_from(["pspline", "iid", "rw1"]))
        if kind == "pspline":
            lower = data.draw(st.floats(-1e3, 1e3))
            upper = lower + data.draw(st.floats(1e-2, 1e3))
            decl = EffectDecl("x", kind, "x", UniformInterval(lower, upper),
                              n_basis=data.draw(st.integers(4, 30)))
        else:
            decl = EffectDecl("x", kind, "x", UniformLevels(data.draw(st.integers(2, 30))))
        effects = build_effects(decl)
        H = [e.quadrature_design() @ e.whitening_transform() for e in effects]
        for h in H:
            np.testing.assert_allclose(h.mean(axis=0), 0.0, rtol=0, atol=1e-10)
            assert np.mean(np.sum(h * h, axis=1)) == pytest.approx(1.0, rel=0, abs=1e-10)
        if kind == "pspline":
            lin, nonlin = H
            np.testing.assert_allclose(lin.T @ nonlin / lin.shape[0], 0.0, rtol=0, atol=1e-10)
