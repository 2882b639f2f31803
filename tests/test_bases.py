"""Basis evaluation, tensor products, pruning and lattice adjacency."""

import warnings

import numpy as np
import pytest

from hdsdm.bases import (
    BSplineBasis1D,
    IndicatorBasis,
    LinearBasis,
    eval_basis,
    lattice_adjacency,
    prune_basis,
    tensor_basis,
)
from hdsdm.exceptions import DimensionError, DomainError, ValidationError


class TestScalarBases:
    def test_indicator_one_hot(self):
        M = eval_basis(IndicatorBasis(2), [1])
        np.testing.assert_allclose(M, [[1.0, 0.0]])

    def test_indicator_rejects_bad_level(self):
        with pytest.raises(DomainError) as err:
            eval_basis(IndicatorBasis(2), [1, 3, 2])
        assert err.value.indices == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300])
    def test_indicator_rejects_non_finite_without_a_cast_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                eval_basis(IndicatorBasis(3), [1.0, bad, 3.0, bad])
        assert err.value.indices == [1, 3]

    def test_linear_centered(self):
        M = eval_basis(LinearBasis(center=0.0, scale=1.0), [0.0])
        np.testing.assert_allclose(M, [[0.0]])

    def test_linear_affine(self):
        M = eval_basis(LinearBasis(center=2.0, scale=4.0), [2.0, 6.0])
        np.testing.assert_allclose(M[:, 0], [0.0, 1.0])


class TestBSpline1D:
    @pytest.mark.parametrize(
        "n_funcs,lower,upper",
        [(20, -1.0, 3.0), (4, 0.0, 1.0), (7, -2.0, -0.5), (12, 5.0, 50.0)],
    )
    def test_partition_of_unity(self, n_funcs, lower, upper):
        spec = BSplineBasis1D(n_funcs=n_funcs, lower=lower, upper=upper)
        x = np.linspace(lower, upper, 1000)
        M = eval_basis(spec, x)
        assert M.shape == (1000, n_funcs)
        np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(M >= 0)

    def test_fewer_than_four_functions_rejected(self):
        with pytest.raises(DimensionError, match="at least 4 functions, got 3"):
            BSplineBasis1D(n_funcs=3, lower=0.0, upper=1.0)

    def test_out_of_support_lists_indices(self):
        spec = BSplineBasis1D(n_funcs=6, lower=0.0, upper=1.0)
        with pytest.raises(DomainError) as err:
            eval_basis(spec, [0.5, 1.5, -0.2])
        assert set(err.value.indices) == {1, 2}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_outside_the_support(self, bad):
        spec = BSplineBasis1D(8, 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                eval_basis(spec, [0.5, bad, 0.2])
        assert err.value.indices == [1]

    def test_local_support(self):
        spec = BSplineBasis1D(n_funcs=12, lower=0.0, upper=1.0)
        M = eval_basis(spec, [0.05])
        # cubic splines: at most 4 nonzero functions per point
        assert np.count_nonzero(M) <= 4


class TestTensorBasis:
    def test_dimensions(self):
        a = BSplineBasis1D(n_funcs=4, lower=0.0, upper=1.0)
        b = BSplineBasis1D(n_funcs=4, lower=0.0, upper=2.0)
        spec = tensor_basis(a, b)
        assert spec.n_funcs == 16
        assert spec.grid_dims == (4, 4)

    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_coordinate_is_outside_the_support(self, column):
        spec = tensor_basis(BSplineBasis1D(5, 0.0, 1.0), BSplineBasis1D(4, 0.0, 1.0))
        x = np.full((4, 2), 0.5)
        x[2, column] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                eval_basis(spec, x)
        assert err.value.indices == [2]

    def test_rejects_non_bspline(self):
        with pytest.raises(ValidationError):
            tensor_basis(LinearBasis(), BSplineBasis1D(n_funcs=4, lower=0, upper=1))

    def test_partition_of_unity(self):
        a = BSplineBasis1D(n_funcs=5, lower=0.0, upper=1.0)
        spec = tensor_basis(a, a)
        pts = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
        M = eval_basis(spec, pts)
        np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-10)

    def test_rows_equal_kronecker_of_univariate_rows(self):
        rng = np.random.default_rng(1)
        a = BSplineBasis1D(n_funcs=5, lower=0.0, upper=1.0)
        b = BSplineBasis1D(n_funcs=6, lower=-2.0, upper=2.0)
        spec = tensor_basis(a, b)
        pts = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(-2, 2, 100)])
        M = eval_basis(spec, pts)
        Ma = eval_basis(a, pts[:, 0])
        Mb = eval_basis(b, pts[:, 1])
        for i in range(100):
            np.testing.assert_allclose(M[i], np.kron(Ma[i], Mb[i]), atol=1e-12)


class TestPruneBasis:
    def make_spec(self):
        a = BSplineBasis1D(n_funcs=6, lower=0.0, upper=1.0)
        return tensor_basis(a, a)

    def test_full_rectangle_keeps_everything(self):
        spec = self.make_spec()
        g = np.linspace(0, 1, 40)
        cloud = np.column_stack([np.repeat(g, 40), np.tile(g, 40)])
        pruned, retained = prune_basis(spec, cloud)
        assert retained.size == 36
        assert pruned.n_funcs == 36

    def test_single_point_matches_bruteforce(self):
        spec = self.make_spec()
        pt = np.array([[0.31, 0.77]])
        pruned, retained = prune_basis(spec, pt)
        full = eval_basis(self.make_spec(), pt)[0]
        np.testing.assert_array_equal(retained, np.flatnonzero(np.abs(full) > 1e-12))

    def test_eval_commutes_with_column_subset(self):
        spec = self.make_spec()
        g = np.linspace(0, 0.4, 15)
        cloud = np.column_stack([np.repeat(g, 15), np.tile(g, 15)])
        pruned, retained = prune_basis(spec, cloud)
        pts = np.random.default_rng(2).uniform(0, 0.4, size=(30, 2))
        np.testing.assert_allclose(
            eval_basis(pruned, pts), eval_basis(spec, pts)[:, retained], atol=0
        )

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValidationError):
            prune_basis(self.make_spec(), np.empty((0, 2)))


class TestLatticeAdjacency:
    def test_full_2x2(self):
        W = lattice_adjacency([0, 1, 2, 3], (2, 2))
        np.testing.assert_allclose(W.sum(axis=1), [2, 2, 2, 2])

    def test_l_shape(self):
        # cells (0,0), (1,0), (1,1) of a 2x2 grid: corner (1,0) has 2 neighbors
        W = lattice_adjacency([0, 2, 3], (2, 2))
        np.testing.assert_allclose(W.sum(axis=1), [1, 2, 1])

    def test_random_subset_symmetric_zero_diag(self):
        rng = np.random.default_rng(3)
        idx = rng.choice(110, size=40, replace=False)
        W = lattice_adjacency(idx, (10, 11))
        np.testing.assert_array_equal(W, W.T)
        np.testing.assert_array_equal(np.diag(W), 0.0)
        assert np.all(np.isin(W, (0.0, 1.0)))

    def test_bad_indices(self):
        with pytest.raises(DimensionError):
            lattice_adjacency([0, 4], (2, 2))
        with pytest.raises(ValidationError):
            lattice_adjacency([1, 1], (2, 2))
