"""Precision builders and the constrained Gaussian law: its covariance, density
and draws, checked against pseudo-inverse and kriging-conditional oracles."""

import numpy as np
import pytest

from hdsdm.exceptions import ConstraintError, DimensionError, ValidationError
from hdsdm.gmrf import (
    build_icar,
    build_iid,
    build_rw1,
    build_rw2,
    constrained_gaussian,
)


def grid_adjacency(n):
    """Independent 4-neighborhood adjacency for an n x n grid."""
    W = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            k = i * n + j
            if i + 1 < n:
                W[k, k + n] = W[k + n, k] = 1
            if j + 1 < n:
                W[k, k + 1] = W[k + 1, k] = 1
    return W


class TestBuilders:
    def test_rw1_k3_exact(self):
        Q = build_rw1(3).Q
        np.testing.assert_allclose(Q, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]], atol=1e-14)

    def test_rw1_k2(self):
        P = build_rw1(2)
        np.testing.assert_allclose(P.Q, [[1, -1], [-1, 1]], atol=1e-14)
        assert P.rank == 1

    def test_rw1_k10_rank_and_null(self):
        P = build_rw1(10)
        # eigen-count oracle, independent of the classification in the package
        lam = np.linalg.eigvalsh(P.Q)
        assert np.sum(lam > 1e-9 * lam.max()) == 9
        assert P.rank == 9
        np.testing.assert_allclose(P.Q @ np.ones(10), 0.0, atol=1e-12)

    def test_rw1_dimension_error(self):
        with pytest.raises(DimensionError):
            build_rw1(1)

    def test_rw2_k4_exact(self):
        D2 = np.array([[1.0, -2.0, 1.0, 0.0], [0.0, 1.0, -2.0, 1.0]])
        np.testing.assert_allclose(build_rw2(4).Q, D2.T @ D2, atol=1e-14)

    def test_rw2_k20_rank(self):
        P = build_rw2(20)
        lam = np.linalg.eigvalsh(P.Q)
        assert np.sum(lam > 1e-9 * lam.max()) == 18
        assert P.rank == 18

    @pytest.mark.parametrize("K", [3, 7, 20])
    def test_rw2_null_vectors(self, K):
        P = build_rw2(K)
        np.testing.assert_allclose(P.Q @ np.ones(K), 0.0, atol=1e-10)
        np.testing.assert_allclose(P.Q @ np.arange(1.0, K + 1), 0.0, atol=1e-9)

    def test_rw2_dimension_error(self):
        with pytest.raises(DimensionError):
            build_rw2(2)

    def test_icar_path_equals_rw1(self):
        W = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(build_icar(W).Q, build_rw1(3).Q, atol=1e-14)

    def test_icar_disconnected(self):
        P = build_icar(np.zeros((2, 2)))
        np.testing.assert_allclose(P.Q, 0.0)
        assert P.null_dim == 2 and P.rank == 0

    def test_icar_grid_rank(self):
        P = build_icar(grid_adjacency(4))
        lam = np.linalg.eigvalsh(P.Q)
        assert np.sum(lam > 1e-9 * lam.max()) == 15
        assert P.rank == 15

    def test_icar_validation(self):
        with pytest.raises(ValidationError):
            build_icar(np.array([[0, 1], [0, 0]], dtype=float))  # asymmetric
        with pytest.raises(ValidationError):
            build_icar(np.array([[0, 2], [2, 0]], dtype=float))  # non-binary

    def test_iid(self):
        np.testing.assert_allclose(build_iid(2).Q, np.eye(2))
        np.testing.assert_allclose(build_iid(1).Q, [[1.0]])
        assert build_iid(7).rank == 7
        with pytest.raises(DimensionError):
            build_iid(0)

    @pytest.mark.parametrize(
        "factory", [lambda: build_rw1(8), lambda: build_rw2(9), lambda: build_iid(5),
                    lambda: build_icar(grid_adjacency(3))]
    )
    def test_null_space_annihilated(self, factory):
        P = factory()
        lam_max = np.linalg.eigvalsh(P.Q).max() if P.rank else 1.0
        if P.null_dim:
            assert np.abs(P.Q @ P.nullspace).max() <= 1e-9 * max(lam_max, 1.0)
        assert P.rank + P.null_dim == P.dim


def kriging_conditional(P, A):
    """Covariance of N(0, Q+) conditioned on A'u = 0, by the kriging formula."""
    Sigma = np.linalg.pinv(P.Q)
    SA = Sigma @ A
    return Sigma - SA @ np.linalg.pinv(A.T @ SA) @ SA.T


class TestSampleConstrained:
    def test_nullspace_constraint_gives_zero_sum(self):
        rng = np.random.default_rng(1)
        P = build_rw1(6)
        for _ in range(50):
            u = constrained_gaussian(P, P.nullspace).sample(1.0, rng)
            assert abs(u.sum()) < 1e-10

    def test_iid_sum_to_zero_variance(self):
        # analytic conditional-Gaussian oracle: u2 = -u1, Var(u1) = sigma2 / 2
        rng = np.random.default_rng(2)
        P = build_iid(2)
        A = np.ones((2, 1))
        law = constrained_gaussian(P, A)
        draws = np.array([law.sample(4.0, rng) for _ in range(20000)])
        np.testing.assert_allclose(draws[:, 0], -draws[:, 1], atol=1e-10)
        assert draws[:, 0].var() == pytest.approx(2.0, rel=0.05)

    def test_empirical_covariance_matches_conditional(self):
        # analytic conditional covariance derived independently in-test,
        # compared against draws from the operation itself
        rng = np.random.default_rng(3)
        P = build_rw1(5)
        A = np.column_stack([np.ones(5), np.array([1.0, 0.0, -1.0, 0.0, 0.0])])
        target = kriging_conditional(P, A)
        n = 60_000
        law = constrained_gaussian(P, A)
        draws = np.array([law.sample(1.0, rng) for _ in range(n)])
        emp = np.cov(draws.T, bias=True)
        scale = np.abs(np.diag(target)).max()
        assert np.abs(emp - target).max() < 0.02 * scale

    def test_covariance_equals_kriging_conditional(self):
        # restricting N(0, Q+) to A'u = 0 equals conditioning it on A'u = 0
        P = build_rw1(5)
        A = np.column_stack([np.ones(5), np.array([1.0, 0.0, -1.0, 0.0, 0.0])])
        law = constrained_gaussian(P, A)
        np.testing.assert_allclose(law.covariance(), kriging_conditional(P, A), atol=1e-10)


class TestConstrainedGaussian:
    def test_reduces_to_pinv_when_constraint_spans_null(self):
        P = build_rw1(6)
        law = constrained_gaussian(P, np.ones((6, 1)))
        np.testing.assert_allclose(law.covariance(), np.linalg.pinv(P.Q), atol=1e-10)

    def test_full_rank_no_constraints(self):
        P = build_iid(3)
        law = constrained_gaussian(P, None)
        np.testing.assert_allclose(law.covariance(), np.eye(3), atol=1e-12)

    def test_unpinned_null_space_rejected(self):
        P = build_rw2(6)  # 2-dim null space, one constraint cannot pin it
        with pytest.raises(ConstraintError):
            constrained_gaussian(P, np.ones((6, 1)))

    def test_logpdf_matches_scipy_on_full_rank(self):
        from scipy.stats import multivariate_normal

        P = build_iid(3)
        law = constrained_gaussian(P, None)
        u = np.array([0.3, -1.2, 0.5])
        expected = multivariate_normal(cov=2.0 * np.eye(3)).logpdf(u)
        assert law.logpdf(u, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_sample_satisfies_constraints(self):
        rng = np.random.default_rng(7)
        P = build_rw1(8)
        d = rng.uniform(0.5, 1.5, size=8)  # generic positive constraint
        law = constrained_gaussian(P, d[:, None])
        for _ in range(20):
            u = law.sample(1.0, rng)
            assert abs(d @ u) < 1e-10
