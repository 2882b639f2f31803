"""Two-step effect standardization: zero-mean constraints + reference scaling.

After standardization every effect satisfies the variance-contribution
contract Var_{X,u}[f(X) | sigma2] = sigma2, where the X-expectation is taken
over the effect's declared covariate distribution. The first step constrains
the coefficients so each realization has zero quadrature mean; the second
divides the effect by its reference standard deviation (the standard
deviation of the constrained effect at sigma2 = 1).

Constraints act by restriction: the coefficient law is the improper
N(0, Q-) confined to the constraint subspace, which replaces the intrinsic
sum-to-zero pinning with the interpretable quadrature version (the level of
the effect is identified against the covariate distribution, not against
coefficient space).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import LinearBasis, eval_basis
from .distributions import CovariateDistribution, UniformInterval, UniformLevels
from .exceptions import DegenerateEffectError, ValidationError
from .gmrf import (
    CoefficientBlock,
    PrecisionStructure,
    SubspaceGaussian,
    build_iid,
    build_rw2,
    constrained_gaussian,
)

__all__ = [
    "StandardizedEffect",
    "zero_mean_constraint",
    "reference_variance",
    "standardize",
    "split_pspline",
]


def zero_mean_constraint(basis, dist: CovariateDistribution) -> np.ndarray:
    """Quadrature means of the basis columns: d with d'u = E_X[f(X)].

    Any coefficient vector orthogonal to d yields an effect with exactly
    zero quadrature mean.
    """
    return eval_basis(basis, dist.grid()).mean(axis=0)


def _stack_constraints(columns: list[np.ndarray]) -> np.ndarray | None:
    cols = [np.asarray(c, dtype=float).ravel() for c in columns if c is not None]
    cols = [c for c in cols if np.linalg.norm(c) > 1e-12]
    if not cols:
        return None
    return np.column_stack(cols)


def reference_variance(basis, precision: PrecisionStructure, constraints, dist) -> float:
    """Variance contribution of the constrained effect at unit scale.

    Computed exactly as the quadrature expectation of the per-point variance
    D(x)' Cov D(x) under the constrained coefficient covariance; with a
    zero-mean constraint in place this is the full Var_{X,u}[f(X) | 1].
    """
    G = eval_basis(basis, dist.grid())
    return _unit_variance(constrained_gaussian(precision, constraints), G)


def _unit_variance(law: SubspaceGaussian, G: np.ndarray) -> float:
    """``reference_variance`` of an effect whose constrained law is built,
    from its basis evaluated on the quadrature grid."""
    half = np.linalg.solve(law.chol, law.basis.T @ G.T)  # r x Q
    c2 = float(np.mean(np.sum(half**2, axis=0)))
    if c2 <= 1e-14:
        raise DegenerateEffectError(f"effect variance contribution {c2:.3e} is degenerate")
    return c2


@dataclass(frozen=True)
class StandardizedEffect:
    """An effect whose variance parameter equals its variance contribution.

    The model-facing effect is f(x) = design(x) @ u where ``design`` is the
    raw basis and the coefficients follow the constrained law scaled by the
    reference variance: u | sigma2 ~ N(0, (sigma2 / C^2) * cov), so
    Var_{X,u}[f(X) | sigma2] = sigma2 under the declared distribution.
    ``grid_design`` is the basis evaluated on the quadrature grid, read-only.
    """

    effect_id: str
    basis: object
    precision: PrecisionStructure
    constraints: np.ndarray | None
    scale_constant: float
    dist: CovariateDistribution
    law: SubspaceGaussian = field(repr=False)
    grid_design: np.ndarray = field(repr=False)

    @property
    def n_coef(self) -> int:
        return self.precision.dim

    @property
    def free_dim(self) -> int:
        return self.law.free_dim

    def design(self, x) -> np.ndarray:
        """Design matrix of the basis; rows give the effect values per unit u."""
        return eval_basis(self.basis, x)

    def quadrature_design(self) -> np.ndarray:
        """The basis on the quadrature grid of ``dist``: the read-only design
        that ``standardize`` evaluated once and stored."""
        return self.grid_design

    def whitening_transform(self) -> np.ndarray:
        """T with u = sqrt(sigma2) T z, z ~ N(0, I); includes the 1/C scaling."""
        return self.law.whitening_transform() / self.scale_constant

    def sample_coefficients(self, sigma2: float, rng: np.random.Generator) -> CoefficientBlock:
        """One coefficient draw; satisfies the constraints deterministically."""
        u = self.law.sample(sigma2 / self.scale_constant**2, rng)
        return CoefficientBlock(values=u, effect_id=self.effect_id)

    def coefficient_logpdf(self, u: np.ndarray, sigma2: float) -> float:
        return self.law.logpdf(u, sigma2 / self.scale_constant**2)


def standardize(
    basis,
    precision: PrecisionStructure,
    dist: CovariateDistribution,
    effect_id: str = "",
    extra_constraints: list[np.ndarray] | None = None,
    grid_design: np.ndarray | None = None,
) -> StandardizedEffect:
    """Attach zero-mean (and any extra) constraints and the reference scaling.

    The zero-mean column is dropped when it is already implied by the extra
    constraints or when the basis is centered (|d| at most 1e-10 of the
    largest design entry, e.g. a linear effect on a centered covariate).
    The basis is evaluated on the quadrature grid of ``dist`` once, unless
    the caller passes that evaluation as ``grid_design``; the zero-mean
    constraint and the reference variance both read it, and the effect
    stores it read-only.
    """
    G = eval_basis(basis, dist.grid()) if grid_design is None else grid_design
    G.flags.writeable = False
    d = G.mean(axis=0)
    extras = list(extra_constraints or [])
    A_extra = _stack_constraints(extras)
    # relative to the design: a linear column on a support far from zero has
    # means of rounding size, which must not constrain its coefficient away
    need_d = np.linalg.norm(d) > 1e-10 * np.abs(G).max()
    if need_d and A_extra is not None:
        # already implied if d lies in the span of the extra columns
        resid = d - A_extra @ np.linalg.lstsq(A_extra, d, rcond=None)[0]
        need_d = np.linalg.norm(resid) > 1e-10 * np.linalg.norm(d)
    A = _stack_constraints(extras + ([d] if need_d else []))
    law = constrained_gaussian(precision, A)
    return StandardizedEffect(
        effect_id=effect_id,
        basis=basis,
        precision=precision,
        constraints=A,
        scale_constant=float(np.sqrt(_unit_variance(law, G))),
        dist=dist,
        law=law,
        grid_design=G,
    )


def split_pspline(
    basis, dist: CovariateDistribution, linear_id: str, nonlinear_id: str
) -> tuple[StandardizedEffect, StandardizedEffect]:
    """Split a 1D B-spline effect into standardized linear + non-linear parts.

    The linear part is a single coefficient on the covariate standardized
    under ``dist``. The non-linear part keeps the B-spline basis with a
    second-order random-walk penalty plus two constraints that remove, in
    quadrature, the intercept and any component correlated with the
    standardized covariate; the two parts are therefore orthogonal under the
    covariate distribution and their variance contributions add.
    """
    from .bases import BSplineBasis1D

    if not isinstance(basis, BSplineBasis1D):
        raise ValidationError("split_pspline requires a 1D B-spline basis")
    if not isinstance(dist, (UniformInterval, UniformLevels)):
        raise ValidationError("split_pspline requires an interval or discrete distribution")

    lin_basis = LinearBasis(center=dist.mean(), scale=dist.sd())
    linear = standardize(lin_basis, build_iid(1), dist, effect_id=linear_id)

    x_std = linear.quadrature_design()[:, 0]
    G = eval_basis(basis, dist.grid())
    trend = (x_std[:, None] * G).mean(axis=0)
    nonlinear = standardize(
        basis,
        build_rw2(basis.n_funcs),
        dist,
        effect_id=nonlinear_id,
        extra_constraints=[trend],
        grid_design=G,
    )
    return linear, nonlinear
