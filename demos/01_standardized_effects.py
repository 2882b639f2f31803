"""Standardizing latent Gaussian effects to the variance-contribution scale.

A random effect f(x) = D(x)'u with u ~ N(0, sigma2 Q-) does not, in general,
contribute sigma2 of variance to the linear predictor: the contribution
depends on the basis, the precision matrix and how the covariate is
distributed. This walkthrough standardizes several effect types so that
Var_{X,u}[f(X) | sigma2] = sigma2 exactly, which is what makes the variance
decomposition in the rest of the package meaningful.
"""

import numpy as np

from hdsdm import (
    BSplineBasis1D,
    IndicatorBasis,
    UniformInterval,
    UniformLevels,
    build_iid,
    build_rw1,
    build_rw2,
    split_pspline,
    standardize,
)

rng = np.random.default_rng(0)


def mc_variance(effect, sigma2, n=200_000):
    """Monte Carlo check of the contract: draw (X, u) pairs, realize f(X)."""
    GT = effect.quadrature_design() @ effect.whitening_transform() * np.sqrt(sigma2)
    ix = rng.integers(0, GT.shape[0], size=n)
    z = rng.standard_normal((n, GT.shape[1]))
    f = np.einsum("ij,ij->i", GT[ix], z)
    return f.var()


# --- a two-level categorical effect --------------------------------------
# With an identity precision and a sum-to-zero constraint, the naive effect
# has Var = 1/2 at sigma2 = 1; the reference scaling fixes that.
vessel = standardize(IndicatorBasis(2), build_iid(2), UniformLevels(2), "vessel")
print(f"two-level effect: reference sd = {vessel.scale_constant:.4f} (sqrt(1/2))")
print(f"  MC variance at sigma2=1: {mc_variance(vessel, 1.0):.4f}")
print(f"  MC variance at sigma2=2.5: {mc_variance(vessel, 2.5):.4f}")

# --- a first-order random walk over 20 ordered levels --------------------
temporal = standardize(IndicatorBasis(20), build_rw1(20), UniformLevels(20), "year")
print(f"\nrandom-walk effect: reference sd = {temporal.scale_constant:.4f}")
print(f"  MC variance at sigma2=1: {mc_variance(temporal, 1.0):.4f}")

# Every draw has exactly zero mean over the level grid, not just on average:
u = temporal.sample_coefficients(1.0, rng).values
print(f"  quadrature mean of one draw: {(temporal.quadrature_design() @ u).mean():.2e}")

# --- splitting a penalized spline into linear + non-linear ----------------
# A curvature-penalized spline measures deviation from its linear trend, so
# its variance parameter alone cannot be read as "the effect's share". The
# split gives two standardized, mutually orthogonal components.
support = UniformInterval(-1.0, 2.0)
basis = BSplineBasis1D(n_funcs=20, lower=-1.0, upper=2.0)
linear, nonlinear = split_pspline(basis, support, "sst_lin", "sst_nonlin")
print(f"\npspline split: C_lin = {linear.scale_constant:.4f}, "
      f"C_nonlin = {nonlinear.scale_constant:.4f}")
print(f"  MC variance, linear part: {mc_variance(linear, 1.0):.4f}")
print(f"  MC variance, non-linear part: {mc_variance(nonlinear, 1.0):.4f}")

grid = support.grid()
x_std = (grid - support.mean()) / support.sd()
f_n = nonlinear.design(grid) @ nonlinear.sample_coefficients(1.0, rng).values
corr = np.corrcoef(x_std, f_n)[0, 1]
print(f"  correlation of a non-linear draw with the covariate: {corr:.2e}")

# The components are orthogonal under the covariate distribution, so their
# variance contributions add:
s2l, s2n = 0.6, 0.4
n = 200_000
ix = rng.integers(0, grid.size, size=n)
fl = (linear.design(grid) @ linear.whitening_transform() * np.sqrt(s2l))[ix]
fn = (nonlinear.design(grid) @ nonlinear.whitening_transform() * np.sqrt(s2n))[ix]
f = np.einsum("ij,ij->i", fl, rng.standard_normal((n, 1))) + np.einsum(
    "ij,ij->i", fn, rng.standard_normal((n, fn.shape[1]))
)
print(f"  combined MC variance at (0.6, 0.4): {f.var():.4f} (additive target 1.0)")

# --- what the second difference penalty looks like -------------------------
Q = build_rw2(6).Q
print("\nsecond-order random-walk precision (K=6):")
print(np.array2string(Q, precision=0))
