"""Deterministic basis functions mapping covariates to coefficient space.

Four kinds: a (centered/scaled) linear column, level indicators, clamped
cubic B-splines on an interval, and tensor-product B-splines over two
coordinates with optional pruning to the cells a point cloud occupies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .exceptions import DimensionError, DomainError, ValidationError

PRUNE_TOL = 1e-12
DEGREE = 3  # every B-spline here is cubic
_SUPPORT_SLACK = 1e-10  # relative slack for floating-point boundary values

__all__ = [
    "LinearBasis",
    "IndicatorBasis",
    "BSplineBasis1D",
    "BSplineBasis2D",
    "eval_basis",
    "tensor_basis",
    "prune_basis",
    "lattice_adjacency",
]


@dataclass(frozen=True)
class LinearBasis:
    """Single-column basis (x - center) / scale."""

    center: float = 0.0
    scale: float = 1.0

    @property
    def n_funcs(self) -> int:
        return 1


@dataclass(frozen=True)
class IndicatorBasis:
    """One-hot encoding of integer levels 1..n_levels."""

    n_levels: int

    def __post_init__(self):
        if self.n_levels < 1:
            raise DimensionError(f"indicator basis needs >= 1 level, got {self.n_levels}")

    @property
    def n_funcs(self) -> int:
        return self.n_levels


@dataclass(frozen=True)
class BSplineBasis1D:
    """Clamped cubic B-spline basis, equally spaced interior knots on [lower, upper].

    Boundary knots are repeated DEGREE+1 times, so the basis is a partition
    of unity on the closed interval including both endpoints.
    """

    n_funcs: int
    lower: float
    upper: float

    def __post_init__(self):
        if self.n_funcs < DEGREE + 1:
            raise DimensionError(
                f"a cubic B-spline basis needs at least {DEGREE + 1} functions, "
                f"got {self.n_funcs}"
            )
        if not self.upper > self.lower:
            raise ValidationError(f"empty support [{self.lower}, {self.upper}]")

    @property
    def knots(self) -> np.ndarray:
        inner = np.linspace(self.lower, self.upper, self.n_funcs - DEGREE + 1)
        return np.r_[np.full(DEGREE, self.lower), inner, np.full(DEGREE, self.upper)]


@dataclass(frozen=True)
class BSplineBasis2D:
    """Tensor product of two 1D B-spline bases, optionally pruned.

    Column ordering is row-major over the (basis_a, basis_b) grid:
    column i*Kb + j pairs function i of ``basis_a`` with function j of
    ``basis_b`` (the Kronecker-product convention). ``retained`` lists the
    kept full-grid column indices, or None for the complete grid.
    """

    basis_a: BSplineBasis1D
    basis_b: BSplineBasis1D
    retained: tuple[int, ...] | None = None

    @property
    def grid_dims(self) -> tuple[int, int]:
        return (self.basis_a.n_funcs, self.basis_b.n_funcs)

    @property
    def n_funcs(self) -> int:
        if self.retained is None:
            return self.basis_a.n_funcs * self.basis_b.n_funcs
        return len(self.retained)


def _check_support(x: np.ndarray, lower: float, upper: float) -> np.ndarray:
    slack = _SUPPORT_SLACK * (upper - lower)
    # written as the negation of "inside", so that nan, for which every
    # comparison is false, counts as outside
    bad = np.flatnonzero(~((x >= lower - slack) & (x <= upper + slack)))
    if bad.size:
        raise DomainError(
            f"{bad.size} covariate value(s) outside support [{lower}, {upper}]; "
            f"first offending indices: {bad[:10].tolist()}",
            indices=bad.tolist(),
        )
    return np.clip(x, lower, upper)


def _eval_bspline1d(spec: BSplineBasis1D, x: np.ndarray) -> np.ndarray:
    x = _check_support(x, spec.lower, spec.upper)
    return BSpline.design_matrix(x, spec.knots, DEGREE, extrapolate=False).toarray()


def eval_basis(spec, x) -> np.ndarray:
    """Evaluate a basis at covariate values; rows are observations.

    ``x`` is 1D for the scalar kinds and (N, 2) for the tensor kind.
    Values outside the declared support, and non-finite values, raise
    DomainError with the offending indices.
    """
    if isinstance(spec, LinearBasis):
        x = np.asarray(x, dtype=float).ravel()
        return ((x - spec.center) / spec.scale)[:, None]
    if isinstance(spec, IndicatorBasis):
        x = np.asarray(x, dtype=float).ravel()
        # only values that round to a level are cast to int: a cast of nan,
        # inf or a huge value would warn and give an arbitrary integer
        near = (x > 0.5) & (x < spec.n_levels + 0.5)  # false for nan
        levels = np.rint(np.where(near, x, 1.0)).astype(int)
        bad = np.flatnonzero(~near | (np.abs(x - levels) > 1e-8))
        if bad.size:
            raise DomainError(
                f"{bad.size} value(s) are not levels in 1..{spec.n_levels}; "
                f"first offending indices: {bad[:10].tolist()}",
                indices=bad.tolist(),
            )
        out = np.zeros((levels.size, spec.n_levels))
        out[np.arange(levels.size), levels - 1] = 1.0
        return out
    if isinstance(spec, BSplineBasis1D):
        return _eval_bspline1d(spec, np.asarray(x, dtype=float).ravel())
    if isinstance(spec, BSplineBasis2D):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != 2:
            raise DimensionError(f"tensor basis expects (N, 2) input, got shape {x.shape}")
        rows_a = _eval_bspline1d(spec.basis_a, x[:, 0])
        rows_b = _eval_bspline1d(spec.basis_b, x[:, 1])
        full = rows_a[:, :, None] * rows_b[:, None, :]
        full = full.reshape(x.shape[0], -1)
        if spec.retained is None:
            return full
        return full[:, list(spec.retained)]
    raise TypeError(f"unknown basis spec {type(spec).__name__}")


def tensor_basis(spec_a: BSplineBasis1D, spec_b: BSplineBasis1D) -> BSplineBasis2D:
    """Kronecker-product basis of two univariate B-spline bases."""
    if not isinstance(spec_a, BSplineBasis1D) or not isinstance(spec_b, BSplineBasis1D):
        raise ValidationError("tensor_basis requires two 1D B-spline bases")
    return BSplineBasis2D(basis_a=spec_a, basis_b=spec_b)


def prune_basis(
    spec: BSplineBasis2D, support_points: np.ndarray
) -> tuple[BSplineBasis2D, np.ndarray]:
    """Drop tensor basis functions that vanish on every support point.

    ``support_points`` is a dense (Q, 2) cloud covering the region of
    interest. A function is retained when its maximum absolute value over
    the cloud exceeds PRUNE_TOL (B-splines are exactly zero off-support, so
    the threshold only guards floating-point noise). Returns the pruned spec
    and the retained full-grid indices.
    """
    pts = np.asarray(support_points, dtype=float)
    if pts.size == 0:
        raise ValidationError("support point cloud is empty")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionError(f"support points must be (Q, 2), got shape {pts.shape}")
    full = BSplineBasis2D(basis_a=spec.basis_a, basis_b=spec.basis_b)
    max_abs = np.zeros(full.n_funcs)
    for start in range(0, pts.shape[0], 4096):
        block = eval_basis(full, pts[start : start + 4096])
        np.maximum(max_abs, np.abs(block).max(axis=0), out=max_abs)
    retained = np.flatnonzero(max_abs > PRUNE_TOL)
    pruned = BSplineBasis2D(
        basis_a=spec.basis_a, basis_b=spec.basis_b, retained=tuple(int(i) for i in retained)
    )
    return pruned, retained


def lattice_adjacency(retained_indices, grid_dims: tuple[int, int]) -> np.ndarray:
    """4-neighborhood adjacency among retained cells of a (Ka, Kb) grid.

    Cell index i*Kb + j sits at row i, column j; two retained cells are
    neighbors when they are horizontally or vertically adjacent on the full
    grid. Output order follows ``retained_indices``.
    """
    ka, kb = grid_dims
    idx = np.asarray(retained_indices, dtype=int)
    if idx.size == 0:
        raise ValidationError("no retained cells")
    if np.any(idx < 0) or np.any(idx >= ka * kb):
        raise DimensionError(f"retained indices must lie in [0, {ka * kb})")
    if np.unique(idx).size != idx.size:
        raise ValidationError("retained indices contain duplicates")
    pos = {int(v): k for k, v in enumerate(idx)}
    W = np.zeros((idx.size, idx.size))
    for k, v in enumerate(idx):
        i, j = divmod(int(v), kb)
        for di, dj in ((1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < ka and nj < kb:
                other = pos.get(ni * kb + nj)
                if other is not None:
                    W[k, other] = W[other, k] = 1.0
    return W
