"""Declarative model specification and assembly into standardized effects.

An effect declaration names a covariate, a basis/precision kind and the
covariate distribution used for standardization. Assembly turns the
declarations into standardized effects, builds the decomposition tree from
the declared tags, and evaluates all design blocks on the training rows.
Standardization depends only on the declared supports, never on the data,
so the same assembled effects evaluate consistently on new observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import (
    BSplineBasis1D,
    IndicatorBasis,
    LinearBasis,
    _check_support,
    lattice_adjacency,
    pruned_design,
    tensor_basis,
)
from .distributions import CovariateDistribution, PointCloud, UniformInterval, UniformLevels
from .exceptions import DomainError, ValidationError
from .gmrf import build_icar, build_iid, build_rw1
from .priors import PriorSpec, _as_prior_map
from .standardize import StandardizedEffect, split_pspline, standardize
from .tree import DecompTree, EffectLabel, build_default_tree

EFFECT_KINDS = ("linear", "pspline", "iid", "rw1", "spatial2d")

__all__ = ["MU_PRIOR_SD", "EffectDecl", "ModelSpec", "Dataset", "AssembledModel", "assemble"]


@dataclass(frozen=True)
class EffectDecl:
    """One declared model effect.

    kind:
      linear    - single coefficient on the standardized covariate
      pspline   - B-spline with curvature penalty, split into linear +
                  non-linear standardized components (two tree leaves)
      iid       - exchangeable level effect (identity precision)
      rw1       - first-order random walk over ordered levels
      spatial2d - tensor B-spline surface over a point cloud, pruned to the
                  occupied cells, with an ICAR penalty on the cell lattice

    ``side`` and ``group`` default by kind: a ``spatial2d`` effect is biotic
    in the group ``spatial``, any other kind is abiotic in a group named
    after its id. ``n_basis`` sizes a ``pspline`` basis and ``n_basis_2d``
    the tensor grid of a ``spatial2d`` effect; other kinds have no basis
    size.
    """

    effect_id: str
    kind: str
    covariate: str | tuple[str, str]
    dist: CovariateDistribution
    side: str | None = None
    role: str = "main"
    group: str | None = None
    n_basis: int = 20
    n_basis_2d: tuple[int, int] = (8, 8)

    def __post_init__(self):
        if self.kind not in EFFECT_KINDS:
            raise ValidationError(f"unknown effect kind {self.kind!r}")
        if self.kind == "spatial2d" and not isinstance(self.dist, PointCloud):
            raise ValidationError("spatial2d effects need a point-cloud distribution")
        if self.kind == "pspline" and not isinstance(self.dist, UniformInterval):
            raise ValidationError("pspline effects need an interval distribution")
        if self.kind in ("iid", "rw1") and not isinstance(self.dist, UniformLevels):
            raise ValidationError(f"{self.kind} effects need a discrete level distribution")
        spatial = self.kind == "spatial2d"
        if self.side is None:
            object.__setattr__(self, "side", "biotic" if spatial else "abiotic")
        if self.group is None:
            object.__setattr__(self, "group", "spatial" if spatial else self.effect_id)

    @property
    def leaf_ids(self) -> tuple[str, ...]:
        if self.kind == "pspline":
            return (f"{self.effect_id}_lin", f"{self.effect_id}_nonlin")
        return (self.effect_id,)

    def labels(self) -> list[EffectLabel]:
        return [
            EffectLabel(leaf, side=self.side, role=self.role, group=self.group)
            for leaf in self.leaf_ids
        ]


# standard deviation of the N(0, MU_PRIOR_SD^2) prior on the intercept
MU_PRIOR_SD = 10.0


@dataclass
class ModelSpec:
    """Bernoulli-logit model: an intercept with the prior N(0, MU_PRIOR_SD^2)
    plus standardized additive effects."""

    effects: list[EffectDecl]
    priors: dict[str, PriorSpec]

    def __post_init__(self):
        ids = [leaf for e in self.effects for leaf in e.leaf_ids]
        if len(set(ids)) != len(ids):
            raise ValidationError("effect leaf ids are not unique")
        self.build_tree()  # rejects priors that do not fit the tree

    def build_tree(self) -> DecompTree | None:
        """The default tree of the effects, once the priors fit it; None for
        an intercept-only model, whose priors go unused."""
        if not self.effects:
            return None
        labels = [lab for e in self.effects for lab in e.labels()]
        tree = build_default_tree(labels)
        _as_prior_map(tree, self.priors)
        return tree


@dataclass
class Dataset:
    """Tabular presence/absence data bound to named columns."""

    y: np.ndarray
    columns: dict[str, np.ndarray]
    train_mask: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y)
        if not np.all(np.isin(self.y, (0, 1))):
            raise ValidationError("response must be binary 0/1")
        self.y = self.y.astype(float)
        n = self.y.size
        self.columns = {k: np.asarray(v, dtype=float) for k, v in self.columns.items()}
        for k, v in self.columns.items():
            if v.shape != (n,):
                raise ValidationError(f"column {k!r} has shape {v.shape}, expected ({n},)")
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"column {k!r} contains non-finite values")
        self.train_mask = np.asarray(self.train_mask, dtype=bool)
        if self.train_mask.shape != (n,):
            raise ValidationError("train mask length mismatch")

    @classmethod
    def from_arrays(cls, y, train_mask=None, **columns) -> "Dataset":
        y = np.asarray(y)
        mask = np.ones(y.size, dtype=bool) if train_mask is None else train_mask
        return cls(y=y, columns=columns, train_mask=mask)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def n_train(self) -> int:
        return int(self.train_mask.sum())

    def rows(self, mask) -> dict[str, np.ndarray]:
        return {k: v[mask] for k, v in self.columns.items()}


def _covariate_values(decl: EffectDecl, columns: dict[str, np.ndarray]) -> np.ndarray:
    if decl.kind == "spatial2d":
        c1, c2 = decl.covariate
        for c in (c1, c2):
            if c not in columns:
                raise ValidationError(f"effect {decl.effect_id!r}: no column {c!r}")
        return np.column_stack([columns[c1], columns[c2]])
    if decl.covariate not in columns:
        raise ValidationError(f"effect {decl.effect_id!r}: no column {decl.covariate!r}")
    x = columns[decl.covariate]
    if isinstance(decl.dist, UniformInterval):
        # bases with unbounded evaluation (linear) still only carry meaning
        # on the declared support the effect was standardized against; the
        # values are checked, not clipped
        try:
            _check_support(x, decl.dist.lower, decl.dist.upper)
        except DomainError as err:
            raise DomainError(f"effect {decl.effect_id!r}: {err}", indices=err.indices) from None
    return x


def _build_spatial_effect(decl: EffectDecl) -> StandardizedEffect:
    cloud = decl.dist.points
    na, nb = decl.n_basis_2d
    pad_a = 1e-6 * (cloud[:, 0].max() - cloud[:, 0].min() + 1.0)
    pad_b = 1e-6 * (cloud[:, 1].max() - cloud[:, 1].min() + 1.0)
    spec_a = BSplineBasis1D(na, cloud[:, 0].min() - pad_a, cloud[:, 0].max() + pad_a)
    spec_b = BSplineBasis1D(nb, cloud[:, 1].min() - pad_b, cloud[:, 1].max() + pad_b)
    # the cloud is the quadrature grid, so pruning evaluates the grid design
    pruned, retained, G = pruned_design(tensor_basis(spec_a, spec_b), cloud)
    W = lattice_adjacency(retained, (na, nb))
    precision = build_icar(W)
    # per-component quadrature zero-mean constraints pin every null direction
    # while keeping E_Z[f] = 0 exactly (their sum is the overall constraint)
    extra = None
    if precision.null_dim > 1:
        d = G.mean(axis=0)
        extra = [d * (np.abs(col) > 1e-12) for col in precision.nullspace.T]
    return standardize(pruned, precision, decl.dist, decl.effect_id, extra_constraints=extra,
                       grid_design=G)


def build_effects(decl: EffectDecl) -> list[StandardizedEffect]:
    """Standardized effect(s) for one declaration (two for psplines)."""
    if decl.kind == "linear":
        basis = LinearBasis(center=decl.dist.mean(), scale=decl.dist.sd())
        return [standardize(basis, build_iid(1), decl.dist, decl.effect_id)]
    if decl.kind == "pspline":
        basis = BSplineBasis1D(decl.n_basis, decl.dist.lower, decl.dist.upper)
        return list(split_pspline(basis, decl.dist, decl.effect_id))
    if decl.kind == "iid":
        k = decl.dist.n_levels
        return [standardize(IndicatorBasis(k), build_iid(k), decl.dist, decl.effect_id)]
    if decl.kind == "rw1":
        k = decl.dist.n_levels
        return [standardize(IndicatorBasis(k), build_rw1(k), decl.dist, decl.effect_id)]
    return [_build_spatial_effect(decl)]  # spatial2d: EffectDecl rejects other kinds


@dataclass
class AssembledModel:
    """Model bound to data: standardized effects + training design blocks."""

    model: ModelSpec
    tree: DecompTree | None
    effects: dict[str, StandardizedEffect]
    designs: dict[str, np.ndarray]
    y_train: np.ndarray
    decl_by_leaf: dict[str, EffectDecl] = field(default_factory=dict)

    @property
    def leaf_ids(self) -> tuple[str, ...]:
        return () if self.tree is None else self.tree.leaves

    @property
    def n_train(self) -> int:
        return self.y_train.size

    def designs_at(self, columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Scaled design blocks at new observations (support-checked)."""
        out = {}
        for leaf in self.leaf_ids:
            decl = self.decl_by_leaf[leaf]
            out[leaf] = self.effects[leaf].design(_covariate_values(decl, columns))
        return out

    def linear_predictor(self, coefficients: dict[str, np.ndarray], mu: float,
                         designs: dict[str, np.ndarray] | None = None,
                         n: int | None = None) -> np.ndarray:
        """eta on the training rows, or on the ``n`` rows of ``designs``."""
        if designs is None:
            designs, n = self.designs, self.n_train
        eta = np.full(n, float(mu))
        for leaf, G in designs.items():
            eta = eta + G @ coefficients[leaf]
        return eta


def assemble(model: ModelSpec, data: Dataset | None) -> AssembledModel:
    """Standardize all declared effects and evaluate them on the training rows.

    ``data=None`` assembles with empty design blocks (prior-only inference).
    Data without training rows is rejected: fitting it would return prior
    draws as if fitted to data.
    """
    if data is not None and data.n_train == 0:
        raise ValidationError("the data have no training rows (empty train mask or split)")
    tree = model.build_tree()
    effects: dict[str, StandardizedEffect] = {}
    designs: dict[str, np.ndarray] = {}
    decl_by_leaf: dict[str, EffectDecl] = {}
    train_cols = data.rows(data.train_mask) if data is not None else None
    for decl in model.effects:
        for eff in build_effects(decl):
            effects[eff.effect_id] = eff
            decl_by_leaf[eff.effect_id] = decl
            if train_cols is None:
                designs[eff.effect_id] = np.zeros((0, eff.n_coef))
            else:
                designs[eff.effect_id] = eff.design(_covariate_values(decl, train_cols))
    expected = set(tree.leaves) if tree is not None else set()
    if set(effects) != expected:
        raise ValidationError(
            f"tree leaves {sorted(expected)} do not match effects {sorted(effects)}"
        )
    y_train = data.y[data.train_mask] if data is not None else np.zeros(0)
    return AssembledModel(
        model=model,
        tree=tree,
        effects=effects,
        designs=designs,
        y_train=y_train,
        decl_by_leaf=decl_by_leaf,
    )
