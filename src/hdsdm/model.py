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
from typing import NamedTuple

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

__all__ = ["MU_PRIOR_SD", "EffectDecl", "ModelSpec", "Dataset", "AssembledModel", "assemble"]


class EffectKind(NamedTuple):
    support: type  # the covariate distribution an effect of the kind takes
    columns: int  # the data columns it reads: one, or a pair
    leaves: tuple[str, ...]  # the suffixes of its leaf ids, after the effect id
    basis_size: str | None  # the EffectDecl field that sizes its basis
    side: str  # the default side
    group: str | None  # the default group; None: the effect id


EFFECT_KINDS = {
    "linear": EffectKind(UniformInterval, 1, ("",), None, "abiotic", None),
    "pspline": EffectKind(UniformInterval, 1, ("_lin", "_nonlin"), "n_basis", "abiotic", None),
    "iid": EffectKind(UniformLevels, 1, ("",), None, "abiotic", None),
    "rw1": EffectKind(UniformLevels, 1, ("",), None, "abiotic", None),
    "spatial2d": EffectKind(PointCloud, 2, ("",), "n_basis_2d", "biotic", "spatial"),
}


def effect_kind(name) -> EffectKind:
    """The ``EFFECT_KINDS`` entry of ``name``, which must be a kind."""
    try:
        return EFFECT_KINDS[name]
    except (KeyError, TypeError):  # TypeError: not hashable, so not a kind
        raise ValidationError(f"unknown effect kind {name!r}") from None


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

    ``EFFECT_KINDS`` says, for each kind, the class of ``dist`` it takes
    (another class is a ValidationError), how many columns ``covariate``
    names, the suffixes of its leaf ids, the field that sizes its basis, and
    its default ``side`` and ``group`` (None: the effect id).
    Every effect is a main effect of the tree.
    """

    effect_id: str
    kind: str
    covariate: str | tuple[str, str]
    dist: CovariateDistribution
    side: str | None = None
    group: str | None = None
    n_basis: int = 20
    n_basis_2d: tuple[int, int] = (8, 8)

    def __post_init__(self):
        kind = effect_kind(self.kind)
        if not isinstance(self.dist, kind.support):
            raise ValidationError(
                f"effect {self.effect_id!r}: kind {self.kind!r} takes a "
                f"{kind.support.__name__} support, got {type(self.dist).__name__}"
            )
        if self.side is None:
            object.__setattr__(self, "side", kind.side)
        if self.group is None:
            object.__setattr__(self, "group", kind.group or self.effect_id)

    @property
    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(self.effect_id + suffix for suffix in EFFECT_KINDS[self.kind].leaves)

    def labels(self) -> list[EffectLabel]:
        return [EffectLabel(leaf, side=self.side, group=self.group) for leaf in self.leaf_ids]


# standard deviation of the N(0, MU_PRIOR_SD^2) prior on the intercept
MU_PRIOR_SD = 10.0


def default_tree(effects: list[EffectDecl]) -> DecompTree | None:
    """The default tree of the effects' labels; None for no effects."""
    labels = [lab for e in effects for lab in e.labels()]
    return build_default_tree(labels) if labels else None


@dataclass(frozen=True)
class ModelSpec:
    """Bernoulli-logit model: an intercept with the prior N(0, MU_PRIOR_SD^2)
    plus standardized additive effects. ``tree`` is the effects' default tree,
    built once with the model, and the priors must fit it; an intercept-only
    model has none, and its priors go unused."""

    effects: list[EffectDecl]
    priors: dict[str, PriorSpec]
    tree: DecompTree | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tree = default_tree(self.effects)
        if tree is not None:
            _as_prior_map(tree, self.priors)
        object.__setattr__(self, "tree", tree)


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
    pair = EFFECT_KINDS[decl.kind].columns == 2
    for c in decl.covariate if pair else [decl.covariate]:
        if c not in columns:
            raise ValidationError(f"effect {decl.effect_id!r}: no column {c!r}")
    if pair:
        return np.column_stack([columns[c] for c in decl.covariate])
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
        return list(split_pspline(basis, decl.dist, *decl.leaf_ids))
    if decl.kind in ("iid", "rw1"):
        k = decl.dist.n_levels
        precision = build_iid(k) if decl.kind == "iid" else build_rw1(k)
        return [standardize(IndicatorBasis(k), precision, decl.dist, decl.effect_id)]
    return [_build_spatial_effect(decl)]  # spatial2d: EffectDecl rejects other kinds


@dataclass
class AssembledModel:
    """Model bound to data: standardized effects + training design blocks."""

    model: ModelSpec
    effects: dict[str, StandardizedEffect]
    designs: dict[str, np.ndarray]
    y_train: np.ndarray
    decl_by_leaf: dict[str, EffectDecl] = field(default_factory=dict)

    @property
    def tree(self) -> DecompTree | None:
        return self.model.tree

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
    y_train = data.y[data.train_mask] if data is not None else np.zeros(0)
    return AssembledModel(
        model=model,
        effects=effects,
        designs=designs,
        y_train=y_train,
        decl_by_leaf=decl_by_leaf,
    )
