"""Variance decomposition trees and the (V, omega) reparametrization.

A tree recursively splits the model's total latent variance into groups of
effects until every leaf holds a single variance parameter. The natural
coordinates are the total variance V and one proportion vector per split;
``to_variances``/``from_variances`` are the two directions of the bijection,
and an unconstrained parametrization (log / logit / additive log-ratio) with
its log-Jacobian supports density transforms for inference.

``DecompTree`` lays out both coordinate vectors once, V first, then the splits
in preorder: each ``SplitInfo`` carries its slices, which every map here reads,
and ``in_child_order``, the one swap of a binary split's children.

``natural_values`` is the one map from unconstrained to natural
coordinates, vectorized over draws; ``natural_columns`` names its columns
(the ``V`` and ``omega_*`` columns of the reported draws) and pairs each
with its key in ``priors.marginal_cdfs``. ``from_unconstrained`` unpacks one
of its rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError

# proportions are clamped to [PROPORTION_FLOOR, 1 - PROPORTION_FLOOR] before
# renormalization, against sigmoid/softmax saturation in float64
PROPORTION_FLOOR = 1e-12

__all__ = [
    "EffectLabel",
    "TreeNode",
    "SplitInfo",
    "DecompTree",
    "HDParams",
    "build_default_tree",
    "to_variances",
    "from_variances",
    "to_unconstrained",
    "from_unconstrained",
    "natural_columns",
    "natural_values",
    "log_jacobian",
]


@dataclass(frozen=True)
class EffectLabel:
    """Tags driving default tree construction for one variance parameter.

    side : 'abiotic' (covariate effects) or 'biotic' (residual space/time).
    role : 'main' or 'interaction'.
    group : effects sharing a group sit under one branch (defaults to the
        effect id); biotic mains conventionally use 'spatial'/'temporal'.
    Within a group, declaration order encodes increasing flexibility.
    """

    effect_id: str
    side: str
    role: str = "main"
    group: str | None = None

    def __post_init__(self):
        if self.side not in ("abiotic", "biotic"):
            raise ValidationError(f"effect {self.effect_id!r}: unknown side {self.side!r}")
        if self.role not in ("main", "interaction"):
            raise ValidationError(f"effect {self.effect_id!r}: unknown role {self.role!r}")
        if self.group is None:
            object.__setattr__(self, "group", self.effect_id)


@dataclass(frozen=True)
class TreeNode:
    name: str
    children: tuple["TreeNode", ...] = ()
    omega_index: int | None = None  # designated child of a binary split

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class SplitInfo:
    """An internal node: ``omega_index`` is the designated child of a binary
    split; ``coords`` is its slice of theta, the logit of that child's
    proportion or the log-ratios of the first P - 1 proportions to the last;
    ``columns`` its slice of a ``natural_values`` row, that proportion or
    all P in child order."""

    name: str
    child_names: tuple[str, ...]
    child_leaves: tuple[tuple[str, ...], ...]
    omega_index: int
    coords: slice
    columns: slice

    def in_child_order(self, designated, other):
        """A binary split's (designated, other) pair in child order; being
        its own inverse, it also takes child order to designated-first."""
        return (designated, other) if self.omega_index == 0 else (other, designated)

    @property
    def n_children(self) -> int:
        return len(self.child_names)

    @property
    def is_binary(self) -> bool:
        return self.n_children == 2


class DecompTree:
    """Immutable rooted tree over variance-parameter leaves."""

    def __init__(self, root: TreeNode):
        self.root = root
        splits: list[SplitInfo] = []
        leaves: list[str] = []
        coord = column = 1  # theta and the natural row both start with V
        for node in self._preorder(root):
            if node.is_leaf:
                leaves.append(node.name)
                continue
            n = len(node.children)
            if n < 2:
                raise ValidationError(f"internal node {node.name!r} has fewer than 2 children")
            splits.append(SplitInfo(
                name=node.name, child_names=tuple(c.name for c in node.children),
                child_leaves=tuple(tuple(x.name for x in self._preorder(c) if x.is_leaf)
                                   for c in node.children),
                omega_index=node.omega_index if node.omega_index is not None else 0,
                coords=slice(coord, coord + n - 1),
                columns=slice(column, column + (1 if n == 2 else n))))
            coord, column = splits[-1].coords.stop, splits[-1].columns.stop
        repeated = sorted({leaf for leaf in leaves if leaves.count(leaf) > 1})
        if repeated:
            raise ValidationError(f"leaf ids are not unique: {repeated}")
        names = [s.name for s in splits]
        if len(set(names)) != len(names):
            raise ValidationError("split names are not unique")
        self.splits = tuple(splits)
        self.leaves = tuple(leaves)
        self.n_coordinates, self.n_columns = coord, column  # lengths of theta, natural row
        self._split_map = {s.name: s for s in self.splits}

    @staticmethod
    def _preorder(node: TreeNode):
        yield node
        for c in node.children:
            yield from DecompTree._preorder(c)

    def split(self, name: str) -> SplitInfo:
        return self._split_map[name]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def to_dict(self) -> dict:
        """Plain-dict form for serialization into run outputs."""

        def conv(node: TreeNode) -> dict:
            if node.is_leaf:
                return {"leaf": node.name}
            out = {"name": node.name, "children": [conv(c) for c in node.children]}
            if node.omega_index is not None:
                out["omega_child"] = node.children[node.omega_index].name
            return out

        return conv(self.root)


@dataclass(frozen=True)
class HDParams:
    """Total variance, finite and >= 0, plus one proportion vector per split
    (declared order), 1-D with entries in [0, 1] that sum to 1 within 1e-12."""

    total: float
    proportions: dict[str, np.ndarray] = field(default_factory=dict)
    degenerate_splits: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 <= self.total < math.inf:
            raise ValidationError(f"total variance must be finite and >= 0, got {self.total}")
        props = {k: np.asarray(v, dtype=float) for k, v in self.proportions.items()}
        for name, p in props.items():
            if p.ndim != 1 or not np.all((p >= 0) & (p <= 1)):  # nan fails both
                raise ValidationError(f"split {name!r}: {p} are not proportions in [0, 1]")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValidationError(f"split {name!r}: proportions sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "proportions", props)

    def by_split(self, tree: DecompTree):
        """Each split of ``tree`` in preorder with its proportions, present and
        one per child, else a ValidationError naming the split."""
        for s in tree.splits:
            if s.name not in self.proportions:
                raise ValidationError(f"split {s.name!r}: no proportions given")
            props = self.proportions[s.name]
            if props.shape != (s.n_children,):
                raise ValidationError(f"split {s.name!r}: {props} are not {s.n_children} "
                                      "proportions")
            yield s, props

    def omega(self, tree: DecompTree, split_name: str) -> float:
        """Scalar proportion of the designated child of a binary split."""
        s = tree.split(split_name)
        return float(self.proportions[split_name][s.omega_index])


# ---------------------------------------------------------------------------
# default tree construction
# ---------------------------------------------------------------------------


def _flex_subtree(group: str, members: list[EffectLabel], depth: int = 1) -> TreeNode:
    """A group's one leaf, or its splits <group>_flex, <group>_flex2, ..."""
    leaf = TreeNode(name=members[0].effect_id)
    if len(members) == 1:
        return leaf
    name = f"{group}_flex{depth if depth > 1 else ''}"
    # the later-declared (more flexible) branch is the designated omega child
    return TreeNode(name=name, children=(leaf, _flex_subtree(group, members[1:], depth + 1)),
                    omega_index=1)


def _grouped(items, group_of) -> list[tuple[str, list]]:
    """``items`` grouped by ``group_of(item)``: the groups in the order they
    are first met, each with its members in their given order."""
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(group_of(item), []).append(item)
    return list(groups.items())


def _group_split(name: str, effects: list[EffectLabel]) -> TreeNode:
    """The split ``name`` with one branch per group of ``effects`` and its
    first group as omega child, or the one group's own subtree. Biotic
    mains grouped exactly as ``spatial`` and ``temporal`` split at
    ``spatial_vs_temporal`` instead, with space as omega child."""
    groups = _grouped(effects, lambda e: e.group)
    nodes = tuple(_flex_subtree(g, members) for g, members in groups)
    if len(nodes) == 1:
        return nodes[0]
    names = [g for g, _ in groups]
    if name == "biotic_components" and set(names) == {"spatial", "temporal"}:
        return TreeNode(name="spatial_vs_temporal", children=nodes,
                        omega_index=names.index("spatial"))
    return TreeNode(name=name, children=nodes, omega_index=0)


def _side_subtree(side: str, effects: list[EffectLabel]) -> TreeNode:
    mains = [e for e in effects if e.role == "main"]
    inters = [e for e in effects if e.role == "interaction"]
    mains_name = "covariates" if side == "abiotic" else "biotic_components"
    subtrees = [_group_split(name, members)
                for name, members in ((mains_name, mains), (f"{side}_interactions", inters))
                if members]
    if len(subtrees) == 1:
        return subtrees[0]
    return TreeNode(
        name=f"{side}_mains_vs_interactions",
        children=tuple(subtrees),
        omega_index=1,  # interactions are the more flexible branch
    )


def build_default_tree(effects: list[EffectLabel]) -> DecompTree:
    """Default decomposition tree for an SDM-style effect set.

    Level 1 splits abiotic vs biotic variance; level 2 separates mains from
    interactions on each side when interactions exist (pruned otherwise);
    level 3 branches mains by covariate group and spatial vs temporal;
    level 4 adds binary flexibility splits inside multi-effect groups until
    every leaf is a single variance parameter.
    """
    if not effects:
        raise ValidationError("no effects declared")
    # a group of several effects gets its splits <group>_flex, <group>_flex2, ...
    # in each branch (side and role) that it has several effects in
    flexed = {}
    for (side, role), members in _grouped(effects, lambda e: (e.side, e.role)):
        for group, ms in _grouped(members, lambda e: e.group):
            if len(ms) > 1:
                flexed.setdefault(group, []).append(
                    f"{side} {role}s {[e.effect_id for e in ms]}")
    for group, branches in flexed.items():
        if len(branches) > 1:
            raise ValidationError(
                f"group {group!r} has several effects in more than one branch of the "
                f"tree ({'; '.join(branches)}), and each branch would name its split "
                f"{group + '_flex'!r}: give the effects of each branch a group of its own")
    sides = [(side, [e for e in effects if e.side == side]) for side in ("abiotic", "biotic")]
    subtrees = [_side_subtree(side, eff) for side, eff in sides if eff]
    if len(subtrees) == 1:
        return DecompTree(subtrees[0])
    return DecompTree(TreeNode(name="abiotic_vs_biotic", children=tuple(subtrees), omega_index=0))


# ---------------------------------------------------------------------------
# (V, omega) <-> sigma2 bijection
# ---------------------------------------------------------------------------


def to_variances(tree: DecompTree, p: HDParams) -> dict[str, float]:
    """Leaf variances: sigma2_leaf = V * product of path proportions, root
    first (the splits are in preorder)."""
    out = dict.fromkeys(tree.leaves, p.total)
    for s, props in p.by_split(tree):
        for leaves, w in zip(s.child_leaves, props):
            for leaf in leaves:
                out[leaf] *= float(w)
    return out


def from_variances(tree: DecompTree, sigma2: dict[str, float]) -> HDParams:
    """Total variance and per-split proportions from leaf variances.

    Splits whose parent sum is zero get the simplex barycenter and are
    flagged in ``degenerate_splits`` (with a warning); inference works in
    unconstrained coordinates and never lands there.
    """
    missing = set(tree.leaves) - set(sigma2)
    if missing:
        raise ValidationError(f"missing variances for leaves {sorted(missing)}")
    vals = {k: float(v) for k, v in sigma2.items() if k in tree.leaves}
    if any(v < 0 for v in vals.values()):
        raise ValidationError("variances must be nonnegative")
    total = sum(vals.values())
    if total <= 0:
        raise ValidationError("at least one variance must be positive")

    proportions: dict[str, np.ndarray] = {}
    degenerate: list[str] = []
    for s in tree.splits:
        child_sums = np.array([sum(vals[l] for l in leaves) for leaves in s.child_leaves])
        parent = child_sums.sum()
        if parent <= 0:
            proportions[s.name] = np.full(s.n_children, 1.0 / s.n_children)
            degenerate.append(s.name)
        else:
            proportions[s.name] = child_sums / parent
    if degenerate:
        warnings.warn(
            f"degenerate splits mapped to barycenter: {degenerate}", RuntimeWarning, stacklevel=2
        )
    return HDParams(total=total, proportions=proportions, degenerate_splits=tuple(degenerate))


# ---------------------------------------------------------------------------
# unconstrained coordinates
# ---------------------------------------------------------------------------


def to_unconstrained(tree: DecompTree, p: HDParams) -> np.ndarray:
    """Map (V, proportions) to R^d: log V, logit for binary splits,
    additive log-ratio (reference = last child) for multi-branch splits.
    """
    if p.total <= 0:
        raise ValidationError("total variance must be positive in unconstrained coordinates")
    theta = np.empty(tree.n_coordinates)
    theta[0] = np.log(p.total)
    for s, props in p.by_split(tree):
        if np.any(props <= 0) or np.any(props >= 1):
            raise ValidationError(f"split {s.name!r}: {props} are not proportions off the "
                                  "simplex boundary")
        if s.is_binary:
            w = props[s.omega_index]
            theta[s.coords] = np.log(w) - np.log1p(-w)
        else:
            theta[s.coords] = np.log(props[:-1]) - np.log(props[-1])
    return theta


def natural_columns(tree: DecompTree) -> list[tuple[str, str]]:
    """(column name, marginal key) of each natural coordinate, in the order of
    ``natural_values``: V, then the designated proportion of each binary split
    and every proportion of each multi-branch split. The keys are those of
    ``priors.marginal_cdfs``."""
    out = [("V", "V")]
    for s in tree.splits:
        if s.is_binary:
            out.append((f"omega_{s.name}", f"{s.name}:{s.child_names[s.omega_index]}"))
        else:
            out.extend((f"omega_{s.name}_{c}", f"{s.name}:{c}") for c in s.child_names)
    return out


def natural_values(tree: DecompTree, theta: np.ndarray) -> np.ndarray:
    """The natural coordinates of each row of ``theta`` (n, d), as (n, p) in
    ``natural_columns`` order: V = exp(t), the logistic map for binary splits
    and the softmax (reference = last child) for multi-branch splits, with
    proportions clamped to [PROPORTION_FLOOR, 1 - PROPORTION_FLOOR] and
    renormalized. This is the one map from unconstrained to natural
    coordinates; ``from_unconstrained`` unpacks one of its rows. ``theta``
    of another shape is a ValidationError: the one check of theta's length,
    which ``from_unconstrained``, ``log_jacobian`` and a failed
    ``priors.HDEvaluator.evaluate`` reuse."""
    theta = np.asarray(theta, dtype=float)
    d = tree.n_coordinates
    if theta.ndim != 2 or theta.shape[1] != d:
        raise ValidationError(f"expected rows of {d} coordinates, got shape {theta.shape}")
    out = np.empty((theta.shape[0], tree.n_columns))
    # exp overflows to inf past 709.78: V = inf, where every prior density is
    # 0, and a designated proportion of 0, which the floor clamps
    with np.errstate(over="ignore"):
        out[:, 0] = np.exp(theta[:, 0])
        for s in tree.splits:
            x = theta[:, s.coords]
            if s.is_binary:
                w = 1.0 / (1.0 + np.exp(-x))
                out[:, s.columns] = np.clip(w, PROPORTION_FLOOR, 1.0 - PROPORTION_FLOOR)
            else:
                a = np.zeros((theta.shape[0], s.n_children))
                a[:, :-1] = x
                a -= a.max(axis=1, keepdims=True)
                e = np.exp(a)
                props = np.maximum(e / e.sum(axis=1, keepdims=True), PROPORTION_FLOOR)
                props /= props.sum(axis=1, keepdims=True)
                out[:, s.columns] = props
    return out


def from_unconstrained(tree: DecompTree, theta: np.ndarray) -> HDParams:
    """(V, proportions) at the coordinates ``theta``: one row of
    ``natural_values``, with the complement of each binary split's
    designated proportion filled in."""
    row = natural_values(tree, np.asarray(theta, dtype=float)[None])[0]
    proportions: dict[str, np.ndarray] = {}
    for s in tree.splits:
        props = row[s.columns]
        if s.is_binary:
            props = np.array(s.in_child_order(props[0], 1.0 - props[0]))
        proportions[s.name] = props
    return HDParams(total=float(row[0]), proportions=proportions)


def log_jacobian(tree: DecompTree, theta: np.ndarray) -> float:
    """log |det d(natural)/d(theta)| for the map of ``from_unconstrained``.

    Natural coordinates are V, the designated proportion of each binary
    split, and the first P-1 entries of each multi-branch simplex.
    """
    row = natural_values(tree, np.asarray(theta, dtype=float)[None])[0]
    out = float(theta[0])  # dV/dt = V = e^t
    for s in tree.splits:
        w = row[s.columns]
        out += float(np.log(w[0]) + np.log1p(-w[0]) if s.is_binary else np.sum(np.log(w)))
    return out
