"""Variance decomposition trees and the (V, omega) reparametrization.

A tree recursively splits the model's total latent variance into groups of
effects until every leaf holds a single variance parameter. The natural
coordinates are the total variance V and one proportion vector per split;
``to_variances``/``from_variances`` are the two directions of the bijection,
and an unconstrained parametrization (log / logit / additive log-ratio) with
its log-Jacobian supports density transforms for inference.

``natural_values`` is the one map from unconstrained to natural
coordinates, vectorized over draws; ``natural_columns`` names its columns
(the ``V`` and ``omega_*`` columns of the reported draws) and pairs each
with its key in ``priors.marginal_cdfs``. ``from_unconstrained`` unpacks one
of its rows.
"""

from __future__ import annotations

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
    name: str
    child_names: tuple[str, ...]
    child_leaves: tuple[tuple[str, ...], ...]
    omega_index: int

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
        for node in self._preorder(root):
            if node.is_leaf:
                leaves.append(node.name)
                continue
            if len(node.children) < 2:
                raise ValidationError(f"internal node {node.name!r} has fewer than 2 children")
            child_leaves = tuple(
                tuple(x.name for x in self._preorder(c) if x.is_leaf) for c in node.children
            )
            splits.append(
                SplitInfo(
                    name=node.name,
                    child_names=tuple(c.name for c in node.children),
                    child_leaves=child_leaves,
                    omega_index=node.omega_index if node.omega_index is not None else 0,
                )
            )
        if len(set(leaves)) != len(leaves):
            raise ValidationError("leaf ids are not unique")
        names = [s.name for s in splits]
        if len(set(names)) != len(names):
            raise ValidationError("split names are not unique")
        self.splits = tuple(splits)
        self.leaves = tuple(leaves)
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
    """Total variance plus one proportion vector per split (declared order)."""

    total: float
    proportions: dict[str, np.ndarray] = field(default_factory=dict)
    degenerate_splits: tuple[str, ...] = ()

    def __post_init__(self):
        if self.total < 0:
            raise ValidationError(f"total variance must be >= 0, got {self.total}")
        props = {k: np.asarray(v, dtype=float) for k, v in self.proportions.items()}
        for name, p in props.items():
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValidationError(f"split {name!r}: proportions sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "proportions", props)

    def omega(self, tree: DecompTree, split_name: str) -> float:
        """Scalar proportion of the designated child of a binary split."""
        s = tree.split(split_name)
        return float(self.proportions[split_name][s.omega_index])


# ---------------------------------------------------------------------------
# default tree construction
# ---------------------------------------------------------------------------


def _leaf(effect: EffectLabel) -> TreeNode:
    return TreeNode(name=effect.effect_id)


def _flex_subtree(group: str, members: list[EffectLabel], suffix: str = "") -> TreeNode:
    if len(members) == 1:
        return _leaf(members[0])
    name = f"{group}_flex{suffix}"
    rest = _flex_subtree(group, members[1:], suffix="2" if suffix == "" else str(int(suffix or 1) + 1))
    # the later-declared (more flexible) branch is the designated omega child
    return TreeNode(name=name, children=(_leaf(members[0]), rest), omega_index=1)


def _grouped(effects: list[EffectLabel]) -> list[tuple[str, list[EffectLabel]]]:
    order: list[str] = []
    groups: dict[str, list[EffectLabel]] = {}
    for e in effects:
        if e.group not in groups:
            order.append(e.group)
            groups[e.group] = []
        groups[e.group].append(e)
    return [(g, groups[g]) for g in order]


def _mains_subtree(side: str, mains: list[EffectLabel]) -> TreeNode:
    groups = _grouped(mains)
    nodes = [_flex_subtree(g, members) for g, members in groups]
    if len(nodes) == 1:
        return nodes[0]
    names = [g for g, _ in groups]
    if side == "biotic" and set(names) == {"spatial", "temporal"}:
        return TreeNode(
            name="spatial_vs_temporal",
            children=tuple(nodes),
            omega_index=names.index("spatial"),
        )
    name = "covariates" if side == "abiotic" else "biotic_components"
    return TreeNode(name=name, children=tuple(nodes), omega_index=0)


def _interactions_subtree(side: str, inters: list[EffectLabel]) -> TreeNode:
    groups = _grouped(inters)
    nodes = [_flex_subtree(g, members) for g, members in groups]
    if len(nodes) == 1:
        return nodes[0]
    return TreeNode(name=f"{side}_interactions", children=tuple(nodes), omega_index=0)


def _side_subtree(side: str, effects: list[EffectLabel]) -> TreeNode:
    mains = [e for e in effects if e.role == "main"]
    inters = [e for e in effects if e.role == "interaction"]
    if mains and inters:
        return TreeNode(
            name=f"{side}_mains_vs_interactions",
            children=(_mains_subtree(side, mains), _interactions_subtree(side, inters)),
            omega_index=1,  # interactions are the more flexible branch
        )
    if mains:
        return _mains_subtree(side, mains)
    return _interactions_subtree(side, inters)


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
    ids = [e.effect_id for e in effects]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate effect ids")
    abiotic = [e for e in effects if e.side == "abiotic"]
    biotic = [e for e in effects if e.side == "biotic"]
    sides = [( "abiotic", abiotic), ("biotic", biotic)]
    subtrees = [_side_subtree(side, eff) for side, eff in sides if eff]
    if len(subtrees) == 2:
        root = TreeNode(name="abiotic_vs_biotic", children=tuple(subtrees), omega_index=0)
    else:
        root = subtrees[0]
    return DecompTree(root)


# ---------------------------------------------------------------------------
# (V, omega) <-> sigma2 bijection
# ---------------------------------------------------------------------------


def to_variances(tree: DecompTree, p: HDParams) -> dict[str, float]:
    """Leaf variances: sigma2_leaf = V * product of path proportions."""
    out: dict[str, float] = {}

    def walk(node: TreeNode, mult: float):
        if node.is_leaf:
            out[node.name] = mult
            return
        props = p.proportions[node.name]
        if props.shape[0] != len(node.children):
            raise ValidationError(
                f"split {node.name!r}: {props.shape[0]} proportions for "
                f"{len(node.children)} children"
            )
        for child, w in zip(node.children, props):
            walk(child, mult * float(w))

    walk(tree.root, p.total)
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


def n_coordinates(tree: DecompTree) -> int:
    return 1 + sum(1 if s.is_binary else s.n_children - 1 for s in tree.splits)


def to_unconstrained(tree: DecompTree, p: HDParams) -> np.ndarray:
    """Map (V, proportions) to R^d: log V, logit for binary splits,
    additive log-ratio (reference = last child) for multi-branch splits.
    """
    if p.total <= 0:
        raise ValidationError("total variance must be positive in unconstrained coordinates")
    coords = [np.log(p.total)]
    for s in tree.splits:
        props = p.proportions[s.name]
        if np.any(props <= 0) or np.any(props >= 1):
            raise ValidationError(f"split {s.name!r}: proportions on the simplex boundary")
        if s.is_binary:
            w = props[s.omega_index]
            coords.append(np.log(w) - np.log1p(-w))
        else:
            coords.extend(np.log(props[:-1]) - np.log(props[-1]))
    return np.array(coords)


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
    coordinates; ``from_unconstrained`` unpacks one of its rows."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty((theta.shape[0], len(natural_columns(tree))))
    # exp overflows to inf past 709.78: V = inf, where every prior density is
    # 0, and a designated proportion of 0, which the floor clamps
    with np.errstate(over="ignore"):
        out[:, 0] = np.exp(theta[:, 0])
        j = pos = 1
        for s in tree.splits:
            if s.is_binary:
                w = 1.0 / (1.0 + np.exp(-theta[:, pos]))
                out[:, j] = np.clip(w, PROPORTION_FLOOR, 1.0 - PROPORTION_FLOOR)
                j += 1
                pos += 1
            else:
                k = s.n_children - 1
                a = np.zeros((theta.shape[0], k + 1))
                a[:, :k] = theta[:, pos : pos + k]
                pos += k
                a -= a.max(axis=1, keepdims=True)
                e = np.exp(a)
                props = np.maximum(e / e.sum(axis=1, keepdims=True), PROPORTION_FLOOR)
                props /= props.sum(axis=1, keepdims=True)
                out[:, j : j + k + 1] = props
                j += k + 1
    return out


def from_unconstrained(tree: DecompTree, theta: np.ndarray) -> HDParams:
    """(V, proportions) at the coordinates ``theta``: one row of
    ``natural_values``, with the complement of each binary split's
    designated proportion filled in."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n_coordinates(tree),):
        raise ValidationError(
            f"expected {n_coordinates(tree)} coordinates, got shape {theta.shape}"
        )
    row = natural_values(tree, theta[None])[0]
    j = 1
    proportions: dict[str, np.ndarray] = {}
    for s in tree.splits:
        if s.is_binary:
            props = np.empty(2)
            props[s.omega_index] = row[j]
            props[1 - s.omega_index] = 1.0 - row[j]
            j += 1
        else:
            props = row[j : j + s.n_children]
            j += s.n_children
        proportions[s.name] = props
    return HDParams(total=float(row[0]), proportions=proportions)


def log_jacobian(tree: DecompTree, theta: np.ndarray) -> float:
    """log |det d(natural)/d(theta)| for the map of ``from_unconstrained``.

    Natural coordinates are V, the designated proportion of each binary
    split, and the first P-1 entries of each multi-branch simplex.
    """
    p = from_unconstrained(tree, theta)
    out = float(theta[0])  # dV/dt = V = e^t
    for s in tree.splits:
        props = p.proportions[s.name]
        if s.is_binary:
            w = props[s.omega_index]
            out += float(np.log(w) + np.log1p(-w))
        else:
            out += float(np.sum(np.log(props)))
    return out
