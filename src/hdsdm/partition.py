"""Posterior variance partitioning over the declared covariate distributions.

Realized (finite-population) variances are computed per posterior sample as
the variance of the effect's trend over its standardization quadrature grid,
so the partition is measured against exactly the distribution each effect
was scaled under. Linear and non-linear components of one covariate are
summed on the shared grid before taking the variance (they are orthogonal
under that grid by construction, so this equals the sum of their variances).
A group that spans covariates adds the variances of its covariates' trends:
their supports are independent and each trend has mean zero.

``phi`` does not evaluate the trends on the grid. For the leaves that read
one support, stack their quadrature designs into G (Q points by m
coefficients, the leaves' columns side by side) and factor the centered,
scaled design as (G - column means) / sqrt(Q) = O R, with O's columns
orthonormal and R triangular, min(Q, m) rows by m. The grid variance of the
trend G u is |(G - column means) u|^2 / Q = |O R u|^2 = |R u|^2. So ``phi``
computes R once per call for each such support, at O(Q m^2), and each
draw's variance as the squared norm of sum_l R_l u_l over the leaves'
column blocks R_l, at O(m min(Q, m)) per draw, in blocks of ``PHI_CHUNK``
draws: its temporaries are PHI_CHUNK x min(Q, m). The QRs run on one BLAS
thread, as the chains do (``hdsdm.runtime``). ``finite_pop_variance`` keeps
the per-draw definition on the grid, which the tests compare against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ValidationError
from .mcmc import Draws, FitResult, McmcSettings, PosteriorSample, as_draws, fit
from .model import AssembledModel, Dataset, ModelSpec
from .priors import PriorSpec
from .runtime import _one_blas_thread
from .standardize import StandardizedEffect
from .tree import _grouped

__all__ = ["PartitionResult", "finite_pop_variance", "phi", "sensitivity_sweep"]

PHI_CHUNK = 512  # draws per block of factor products; bounds phi's temporaries


def finite_pop_variance(effect: StandardizedEffect, coefficients) -> float:
    """Variance of the realized trend over the effect's quadrature grid."""
    f = effect.quadrature_design() @ np.asarray(coefficients, dtype=float)
    return float(f.var())


@dataclass
class PartitionResult:
    """Per-sample realized variances and shares, grouped by effect group."""

    group_names: list[str]
    s2: np.ndarray  # (n_samples, n_groups)
    phi: np.ndarray  # (n_samples, n_groups)
    phi_mean: np.ndarray  # (n_groups,)
    n_skipped: int = 0

    def summary_rows(self):
        for j, name in enumerate(self.group_names):
            yield name, float(self.phi_mean[j]), float(self.s2[:, j].mean())


def _default_groups(assembled: AssembledModel) -> list[tuple[str, list[list[str]]]]:
    """The leaves grouped by the ``group`` of their declaration, each group
    split into the leaves that read one covariate on one quadrature grid
    (through one support), whose trends add point by point."""
    decl, effects = assembled.decl_by_leaf, assembled.effects

    def support_of(leaf):
        return decl[leaf].covariate, effects[leaf].dist.grid().tobytes()

    return [(name, [subset for _, subset in _grouped(leaves, support_of)])
            for name, leaves in _grouped(assembled.leaf_ids, lambda leaf: decl[leaf].group)]


def _grid_factor(assembled: AssembledModel, leaves: list[str]) -> list[tuple[str, np.ndarray]]:
    """Each leaf with its column block R_l of the triangular factor R of the
    leaves' stacked, centered quadrature designs (module docstring): the
    grid variance of their summed trends is |sum_l R_l u_l|^2."""
    designs = [assembled.effects[l].quadrature_design() for l in leaves]
    G = np.hstack(designs)
    R = np.linalg.qr((G - G.mean(axis=0)) / np.sqrt(G.shape[0]), mode="r")
    return list(zip(leaves, np.hsplit(R, np.cumsum([d.shape[1] for d in designs[:-1]]))))


def phi(
    samples: Draws | Sequence[PosteriorSample], assembled: AssembledModel | None = None
) -> PartitionResult:
    """Posterior variance shares phi per sample and their posterior mean, per
    effect group (the ``group`` of each effect declaration).

    A group's realized variance adds, over the covariates it spans, the
    variance on the quadrature grid of the summed trends of its effects that
    read that covariate through one support, computed from that support's
    triangular grid factor (module docstring). An intercept-only model has
    nothing to partition and is a ValidationError.

    Samples whose total realized variance is zero carry no defined share and
    are skipped (count reported in ``n_skipped``).
    """
    if isinstance(samples, FitResult):
        assembled = samples.assembled
    if assembled is None:
        raise ValidationError("phi needs the assembled model for raw sample lists")
    if not assembled.leaf_ids:
        raise ValidationError("an intercept-only model has no effects to partition")
    draws = as_draws(samples)
    coefs = draws.flat_coefficients()
    groups = _default_groups(assembled)

    with _one_blas_thread():
        factors = [[_grid_factor(assembled, leaves) for leaves in subsets] for _, subsets in groups]
    s2 = np.zeros((draws.n_samples, len(groups)))
    for start in range(0, draws.n_samples, PHI_CHUNK):
        rows = slice(start, start + PHI_CHUNK)
        for j, subsets in enumerate(factors):
            for blocks in subsets:
                image = sum(coefs[l][rows] @ R_l.T for l, R_l in blocks)
                s2[rows, j] += np.einsum("ij,ij->i", image, image)
    totals = s2.sum(axis=1)
    keep = totals > 0
    n_skipped = int((~keep).sum())
    shares = s2[keep] / totals[keep, None]
    if shares.size == 0:
        raise ValidationError("all samples have zero total realized variance")
    return PartitionResult(
        group_names=[g for g, _ in groups],
        s2=s2[keep],
        phi=shares,
        phi_mean=shares.mean(axis=0),
        n_skipped=n_skipped,
    )


@dataclass
class SweepEntry:
    q: float
    result: FitResult
    partition: PartitionResult
    trends: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def posterior_mean_trends(result: FitResult) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Posterior-mean effect curves per 1D group of one covariate, centered to
    zero quadrature mean (the normalization used for the emitted plot data).
    The trends are linear in the coefficients, so they are evaluated at the
    posterior mean. A group that spans covariates has no one curve."""
    assembled = result.assembled
    coef_mean = {l: c.mean(axis=0) for l, c in result.flat_coefficients().items()}
    out = {}
    for name, (leaves, *others) in _default_groups(assembled):
        grid = assembled.effects[leaves[0]].dist.grid()
        if others or np.asarray(grid).ndim != 1:
            continue
        trend = sum(assembled.effects[l].quadrature_design() @ coef_mean[l] for l in leaves)
        out[name] = (np.asarray(grid), trend - trend.mean())
    return out


def sensitivity_sweep(
    model: ModelSpec,
    data: Dataset | None,
    q_values: list[float],
    settings: McmcSettings,
    split_name: str = "covariates",
) -> list[SweepEntry]:
    """Refit with a symmetric Dirichlet(q) on the covariate split per q value.

    Every fit reuses the same seed and settings, so entries differ only
    through the prior; emits the variance partition and the centered
    posterior-mean trend curves for each run. A fit that fails raises its
    own exception, with the q it failed at put before its message.
    """
    entries = []
    for q in q_values:
        priors = dict(model.priors)
        priors[split_name] = PriorSpec(split_name, "dirichlet", {"q": float(q)})
        model_q = replace(model, priors=priors)
        try:
            result = fit(model_q, data, settings)
        except Exception as err:
            # the fit's own error, so that callers see its type and reason
            if len(err.args) == 1 and isinstance(err.args[0], str):
                err.args = (f"sensitivity fit failed at q={q}: {err.args[0]}",)
            raise
        entries.append(
            SweepEntry(
                q=float(q),
                result=result,
                partition=phi(result),
                trends=posterior_mean_trends(result),
            )
        )
    return entries
