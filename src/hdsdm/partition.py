"""Posterior variance partitioning over the declared covariate distributions.

Realized (finite-population) variances are computed per posterior sample as
the variance of the effect's trend over its standardization quadrature grid,
so the partition is measured against exactly the distribution each effect
was scaled under. Linear and non-linear components of one covariate are
summed on the shared grid before taking the variance (they are orthogonal
under that grid by construction, so this equals the sum of their variances).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ValidationError
from .mcmc import Draws, FitResult, McmcSettings, PosteriorSample, as_draws, fit
from .model import AssembledModel, Dataset, ModelSpec
from .priors import PriorSpec
from .standardize import StandardizedEffect

__all__ = ["PartitionResult", "finite_pop_variance", "phi", "sensitivity_sweep"]

PHI_CHUNK = 256  # draws per block of quadrature matmuls; bounds phi's temporaries


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


def _default_groups(assembled: AssembledModel) -> list[tuple[str, list[str]]]:
    order: list[str] = []
    members: dict[str, list[str]] = {}
    for leaf in assembled.leaf_ids:
        g = assembled.decl_by_leaf[leaf].group
        if g not in members:
            order.append(g)
            members[g] = []
        members[g].append(leaf)
    return [(g, members[g]) for g in order]


def phi(
    samples: Draws | Sequence[PosteriorSample], assembled: AssembledModel | None = None
) -> PartitionResult:
    """Posterior variance shares phi per sample and their posterior mean, per
    effect group (the ``group`` of each effect declaration).

    Samples whose total realized variance is zero carry no defined share and
    are skipped (count reported in ``n_skipped``).
    """
    if isinstance(samples, FitResult):
        assembled = samples.assembled
    if assembled is None:
        raise ValidationError("phi needs the assembled model for raw sample lists")
    draws = as_draws(samples)
    coefs = draws.flat_coefficients()
    groups = _default_groups(assembled)

    quad = {leaf: assembled.effects[leaf].quadrature_design() for leaf in assembled.leaf_ids}
    for name, leaves in groups:
        sizes = {quad[l].shape[0] for l in leaves}
        if len(sizes) != 1:
            raise ValidationError(
                f"group {name!r} mixes effects with different quadrature grids"
            )

    s2 = np.empty((draws.n_samples, len(groups)))
    for start in range(0, draws.n_samples, PHI_CHUNK):
        rows = slice(start, start + PHI_CHUNK)
        for j, (name, leaves) in enumerate(groups):
            trends = sum(coefs[l][rows] @ quad[l].T for l in leaves)
            s2[rows, j] = trends.var(axis=1)
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
    """Posterior-mean effect curves per 1D group, centered to zero quadrature
    mean (the normalization used for the emitted plot data). The trends are
    linear in the coefficients, so they are evaluated at the posterior mean."""
    assembled = result.assembled
    coef_mean = {l: c.mean(axis=0) for l, c in result.flat_coefficients().items()}
    out = {}
    for name, leaves in _default_groups(assembled):
        grid = assembled.effects[leaves[0]].dist.grid()
        if np.asarray(grid).ndim != 1:
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
