"""Rank-normalized MCMC diagnostics (Vehtari, Gelman, Simpson, Carpenter &
Buerkner 2021, "Rank-normalization, folding, and localization").

Every function takes draws shaped (chains, draws) for one scalar parameter.
Chains are split in half before any estimate, so a trend inside a chain
counts as disagreement between chains.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm, rankdata


def _split(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half :]], axis=0)


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    r = rankdata(x, method="average").reshape(x.shape)
    return norm.ppf((r - 0.375) / (x.size + 0.25))


def _ess(x: np.ndarray) -> float:
    """Multi-chain ESS with Geyer's initial monotone sequence."""
    m, n = x.shape
    if n < 4 or not np.all(np.isfinite(x)):
        return float("nan")
    centered = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n
    chain_var = acov[:, 0] * n / (n - 1)
    within = chain_var.mean()
    var_plus = within * (n - 1) / n + (x.mean(axis=1).var(ddof=1) if m > 1 else 0.0)
    if var_plus <= 0:
        return float("nan")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    positive = np.flatnonzero(pairs <= 0)
    pairs = pairs[: positive[0] if positive.size else pairs.size]
    pairs = np.minimum.accumulate(pairs)
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(m * n))
    return float(m * n / tau)


def _rhat(x: np.ndarray) -> float:
    m, n = x.shape
    within = x.var(axis=1, ddof=1).mean()
    if within <= 0:
        return float("nan")
    between = n * x.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1) / n * within + between / n) / within))


def ess_bulk(draws) -> float:
    return _ess(_rank_normalize(_split(draws)))


def ess_tail(draws) -> float:
    """Smaller ESS of the 5% and 95% quantile indicators."""
    x = _split(draws)
    q05, q95 = np.quantile(x, [0.05, 0.95])
    return min(_ess((x <= q05).astype(float)), _ess((x <= q95).astype(float)))


def rhat_rank(draws) -> float:
    """Larger split-Rhat of the rank-normalized and the folded draws."""
    x = _split(draws)
    folded = np.abs(x - np.median(x))
    return max(_rhat(_rank_normalize(x)), _rhat(_rank_normalize(folded)))


def mcse_mean(draws) -> float:
    x = _split(draws)
    return float(x.std(ddof=1) / np.sqrt(_ess(x)))
