"""Known answers for the rank-normalized diagnostics.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from diagnostics import ess_bulk, ess_tail, mcse_mean, rhat_rank  # noqa: E402


def ar1(rho, chains, n, rng):
    e = rng.standard_normal((chains, n))
    x = np.empty_like(e)
    x[:, 0] = e[:, 0] / np.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + e[:, t]
    return x


def test_iid_normal_bulk_and_tail_ess_near_n():
    x = np.random.default_rng(0).standard_normal((4, 1000))
    assert ess_bulk(x) == pytest.approx(x.size, rel=0.1)
    assert ess_tail(x) == pytest.approx(x.size, rel=0.2)


def test_ar1_ess_matches_theory():
    rho = 0.9
    x = ar1(rho, 4, 5000, np.random.default_rng(1))
    assert ess_bulk(x) == pytest.approx(x.size * (1 - rho) / (1 + rho), rel=0.15)


def test_mcse_mean_of_iid_draws():
    x = np.random.default_rng(2).standard_normal((4, 1000))
    assert mcse_mean(x) == pytest.approx(1.0 / np.sqrt(x.size), rel=0.1)


def test_identical_chains_rhat_near_one():
    chain = np.random.default_rng(3).standard_normal(1000)
    assert rhat_rank(np.tile(chain, (4, 1))) == pytest.approx(1.0, abs=0.01)


def test_mean_shifted_chains_rhat_above_threshold():
    x = np.random.default_rng(4).standard_normal((4, 1000))
    x[0] += 2.0
    assert rhat_rank(x) > 1.1


def test_scale_shifted_chains_caught_by_folding():
    x = np.random.default_rng(5).standard_normal((4, 1000))
    x[0] *= 3.0
    assert rhat_rank(x) > 1.1
