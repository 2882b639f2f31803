"""Blocked adaptive Metropolis-within-Gibbs over HD coordinates and effects.

One iteration performs: (a) a multivariate random-walk update of the
unconstrained hyperparameter coordinates with an adapted proposal covariance
(non-centered: coefficients keep their whitened values, so the likelihood
sees rescaled effects); (b) an interweaved centered update of the same
coordinates holding the latent effects fixed (Yu & Meng 2011: no likelihood,
the ratio needs only the differences of the leaf log scales, and the whitened
coefficients are rescaled on acceptance) to keep hyperparameter mixing robust
when the likelihood is informative; (c) a scalar intercept update; and
(d) one joint Gaussian random-walk update per coefficient block in
prior-whitened coordinates, which both enforces the effect constraints
exactly and makes the prior-precision preconditioning an identity proposal.
The proposal noise of (d) does not depend on the chain state, so it is drawn
for ``PROPOSAL_BLOCK`` iterations at a time, and its image on the training
rows (design times whitening transform times noise) is formed with one
matrix product per leaf. A proposal then moves the linear predictor by a
scaled row of that image, and on acceptance the same row updates the
unscaled per-leaf predictor ``V`` (leaves, n) in place. The same product
also rebuilds ``V`` from the current coefficients once per block, because
the centered rescaling in (b) multiplies its rounding error; at the end of
each chain the linear predictor is recomputed from the coefficients and
checked against the incremental one.

A chain without training rows (a likelihood weight of 0 hides them, as in a
prior check) runs in a loop of its own, where the full conditionals of (c)
and (d) are the priors N(0, ``MU_PRIOR_SD``^2) and N(0, I) of the whitened
xi. (a) and (b) stay Metropolis steps on theta, a list of floats, with the
same proposal law, acceptance rule and adaptation: they are what a prior
check validates. Their proposal normals (times the proposal factor) and
uniforms are drawn once per ``ADAPTATION_WINDOW`` iterations, where that
factor may change, and so is |xi|^2 per leaf, all that (b) reads of xi, as
chi^2 with the leaf's free dimension. A kept iteration stores theta, log
sigma and |xi|^2. After the loop each kept xi is sqrt(|xi|^2) g / |g| with g
~ N(0, I), which is exactly N(0, I); the effects sigma T xi take one matrix
product per leaf, and the intercepts one vector of normals. Such a chain
evaluates no likelihood, reports acceptance 1 for (c) and (d), and draws a
random stream unlike that of earlier versions; chains with rows do not.

Bookkeeping stays out of the way of the likelihood. Each chain multiplies
the rows of its designs by the sign 1 - 2y once, so the proposal images, ``V``
and the tracked predictor all carry it: the chain tracks x = (1 - 2y) eta,
which is the argument ``bernoulli_loglik`` takes, and the intercept moves x
by its step times the sign. Negation is exact, so x is (1 - 2y) eta bit for
bit, and the end-of-chain check compares (1 - 2y) x with the recomputed
predictor. Every proposed predictor is written into whichever of two
preallocated buffers does not hold the current one, and the likelihood works
in one more; a one-column design maps its proposals by an outer product. A
retained draw stores its coordinates ``theta``, its intercept and its
coefficients (written in place); the reported hyperparameters (V and the
proportions) are computed from ``theta`` by ``tree.natural_values``, for all
draws at once after the chains have run.

Adaptation runs during burn-in only, so retained samples come from a fixed
kernel: the proposal scales move by Robbins-Monro toward the optimal-scaling
acceptance rates, ``TARGET_ACCEPT_HYPER`` = 0.234 for the hyper blocks
(Roberts, Gelman & Gilks 1997) and ``TARGET_ACCEPT_BLOCK`` = 0.44 for the
intercept and the coefficient blocks (Roberts & Rosenthal 2001), and every
``ADAPTATION_WINDOW`` iterations the hyper proposal covariance is re-estimated
from the chain history.

The chains of one fit share no state, so ``fit`` runs them at the same time
in W = min(chains, usable CPUs) workers: the calling process runs chains 0,
W, 2W, ..., and a standard-library pool of W - 1 ``fork``ed processes runs
the others as queued tasks. Each chain has its own random stream and writes
disjoint rows of result arrays in anonymous shared memory, which the pool
inherits through ``fork``, so no draw is copied between processes; a task
sends back only its acceptance rates and kernel times. When a chain fails,
the queued chains never start, but one already running in a worker finishes
first. For the whole chain phase every loaded OpenBLAS is pinned to one
thread (and restored afterwards): BLAS threads in each worker would compete
for the same CPUs, and the proposal-image products give different bits at
one and at two threads, so pinning also makes the draws independent of the
machine. Where no OpenBLAS thread setter is found, the platform lacks
``fork`` or CPU affinity, or another Python thread is running (a forked
child would hold only the forking thread), all chains run one after another
in the calling process, with the same draws.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import multiprocessing
import os
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DiagnosticError, ValidationError
from .gmrf import CoefficientBlock
from .model import MU_PRIOR_SD, AssembledModel, Dataset, ModelSpec, assemble
from .priors import HDEvaluator, log_prior_unconstrained, prior_median_theta
from .tree import (
    HDParams,
    from_unconstrained,
    n_coordinates,
    natural_columns,
    natural_values,
    to_variances,
)

# iterations whose coefficient proposal noise is drawn, and mapped to the
# training rows, at once
PROPOSAL_BLOCK = 16

# target acceptance rates of the hyper blocks (a, b) and of the scalar and
# block updates (c, d), and the iterations between re-estimates of the hyper
# proposal covariance during burn-in
TARGET_ACCEPT_HYPER = 0.234
TARGET_ACCEPT_BLOCK = 0.44
ADAPTATION_WINDOW = 50

# the sampler's kernels, as timed in FitResult.timings: the hyper updates (a)
# and (b), the intercept (c), the coefficient blocks (d), the block draws of
# coefficient proposals with their images on the training rows, and
# adaptation plus writing the retained draws. In a chain without rows,
# "proposals" is the block draws of (a), (b) and |xi|^2, and "mu" and "coef"
# are the exact draws of the kept intercepts and effects after the loop.
KERNELS = ("hyper", "hyper_centered", "mu", "coef", "proposals", "store")

__all__ = [
    "McmcSettings",
    "ModelState",
    "PosteriorSample",
    "Draws",
    "FitResult",
    "log_posterior",
    "fit",
    "predict",
    "metrics",
    "split_rhat",
]


@dataclass(frozen=True)
class McmcSettings:
    chains: int = 4
    iterations: int = 6000
    burn_in: int = 3000
    thinning: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("chains", "iterations", "burn_in", "thinning", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.chains < 1:
            raise ValidationError("need at least one chain")
        if not self.iterations > self.burn_in >= 0:
            raise ValidationError("need iterations > burn_in >= 0")
        if self.thinning < 1:
            raise ValidationError("thinning must be >= 1")


@dataclass
class ModelState:
    """Centered-parametrization state: unconstrained HD coordinates,
    intercept, and per-leaf coefficient vectors."""

    theta: np.ndarray
    mu: float
    coefficients: dict[str, np.ndarray]


@dataclass
class PosteriorSample:
    """One draw as a record: an input to ``predict`` and ``phi``; ``eta`` is ignored."""

    hd: HDParams | None
    coefficients: dict[str, CoefficientBlock]
    mu: float
    eta: np.ndarray | None = None


@dataclass
class Draws:
    """Retained posterior draws as arrays with leading axes (chains, draws)."""

    mu: np.ndarray  # (chains, draws)
    coefficients: dict[str, np.ndarray]  # leaf -> (chains, draws, n_coef)

    @property
    def n_samples(self) -> int:
        return self.mu.size

    def flat_coefficients(self) -> dict[str, np.ndarray]:
        """leaf -> (n_samples, n_coef), the chains one after another."""
        return {l: c.reshape(self.n_samples, -1) for l, c in self.coefficients.items()}


def as_draws(samples: Draws | Sequence[PosteriorSample]) -> Draws:
    """Draws as given, or a list of records stacked as a single chain."""
    if not isinstance(samples, Draws):
        leaves = samples[0].coefficients if samples else {}
        samples = Draws(
            mu=np.array([[s.mu for s in samples]], dtype=float),
            coefficients={
                l: np.array([[s.coefficients[l].values for s in samples]]) for l in leaves
            },
        )
    if samples.n_samples == 0:
        raise ValidationError("no posterior samples")
    return samples


def bernoulli_loglik(x: np.ndarray, out: np.ndarray | None = None) -> float:
    """Sum of Bernoulli log-probabilities under the logit link, given the
    signed linear predictor x = (1 - 2y) eta: each term is -log1p(exp(x)).

    Three passes over the rows, exp, log1p and the sum, all in ``out``, a
    scratch array of the shape of ``x`` (allocated when omitted). Where
    x <= 0 a term has the bits of the stable form
    max(x, 0) + log1p(exp(-|x|)); above 0 it is within one rounding of it.
    Where exp overflows (x above about 709.78) the sum is not finite, and
    the stable form is evaluated instead, without a warning; nan gives nan.
    """
    if out is None:
        out = np.empty_like(x)
    with np.errstate(over="ignore"):
        np.exp(x, out=out)
    np.log1p(out, out=out)
    total = float(out.sum())
    if math.isfinite(total):
        return -total
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return float(-out.sum())


def _check_likelihood_weight(w) -> None:
    real = isinstance(w, (int, float, np.integer, np.floating)) and not isinstance(w, bool)
    if not (real and w in (0, 1)):
        raise ValidationError(f"likelihood_weight must be 0 or 1, got {w!r}")


def log_posterior(
    assembled: AssembledModel, state: ModelState, likelihood_weight: float = 1.0
) -> float:
    """Joint log density: Bernoulli likelihood + coefficient Gaussians given
    sigma2(hd) + prior on the unconstrained HD coordinates (with Jacobian).
    ``likelihood_weight`` is 1, or 0 to leave the likelihood out."""
    _check_likelihood_weight(likelihood_weight)
    tree = assembled.tree
    lp = 0.0
    if tree is not None:
        lp = log_prior_unconstrained(tree, assembled.model.priors, state.theta)
        if not np.isfinite(lp):
            return -np.inf
        hd = from_unconstrained(tree, state.theta)
        sigma2 = to_variances(tree, hd)
        for leaf in assembled.leaf_ids:
            lp += assembled.effects[leaf].coefficient_logpdf(
                state.coefficients[leaf], sigma2[leaf]
            )
    lp += -0.5 * (state.mu / MU_PRIOR_SD) ** 2 - 0.5 * np.log(2.0 * np.pi * MU_PRIOR_SD**2)
    if not likelihood_weight:
        return lp
    eta = assembled.linear_predictor(state.coefficients, state.mu)
    return bernoulli_loglik((1.0 - 2.0 * assembled.y_train) * eta) + lp


def hyper_param_names(assembled: AssembledModel) -> list[str]:
    """Column names of ``FitResult.hyper_draws``: the natural coordinates of
    the tree (``tree.natural_columns``), then ``mu``."""
    names = [] if assembled.tree is None else [n for n, _ in natural_columns(assembled.tree)]
    return names + ["mu"]


class _Accept:
    """Acceptance bookkeeping plus Robbins-Monro scale adaptation."""

    def __init__(self, log_scale: float, target: float):
        self.log_scale = log_scale
        self.scale = math.exp(log_scale)
        self.target = target
        self.n = 0
        self.accepted = 0.0

    def update(self, alpha: float, it: int, adapting: bool):
        self.n += 1
        self.accepted += alpha
        if adapting:
            gamma = min(0.1, 5.0 / (1.0 + it) ** 0.6)
            self.log_scale += gamma * (alpha - self.target)
            self.scale = math.exp(self.log_scale)

    def rate(self) -> float:
        return self.accepted / self.n if self.n else np.nan

    def reset(self):
        self.n = 0
        self.accepted = 0.0


def _check_divergent(acc: dict[str, "_Accept"]) -> dict[str, float]:
    """Post-burn-in acceptance rates; error when a kernel is pinned at 0/1."""
    rates = {name: a.rate() for name, a in acc.items()}
    pinned = {
        name: r
        for name, r in rates.items()
        if acc[name].n >= 50 and (r < 0.01 or r > 0.99)
    }
    if pinned:
        raise DiagnosticError(
            "divergent adaptation, acceptance pinned after burn-in: "
            + ", ".join(f"{k}={v:.3f}" for k, v in pinned.items())
        )
    return rates


def _centered_log_ratio(
    lsig: list[float], lsig_new: list[float], qnorm: list[float], dims: list[int]
) -> float:
    """Log acceptance ratio of the centered move (b), less its prior terms.

    The effects sigma * xi stay fixed while each leaf's log sigma moves from
    ``lsig`` to ``lsig_new``; with D = lsig_new - lsig, xi becomes
    exp(-D) xi, and for a leaf with ``dims`` free coefficients and
    ``qnorm`` = |xi|^2 the coefficient density changes by
    -dims D - q/2 (exp(-2D) - 1). Where exp(-2D) overflows, or q = 0 meets
    an infinite term, the ratio is -inf: the move is rejected.
    """
    out = 0.0
    try:
        for n, a, b, q in zip(dims, lsig, lsig_new, qnorm):
            delta = b - a
            out -= n * delta + 0.5 * q * (math.exp(-2.0 * delta) - 1.0)
    except OverflowError:
        return -math.inf
    return -math.inf if math.isnan(out) else out


def _check_eta(
    assembled: AssembledModel, coefficients: dict[str, np.ndarray], mu: float, eta: np.ndarray
) -> None:
    """Raise DiagnosticError when the incrementally updated linear predictor
    differs from the one recomputed from the coefficients and intercept."""
    exact = assembled.linear_predictor(coefficients, mu)
    err = float(np.max(np.abs(eta - exact), initial=0.0))
    tol = 1e-8 * (1.0 + float(np.max(np.abs(eta), initial=0.0)))
    if not err <= tol:  # also catches nan
        raise DiagnosticError(
            f"incremental linear predictor drifted by {err:.3g} (tolerance {tol:.3g})"
        )


def _alpha(logr: float) -> float:
    """Metropolis acceptance probability of a log ratio."""
    if logr >= 0.0:
        return 1.0
    if logr > -745.0:  # exp underflow floor; also rejects nan/-inf
        return math.exp(logr)
    return 0.0


def _hyper_start(assembled: AssembledModel) -> tuple:
    """(evaluator, theta at the prior medians, its log prior, its log sigma
    per leaf, acceptance records of the hyper moves (a) and (b))."""
    tree, priors = assembled.tree, assembled.model.priors
    evaluator, theta, lp_theta, lsig = None, np.zeros(0), 0.0, []
    if tree is not None:
        evaluator = HDEvaluator(tree, priors)
        theta = prior_median_theta(tree, priors).copy()
        lp_theta, lsig = evaluator.evaluate(theta)  # lsig: log sigma per leaf
        if not math.isfinite(lp_theta):
            raise DiagnosticError("non-finite log prior at the initial state")
    scale = np.log(2.38 / np.sqrt(max(theta.size, 1)))
    acc = {k: _Accept(scale, TARGET_ACCEPT_HYPER) for k in ("hyper", "hyper_centered")}
    return evaluator, theta, lp_theta, lsig, acc


def _adapt(theta_history: np.ndarray, it: int, burn_in: int, prop_chol: np.ndarray,
           acc: dict[str, _Accept]) -> np.ndarray:
    """After burn-in iteration ``it`` (``theta_history`` filled up to it):
    the hyper proposal factor, re-estimated every ``ADAPTATION_WINDOW``
    iterations; at the end of burn-in the acceptance records restart."""
    d = theta_history.shape[1]
    if d > 0 and it + 1 >= max(2 * d, 20) and (it + 1) % ADAPTATION_WINDOW == 0:
        window = theta_history[max(0, it - 2000) : it + 1]
        cov = np.atleast_2d(np.cov(window.T)) + 1e-8 * np.eye(d)
        try:
            prop_chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            pass
    if it + 1 == burn_in:
        for a in acc.values():
            a.reset()  # diagnostics reflect the frozen kernel only
    return prop_chol


def _run_chain(
    result: FitResult, c: int, rng: np.random.Generator
) -> tuple[dict[str, float], dict[str, float]]:
    """Run chain c, writing its retained draws into row c of the result's
    arrays; return its acceptance rates and the seconds spent in each kernel.
    A chain without training rows runs in ``_run_prior_chain``."""
    assembled, settings = result.assembled, result.settings
    leaves = list(assembled.leaf_ids)
    transforms = [assembled.effects[l].whitening_transform() for l in leaves]
    dims = [T.shape[1] for T in transforms]  # free coefficients per leaf
    y = assembled.y_train
    if y.size == 0:
        return _run_prior_chain(result, c, rng, leaves, transforms, dims)
    sign = 1.0 - 2.0 * y
    n_obs = y.size

    # initialization: HD coordinates at prior medians, coefficients at zero,
    # intercept at the empirical logit
    evaluator, theta, lp_theta, lsig, acc = _hyper_start(assembled)
    d = theta.size
    sig = np.exp(lsig)
    p0 = float(np.clip(y.mean(), 0.01, 0.99))
    mu = float(np.log(p0) - np.log1p(-p0))
    xi = [np.zeros(n) for n in dims]
    qnorm = [0.0] * len(leaves)  # |xi|^2 per leaf

    # Per leaf, row 0 of `whitened` is the current xi and rows 1.. are the
    # proposal noise of the current block of iterations; `images` holds their
    # images G_l T_l (.) on the training rows. Each design row carries the
    # sign 1 - 2y of its observation, so the images do too, and so does
    # everything formed from them: row 0 of `images` is the signed per-leaf
    # predictor V, and the tracked predictor is x = sign * eta =
    # sig @ V + mu * sign, the argument of bernoulli_loglik. Negation is
    # exact, so x is sign * eta bit for bit. V is updated in place between
    # blocks, and each block's product rebuilds it from xi, so that the
    # rounding error the centered rescaling multiplies stays small. A
    # one-column design maps by an outer product, which gives the bits of the
    # matrix product at a fraction of its cost.
    whitened = [np.zeros((PROPOSAL_BLOCK + 1, n)) for n in dims]
    images = np.zeros((len(leaves), PROPOSAL_BLOCK + 1, n_obs))
    V = images[:, 0]
    designs_t = [np.multiply(assembled.designs[l].T, sign, order="C") for l in leaves]
    image_ops = [np.multiply if g.shape[0] == 1 else np.matmul for g in designs_t]

    # The current signed predictor `x` is one of these two buffers, and each
    # proposal is written into the other one; `scratch` is the likelihood's
    # work array, and holds mu * sign in (a).
    x_bufs = (np.empty(n_obs), np.empty(n_obs))
    scratch = np.empty(n_obs)
    x = x_bufs[0]
    np.matmul(sig, V, out=x)
    x += np.multiply(sign, mu, out=scratch)
    ll = bernoulli_loglik(x, scratch)
    if not math.isfinite(ll):
        raise DiagnosticError("non-finite log likelihood at the initial state")

    prop_chol = np.eye(d)
    theta_history = np.empty((settings.burn_in, d))
    acc["mu"] = _Accept(np.log(0.5), TARGET_ACCEPT_BLOCK)
    for l, n in zip(leaves, dims):
        acc[f"coef[{l}]"] = _Accept(np.log(2.38 / np.sqrt(n)), TARGET_ACCEPT_BLOCK)
    acc_coef = [acc[f"coef[{l}]"] for l in leaves]

    t_prop = t_hyper = t_centered = t_mu = t_coef = t_store = 0.0
    clock = time.perf_counter
    for it in range(settings.iterations):
        adapting = it < settings.burn_in
        t0 = clock()

        j = it % PROPOSAL_BLOCK + 1
        if j == 1:
            for k, w in enumerate(whitened):
                # the current xi moves to row 0, whose image rebuilds V, and
                # stays a view of it until (d) accepts a move
                w[0] = xi[k]
                xi[k] = w[0]
                rng.standard_normal(out=w[1:])
                image_ops[k](w @ transforms[k].T, designs_t[k], out=images[k])
        t1 = clock()
        t_prop += t1 - t0

        if d > 0:
            # (a) hyper block, non-centered: effects rescale with sigma
            step = acc["hyper"].scale * (prop_chol @ rng.standard_normal(d))
            theta_new = theta + step
            lp_new, lsig_new = evaluator.evaluate(theta_new)
            logr = -math.inf
            if math.isfinite(lp_new):
                sig_new = np.exp(lsig_new)
                x_new = x_bufs[x is x_bufs[0]]
                np.matmul(sig_new, V, out=x_new)
                x_new += np.multiply(sign, mu, out=scratch)
                ll_new = bernoulli_loglik(x_new, scratch)
                logr = ll_new - ll + lp_new - lp_theta
            alpha = _alpha(logr)
            if rng.random() < alpha:
                theta, lsig, lp_theta = theta_new, lsig_new, lp_new
                sig, x, ll = sig_new, x_new, ll_new
            acc["hyper"].update(alpha, it, adapting)
            t0 = clock()
            t_hyper += t0 - t1

            # (b) hyper block, centered interweave: effects held fixed, so the
            # likelihood is unchanged; the ratio needs only log sigma
            step = acc["hyper_centered"].scale * (prop_chol @ rng.standard_normal(d))
            theta_new = theta + step
            lp_new, lsig_new = evaluator.evaluate(theta_new)
            logr = -math.inf
            if math.isfinite(lp_new):
                logr = _centered_log_ratio(lsig, lsig_new, qnorm, dims) + lp_new - lp_theta
            alpha = _alpha(logr)
            if rng.random() < alpha:
                # xi scales by sig / sig_new
                sig_new = np.exp(lsig_new)
                ratios = sig / sig_new
                for k, r in enumerate(ratios.tolist()):
                    xi[k] *= r
                    qnorm[k] *= r * r
                V *= ratios[:, None]
                theta, lsig, lp_theta, sig = theta_new, lsig_new, lp_new, sig_new
            acc["hyper_centered"].update(alpha, it, adapting)
            t1 = clock()
            t_centered += t1 - t0

        # (c) intercept
        mu_new = mu + acc["mu"].scale * rng.standard_normal()
        x_new = np.multiply(sign, mu_new - mu, out=x_bufs[x is x_bufs[0]])
        x_new += x
        ll_new = bernoulli_loglik(x_new, scratch)
        logr = ll_new - ll - 0.5 * (mu_new**2 - mu**2) / MU_PRIOR_SD**2
        alpha = _alpha(logr)
        if rng.random() < alpha:
            mu, x, ll = mu_new, x_new, ll_new
        acc["mu"].update(alpha, it, adapting)
        t0 = clock()
        t_mu += t0 - t1

        # (d) coefficient blocks in prior-whitened coordinates
        for k, w in enumerate(whitened):
            s = acc_coef[k].scale
            xi_new = xi[k] + s * w[j]
            q_new = float(xi_new @ xi_new)
            x_new = np.multiply(images[k, j], sig[k] * s, out=x_bufs[x is x_bufs[0]])
            x_new += x
            ll_new = bernoulli_loglik(x_new, scratch)
            logr = ll_new - ll - 0.5 * (q_new - qnorm[k])
            alpha = _alpha(logr)
            if rng.random() < alpha:
                xi[k], qnorm[k], x, ll = xi_new, q_new, x_new, ll_new
                V[k] += s * images[k, j]
            acc_coef[k].update(alpha, it, adapting)
        t1 = clock()
        t_coef += t1 - t0

        if adapting:
            if d > 0:
                theta_history[it] = theta
            prop_chol = _adapt(theta_history, it, settings.burn_in, prop_chol, acc)

        kept, skip = divmod(it - settings.burn_in, settings.thinning)
        if kept >= 0 and skip == 0:
            for k, l in enumerate(leaves):  # the effects u = sigma T xi, in place
                row = result.coefficients[l][c, kept]
                np.matmul(transforms[k], xi[k], out=row)
                row *= sig[k]
            result.theta[c, kept] = theta
            result.mu[c, kept] = mu
        t_store += clock() - t1

    u = {l: sig[k] * (transforms[k] @ xi[k]) for k, l in enumerate(leaves)}
    _check_eta(assembled, u, mu, sign * x)
    return _check_divergent(acc), dict(zip(KERNELS, (t_hyper, t_centered, t_mu, t_coef, t_prop, t_store)))


def _run_prior_chain(
    result: FitResult, c: int, rng: np.random.Generator, leaves: list[str],
    transforms: list[np.ndarray], dims: list[int]
) -> tuple[dict[str, float], dict[str, float]]:
    """``_run_chain`` without training rows: Metropolis (a) and (b) on theta,
    exact intercepts and effects for the kept draws (see the module notes)."""
    settings = result.settings
    evaluator, theta, lp_theta, lsig, acc = _hyper_start(result.assembled)
    d, theta = theta.size, theta.tolist()
    acc_a, acc_b = acc["hyper"], acc["hyper_centered"]
    qnorm = [0.0] * len(leaves)  # |xi|^2 per leaf, of the initial xi = 0
    n_keep = result.mu.shape[1]
    kept = np.empty((n_keep, 2, len(leaves)))  # log sigma and |xi|^2 of each kept draw
    prop_chol = np.eye(d)
    theta_history = np.empty((settings.burn_in, d))

    t_prop = t_hyper = t_centered = t_store = 0.0
    clock = time.perf_counter
    for start in range(0, settings.iterations, ADAPTATION_WINDOW) if d else ():
        t0 = clock()
        n = min(ADAPTATION_WINDOW, settings.iterations - start)
        steps = (rng.standard_normal((n, 2, d)) @ prop_chol.T).tolist()
        uniforms = rng.random((n, 2)).tolist()
        norms = rng.chisquare(dims, (n, len(leaves))).tolist()
        t1 = clock()
        t_prop += t1 - t0
        for it, (step_a, step_b), (u_a, u_b), q_new in zip(
            range(start, start + n), steps, uniforms, norms
        ):
            adapting = it < settings.burn_in
            # (a): without a likelihood, the ratio is that of the prior
            s = acc_a.scale
            theta_new = [t + s * z for t, z in zip(theta, step_a)]
            lp_new, lsig_new = evaluator.evaluate(theta_new)
            alpha = _alpha(lp_new - lp_theta)
            if u_a < alpha:
                theta, lsig, lp_theta = theta_new, lsig_new, lp_new
            acc_a.update(alpha, it, adapting)
            t0 = clock()
            t_hyper += t0 - t1

            # (b): reads |xi|^2 of the last (d); (d) draws xi afresh, so
            # nothing is rescaled on acceptance
            s = acc_b.scale
            theta_new = [t + s * z for t, z in zip(theta, step_b)]
            lp_new, lsig_new = evaluator.evaluate(theta_new)
            logr = -math.inf
            if math.isfinite(lp_new):
                logr = _centered_log_ratio(lsig, lsig_new, qnorm, dims) + lp_new - lp_theta
            alpha = _alpha(logr)
            if u_b < alpha:
                theta, lsig, lp_theta = theta_new, lsig_new, lp_new
            acc_b.update(alpha, it, adapting)
            t1 = clock()
            t_centered += t1 - t0

            qnorm = q_new  # (d), for the norms; a direction only where kept
            if adapting:
                theta_history[it] = theta
                prop_chol = _adapt(theta_history, it, settings.burn_in, prop_chol, acc)
            k, skip = divmod(it - settings.burn_in, settings.thinning)
            if k >= 0 and skip == 0:
                result.theta[c, k] = theta
                kept[k] = lsig, qnorm
            t0 = clock()
            t_store += t0 - t1
            t1 = t0

    t0 = clock()
    result.mu[c] = MU_PRIOR_SD * rng.standard_normal(n_keep)
    t_mu, t0 = clock() - t0, clock()
    # xi = sqrt(q) g / |g| is N(0, I) given |xi|^2 = q; the effects are sigma T xi
    scales = np.exp(kept[:, 0]) * np.sqrt(kept[:, 1])
    for k, l in enumerate(leaves):
        g = rng.standard_normal((n_keep, dims[k]))
        g *= (scales[:, k] / np.linalg.norm(g, axis=1))[:, None]
        np.matmul(g, transforms[k].T, out=result.coefficients[l][c])
    t_coef = clock() - t0

    rates = _check_divergent(acc)
    # an exact draw is always accepted, which is no sign of a pinned kernel
    rates["mu"] = 1.0
    rates.update((f"coef[{l}]", 1.0) for l in leaves)
    return rates, dict(zip(KERNELS, (t_hyper, t_centered, t_mu, t_coef, t_prop, t_store)))


# (getter, setter) of the OpenBLAS thread count, by the names the numpy and
# scipy wheels and plain OpenBLAS builds export; the first pair a library
# has is used. The ``..._64_`` and trailing-underscore names are the
# Fortran forms, which take a pointer, and are not listed.
_BLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _loaded_openblas() -> list[tuple]:
    """The thread-count getter and setter of each OpenBLAS mapped into this
    process; none where ``/proc/self/maps`` cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_API:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


@contextlib.contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread for the body and restore the
    previous counts after it; yields whether any OpenBLAS was pinned."""
    apis = _loaded_openblas()
    before = [get() for get, _ in apis]
    try:
        for _, set_ in apis:
            set_(1)
        yield bool(apis)
    finally:
        for (_, set_), n in zip(apis, before):
            set_(n)


def _chain_workers(chains: int) -> int:
    """Processes to run ``chains`` chains in: one per usable CPU, at most one
    per chain; 1, the calling process alone, where ``fork`` or the CPU
    affinity is unavailable or another Python thread is running."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(chains, len(os.sched_getaffinity(0))))


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float array in anonymous shared memory: what a forked worker
    writes into it, the parent reads."""
    nbytes = 8 * math.prod(shape)
    if nbytes == 0:  # mmap cannot map zero bytes
        return np.zeros(shape)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=float).reshape(shape)


_forked = None  # (result, rngs), set only in a pool worker: inherited through fork, not pickled


def _inherit(result: FitResult, rngs: list) -> None:
    """Initializer of a pool worker: keep the fit's shared result arrays and
    random streams as the fork left them."""
    global _forked
    _forked = (result, rngs)


def _forked_chain(c: int) -> tuple[dict[str, float], dict[str, float]]:
    result, rngs = _forked
    return _run_chain(result, c, rngs[c])


def _run_chains(
    result: FitResult, rngs: list, workers: int
) -> list[tuple[dict[str, float], dict[str, float]]]:
    """(rates, timings) of every chain. This process runs chains 0, W, 2W, ...
    (W = ``workers``); a pool of W - 1 forked processes runs the others as
    queued tasks, writing their draws into the result's shared arrays. A
    worker's exception is raised here. On any exception the queued chains
    never start, but a chain already running in a worker runs to its end,
    since the pool cannot stop it; every worker is reaped before this returns
    or raises."""
    n = len(rngs)
    if workers == 1:
        return [_run_chain(result, c, rngs[c]) for c in range(n)]
    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(result, rngs)) as pool:
        try:
            forked = {c: pool.submit(_forked_chain, c) for c in range(n) if c % workers}
            out = {c: _run_chain(result, c, rngs[c]) for c in range(0, n, workers)}
            out.update((c, future.result()) for c, future in forked.items())
        except BrokenProcessPool as err:
            raise DiagnosticError("a chain worker exited without a result") from err
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [out[c] for c in range(n)]


def split_rhat(draws: np.ndarray) -> float:
    """Split-R-hat over chains for one scalar parameter; draws is (chains, n)."""
    m, n = draws.shape
    half = n // 2
    if half < 2:
        return np.nan
    seqs = np.concatenate([draws[:, :half], draws[:, half : 2 * half]], axis=0)
    within = seqs.var(axis=1, ddof=1).mean()
    between = half * seqs.mean(axis=1).var(ddof=1)
    if within <= 0:
        return 1.0
    var_plus = (half - 1) / half * within + between / half
    return float(np.sqrt(var_plus / within))


class _Samples(Sequence):
    """The records of ``FitResult.samples``. Record i is built on access, with
    views of draw i's coefficients and ``hd`` left empty
    (``from_unconstrained`` of the matching ``theta`` row gives it)."""

    def __init__(self, draws: Draws):
        self._mu = draws.mu.ravel()
        self._coefficients = draws.flat_coefficients()

    def __len__(self) -> int:
        return self._mu.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # an integer, in range; negative counts from the end
        coefficients = {l: CoefficientBlock(c[i], l) for l, c in self._coefficients.items()}
        return PosteriorSample(None, coefficients, float(self._mu[i]))


@dataclass
class FitResult(Draws):
    """The retained draws, their HD coordinates ``theta`` (chains, draws, d)
    and reported hyperparameters, and the run's diagnostics: split-R-hat,
    acceptance rates, the wall time of each sampler kernel in ``KERNELS``
    (summed over chains) and the number of processes the chains ran in."""

    theta: np.ndarray
    hyper_names: list[str]
    assembled: AssembledModel
    settings: McmcSettings
    rhat: dict[str, float] = field(default_factory=dict)
    acceptance: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)  # kernel -> seconds, all chains
    chain_workers: int = 1  # processes the chains ran in
    # (chains, draws, n_params), set by ``fit`` from theta and mu once the chains have run
    hyper_draws: np.ndarray = field(init=False)

    @property
    def samples(self) -> Sequence[PosteriorSample]:
        """The draws as records, chains one after another: a read-only
        sequence that builds each record when it is accessed."""
        return _Samples(self)


def fit(
    model: ModelSpec | AssembledModel,
    data: Dataset | None,
    settings: McmcSettings,
    likelihood_weight: float = 1.0,
) -> FitResult:
    """Run all chains and collect thinned post-burn-in samples.

    Chains are deterministic given (settings.seed, chain index); per-parameter
    split-R-hat is computed across chains for every reported hyperparameter.

    The chains run at the same time in ``result.chain_workers`` = W =
    min(chains, usable CPUs) workers: this process runs chains 0, W, 2W, ...,
    and a pool of W - 1 ``fork``ed processes runs the others as queued tasks,
    writing into shared memory. If a chain fails, the queued chains are
    cancelled, but one already running in a worker finishes first. Every
    loaded OpenBLAS runs on one thread while the chains run, so the draws do
    not depend on the CPU count or the BLAS thread setting. All chains run in
    this process when no OpenBLAS thread setter is found, the platform has no
    ``fork`` or CPU affinity, or another Python thread is running.
    ``result.timings`` are summed over chains, so with several workers they
    can exceed the wall time of the fit.

    ``likelihood_weight`` is 1, or 0 for a prior check: at 0 the chains see
    no rows (``result.assembled`` has none), and, as without training rows,
    the intercept and the coefficients are drawn exactly from their priors
    (see the module notes).
    """
    _check_likelihood_weight(likelihood_weight)
    assembled = model if isinstance(model, AssembledModel) else assemble(model, data)
    if not likelihood_weight:
        designs = {l: g[:0] for l, g in assembled.designs.items()}
        assembled = replace(assembled, designs=designs, y_train=assembled.y_train[:0])
    chain_rngs = [
        np.random.default_rng(np.random.SeedSequence((settings.seed, 7, c)))
        for c in range(settings.chains)
    ]

    names = hyper_param_names(assembled)
    n_keep = (settings.iterations - settings.burn_in + settings.thinning - 1) // settings.thinning
    shape = (settings.chains, n_keep)
    d = n_coordinates(assembled.tree) if assembled.tree is not None else 0
    result = FitResult(
        mu=_shared(shape),
        coefficients={
            l: _shared(shape + (assembled.effects[l].n_coef,)) for l in assembled.leaf_ids
        },
        theta=_shared(shape + (d,)),
        hyper_names=names,
        assembled=assembled,
        settings=settings,
    )
    with _one_blas_thread() as pinned:
        result.chain_workers = _chain_workers(settings.chains) if pinned else 1
        outcomes = _run_chains(result, chain_rngs, result.chain_workers)
    hyper = result.mu.reshape(-1, 1)
    if d:
        hyper = np.hstack([natural_values(assembled.tree, result.theta.reshape(-1, d)), hyper])
    result.hyper_draws = hyper.reshape(shape + (len(names),))
    rates_by_chain = [rates for rates, _ in outcomes]
    result.timings = {k: sum(t[k] for _, t in outcomes) for k in KERNELS}
    for j, name in enumerate(names):
        result.rhat[name] = (
            split_rhat(result.hyper_draws[:, :, j]) if settings.chains > 1 else np.nan
        )
    result.acceptance = {
        k: float(np.mean([r[k] for r in rates_by_chain])) for k in rates_by_chain[0]
    }
    return result


def predict(
    result: Draws | Sequence[PosteriorSample],
    newdata: dict[str, np.ndarray] | Dataset,
    assembled: AssembledModel | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Pointwise p-hat = logistic(posterior mean linear predictor) at new rows,
    evaluated at the posterior-mean intercept and coefficients (it is linear in them).

    With a ``Dataset``, ``mask`` selects the rows to predict at: a boolean
    array with one entry per row (all rows when omitted). Columns given as a
    dict take no mask.

    Covariate values outside an effect's declared support raise DomainError:
    the standardization (and hence the fitted scales) is only defined there.
    """
    if isinstance(result, FitResult):
        assembled = result.assembled
    elif assembled is None:
        raise ValidationError("predict needs the assembled model for raw samples")
    draws = as_draws(result)
    if isinstance(newdata, Dataset):
        use = np.ones(newdata.n, dtype=bool) if mask is None else np.asarray(mask)
        if use.dtype != bool or use.shape != (newdata.n,):
            raise ValidationError(
                f"mask must be boolean with one entry per row ({newdata.n}), "
                f"got {use.dtype} of shape {use.shape}"
            )
        columns, n = newdata.rows(use), int(use.sum())
    elif mask is not None:
        raise ValidationError("mask applies to a Dataset; select the columns' rows instead")
    else:
        lengths = sorted({len(v) for v in newdata.values()})
        if len(lengths) != 1:
            raise ValidationError(
                f"the rows are counted by the columns, which need one length, got {lengths}"
                " (give an intercept-only model a Dataset)"
            )
        columns, n = newdata, lengths[0]
    designs = assembled.designs_at(columns)
    coef_mean = {l: c.mean(axis=0) for l, c in draws.flat_coefficients().items()}
    eta_mean = assembled.linear_predictor(coef_mean, draws.mu.mean(), designs, n=n)
    return 1.0 / (1.0 + np.exp(-eta_mean))


def metrics(p_hat: np.ndarray, y_test: np.ndarray) -> dict[str, float]:
    """Test-set predictive scores: log likelihood, Brier, Tjur R2, accuracy.

    ``p_hat`` must be finite and within [0, 1]. A prediction of exactly 0 for
    a presence or exactly 1 for an absence gives ``loglik = -inf``.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    y = np.asarray(y_test, dtype=float)
    if p_hat.shape != y.shape:
        raise ValidationError("p_hat and y_test must have the same length")
    if not np.all((p_hat >= 0.0) & (p_hat <= 1.0)):  # also rejects nan
        raise ValidationError("p_hat must be finite and within [0, 1]")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValidationError("y_test must be binary")
    if y.size == 0:
        raise ValidationError("the test set is empty")
    pos = y == 1
    if pos.all() or (~pos).all():
        raise ValidationError("Tjur R2 undefined: test set contains a single class")
    with np.errstate(divide="ignore"):
        loglik = float(np.sum(np.where(pos, np.log(p_hat), np.log1p(-p_hat))))
    return {
        "loglik": loglik,
        "brier": float(np.mean((p_hat - y) ** 2)),
        "tjur_r2": float(p_hat[pos].mean() - p_hat[~pos].mean()),
        "accuracy": float(np.mean((p_hat > 0.5) == pos)),
    }
