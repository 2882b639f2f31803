"""Blocked adaptive Metropolis-within-Gibbs over HD coordinates and effects.

One iteration performs: (a) a multivariate random-walk update of the
unconstrained hyperparameter coordinates with an adapted proposal covariance
(non-centered: coefficients keep their whitened values, so the likelihood
sees rescaled effects); (b) an interweaved centered update of the same
coordinates holding the latent effects fixed (no likelihood evaluation,
coefficients rescaled on acceptance) to keep hyperparameter mixing robust
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

Bookkeeping stays out of the way of the likelihood, without changing a bit
of the draws: the sign 1 - 2y of ``bernoulli_loglik`` is formed once per
chain; every proposed linear predictor is written into whichever of two
preallocated buffers does not hold the current one; a one-column design maps
its proposals by an outer product. A retained draw stores its coordinates
``theta``, its intercept and its coefficients (written in place); the
reported hyperparameters (V and the proportions) are computed from ``theta``
for all of a chain's draws at once after the chain has run.

Adaptation (proposal scales by Robbins-Monro toward the target acceptance
rates, hyper covariance from the chain history) runs during burn-in only,
so retained samples come from a fixed kernel.

The chains of one fit share no state, so ``fit`` runs them at the same time
in W = min(chains, usable CPUs) workers: worker 0 is the calling process and
the others are ``fork``ed children, and worker w runs chains w, w + W, ....
Each chain has its own random stream and writes disjoint rows of result
arrays that live in anonymous shared memory, so no draw is copied between
processes; a child sends back only its acceptance rates and kernel times.
For the whole chain phase every loaded OpenBLAS is pinned to one thread (and
restored afterwards): BLAS threads in each worker would compete for the same
CPUs, and the proposal-image products give different bits at one and at two
threads, so pinning also makes the draws independent of the machine. Where
no OpenBLAS thread setter is found, the platform lacks ``fork`` or CPU
affinity, or another Python thread is running (a forked child would hold
only the forking thread), all chains run one after another in the calling
process, with the same draws.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DiagnosticError, ValidationError
from .gmrf import CoefficientBlock
from .model import AssembledModel, Dataset, ModelSpec, assemble
from .priors import HDEvaluator, log_prior_unconstrained, prior_median_theta
from .tree import (
    PROPORTION_FLOOR,
    DecompTree,
    HDParams,
    from_unconstrained,
    n_coordinates,
    to_variances,
)

# iterations whose coefficient proposal noise is drawn, and mapped to the
# training rows, at once
PROPOSAL_BLOCK = 16

# the sampler's kernels, as timed in FitResult.timings: the hyper updates (a)
# and (b), the intercept (c), the coefficient blocks (d), the block draws of
# coefficient proposals with their images on the training rows, and
# adaptation plus writing the retained draws and their hyperparameters
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
    adaptation_window: int = 50
    target_accept_hyper: float = 0.234
    target_accept_block: float = 0.44
    seed: int = 0

    def __post_init__(self):
        for name in ("chains", "iterations", "burn_in", "thinning", "adaptation_window", "seed"):
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
        if self.adaptation_window < 1:
            raise ValidationError("adaptation_window must be >= 1")
        for name in ("target_accept_hyper", "target_accept_block"):
            value = getattr(self, name)
            real = isinstance(value, (int, float, np.integer, np.floating))
            if isinstance(value, bool) or not real:
                raise ValidationError(f"{name} must be a number, got {value!r}")
            if not 0.0 < value < 1.0:  # also rejects nan
                raise ValidationError(f"{name} must lie in (0, 1)")


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


def as_draws(samples: Draws | list[PosteriorSample]) -> Draws:
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


def bernoulli_loglik(eta: np.ndarray, y: np.ndarray, sign: np.ndarray | None = None) -> float:
    """Sum of Bernoulli log-probabilities under the logit link.

    Each term is -softplus(x) with x = (1 - 2y) eta, written as
    max(x, 0) + log1p(exp(-|x|)) so that numpy's vectorized exp and log1p
    do the work (``np.logaddexp`` takes a scalar path per element). A caller
    that evaluates many ``eta`` against one ``y`` passes ``sign`` = 1 - 2y
    precomputed; the result is the same.
    """
    if eta.size == 0:
        return 0.0
    x = (1.0 - 2.0 * y if sign is None else sign) * eta
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(x, 0.0, out=x)
    return float(-t.sum())


def log_posterior(
    assembled: AssembledModel, state: ModelState, likelihood_weight: float = 1.0
) -> float:
    """Joint log density: Bernoulli likelihood + coefficient Gaussians given
    sigma2(hd) + prior on the unconstrained HD coordinates (with Jacobian)."""
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
    if assembled.model.intercept:
        sd = assembled.model.mu_prior_sd
        lp += -0.5 * (state.mu / sd) ** 2 - 0.5 * np.log(2.0 * np.pi * sd * sd)
    eta = assembled.linear_predictor(state.coefficients, state.mu)
    return likelihood_weight * bernoulli_loglik(eta, assembled.y_train) + lp


def hyper_param_names(assembled: AssembledModel) -> list[str]:
    names = []
    if assembled.tree is not None:
        names.append("V")
        for s in assembled.tree.splits:
            if s.is_binary:
                names.append(f"omega_{s.name}")
            else:
                names.extend(f"omega_{s.name}_{c}" for c in s.child_names)
    if assembled.model.intercept:
        names.append("mu")
    return names


def _hyper_columns(
    tree: DecompTree | None, theta: np.ndarray, mu: np.ndarray | None, out: np.ndarray
) -> None:
    """Write the reported hyperparameters of each draw, in ``hyper_param_names``
    order, into ``out`` (draws, n_params), from its HD coordinates ``theta``
    (draws, d) and intercept ``mu`` (draws,), None without an intercept. The
    maps are those of ``from_unconstrained``, on all draws at once; the values
    are the same."""
    j = 0
    if tree is not None:
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
    if mu is not None:
        out[:, j] = mu


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


def _run_chain(
    result: FitResult, c: int, rng: np.random.Generator
) -> tuple[dict[str, float], dict[str, float]]:
    """Run chain c, writing its retained draws into row c of the result's
    arrays; return its acceptance rates and the seconds spent in each kernel."""
    assembled, settings = result.assembled, result.settings
    tree = assembled.tree
    priors = assembled.model.priors
    leaves = list(assembled.leaf_ids)
    y = assembled.y_train
    sign = 1.0 - 2.0 * y  # for bernoulli_loglik, formed once per chain
    n_obs = y.size
    d = n_coordinates(tree) if tree is not None else 0

    transforms = {l: assembled.effects[l].whitening_transform() for l in leaves}
    free_dims = {l: transforms[l].shape[1] for l in leaves}

    evaluator = HDEvaluator(tree, priors) if tree is not None else None

    def eval_theta(theta):
        """(log prior incl. Jacobian, per-leaf sigma) or (-inf, None)."""
        if tree is None:
            return 0.0, np.zeros(0)
        lp, s2 = evaluator.evaluate(theta)
        if s2 is None:
            return -np.inf, None
        return lp, np.sqrt(s2)

    # initialization: HD coordinates at prior medians, coefficients at zero,
    # intercept at the empirical logit
    theta = prior_median_theta(tree, priors).copy() if tree is not None else np.zeros(0)
    if assembled.model.intercept and n_obs:
        p0 = float(np.clip(y.mean(), 0.01, 0.99))
        mu = float(np.log(p0) - np.log1p(-p0))
    else:
        mu = 0.0
    xi = {l: np.zeros(free_dims[l]) for l in leaves}
    qnorm = {l: 0.0 for l in leaves}

    # Per leaf, row 0 of `whitened` is the current xi and rows 1.. are the
    # proposal noise of the current block of iterations; `images` holds their
    # images G_l T_l (.) on the training rows. Row 0 of `images` is the
    # unscaled per-leaf predictor V, with eta = mu + sig @ V. V is updated in
    # place between blocks, and each block's product rebuilds it from xi, so
    # that the rounding error the centered rescaling multiplies stays small.
    # A one-column design maps by an outer product, which gives the bits of
    # the matrix product at a fraction of its cost.
    whitened = [np.zeros((PROPOSAL_BLOCK + 1, free_dims[l])) for l in leaves]
    images = np.zeros((len(leaves), PROPOSAL_BLOCK + 1, n_obs))
    V = images[:, 0]
    designs_t = [np.ascontiguousarray(assembled.designs[l].T) for l in leaves]
    image_ops = [np.multiply if g.shape[0] == 1 else np.matmul for g in designs_t]

    # The current linear predictor `eta` is one of these two buffers, and each
    # proposal is written into the other one.
    eta_bufs = (np.empty(n_obs), np.empty(n_obs))
    lp_theta, sig = eval_theta(theta)
    eta = eta_bufs[0]
    np.matmul(sig, V, out=eta)
    eta += mu
    ll = bernoulli_loglik(eta, y, sign)
    if not (np.isfinite(lp_theta) and np.isfinite(ll)):
        raise DiagnosticError("non-finite log posterior at the initial state")

    mu_sd = assembled.model.mu_prior_sd
    w = result.likelihood_weight

    prop_chol = np.eye(d)
    theta_history = np.empty((settings.burn_in, d))
    hyper_scale = np.log(2.38 / np.sqrt(max(d, 1)))
    acc = {
        "hyper": _Accept(hyper_scale, settings.target_accept_hyper),
        "hyper_centered": _Accept(hyper_scale, settings.target_accept_hyper),
        "mu": _Accept(np.log(0.5), settings.target_accept_block),
    }
    for l in leaves:
        acc[f"coef[{l}]"] = _Accept(
            np.log(2.38 / np.sqrt(free_dims[l])), settings.target_accept_block
        )
    acc_coef = [acc[f"coef[{l}]"] for l in leaves]

    def coefficients() -> dict[str, np.ndarray]:
        """The current effects u = sigma T xi."""
        return {l: sig[k] * (transforms[l] @ xi[l]) for k, l in enumerate(leaves)}

    def store_coefficients(kept: int) -> None:
        """Write the current effects into retained draw ``kept`` in place;
        the same values as ``coefficients()``."""
        for k, l in enumerate(leaves):
            row = result.coefficients[l][c, kept]
            np.matmul(transforms[l], xi[l], out=row)
            row *= sig[k]

    def alpha_of(logr: float) -> float:
        if logr >= 0.0:
            return 1.0
        if logr > -745.0:  # exp underflow floor; also rejects nan/-inf
            return math.exp(logr)
        return 0.0

    t_prop = t_hyper = t_centered = t_mu = t_coef = t_store = 0.0
    clock = time.perf_counter
    for it in range(settings.iterations):
        adapting = it < settings.burn_in
        t0 = clock()

        j = it % PROPOSAL_BLOCK + 1
        if j == 1:
            for k, l in enumerate(leaves):
                whitened[k][0] = xi[l]
                rng.standard_normal(out=whitened[k][1:])
                image_ops[k](whitened[k] @ transforms[l].T, designs_t[k], out=images[k])
        t1 = clock()
        t_prop += t1 - t0

        if d > 0:
            # (a) hyper block, non-centered: effects rescale with sigma
            step = acc["hyper"].scale * (prop_chol @ rng.standard_normal(d))
            theta_new = theta + step
            lp_new, sig_new = eval_theta(theta_new)
            if np.isfinite(lp_new):
                eta_new = eta_bufs[eta is eta_bufs[0]]
                np.matmul(sig_new, V, out=eta_new)
                eta_new += mu
                ll_new = bernoulli_loglik(eta_new, y, sign)
                logr = w * (ll_new - ll) + lp_new - lp_theta
            else:
                logr = -np.inf
            alpha = alpha_of(logr)
            if rng.random() < alpha:
                theta, sig = theta_new, sig_new
                eta, ll, lp_theta = eta_new, ll_new, lp_new
            acc["hyper"].update(alpha, it, adapting)
            t0 = clock()
            t_hyper += t0 - t1

            # (b) hyper block, centered interweave: effects held fixed, so the
            # likelihood is unchanged; coefficients rescale on acceptance
            step = acc["hyper_centered"].scale * (prop_chol @ rng.standard_normal(d))
            theta_new = theta + step
            lp_new, sig_new = eval_theta(theta_new)
            if np.isfinite(lp_new):
                with np.errstate(divide="ignore"):
                    log_ratio = np.log(sig_new) - np.log(sig)
                term = 0.0
                for k, l in enumerate(leaves):
                    r = (sig[k] / sig_new[k]) ** 2
                    term += -free_dims[l] * log_ratio[k] - 0.5 * qnorm[l] * (r - 1.0)
                logr = term + lp_new - lp_theta
            else:
                logr = -np.inf
            alpha = alpha_of(logr)
            if rng.random() < alpha:
                rescale = sig / sig_new
                for k, l in enumerate(leaves):
                    xi[l] *= rescale[k]
                    qnorm[l] *= rescale[k] ** 2
                V *= rescale[:, None]
                theta, sig, lp_theta = theta_new, sig_new, lp_new
            acc["hyper_centered"].update(alpha, it, adapting)
            t1 = clock()
            t_centered += t1 - t0

        # (c) intercept
        if assembled.model.intercept:
            mu_new = mu + acc["mu"].scale * rng.standard_normal()
            eta_new = np.add(eta, mu_new - mu, out=eta_bufs[eta is eta_bufs[0]])
            ll_new = bernoulli_loglik(eta_new, y, sign)
            logr = w * (ll_new - ll) - 0.5 * (mu_new**2 - mu**2) / mu_sd**2
            alpha = alpha_of(logr)
            if rng.random() < alpha:
                mu, eta, ll = mu_new, eta_new, ll_new
            acc["mu"].update(alpha, it, adapting)
        t0 = clock()
        t_mu += t0 - t1

        # (d) coefficient blocks in prior-whitened coordinates
        for k, l in enumerate(leaves):
            s = acc_coef[k].scale
            xi_new = xi[l] + s * whitened[k][j]
            q_new = float(xi_new @ xi_new)
            eta_new = np.multiply(images[k, j], sig[k] * s, out=eta_bufs[eta is eta_bufs[0]])
            eta_new += eta
            ll_new = bernoulli_loglik(eta_new, y, sign)
            logr = w * (ll_new - ll) - 0.5 * (q_new - qnorm[l])
            alpha = alpha_of(logr)
            if rng.random() < alpha:
                xi[l], qnorm[l], eta, ll = xi_new, q_new, eta_new, ll_new
                V[k] += s * images[k, j]
            acc_coef[k].update(alpha, it, adapting)
        t1 = clock()
        t_coef += t1 - t0

        if adapting:
            if d > 0:
                theta_history[it] = theta
            if (
                d > 0
                and it + 1 >= max(2 * d, 20)
                and (it + 1) % settings.adaptation_window == 0
            ):
                window = theta_history[max(0, it - 2000) : it + 1]
                cov = np.cov(window.T)
                cov = np.atleast_2d(cov) + 1e-8 * np.eye(d)
                try:
                    prop_chol = np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    pass
            if it + 1 == settings.burn_in:
                for a in acc.values():
                    a.reset()  # diagnostics reflect the frozen kernel only

        kept, skip = divmod(it - settings.burn_in, settings.thinning)
        if kept >= 0 and skip == 0:
            store_coefficients(kept)
            result.theta[c, kept] = theta
            result.mu[c, kept] = mu
        t_store += clock() - t1

    t1 = clock()
    mu_draws = result.mu[c] if assembled.model.intercept else None
    _hyper_columns(tree, result.theta[c], mu_draws, result.hyper_draws[c])
    t_store += clock() - t1
    _check_eta(assembled, coefficients(), mu, eta)
    rates = _check_divergent(acc)
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


def _chain_worker(result: FitResult, rngs: list, chains: range, fd: int) -> None:
    """Body of a forked worker: run ``chains``, write the pickled record
    ``(True, [(c, (rates, timings)), ...])`` or ``(False, exception)`` to
    ``fd``, and leave by ``os._exit``, so that neither the parent's cleanup
    nor its buffered output runs a second time. A worker that cannot write
    its record leaves none, which the parent reports."""
    try:
        try:
            record = (True, [(c, _run_chain(result, c, rngs[c])) for c in chains])
        except Exception as err:  # noqa: BLE001 - sent to the parent, which raises it
            record = (False, err)
        payload = pickle.dumps(record)
        with open(fd, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def _run_chains(
    result: FitResult, rngs: list, workers: int
) -> list[tuple[dict[str, float], dict[str, float]]]:
    """(rates, timings) of every chain, running chains w, w + workers, ... in
    worker w. Worker 0 is this process; the others are forked children that
    write their draws into the result's shared arrays. A child's exception is
    raised here, and on any exception every child is killed; every child is
    reaped before this returns or raises."""
    n = len(rngs)
    out = {}
    children = []  # (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _chain_worker(result, rngs, range(w, n, workers), write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        for c in range(0, n, workers):
            out[c] = _run_chain(result, c, rngs[c])
        for w, (pid, read_fd) in enumerate(children, start=1):
            with open(read_fd, "rb", closefd=False) as fh:
                payload = fh.read()
            if not payload:
                raise DiagnosticError(f"chain worker {w} (pid {pid}) exited without a result")
            ok, record = pickle.loads(payload)  # written by our own child
            if not ok:
                raise record
            out.update(record)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still ours
        raise
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
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


@dataclass
class FitResult(Draws):
    """The retained draws, their HD coordinates ``theta`` (chains, draws, d)
    and reported hyperparameters, and the run's diagnostics: split-R-hat,
    acceptance rates, the wall time of each sampler kernel in ``KERNELS``
    (summed over chains) and the number of processes the chains ran in."""

    theta: np.ndarray
    hyper_names: list[str]
    hyper_draws: np.ndarray  # (chains, draws, n_params)
    assembled: AssembledModel
    settings: McmcSettings
    likelihood_weight: float = 1.0
    rhat: dict[str, float] = field(default_factory=dict)
    acceptance: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)  # kernel -> seconds, all chains
    chain_workers: int = 1  # processes the chains ran in

    @property
    def samples(self) -> list[PosteriorSample]:
        """The draws as records, rebuilt on each access; ``hd`` is left empty
        (``from_unconstrained`` of the matching ``theta`` row gives it)."""
        coefs = self.flat_coefficients()
        return [
            PosteriorSample(None, {l: CoefficientBlock(c[i], l) for l, c in coefs.items()}, mu)
            for i, mu in enumerate(self.mu.ravel().tolist())
        ]


def fit(
    model: ModelSpec | AssembledModel,
    data: Dataset | None,
    settings: McmcSettings,
    rng: np.random.Generator | None = None,
    likelihood_weight: float = 1.0,
) -> FitResult:
    """Run all chains and collect thinned post-burn-in samples.

    Chains are deterministic given (settings.seed, chain index); per-parameter
    split-R-hat is computed across chains for every reported hyperparameter.

    The chains run at the same time in ``result.chain_workers`` =
    min(chains, usable CPUs) workers: this process runs chains 0, W, 2W, ...
    and ``fork``ed children run the others, writing into shared memory. Every
    loaded OpenBLAS runs on one thread while the chains run, so the draws do
    not depend on the CPU count or the BLAS thread setting. All chains run in
    this process when no OpenBLAS thread setter is found, the platform has no
    ``fork`` or CPU affinity, or another Python thread is running.
    ``result.timings`` are summed over chains, so with several workers they
    can exceed the wall time of the fit.
    """
    assembled = model if isinstance(model, AssembledModel) else assemble(model, data)
    if rng is None:
        chain_rngs = [
            np.random.default_rng(np.random.SeedSequence((settings.seed, 7, c)))
            for c in range(settings.chains)
        ]
    else:
        chain_rngs = rng.spawn(settings.chains)

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
        hyper_draws=_shared(shape + (len(names),)),
        assembled=assembled,
        settings=settings,
        likelihood_weight=likelihood_weight,
    )
    with _one_blas_thread() as pinned:
        result.chain_workers = _chain_workers(settings.chains) if pinned else 1
        outcomes = _run_chains(result, chain_rngs, result.chain_workers)
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
    result: Draws | list[PosteriorSample],
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
        columns = newdata.rows(use)
    elif mask is not None:
        raise ValidationError("mask applies to a Dataset; select the columns' rows instead")
    else:
        columns = newdata
    designs = assembled.designs_at(columns)
    n = next(iter(columns.values())).shape[0] if columns else None
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
