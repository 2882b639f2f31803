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
xi. (a) and (b) stay Metropolis steps on theta, on Python floats, with the
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

Each window of that loop is one call of a straight-line Python function
that the chain generates for its tree and compiles (``_prior_window``), as
``HDEvaluator`` does for the prior: theta, log sigma and |xi|^2 are local
variables, one per coordinate or leaf, and the Metropolis probability, the
ratio of (b) and the Robbins-Monro update are written out in the float
operations of ``_alpha``, the ratio and ``_Accept.update``, in their
order, so the draws are those of a loop over iterations bit for bit. It
calls ``HDEvaluator.evaluate`` twice per iteration and reads the clock
three times, for ``FitResult.timings``; between windows the proposal
factor is re-estimated, as ``_adapt`` does. The ratio of (b) has one
definition, ``_centered_ratio_lines``, which the chains with rows run
compiled as ``_centered_ratio``.

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

The chains share no state: ``fit`` runs them in parallel, with OpenBLAS on
one thread, and each writes its own rows of shared arrays (``hdsdm.runtime``).
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DiagnosticError, ValidationError
from .gmrf import CoefficientBlock
from .model import MU_PRIOR_SD, AssembledModel, Dataset, ModelSpec, assemble
from .priors import HDEvaluator, compile_function, log_prior_unconstrained, prior_median_theta
from .runtime import _one_blas_thread, _run_tasks, _shared, _workers
from .tree import (
    HDParams,
    from_unconstrained,
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


def _centered_ratio_lines(dims: list[int], lsig: list[str], lsig_new: list[str],
                          qnorm: list[str]) -> list[str]:
    """Source lines that set ``r`` to the log acceptance ratio of the
    centered move (b), less its prior terms, given the names of each leaf's
    current and proposed log sigma and of its |xi|^2 (and ``exp``, ``inf``).

    The effects sigma * xi stay fixed while each leaf's log sigma moves from
    ``lsig`` to ``lsig_new``; with D = lsig_new - lsig, xi becomes
    exp(-D) xi, and for a leaf with ``dims`` free coefficients and
    ``qnorm`` = |xi|^2 the coefficient density changes by
    -dims D - q/2 (exp(-2D) - 1); the leaves' terms are subtracted from 0.0
    in leaf order. Where exp(-2D) overflows, or q = 0 meets an infinite
    term, the ratio is -inf: the move is rejected.
    """
    deltas = [f"e{k}" for k in range(len(dims))]
    terms = "".join(f" - ({n} * {e} + 0.5 * {q} * (exp(-2.0 * {e}) - 1.0))"
                    for n, e, q in zip(dims, deltas, qnorm))
    return ["try:",
            *(f"    {e} = {b} - {a}" for e, a, b in zip(deltas, lsig, lsig_new)),
            f"    r = 0.0{terms}",
            "except OverflowError:",
            "    r = -inf",
            "if r != r:",
            "    r = -inf"]


def _centered_ratio(dims: list[int]):
    """The log acceptance ratio of move (b), less its prior terms
    (``_centered_ratio_lines``), as a compiled function of (lsig, lsig_new,
    qnorm), lists of one float per leaf."""
    args = ("lsig", "lsig_new", "qnorm")
    names = [[f"{p}{k}" for k in range(len(dims))] for p in "abq"]
    unpack = [f"{', '.join(v)}, = {arg}" for v, arg in zip(names, args)] if dims else []
    body = unpack + _centered_ratio_lines(dims, *names) + ["return r"]
    return compile_function("centered_ratio", ", ".join(args), body, exp=math.exp, inf=math.inf)


def _prior_window(d: int, dims: list[int], burn_in: int, thinning: int):
    """One adaptation window of ``_run_prior_chain`` as a compiled function.

    ``window(evaluate, start, steps, uniforms, norms, state, stamp, history,
    kept)`` runs iterations start, start + 1, ... of moves (a) and (b), one
    per row of ``steps`` (the 2d proposal normals of (a) then (b), times the
    proposal factor), ``uniforms`` (the two acceptance uniforms) and
    ``norms`` (|xi|^2 per leaf after (d)). ``state`` holds the chain between
    windows: the log proposal scales of (a) and (b), their acceptance
    probabilities summed from iteration ``burn_in`` on, the next kept
    iteration, the log prior, theta, log sigma and |xi|^2 per leaf. The
    function appends theta of each burn-in iteration to ``history`` and
    (theta, log sigma, |xi|^2) of each kept iteration to ``kept``, and
    returns the new state, the seconds of (a), (b) and the bookkeeping, and
    the last clock reading; ``stamp`` is the reading it starts from.

    Inside, theta, log sigma and |xi|^2 are local variables, one per
    coordinate or leaf, and the Metropolis probabilities, the centered
    ratio (``_centered_ratio_lines``) and the Robbins-Monro updates of
    ``_Accept`` are written out, with the float operations of those helpers
    in their order. ``evaluate`` is called twice per iteration. The
    acceptance sums start at ``burn_in``, where the records restart.
    """
    theta = [f"t{i}" for i in range(d)]
    za, zb = ([f"{p}{i}" for i in range(d)] for p in ("za", "zb"))
    lsig, lsig_new, qnorm = ([f"{p}{k}" for k in range(len(dims))] for p in "ghq")
    state = ["la", "lb", "sum_a", "sum_b", "keep_at", "lp"] + theta + lsig + qnorm

    def names(xs):
        return ", ".join(xs) + ","

    def move(scale, z):  # propose theta + scale * z and evaluate the prior there
        steps = ", ".join(f"{t} + {scale} * {x}" for t, x in zip(theta, z))
        return [f"    theta_new = [{steps}]", "    lp_new, lsig_new = evaluate(theta_new)"]

    alpha = "1.0 if r >= 0.0 else exp(r) if r > -745.0 else 0.0"  # _alpha(r)
    body = [
        f"{names(state)} = state",
        "sa = exp(la)",
        "sb = exp(lb)",
        "time_a = time_b = time_s = 0.0",
        "c1 = stamp",
        f"for it, ({names(za + zb)}), (ua, ub), qn in zip("
        "range(start, start + len(steps)), steps, uniforms, norms):",
        # (a): without a likelihood, the ratio is that of the prior
        *move("sa", za),
        "    r = lp_new - lp",
        f"    alpha_a = {alpha}",
        "    if ua < alpha_a:",
        f"        {names(theta)} = theta_new",
        f"        {names(lsig)} = lsig_new",
        "        lp = lp_new",
        "    c0 = clock()",
        "    time_a += c0 - c1",
        # (b): reads |xi|^2 of the last (d); (d) draws xi afresh, so nothing
        # is rescaled on acceptance
        *move("sb", zb),
        "    alpha_b = 0.0",
        "    if -inf < lp_new < inf:",
        f"        {names(lsig_new)} = lsig_new",
        *(f"        {line}" for line in _centered_ratio_lines(dims, lsig, lsig_new, qnorm)),
        "        r = r + lp_new - lp",
        f"        alpha_b = {alpha}",
        "    if ub < alpha_b:",
        f"        {names(theta)} = theta_new",
        f"        {names(lsig)} = {names(lsig_new)}",
        "        lp = lp_new",
        "    c1 = clock()",
        "    time_b += c1 - c0",
        f"    {names(qnorm)} = qn",  # (d)
        "    if it < burn_in:",
        "        gamma = min(0.1, 5.0 / (1.0 + it) ** 0.6)",
        "        la += gamma * (alpha_a - target)",
        "        sa = exp(la)",
        "        lb += gamma * (alpha_b - target)",
        "        sb = exp(lb)",
        f"        history.append(({names(theta)}))",
        "    else:",
        "        sum_a += alpha_a",
        "        sum_b += alpha_b",
        "        if it == keep_at:",
        f"            kept.append(({names(theta + lsig + qnorm)}))",
        "            keep_at += thinning",
        "    c0 = clock()",
        "    time_s += c0 - c1",
        "    c1 = c0",
        f"return [{', '.join(state)}], time_a, time_b, time_s, c1",
    ]
    params = "evaluate, start, steps, uniforms, norms, state, stamp, history, kept"
    return compile_function("window", params, body, exp=math.exp, inf=math.inf,
                            clock=time.perf_counter, burn_in=burn_in, thinning=thinning,
                            target=TARGET_ACCEPT_HYPER)


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
    centered_ratio = _centered_ratio(dims)
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
                logr = centered_ratio(lsig, lsig_new, qnorm) + lp_new - lp_theta
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
    one compiled ``_prior_window`` call per ``ADAPTATION_WINDOW`` iterations,
    then exact intercepts and effects for the kept draws (see the module
    notes). Between windows the proposal factor is re-estimated, and the
    window's burn-in thetas and kept draws are written into arrays."""
    settings, burn_in = result.settings, result.settings.burn_in
    evaluator, theta, lp_theta, lsig, acc = _hyper_start(result.assembled)
    d, n_leaves = theta.size, len(leaves)
    n_keep = result.mu.shape[1]
    kept = np.empty((n_keep, d + 2 * n_leaves))  # theta, log sigma and |xi|^2 of each kept draw
    prop_chol = np.eye(d)
    theta_history = np.empty((burn_in, d))
    window = _prior_window(d, dims, burn_in, settings.thinning) if d else None
    # the initial xi = 0 has |xi|^2 = 0 in every leaf
    state = [acc["hyper"].log_scale, acc["hyper_centered"].log_scale, 0.0, 0.0, burn_in,
             lp_theta, *theta.tolist(), *lsig, *[0.0] * n_leaves]
    n_kept = 0

    t_prop = t_hyper = t_centered = t_store = 0.0
    clock = time.perf_counter
    stamp = clock()
    for start in range(0, settings.iterations, ADAPTATION_WINDOW) if d else ():
        t0 = clock()
        t_store += t0 - stamp  # the bookkeeping after the previous window
        n = min(ADAPTATION_WINDOW, settings.iterations - start)
        steps = (rng.standard_normal((n, 2, d)) @ prop_chol.T).reshape(n, 2 * d).tolist()
        uniforms = rng.random((n, 2)).tolist()
        norms = rng.chisquare(dims, (n, n_leaves)).tolist()
        t1 = clock()
        t_prop += t1 - t0
        history, rows = [], []  # the window's burn-in thetas and kept draws
        state, t_a, t_b, t_s, stamp = window(evaluator.evaluate, start, steps, uniforms, norms,
                                             state, t1, history, rows)
        t_hyper, t_centered, t_store = t_hyper + t_a, t_centered + t_b, t_store + t_s
        if rows:
            kept[n_kept : n_kept + len(rows)] = rows
            n_kept += len(rows)
        if history:
            theta_history[start : start + len(history)] = history
            prop_chol = _adapt(theta_history, start + len(history) - 1, burn_in, prop_chol, acc)
    if d:  # the acceptance records since burn-in
        for a, accepted in zip((acc["hyper"], acc["hyper_centered"]), state[2:4]):
            a.n, a.accepted = settings.iterations - burn_in, accepted
    result.theta[c] = kept[:, :d]

    t0 = clock()
    t_store += t0 - stamp
    result.mu[c] = MU_PRIOR_SD * rng.standard_normal(n_keep)
    t_mu, t0 = clock() - t0, clock()
    # xi = sqrt(q) g / |g| is N(0, I) given |xi|^2 = q; the effects are sigma T xi
    scales = np.exp(kept[:, d : d + n_leaves]) * np.sqrt(kept[:, d + n_leaves :])
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

    The chains run in ``result.chain_workers`` processes, with every loaded
    OpenBLAS on one thread (``hdsdm.runtime``), so the draws do not depend
    on the CPU count or the BLAS thread setting. ``result.timings`` are
    summed over chains, so with several workers they can exceed the wall
    time of the fit.

    ``data`` are the rows to assemble ``model`` with; an ``AssembledModel``
    holds its own, so with one ``data`` must be None.

    ``likelihood_weight`` is 1, or 0 for a prior check: at 0 the chains see
    no rows (``result.assembled`` has none), and, as without training rows,
    the intercept and the coefficients are drawn exactly from their priors
    (see the module notes).
    """
    _check_likelihood_weight(likelihood_weight)
    if isinstance(model, AssembledModel) and data is not None:
        raise ValidationError("fit takes data with a ModelSpec only: an assembled model "
                              "holds the rows it was assembled with, so pass None")
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
    d = assembled.tree.n_coordinates if assembled.tree is not None else 0
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
        result.chain_workers = _workers(settings.chains, pinned)
        outcomes = _run_tasks(lambda c: _run_chain(result, c, chain_rngs[c]), settings.chains,
                              result.chain_workers)
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
