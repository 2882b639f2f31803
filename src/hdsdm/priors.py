"""Priors for total variance and proportion parameters.

The HD prior is a product of one law per node of the decomposition tree.
``_FAMILIES`` says what node each family sits on and what it takes.
``_as_prior_map``, the one check of the priors a tree takes, reads each
node's ``PriorSpec`` as one of four laws; every function here that takes a
tree and its priors goes through it, and ``ModelSpec`` runs it when a model
is built:

- on the total variance V, ``jeffreys`` (1/V truncated to log V in
  ``JEFFREYS_LOG_BOUNDS``) or ``pc(lam)`` (Exponential(lam) on sqrt(V));
- on a split, ``dirichlet(q)`` on its proportions, with q the exponents in
  child order ('uniform' is q = 1, and beta(a, b) on a binary split is q = a
  on the designated child and b on the other), or ``pc0(lam)`` on the
  designated proportion of a binary split.

``pc0`` is the shrinkage prior obtained by placing an exponential law on a
Kullback-Leibler-based distance from a zero-contribution base model. For a
proportion of variance this reduces, whenever the sum-of-ranks condition
holds, to a truncated exponential on sqrt(omega) (the "simplified form"),
which is independent of the effect bases and precision matrices. The exact
numeric construction (distance between rank-deficient Gaussian laws) is kept
for validation of that simplification, not for inference.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import beta as beta_dist

from .exceptions import CalibrationError, NumericalError, ValidationError
from .gmrf import _rank, psd_eigen
from .tree import (
    DecompTree,
    HDParams,
    SplitInfo,
    from_unconstrained,
    log_jacobian,
    natural_values,
    to_unconstrained,
)

JEFFREYS_LOG_BOUNDS = (-30.0, 30.0)

__all__ = [
    "PriorSpec",
    "RankInfo",
    "pc_variance_lambda",
    "pc_variance_logpdf",
    "jeffreys_logpdf",
    "pc0_simplified_logpdf",
    "pc0_cdf",
    "pc0_quantile",
    "pc0_sample",
    "pc0_calibrate",
    "dirichlet_q_calibrate",
    "sum_of_ranks_check",
    "kld_distance",
    "pc0_exact_logpdf_numeric",
    "log_prior",
    "log_prior_unconstrained",
    "prior_median_theta",
    "marginal_cdfs",
]


# ---------------------------------------------------------------------------
# total-variance priors
# ---------------------------------------------------------------------------


def pc_variance_lambda(U: float, alpha: float) -> float:
    """Rate such that P(sqrt(V) > U) = alpha under Exponential(lam) on sqrt(V)."""
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    if U <= 0:
        raise ValidationError(f"U must be positive, got {U}")
    return -np.log(alpha) / U


def pc_variance_logpdf(V, lam: float):
    """Exponential(lam) on sqrt(V), as a density in V."""
    V = np.asarray(V, dtype=float)
    if np.any(V <= 0):
        raise ValidationError("V must be positive")
    s = np.sqrt(V)
    return np.log(lam) - lam * s - np.log(2.0 * s)


def jeffreys_logpdf(V):
    """Scale-invariant prior 1/V truncated to log V in ``JEFFREYS_LOG_BOUNDS``.

    The truncation makes the prior proper for sampling; the bounds sit far
    outside any plausible posterior mass on the logit scale.
    """
    V = np.asarray(V, dtype=float)
    if np.any(V <= 0):
        raise ValidationError("V must be positive")
    lo, hi = JEFFREYS_LOG_BOUNDS
    logV = np.log(V)
    out = -logV - np.log(hi - lo)
    return np.where((logV >= lo) & (logV <= hi), out, -np.inf)


# ---------------------------------------------------------------------------
# simplified shrinkage prior on a proportion
# ---------------------------------------------------------------------------


def _check_omega_interior(omega):
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0) or np.any(omega >= 1):
        raise ValidationError("omega must lie strictly inside (0, 1)")
    return omega


def _check_lam(lam: float) -> float:
    if lam <= 0:
        raise ValidationError(f"lam must be positive, got {lam}")
    return float(lam)


def pc0_simplified_logpdf(omega, lam: float):
    """log pi(omega) = log[ lam exp(-lam sqrt(omega)) / (2 sqrt(omega) (1 - e^-lam)) ]."""
    omega = _check_omega_interior(omega)
    lam = _check_lam(lam)
    s = np.sqrt(omega)
    return np.log(lam) - lam * s - np.log(2.0 * s) - np.log(-np.expm1(-lam))


def pc0_cdf(omega, lam: float):
    """F(omega) = (1 - e^{-lam sqrt(omega)}) / (1 - e^{-lam}) on [0, 1]."""
    lam = _check_lam(lam)
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0) or np.any(omega > 1):
        raise ValidationError("omega must lie in [0, 1]")
    return np.expm1(-lam * np.sqrt(omega)) / np.expm1(-lam)


def pc0_quantile(p, lam: float):
    """Inverse of ``pc0_cdf``."""
    lam = _check_lam(lam)
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValidationError("probabilities must lie in [0, 1]")
    return (-np.log1p(p * np.expm1(-lam)) / lam) ** 2


def pc0_sample(n: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from the simplified shrinkage prior."""
    return pc0_quantile(rng.uniform(size=n), lam)


def pc0_calibrate(U: float, alpha: float) -> float:
    """Rate lam solving P(omega < U) = alpha for the simplified prior.

    Feasibility requires alpha > sqrt(U): as lam -> 0 the CDF at U tends to
    sqrt(U) from above is unreachable, so the target quantile can never sit
    below that limit (equivalently the median can be at most 0.25).
    """
    if not 0 < U < 1:
        raise ValidationError(f"U must be in (0,1), got {U}")
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    bound = float(np.sqrt(U))
    if alpha < bound:
        raise CalibrationError(
            f"infeasible target: alpha={alpha} < sqrt(U)={bound:.6f}; "
            "the simplified prior requires alpha >= sqrt(U)",
            bound=bound,
        )
    if alpha - bound < 1e-12:
        raise CalibrationError(
            f"boundary target alpha = sqrt(U) = {bound:.6f} is attained only as lam -> 0",
            bound=bound,
        )

    def residual(lam: float) -> float:
        return float(pc0_cdf(U, lam) - alpha)

    # the residual rises with lam from sqrt(U) - alpha < 0 as lam -> 0
    hi = 1.0
    while residual(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise CalibrationError(f"no rate below 1e9 reaches P(omega<{U}) = {alpha}")
    return float(brentq(residual, 1e-12, hi, xtol=1e-12))


def dirichlet_q_calibrate(P: int) -> float:
    """Concentration q with even-odds mass near the symmetric share.

    Solves P(logit(1/4) < logit(omega_p) - logit(1/P) < logit(3/4)) = 0.5
    for the symmetric-Dirichlet marginal omega_p ~ Beta(q, (P-1)q).
    """
    if P < 2:
        raise ValidationError(f"need P >= 2 branches, got {P}")

    def logit(x):
        return np.log(x) - np.log1p(-x)

    def expit(x):
        return 1.0 / (1.0 + np.exp(-x))

    lo = expit(logit(0.25) + logit(1.0 / P))
    hi = expit(logit(0.75) + logit(1.0 / P))

    def prob(q: float) -> float:
        return float(
            beta_dist.cdf(hi, q, (P - 1) * q) - beta_dist.cdf(lo, q, (P - 1) * q)
        )

    q_lo, q_hi = 1e-4, 1.0
    while prob(q_hi) < 0.5:
        q_hi *= 2.0
        if q_hi > 1e6:
            raise CalibrationError("calibration target unreachable")
    while prob(q_lo) > 0.5:
        q_lo /= 2.0
        if q_lo < 1e-12:
            raise CalibrationError("calibration target unreachable")
    return float(brentq(lambda q: prob(q) - 0.5, q_lo, q_hi, xtol=1e-12))


# ---------------------------------------------------------------------------
# rank condition and exact distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankInfo:
    """Outcome of the sum-of-ranks check R(0) + R(1) <= N."""

    r0: int
    r1: int
    n: int
    upper_bounds: tuple[int, int]
    condition_holds: bool
    method: str  # 'upper_bound' or 'eigen_count'
    conclusive: bool


def sum_of_ranks_check(
    K0: int,
    N0: int,
    K1: int,
    N1: int,
    N: int,
    Sigma0: np.ndarray | None = None,
    Sigma1: np.ndarray | None = None,
) -> RankInfo:
    """Check R(0) + R(1) <= N, first by upper bounds, then by actual ranks.

    The bounds are R(0) <= min[N0, K0] and R(1) <= min[N1, K1]. When the
    bound sum already fits within N the condition holds with no matrix work;
    otherwise actual ranks are eigen-counted when the covariance matrices are
    supplied, and the check is inconclusive (reported as not holding) when
    they are not.
    """
    for name, v in (("K0", K0), ("N0", N0), ("K1", K1), ("N1", N1), ("N", N)):
        if v < 1:
            raise ValidationError(f"{name} must be a positive integer, got {v}")
    upper = (min(N0, K0), min(N1, K1))
    holds = upper[0] + upper[1] <= N
    if holds or Sigma0 is None or Sigma1 is None:
        return RankInfo(r0=upper[0], r1=upper[1], n=N, upper_bounds=upper,
                        condition_holds=holds, method="upper_bound", conclusive=holds)
    if Sigma0.shape != (N, N) or Sigma1.shape != (N, N):
        raise ValidationError(
            f"covariances must be {N}x{N}, got {Sigma0.shape} and {Sigma1.shape}"
        )
    r0, r1 = _rank(Sigma0), _rank(Sigma1)
    return RankInfo(
        r0=r0,
        r1=r1,
        n=N,
        upper_bounds=upper,
        condition_holds=(r0 + r1 <= N),
        method="eigen_count",
        conclusive=True,
    )


def kld_distance(omega: float, omega0: float, Sigma0: np.ndarray, Sigma1: np.ndarray) -> float:
    """KLD-based distance between the mixture laws at omega and omega0.

    With Sigma(w) = (1-w) Sigma0 + w Sigma1 (possibly rank deficient):

        d^2 = tr[Sigma+(omega0) Sigma(omega)] - R(omega)
              - log(|Sigma(omega)|* / |Sigma(omega0)|*)
              + [R(omega0) - R(omega)] log(2 pi)

    using generalized inverses/determinants and eigen-classified ranks.
    Small negative d^2 from roundoff is clamped to zero; anything below
    -1e-8 raises NumericalError.
    """
    for name, w in (("omega", omega), ("omega0", omega0)):
        if not 0 < w <= 1:
            raise ValidationError(f"{name} must lie in (0, 1], got {w}")
    Sigma0 = np.asarray(Sigma0, dtype=float)
    Sigma1 = np.asarray(Sigma1, dtype=float)
    if Sigma0.shape != Sigma1.shape:
        raise ValidationError("covariances must have the same shape")
    S_w = (1.0 - omega) * Sigma0 + omega * Sigma1
    S_b = (1.0 - omega0) * Sigma0 + omega0 * Sigma1

    _, lam_w, _, nz_w = psd_eigen(S_w, "covariance")
    _, lam_b, vec_b, nz_b = psd_eigen(S_b, "covariance")
    rank_w, rank_b = int(np.count_nonzero(nz_w)), int(np.count_nonzero(nz_b))
    if rank_w == 0 or rank_b == 0:
        raise ValidationError("zero covariance matrix in distance computation")

    inv_b = np.zeros_like(lam_b)
    inv_b[nz_b] = 1.0 / lam_b[nz_b]
    pinv_b = (vec_b * inv_b) @ vec_b.T

    trace = float(np.sum(pinv_b * S_w))
    logdet_w = float(np.sum(np.log(lam_w[nz_w])))
    logdet_b = float(np.sum(np.log(lam_b[nz_b])))
    d2 = trace - rank_w - (logdet_w - logdet_b) + (rank_b - rank_w) * np.log(2.0 * np.pi)
    if d2 < -1e-8:
        raise NumericalError(f"squared distance {d2:.3e} is significantly negative")
    return float(np.sqrt(max(d2, 0.0)))


def pc0_exact_logpdf_numeric(
    omega,
    lam: float,
    Sigma0: np.ndarray,
    Sigma1: np.ndarray,
) -> np.ndarray:
    """Exact-construction shrinkage density via the numeric distance.

    Places Exponential(lam) on the normalized distance
    dbar(w) = d(w; omega0) sqrt(omega0 / R(1)) (truncated at dbar(1)), from
    the base-model proportion omega0 = 1e-6, and
    changes variables with a central finite difference of half-width 1e-5
    for dbar'. Validation tool only: the simplified closed form is what
    inference uses.
    """
    lam = _check_lam(lam)
    omega = np.atleast_1d(_check_omega_interior(omega))
    omega0 = 1e-6
    r1 = _rank(Sigma1)
    scale = np.sqrt(omega0 / r1)

    def dbar(w: float) -> float:
        return kld_distance(w, omega0, Sigma0, Sigma1) * scale

    d_max = dbar(1.0)
    out = np.empty(omega.shape)
    for i, w in enumerate(omega):
        lo, hi = max(w - 1e-5, 1e-12), min(w + 1e-5, 1.0)
        deriv = (dbar(hi) - dbar(lo)) / (hi - lo)
        out[i] = (
            np.log(lam)
            - lam * dbar(w)
            + np.log(abs(deriv))
            - np.log(-np.expm1(-lam * d_max))
        )
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# prior families and the joint prior over HD parameters
# ---------------------------------------------------------------------------


def _dirichlet_q(q, s: SplitInfo) -> np.ndarray:
    if np.shape(q) not in ((), (s.n_children,)):
        raise ValidationError(f"split {s.name!r}: q must be a scalar or have {s.n_children} "
                              f"entries, got shape {np.shape(q)}")
    return np.asarray(q, dtype=float) * np.ones(s.n_children)


# family -> (the node it sits on; the parameters it takes; the calibration of
# its lam from U and alpha, which it then also takes, or None; its law from
# its params at its split, as ``_as_prior_map`` returns it)
_FAMILIES = {
    "jeffreys": ("total_variance", (), None, lambda p, s: ("jeffreys", None)),
    "pc": ("total_variance", ("lam",), pc_variance_lambda, lambda p, s: ("pc", float(p["lam"]))),
    "uniform": ("split", (), None, lambda p, s: ("dirichlet", np.ones(s.n_children))),
    "dirichlet": ("split", ("q",), None, lambda p, s: ("dirichlet", _dirichlet_q(p["q"], s))),
    "beta": ("binary split", ("a", "b"), None, lambda p, s: (
        "dirichlet", np.array(s.in_child_order(p["a"], p["b"]), dtype=float))),
    "pc0": ("binary split", ("lam",), pc0_calibrate, lambda p, s: ("pc0", float(p["lam"]))),
}


@dataclass(frozen=True)
class PriorSpec:
    """Prior family attached to one tree node.

    node : 'total_variance' or a split name.
    family : a key of ``_FAMILIES``: jeffreys | pc (on V); uniform | beta |
        dirichlet | pc0 (on proportions).
    params : what the family takes, real numbers, not text or bools; a key it
        does not take is a ValidationError. 'beta' takes a, b; 'dirichlet' q,
        one or one per child; 'pc' and 'pc0' lam, or U and alpha, calibrated
        to the lam stored here, which a lam given with them must equal.
    """

    node: str
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        def real(x):
            return isinstance(x, numbers.Real) and not isinstance(x, bool)

        def check(key, raw):  # a real number in the float range; only q may be a vector of them
            vector = key == "q" and (isinstance(raw, (list, tuple)) or np.ndim(raw) == 1)
            if not all(real(x) and 0 < x <= sys.float_info.max for x in (raw if vector else [raw])):
                want = "finite and positive" if key == "q" else "finite, positive and one number"
                raise ValidationError(f"prior {self.node!r}: {key} must be {want}, got {raw!r}")

        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown prior family {self.family!r}")
        _, takes, calibrate, _ = _FAMILIES[self.family]
        targets = ("U", "alpha") if calibrate else ()
        stray = [k for k in self.params if k not in takes + targets]
        if stray:
            raise ValidationError(f"prior {self.node!r}: family {self.family!r} takes "
                                  f"{', '.join(takes + targets) or 'no parameters'}, not {stray}")
        calibrated = bool(targets) and set(self.params) != {"lam"}
        missing = [k for k in (targets if calibrated else takes) if k not in self.params]
        if missing:
            raise ValidationError(f"prior {self.node!r}: family {self.family!r} is missing "
                                  f"{missing}" + (" (or lam)" if missing == list(targets) else ""))
        for key in [k for k in takes if k in self.params]:
            check(key, self.params[key])
        if calibrated:
            for key in targets:  # nan goes on to the calibration, which rejects it
                if not real(self.params[key]) or abs(self.params[key]) > sys.float_info.max:
                    raise ValidationError(f"prior {self.node!r}: {key} must be one real number "
                                          f"in the float range, got {self.params[key]!r}")
            try:
                lam = calibrate(self.params["U"], self.params["alpha"])
            except (ValidationError, CalibrationError) as err:  # a target no rate reaches
                raise ValidationError(f"prior {self.node!r}: {err}") from None
            check("lam", lam)
            if self.params.get("lam", lam) != lam:
                raise ValidationError(f"prior {self.node!r}: lam {self.params['lam']!r} is not "
                                      f"{lam!r}, the rate that U and alpha calibrate to")
            object.__setattr__(self, "params", {**self.params, "lam": lam})


def _as_prior_map(tree: DecompTree, priors) -> dict[str, tuple[str, object]]:
    """The law of each node of ``tree`` (module docstring), once its priors
    fit it: ('jeffreys', None) or ('pc', lam) on 'total_variance', and
    ('dirichlet', q in child order) or ('pc0', lam) on each split. The one
    reader of ``PriorSpec.family`` and ``params``. Raises ValidationError for
    a prior keyed by a node other than its own ``node``, a node without a
    prior, a prior on a node the tree lacks, a family on a node other than
    its own in ``_FAMILIES``, and a Dirichlet q whose length is not the
    split's child count."""
    pm = priors if isinstance(priors, dict) else {p.node: p for p in priors}
    for key, spec in pm.items():
        if spec.node != key:
            raise ValidationError(f"the prior keyed {key!r} is for node {spec.node!r}")
    nodes = {"total_variance", *(s.name for s in tree.splits)}
    missing = nodes - set(pm)
    if missing:
        raise ValidationError(f"missing priors for nodes {sorted(missing)}")
    unknown = set(pm) - nodes
    if unknown:
        raise ValidationError(f"priors declared for unknown tree nodes: {sorted(unknown)}")
    laws = {}
    for s in (None, *tree.splits):  # None: the total variance
        spec = pm["total_variance" if s is None else s.name]
        on, _, _, law = _FAMILIES[spec.family]
        if (on == "total_variance") != (s is None):
            where = "the total variance" if s is None else f"split {s.name!r}"
            raise ValidationError(f"family {spec.family!r} not valid for {where}")
        if on == "binary split" and not s.is_binary:
            raise ValidationError(f"{spec.family} prior needs a binary split, got {s.name!r}")
        laws[spec.node] = law(spec.params, s)
    return laws


def _dirichlet_logpdf(props: np.ndarray, conc: np.ndarray) -> float:
    return float(
        gammaln(conc.sum()) - gammaln(conc).sum() + np.sum((conc - 1.0) * np.log(props))
    )


def log_prior(tree: DecompTree, priors, p: HDParams) -> float:
    """Sum of node-wise log prior densities on the natural (V, omega) scale.

    Assumes prior independence across splits. Returns -inf outside prior
    support (e.g. the truncation range of the Jeffreys prior); raises on a
    total variance that is not positive and on simplex-boundary proportions.
    """
    laws = _as_prior_map(tree, priors)
    if p.total <= 0:
        raise ValidationError("total variance must be positive")

    kind, lam = laws["total_variance"]
    if kind == "jeffreys":
        out = float(jeffreys_logpdf(p.total))
    else:
        out = float(pc_variance_logpdf(p.total, lam))

    for s, props in p.by_split(tree):
        props = _check_omega_interior(props)
        kind, param = laws[s.name]
        if kind == "dirichlet":
            out += _dirichlet_logpdf(props, param)
        else:
            out += float(pc0_simplified_logpdf(props[s.omega_index], param))
    return out


def log_prior_unconstrained(tree: DecompTree, priors, theta: np.ndarray) -> float:
    """Prior density of the unconstrained coordinates (includes the Jacobian);
    -inf where V = exp(theta[0]) is not a positive finite float."""
    if not 0.0 < natural_values(tree, np.asarray(theta, dtype=float)[None])[0, 0] < np.inf:
        return -np.inf
    lp = log_prior(tree, priors, from_unconstrained(tree, theta))
    if not np.isfinite(lp):
        return -np.inf
    return lp + log_jacobian(tree, theta)


def compile_function(name: str, params: str, body: list[str], **closure) -> Callable:
    """The function ``def name(params): body``, compiled inside a builder
    whose arguments are ``closure``, so that its body reads them as closure
    values; its text is the function's ``source`` attribute."""
    source = (f"def build({', '.join(closure)}):\n"
              f"    def {name}({params}):\n"
              + "".join(f"        {line}\n" for line in body)
              + f"    return {name}\n")
    namespace: dict = {}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    fn = namespace["build"](**closure)
    fn.source = source
    return fn


class HDEvaluator:
    """Compiled joint evaluation of the HD prior and the leaf scales.

    ``evaluate(theta)`` returns the log prior density of the unconstrained
    coordinates, Jacobian included, and the log sigma of each leaf in
    ``tree.leaves`` order as a list of floats; outside the support, or where
    the density underflows, it returns (-inf, None).

    The constructor writes one straight-line Python function for the tree
    and compiles it; ``source`` holds its text. It works on Python floats
    and calls no numpy. Each coordinate and each log variance is a local
    variable: a split adds its child's log proportion (a log-sigmoid for a
    binary split, a float log-sum-exp for a multi-branch one) to its own log
    variance, so a leaf's log variance is log V plus the sum of the log
    proportions on its root-to-leaf path, and its log sigma is half of it.
    Each node's constants (the Dirichlet exponents with the log-ratio
    Jacobian folded in, or lam, and the log normalizer) are closure values
    of the function, so they keep every bit.

    Where every proportion is at least ``tree.PROPORTION_FLOOR``, the values
    agree with ``log_prior_unconstrained`` and ``to_variances`` up to
    rounding. Beyond that floor the reference clamps the proportions and this
    does not: it gives the unclamped density, with log-softmax proportions.
    Priors that do not fit the tree raise ValidationError (``_as_prior_map``),
    and so does ``evaluate`` at a theta of another length
    (``tree.natural_values``).
    """

    def __init__(self, tree: DecompTree, priors):
        laws = _as_prior_map(tree, priors)
        consts: dict[str, float] = {}  # closure name -> value

        def k(value: float) -> str:
            name = f"k{len(consts)}"
            consts[name] = value
            return name

        xs = ["t"] + [f"x{i}" for i in range(1, tree.n_coordinates)]
        body = [f"{', '.join(xs)}, = th"]
        kind, lam = laws["total_variance"]
        if kind == "jeffreys":
            lo, hi = JEFFREYS_LOG_BOUNDS
            body += [f"if not {k(lo)} <= t <= {k(hi)}:",
                     "    return -inf, None",
                     f"lp = {k(-math.log(hi - lo))}"]
        else:
            # V = exp(t) must be a positive finite float, as in the reference
            body += ["try:",
                     "    if exp(t) == 0.0:  # below the least float",
                     "        return -inf, None",
                     "except OverflowError:  # above the largest",
                     "    return -inf, None",
                     f"lp = {k(math.log(lam) - math.log(2.0))} - {k(lam)} * exp(0.5 * t)"
                     " + 0.5 * t"]

        var = {tree.leaves: "t"}  # leaves below a node -> its log variance
        for s in tree.splits:
            kind, param = laws[s.name]
            base = var[sum(s.child_leaves, ())]
            pos = s.coords.start  # names the split's locals
            if s.is_binary:
                x, w, u = xs[pos], f"w{pos}", f"u{pos}"
                # log w and log(1 - w) of the designated proportion w = 1/(1 + exp(-x))
                body += [f"{w} = -log1p(exp(-{x})) if {x} > 0 else {x} - log1p(exp({x}))",
                         f"{u} = {w} - {x}"]
                logs = s.in_child_order(w, u)
                if kind == "pc0":
                    const = float(np.log(param) - np.log(2.0) - np.log(-np.expm1(-param)))
                    body.append(f"lp += {k(const)} - {k(param)} * exp(0.5 * {w}) + 0.5 * {w}"
                                f" + {u}")
                else:  # exponents of the designated child first
                    conc = np.array(s.in_child_order(*param))
                    const = float(gammaln(conc.sum()) - gammaln(conc).sum())
                    a, b = conc.tolist()
                    body.append(f"lp += {k(const)} + {k(a)} * {w} + {k(b)} * {u}")
            else:
                raw = xs[s.coords] + ["0.0"]
                top, log_sum = f"m{pos}", f"s{pos}"
                logs = tuple(f"r{pos}_{i}" for i in range(s.n_children))
                exps = ", ".join(f"exp({r} - {top})" for r in raw)
                body += [f"{top} = max({', '.join(raw)})",
                         f"{log_sum} = {top} + log(sum([{exps}]))"]
                body += [f"{r_log} = {r} - {log_sum}" for r_log, r in zip(logs, raw)]
                const = float(gammaln(param.sum()) - gammaln(param).sum())
                terms = ", ".join(f"{k(a)} * {r_log}" for a, r_log in zip(param.tolist(), logs))
                body.append(f"lp += {k(const)} + sum([{terms}])")
            for leaves, log_p in zip(s.child_leaves, logs):
                var[leaves] = f"v{len(var)}"
                body.append(f"{var[leaves]} = {base} + {log_p}")
        body.append(f"return lp, [{', '.join(f'0.5 * {var[(leaf,)]}' for leaf in tree.leaves)}]")

        self._compiled = compile_function("evaluate", "th", body, exp=math.exp, log=math.log,
                                          log1p=math.log1p, inf=math.inf, **consts)
        self.source = self._compiled.source
        self._tree = tree

    def evaluate(self, theta: np.ndarray | list[float]) -> tuple[float, list[float] | None]:
        """(log prior incl. Jacobian, log sigma per leaf in tree.leaves order)
        at ``theta``, an array or a list of floats."""
        try:
            return self._compiled(theta if isinstance(theta, list) else theta.tolist())
        except ValueError:  # the first line's unpacking of theta of another length
            natural_values(self._tree, np.asarray(theta, dtype=float)[None])
            raise


def prior_median_theta(tree: DecompTree, priors) -> np.ndarray:
    """Unconstrained coordinates of the chains' start: V and each binary
    split's designated proportion at the median of its law, and each
    multi-branch split at the barycentre of its simplex."""
    laws = _as_prior_map(tree, priors)
    kind, lam = laws["total_variance"]
    total = float((np.log(2.0) / lam) ** 2) if kind == "pc" else 1.0
    proportions = {}
    for s in tree.splits:
        if not s.is_binary:
            proportions[s.name] = np.full(s.n_children, 1.0 / s.n_children)
            continue
        kind, param = laws[s.name]
        if kind == "pc0":
            w = float(pc0_quantile(0.5, param))
        else:
            a, b = s.in_child_order(*param)
            # a symmetric law's median is 1/2, which beta_dist.ppf misses by an ulp
            w = 0.5 if a == b else float(beta_dist.ppf(0.5, a, b))
        proportions[s.name] = np.array(s.in_child_order(w, 1.0 - w))
    return to_unconstrained(tree, HDParams(total=total, proportions=proportions))


def marginal_cdfs(tree: DecompTree, priors) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    """Analytic marginal CDFs for natural-scale parameters, for KS checks.

    Keys are 'V' and '<split>:<child>': every child of a Dirichlet split,
    whose entry i has the Beta(q_i, sum(q) - q_i) marginal, and the
    designated child of a pc0 split.
    """
    laws = _as_prior_map(tree, priors)
    out: dict[str, Callable] = {}
    kind, lam = laws["total_variance"]
    if kind == "jeffreys":
        lo, hi = JEFFREYS_LOG_BOUNDS
        out["V"] = lambda v: np.clip((np.log(v) - lo) / (hi - lo), 0.0, 1.0)
    else:
        out["V"] = lambda v: -np.expm1(-lam * np.sqrt(v))
    for s in tree.splits:
        kind, param = laws[s.name]
        if kind == "dirichlet":
            for child, a, b in zip(s.child_names, param, param.sum() - param):
                out[f"{s.name}:{child}"] = lambda w, a=a, b=b: beta_dist.cdf(np.asarray(w), a, b)
        else:
            child = s.child_names[s.omega_index]
            out[f"{s.name}:{child}"] = lambda w, lam=param: pc0_cdf(np.asarray(w), lam)
    return out
