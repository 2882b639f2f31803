"""Priors for total variance and proportion parameters.

The HD prior is a product of one law per node of the decomposition tree.
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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import beta as beta_dist

from .exceptions import CalibrationError, NumericalError, ValidationError
from .gmrf import RANK_TOL
from .tree import DecompTree, HDParams, from_unconstrained, log_jacobian, to_unconstrained

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


_FAMILIES = {"jeffreys", "pc", "uniform", "beta", "dirichlet", "pc0"}
_V_FAMILIES = ("jeffreys", "pc")  # the total variance takes these, and no split does

# hyperparameters each family needs; 'pc' and 'pc0' take lam in their place
_REQUIRED_PARAMS = {"pc": ("U", "alpha"), "pc0": ("U", "alpha"), "beta": ("a", "b"),
                    "dirichlet": ("q",)}


@dataclass(frozen=True)
class PriorSpec:
    """Prior family attached to one tree node.

    node : 'total_variance' or a split name.
    family : jeffreys | pc (on V); uniform | beta | dirichlet | pc0 (on
        proportions).
    params : family hyperparameters; 'pc' takes lam or (U, alpha); 'beta'
        takes a, b; 'dirichlet' takes q (scalar or vector); 'pc0' takes lam
        or (U, alpha). lam, a and b are real numbers, not lists or strings.
    """

    node: str
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown prior family {self.family!r}")
        calibrated = self.family in ("pc", "pc0")
        missing = [k for k in _REQUIRED_PARAMS.get(self.family, ()) if k not in self.params]
        if missing and not (calibrated and "lam" in self.params):
            raise ValidationError(
                f"prior {self.node!r}: family {self.family!r} is missing {missing}"
                + (" (or lam)" if calibrated else "")
            )
        if calibrated and "lam" not in self.params:
            calibrate = pc_variance_lambda if self.family == "pc" else pc0_calibrate
            lam = calibrate(self.params["U"], self.params["alpha"])
            object.__setattr__(self, "params", {**self.params, "lam": lam})
        for key in ("lam", "q", "a", "b"):
            if key not in self.params:
                continue
            raw = self.params[key]
            try:
                value = np.asarray(raw, dtype=float)
            except (TypeError, ValueError):
                value = np.array(np.nan)
            # q may be a vector; lam, a and b are one real number each
            single = isinstance(raw, numbers.Real) and not isinstance(raw, bool)
            if not (np.all(np.isfinite(value) & (value > 0)) and (single or key == "q")):
                want = "finite and positive" if key == "q" else "finite, positive and one number"
                raise ValidationError(f"prior {self.node!r}: {key} must be {want}, got {raw!r}")


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


def pc0_calibrate(U: float, alpha: float, tol: float = 1e-10) -> float:
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

    lo = 1e-12
    hi = 1.0
    while residual(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise CalibrationError(f"no rate below 1e9 reaches P(omega<{U}) = {alpha}")
    # bisection on the probability residual
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= tol:
            return mid
        if r < 0:
            lo = mid
        else:
            hi = mid
    raise CalibrationError("bisection failed to reach tolerance")


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


def _psd_eig(S: np.ndarray):
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValidationError(f"matrix must be square, got {S.shape}")
    if np.abs(S - S.T).max() > 1e-10 * max(np.abs(S).max(), 1.0):
        raise ValidationError("matrix must be symmetric")
    lam, vec = np.linalg.eigh(0.5 * (S + S.T))
    tol = RANK_TOL * max(lam[-1], 0.0)
    if lam[0] < -max(tol, 1e-12):
        raise ValidationError(f"matrix has negative eigenvalue {lam[0]:.3e}")
    nonzero = lam > tol
    return lam, vec, int(np.count_nonzero(nonzero)), nonzero


def _rank(S: np.ndarray) -> int:
    return _psd_eig(S)[2]


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
    if upper[0] + upper[1] <= N:
        return RankInfo(
            r0=upper[0],
            r1=upper[1],
            n=N,
            upper_bounds=upper,
            condition_holds=True,
            method="upper_bound",
            conclusive=True,
        )
    if Sigma0 is None or Sigma1 is None:
        return RankInfo(
            r0=upper[0],
            r1=upper[1],
            n=N,
            upper_bounds=upper,
            condition_holds=False,
            method="upper_bound",
            conclusive=False,
        )
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

    lam_w, _, rank_w, nz_w = _psd_eig(S_w)
    lam_b, vec_b, rank_b, nz_b = _psd_eig(S_b)
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
    omega0: float = 1e-6,
) -> np.ndarray:
    """Exact-construction shrinkage density via the numeric distance.

    Places Exponential(lam) on the normalized distance
    dbar(w) = d(w; omega0) sqrt(omega0 / R(1)) (truncated at dbar(1)) and
    changes variables with a central finite difference of half-width 1e-5
    for dbar'. Validation tool only: the simplified closed form is what
    inference uses.
    """
    lam = _check_lam(lam)
    omega = np.atleast_1d(_check_omega_interior(omega))
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
# joint prior over HD parameters
# ---------------------------------------------------------------------------


def _as_prior_map(tree: DecompTree, priors) -> dict[str, tuple[str, object]]:
    """The law of each node of ``tree`` (module docstring), once its priors
    fit it: ('jeffreys', None) or ('pc', lam) on 'total_variance', and
    ('dirichlet', q in child order) or ('pc0', lam) on each split. The one
    reader of ``PriorSpec.family`` and ``params``. Raises ValidationError for
    a node without a prior, a prior on a node the tree lacks, a total-variance
    family other than jeffreys/pc, jeffreys/pc on a split, beta/pc0 on a
    split that is not binary, and a Dirichlet q whose length is not the
    split's child count."""
    pm = priors if isinstance(priors, dict) else {p.node: p for p in priors}
    nodes = {"total_variance", *(s.name for s in tree.splits)}
    missing = nodes - set(pm)
    if missing:
        raise ValidationError(f"missing priors for nodes {sorted(missing)}")
    unknown = set(pm) - nodes
    if unknown:
        raise ValidationError(f"priors declared for unknown tree nodes: {sorted(unknown)}")
    spec = pm["total_variance"]
    if spec.family not in _V_FAMILIES:
        raise ValidationError(f"family {spec.family!r} not valid for the total variance")
    lam = float(spec.params["lam"]) if spec.family == "pc" else None
    laws = {"total_variance": (spec.family, lam)}
    for s in tree.splits:
        spec = pm[s.name]
        if spec.family in _V_FAMILIES:
            raise ValidationError(f"family {spec.family!r} not valid for split {s.name!r}")
        if spec.family in ("beta", "pc0") and not s.is_binary:
            raise ValidationError(f"{spec.family} prior needs a binary split, got {s.name!r}")
        if spec.family == "pc0":
            laws[s.name] = ("pc0", float(spec.params["lam"]))
            continue
        if spec.family == "beta":
            q = np.empty(2)
            q[s.omega_index] = spec.params["a"]
            q[1 - s.omega_index] = spec.params["b"]
        else:
            q = spec.params["q"] if spec.family == "dirichlet" else 1.0
            if np.shape(q) not in ((), (s.n_children,)):
                raise ValidationError(
                    f"split {s.name!r}: q must be a scalar or have {s.n_children} "
                    f"entries, got shape {np.shape(q)}"
                )
            q = np.asarray(q, dtype=float) * np.ones(s.n_children)
        laws[s.name] = ("dirichlet", q)
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

    for s in tree.splits:
        props = _check_omega_interior(p.proportions[s.name])
        kind, param = laws[s.name]
        if kind == "dirichlet":
            out += _dirichlet_logpdf(props, param)
        else:
            out += float(pc0_simplified_logpdf(props[s.omega_index], param))
    return out


def log_prior_unconstrained(tree: DecompTree, priors, theta: np.ndarray) -> float:
    """Prior density of the unconstrained coordinates (includes the Jacobian);
    -inf where V = exp(theta[0]) is not a positive finite float."""
    p = from_unconstrained(tree, theta)
    if not 0.0 < p.total < np.inf:
        return -np.inf
    lp = log_prior(tree, priors, p)
    if not np.isfinite(lp):
        return -np.inf
    return lp + log_jacobian(tree, theta)


class HDEvaluator:
    """Precompiled joint evaluation of the HD prior and the leaf scales.

    ``evaluate(theta)`` returns the log prior density of the unconstrained
    coordinates, Jacobian included, and the log sigma of each leaf in
    ``tree.leaves`` order as a list of floats; outside the support, or where
    the density underflows, it returns (-inf, None). It is one flat pass on
    Python floats that calls no numpy. Each split writes the log variance of
    each child once into a flat list: its own entry plus the child's log
    proportion (a log-sigmoid for a binary split, a float log-sum-exp for a
    multi-branch one). So a leaf's entry is log V plus the sum of the log
    proportions on its root-to-leaf path, and its log sigma is half of it.
    The entry indices and each node's constants are fixed here.

    Where every proportion is at least ``tree.PROPORTION_FLOOR``, the values
    agree with ``log_prior_unconstrained`` and ``to_variances`` up to
    rounding. Beyond that floor the reference clamps the proportions and this
    does not: it gives the unclamped density, with log-softmax proportions.
    Priors that do not fit the tree raise ValidationError (``_as_prior_map``).
    """

    def __init__(self, tree: DecompTree, priors):
        laws = _as_prior_map(tree, priors)
        kind, self.v_lam = laws["total_variance"]  # v_lam is None under jeffreys
        # pc: log(lam) - log(2); jeffreys: the log normalizer
        if kind == "pc":
            self.v_const = math.log(self.v_lam) - math.log(2.0)
        else:
            self.v_const = -math.log(JEFFREYS_LOG_BOUNDS[1] - JEFFREYS_LOG_BOUNDS[0])

        # per split, in pre-order: (theta position, entry of its own log
        # variance, n_children, omega_index, kind, a, const), with a the
        # exponents (designated child first for a binary split) of the
        # Dirichlet-style density with the log-ratio Jacobian folded in, or
        # lam for pc0. Entry 0 of the flat list is log V, and each split's
        # children follow those of the splits before it.
        self.split_meta = []
        entry = {tree.leaves: 0}  # leaves below a node -> entry of its log variance
        pos = n_entries = 1
        for s in tree.splits:
            kind, param = laws[s.name]
            own = entry[sum(s.child_leaves, ())]
            for ci, leaves in enumerate(s.child_leaves):
                entry[leaves] = n_entries + ci
            n_entries += s.n_children
            if kind == "pc0":
                const = float(np.log(param) - np.log(2.0) - np.log(-np.expm1(-param)))
                self.split_meta.append((pos, own, 2, s.omega_index, "pc0", param, const))
            else:
                conc = param[[s.omega_index, 1 - s.omega_index]] if s.is_binary else param
                const = float(gammaln(conc.sum()) - gammaln(conc).sum())
                self.split_meta.append((pos, own, s.n_children, s.omega_index, "dirichlet",
                                        tuple(conc.tolist()), const))
            pos += 1 if s.is_binary else s.n_children - 1
        self.leaf_entries = [entry[(leaf,)] for leaf in tree.leaves]

    def evaluate(self, theta: np.ndarray | list[float]) -> tuple[float, list[float] | None]:
        """(log prior incl. Jacobian, log sigma per leaf in tree.leaves order)
        at ``theta``, an array or a list of floats."""
        th = theta if isinstance(theta, list) else theta.tolist()
        t = th[0]
        if self.v_lam is None:
            lo, hi = JEFFREYS_LOG_BOUNDS
            if not lo <= t <= hi:
                return -math.inf, None
            logp = self.v_const
        else:
            # V = exp(t) must be a positive finite float, as in the reference
            try:
                if math.exp(t) == 0.0:  # below the least float
                    return -math.inf, None
            except OverflowError:  # above the largest
                return -math.inf, None
            logp = self.v_const - self.v_lam * math.exp(0.5 * t) + 0.5 * t

        logs = [t]
        for pos, own, n, omega_index, kind, a, const in self.split_meta:
            base = logs[own]
            if n == 2:
                x = th[pos]
                # log w and log(1 - w) of the designated proportion w = 1/(1 + exp(-x))
                log_w = -math.log1p(math.exp(-x)) if x > 0 else x - math.log1p(math.exp(x))
                log_v = log_w - x
                if omega_index == 0:
                    logs += (base + log_w, base + log_v)
                else:
                    logs += (base + log_v, base + log_w)
                if kind == "dirichlet":
                    logp += const + a[0] * log_w + a[1] * log_v
                else:  # pc0
                    logp += const - a * math.exp(0.5 * log_w) + 0.5 * log_w + log_v
            else:
                raw = th[pos : pos + n - 1]
                raw.append(0.0)
                top = max(raw)
                log_sum = top + math.log(sum([math.exp(r - top) for r in raw]))
                lp = [r - log_sum for r in raw]
                logs += [base + r for r in lp]
                logp += const + sum([ai * r for ai, r in zip(a, lp)])
        return logp, [0.5 * logs[i] for i in self.leaf_entries]


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
            a, b = param[s.omega_index], param[1 - s.omega_index]
            # a symmetric law's median is 1/2, which beta_dist.ppf misses by an ulp
            w = 0.5 if a == b else float(beta_dist.ppf(0.5, a, b))
        props = np.empty(2)
        props[s.omega_index] = w
        props[1 - s.omega_index] = 1.0 - w
        proportions[s.name] = props
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
