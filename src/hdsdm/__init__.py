"""Variance-decomposition priors and MCMC for Bernoulli species distribution models.

The pieces compose bottom-up: precision structures (``gmrf``) and bases
(``bases``) define latent effects; ``standardize`` puts every effect on the
variance-contribution scale; ``tree`` holds the decomposition of the total
variance into proportions; ``priors`` supplies the laws on those
coordinates; ``model``/``mcmc`` assemble and fit the Bernoulli-logit model;
``partition`` turns posterior samples into realized variance shares.
"""

from .bases import (
    BSplineBasis1D,
    BSplineBasis2D,
    IndicatorBasis,
    LinearBasis,
    eval_basis,
    lattice_adjacency,
    prune_basis,
    tensor_basis,
)
from .distributions import PointCloud, UniformInterval, UniformLevels
from .gmrf import (
    CoefficientBlock,
    PrecisionStructure,
    build_icar,
    build_iid,
    build_rw1,
    build_rw2,
)
from .standardize import (
    StandardizedEffect,
    reference_variance,
    split_pspline,
    standardize,
    zero_mean_constraint,
)
from .tree import (
    DecompTree,
    EffectLabel,
    HDParams,
    build_default_tree,
    from_unconstrained,
    from_variances,
    to_unconstrained,
    to_variances,
)

__version__ = "0.1.0"

from .mcmc import (  # noqa: E402 (depends on the names above)
    Draws,
    FitResult,
    McmcSettings,
    PosteriorSample,
    fit,
    log_posterior,
    metrics,
    predict,
)
from .model import AssembledModel, Dataset, EffectDecl, ModelSpec, assemble  # noqa: E402
from .partition import PartitionResult, finite_pop_variance, phi, sensitivity_sweep  # noqa: E402
from .priors import (  # noqa: E402
    PriorSpec,
    RankInfo,
    dirichlet_q_calibrate,
    kld_distance,
    log_prior,
    pc0_calibrate,
    pc0_cdf,
    pc0_quantile,
    pc0_sample,
    pc0_simplified_logpdf,
    pc_variance_lambda,
    sum_of_ranks_check,
)
