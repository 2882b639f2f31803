"""Gaussian precision structures for latent effects.

Builders for the standard intrinsic precision matrices (first/second-order
random walks, lattice ICAR, i.i.d.), each with its null space and rank in
closed form (none, the constant, span{1, t}, one indicator per component of
the lattice), and the one constrained Gaussian law, ``SubspaceGaussian``
(N(0, Q-) restricted to A'u = 0), used for direct sampling, densities and
effect standardization. Where the constraints span the null space of Q,
restriction equals kriging and the covariance is the pseudo-inverse of Q.

``psd_eigen`` classifies the zero eigenvalues of the matrices ``priors``
compares, with the scale-relative threshold ``|lam| <= RANK_TOL * lam_max``,
robust for the dense sizes used here (K up to a few hundred per effect).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .exceptions import ConstraintError, DimensionError, ValidationError

RANK_TOL = 1e-9

__all__ = [
    "PrecisionStructure",
    "CoefficientBlock",
    "SubspaceGaussian",
    "build_rw1",
    "build_rw2",
    "build_icar",
    "build_iid",
    "constrained_gaussian",
]


@dataclass(frozen=True)
class PrecisionStructure:
    """A symmetric PSD precision matrix with its classified rank.

    Attributes
    ----------
    Q : ndarray, shape (K, K)
        Symmetric positive semi-definite precision matrix.
    nullspace : ndarray, shape (K, m)
        Orthonormal basis of the null space (columns), in closed form.
    rank : int
        The rank of Q, ``K - m``.
    """

    Q: np.ndarray
    nullspace: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @property
    def null_dim(self) -> int:
        return self.nullspace.shape[1]


def psd_eigen(S: np.ndarray, what: str = "matrix"):
    """The one eigen-classification of a symmetric PSD matrix: its symmetrized
    form, eigenvalues (ascending), eigenvectors and nonzero mask (module
    docstring). Not square: DimensionError; asymmetric beyond 1e-12 of its
    largest entry, or an eigenvalue below -RANK_TOL * lam_max: ValidationError."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {S.shape}")
    scale = np.abs(S).max()
    if scale > 0 and np.abs(S - S.T).max() > 1e-12 * scale:
        raise ValidationError(f"{what} is not symmetric to 1e-12 relative tolerance")
    S = 0.5 * (S + S.T)
    lam, vec = np.linalg.eigh(S)
    tol = RANK_TOL * max(lam[-1], 0.0)
    if lam[0] < -tol:
        raise ValidationError(f"{what} has negative eigenvalue {lam[0]:.3e} beyond tolerance")
    return S, lam, vec, np.abs(lam) > tol


def _rank(S: np.ndarray) -> int:
    """The number of eigenvalues of ``S`` that ``psd_eigen`` counts as nonzero."""
    return int(np.count_nonzero(psd_eigen(S)[3]))


@dataclass(frozen=True)
class CoefficientBlock:
    """One latent coefficient vector tagged with its effect id."""

    values: np.ndarray
    effect_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).ravel())


def build_rw1(K: int) -> PrecisionStructure:
    """First-order random walk precision: Q = D1' D1 with D1 the first-difference matrix.

    Null space is the constant vector; rank K - 1.
    """
    if K < 2:
        raise DimensionError(f"rw1 needs K >= 2, got {K}")
    D1 = np.diff(np.eye(K), axis=0)
    return PrecisionStructure(D1.T @ D1, np.full((K, 1), 1.0 / np.sqrt(K)), K - 1)


def build_rw2(K: int) -> PrecisionStructure:
    """Second-order random walk precision: Q = D2' D2 with D2 the second-difference matrix.

    Null space is spanned by the constant and linear vectors; rank K - 2.
    """
    if K < 3:
        raise DimensionError(f"rw2 needs K >= 3, got {K}")
    D2 = np.diff(np.eye(K), n=2, axis=0)
    t = np.arange(K) - (K - 1) / 2.0  # centred, so orthogonal to the constant
    null = np.column_stack([np.full(K, 1.0 / np.sqrt(K)), t / np.linalg.norm(t)])
    return PrecisionStructure(D2.T @ D2, null, K - 2)


def build_icar(W: np.ndarray) -> PrecisionStructure:
    """Intrinsic CAR precision diag(W 1) - W on an undirected 0/1 adjacency graph.

    The graph may be disconnected; the null space holds the normalised
    indicator of each connected component, in the order of their labels.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionError(f"adjacency must be square, got shape {W.shape}")
    if not np.array_equal(W, W.T):
        raise ValidationError("adjacency matrix must be symmetric")
    if np.any(np.diag(W) != 0):
        raise ValidationError("adjacency matrix must have zero diagonal")
    if not np.all(np.isin(W, (0.0, 1.0))):
        raise ValidationError("adjacency matrix entries must be 0 or 1")
    n_comp, labels = connected_components(W, directed=False)
    null = (labels[:, None] == np.arange(n_comp)) / np.sqrt(np.bincount(labels))
    return PrecisionStructure(np.diag(W.sum(axis=1)) - W, null, len(W) - n_comp)


def build_iid(K: int) -> PrecisionStructure:
    """Identity precision (exchangeable effect); full rank, empty null space."""
    if K < 1:
        raise DimensionError(f"iid needs K >= 1, got {K}")
    return PrecisionStructure(np.eye(K), np.zeros((K, 0)), K)


@dataclass(frozen=True)
class SubspaceGaussian:
    """Proper zero-mean Gaussian on the subspace {u : A'u = 0}.

    The law of an effect whose improper precision Q is made proper by linear
    constraints: covariance B (B'QB)^-1 B' where the columns of B span the
    constraint null space. When the constraints span exactly the null space
    of Q this reduces to the usual pseudo-inverse covariance; when they
    replace it (e.g. a quadrature zero-mean constraint instead of
    sum-to-zero) the level of the effect is pinned by the constraint alone.
    """

    basis: np.ndarray  # K x r orthonormal, spans the constraint null space
    chol: np.ndarray  # lower Cholesky factor of basis' Q basis
    log_det_precision: float  # log det of basis' Q basis

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def free_dim(self) -> int:
        return self.basis.shape[1]

    def covariance(self) -> np.ndarray:
        """Constrained covariance as a K x K (singular) matrix."""
        half = np.linalg.solve(self.chol, self.basis.T)  # r x K
        return half.T @ half

    def whitening_transform(self) -> np.ndarray:
        """T with u = T z, z ~ N(0, I_r) distributed as this law (K x r)."""
        # u = B L^-T z  =>  cov = B (L L^T)^-1 B^T
        return self.basis @ np.linalg.solve(self.chol.T, np.eye(self.free_dim))

    def sample(self, sigma2: float, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(self.free_dim)
        return np.sqrt(sigma2) * (self.whitening_transform() @ z)

    def coords(self, u: np.ndarray) -> np.ndarray:
        """Subspace coordinates w with u = basis @ w."""
        return self.basis.T @ np.asarray(u, dtype=float)

    def logpdf(self, u: np.ndarray, sigma2: float) -> float:
        """Proper log-density on the r-dimensional support subspace."""
        w = self.coords(u)
        quad = float(np.sum((self.chol.T @ w) ** 2))
        r = self.free_dim
        return -0.5 * (r * np.log(2.0 * np.pi * sigma2) - self.log_det_precision + quad / sigma2)


def constrained_gaussian(P: PrecisionStructure, A: np.ndarray | None) -> SubspaceGaussian:
    """Restrict the (possibly improper) N(0, Q-) law to the subspace A'u = 0.

    Raises ConstraintError if the constraints do not pin every null-space
    direction of Q (the restricted precision would stay singular).
    """
    K = P.dim
    if A is None or (hasattr(A, "size") and np.size(A) == 0):
        B = np.eye(K)
    else:
        A = np.asarray(A, dtype=float)
        if A.ndim == 1:
            A = A[:, None]
        if A.shape[0] != K:
            raise DimensionError(f"constraint matrix has {A.shape[0]} rows, expected {K}")
        U, s, _ = np.linalg.svd(A, full_matrices=True)
        r = int(np.count_nonzero(s > 1e-12 * (s[0] if s.size else 1.0)))
        B = U[:, r:]
    if B.shape[1] == 0:
        raise ConstraintError("constraints remove every degree of freedom")
    M = B.T @ P.Q @ B
    lam = np.linalg.eigvalsh(M)
    if lam[0] <= RANK_TOL * max(lam[-1], 0.0):
        raise ConstraintError(
            "constraints do not identify the effect: restricted precision is singular "
            f"(min eigenvalue {lam[0]:.3e}); the precision null space must be pinned"
        )
    L = np.linalg.cholesky(M)
    return SubspaceGaussian(
        basis=B,
        chol=L,
        log_det_precision=float(2.0 * np.sum(np.log(np.diag(L)))),
    )
