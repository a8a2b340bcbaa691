"""Assignment generation under complete randomization and rerandomization."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_model import Dataset, DesignSpec
from .exceptions import AcceptanceRegionError, DegenerateCovariatesError
from .mixture import threshold_from_pa
from .stats_core import covariate_covariance

__all__ = ["AssignmentVector", "Covariates", "draw_assignment", "mahalanobis",
           "threshold_from_pa"]

REJECTION_CAP = 1_000_000
_RCOND_MIN = 1e-12
# relative distance from the threshold within which a mask distance is
# re-checked, for centred, well-conditioned covariates; the two arithmetics
# differ there by a few 1e-15 relative
_NEAR = 1e-12


@dataclass(frozen=True)
class AssignmentVector:
    """One accepted assignment plus how many rejection draws it took."""

    z: np.ndarray
    accepted_after: int


def _sxx_and_factor(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finite-population covariate covariance (divisor n-1) and its Cholesky
    factor, rejecting numerically singular matrices."""
    if x.shape[1] < 1:
        raise DegenerateCovariatesError("balance criterion needs at least one covariate")
    sxx = covariate_covariance(x)
    eig = np.linalg.eigvalsh(sxx)
    if eig[0] <= 0 or eig[0] / eig[-1] < _RCOND_MIN:
        raise DegenerateCovariatesError(
            f"degenerate covariates: reciprocal condition {max(eig[0], 0.0) / eig[-1]:.2e}"
        )
    return sxx, np.linalg.cholesky(sxx)


def _mahalanobis_from_factor(x: np.ndarray, z: np.ndarray, chol: np.ndarray) -> float:
    n = len(z)
    n1 = int(z.sum())
    n0 = n - n1
    diff = x[z == 1].mean(axis=0) - x[z == 0].mean(axis=0)
    w = np.linalg.solve(chol, diff)
    return float(n1 * n0 / n * (w @ w))


def mahalanobis(x: np.ndarray, z: np.ndarray) -> float:
    """Mahalanobis imbalance of an assignment: the arm-mean covariate gap
    scaled by the inverse covariate covariance and the arm sizes."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z)
    _, chol = _sxx_and_factor(x)
    return _mahalanobis_from_factor(x, z, chol)


class Covariates:
    """A covariate matrix and its Mahalanobis balance metric.

    The metric (a Cholesky factor and the whitened centred covariates) is
    worked out on the first rerandomized draw and reused by every later
    draw on the same object, so a caller drawing many assignments for one
    matrix passes one Covariates to each draw.
    """

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)

    @cached_property
    def chol(self) -> np.ndarray:
        return _sxx_and_factor(self.x)[1]

    @cached_property
    def whitened(self) -> np.ndarray:
        """Centred covariates times the inverse transposed factor, so a
        treated set's row sum has squared norm proportional to its
        Mahalanobis imbalance, and a last column of ones, whose sum counts
        the set."""
        xc = self.x - self.x.mean(axis=0)
        return np.column_stack([np.linalg.solve(self.chol, xc.T).T, np.ones(len(xc))])

    @cached_property
    def near(self) -> float:
        """Relative distance from the threshold within which the mask and
        the gathered distances may disagree: _NEAR, widened by the factor's
        condition number and by how far the covariates sit from their means
        in standard deviations, which scale the roundoff of both."""
        offset = np.max(np.abs(self.x.mean(axis=0)) / self.x.std(axis=0, ddof=1))
        return float(_NEAR * np.linalg.cond(self.chol) * (1.0 + offset))


def _gathered_distances(cov: Covariates, treated: np.ndarray) -> np.ndarray:
    """Mahalanobis imbalance of each row of treated indices, by gathering
    the treated rows of the raw covariates and solving with the factor."""
    x = cov.x
    n, n1 = len(x), treated.shape[1]
    n0 = n - n1
    s1 = x[treated].sum(axis=1)
    diff = s1 / n1 - (x.sum(axis=0) - s1) / n0
    w = np.linalg.solve(cov.chol, diff.T)
    return n1 * n0 / n * np.einsum("ij,ij->j", w, w)


def draw_assignment(design: DesignSpec, dataset,
                    rng: np.random.Generator) -> AssignmentVector:
    """Draw an assignment: one uniform split for CRE, rejection sampling
    against the Mahalanobis threshold for ReM.

    ``dataset`` may be a Dataset, a bare covariate matrix or a Covariates.
    The injected generator is the only source of randomness, so results
    are reproducible from (seed, call order).
    """
    cov = dataset if isinstance(dataset, Covariates) else Covariates(
        dataset.x if isinstance(dataset, Dataset) else dataset)
    n = len(cov.x)
    n1 = design.n1
    if not 0 < n1 < n:
        raise ValueError(f"n1 must be in (0, n); got {n1} with n={n}")

    if design.kind == "cre" or math.isinf(design.a):
        z = np.zeros(n, dtype=np.int64)
        z[rng.permutation(n)[:n1]] = 1
        return AssignmentVector(z=z, accepted_after=1)

    xw, near = cov.whitened, cov.near
    a = design.a
    scale = n / (n1 * (n - n1))
    # candidates are evaluated in vectorized batches; the n1 smallest of n
    # iid uniform keys is a uniform random treated subset, so the accepted
    # draw has exactly the law of one-at-a-time rejection sampling
    cap = REJECTION_CAP
    batch = 128
    attempts = 0
    while attempts < cap:
        b = min(batch, cap - attempts)
        keys = rng.random((b, n))
        mask = keys <= np.partition(keys, n1 - 1, axis=1)[:, n1 - 1:n1]
        sums = mask.astype(float) @ xw
        s1 = sums[:, :-1]
        m_vals = scale * np.einsum("ij,ij->i", s1, s1)
        # the mask distance differs from the gathered one in the last bits;
        # a row that close to the threshold, or whose keys tie at the
        # boundary, is decided by the gathered arithmetic for the batch
        unsure = (np.abs(m_vals - a) <= near * a) | (sums[:, -1] != n1)
        hits = np.flatnonzero((m_vals <= a) | unsure)
        if hits.size and unsure[hits[0]]:
            treated = np.argpartition(keys, n1 - 1, axis=1)[:, :n1]
            hits = np.flatnonzero(_gathered_distances(cov, treated) <= a)
            mask = np.zeros((b, n), dtype=bool)
            np.put_along_axis(mask, treated, True, axis=1)
        if hits.size:
            j = int(hits[0])
            return AssignmentVector(z=mask[j].astype(np.int64), accepted_after=attempts + j + 1)
        attempts += b
    raise AcceptanceRegionError(
        f"acceptance region too small: no draw accepted in {cap} attempts "
        f"(observed acceptance rate < {1.0 / cap:.1e})",
        observed_rate=0.0,
    )
