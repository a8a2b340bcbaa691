"""Assignment generation under complete randomization and rerandomization."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_model import Dataset, DesignSpec
from .exceptions import AcceptanceRegionError, DegenerateCovariatesError
from .mixture import threshold_from_pa
from .stats_core import covariate_covariance, inverse_from_factor, spd_factors

__all__ = ["AssignmentVector", "Covariates", "draw_assignment", "mahalanobis",
           "threshold_from_pa"]

REJECTION_CAP = 1_000_000
# relative distance from the threshold within which a mask distance is
# re-checked, for centred, well-conditioned covariates; the two arithmetics
# differ there by a few 1e-15 relative
_NEAR = 1e-12


@dataclass(frozen=True)
class AssignmentVector:
    """One accepted assignment plus how many rejection draws it took."""

    z: np.ndarray
    accepted_after: int


def mahalanobis(x: np.ndarray, z: np.ndarray) -> float:
    """Mahalanobis imbalance of an assignment: the arm-mean covariate gap
    scaled by the inverse covariate covariance and the arm sizes, by the
    arithmetic the sampler decides near-threshold draws with."""
    treated = np.flatnonzero(np.asarray(z) == 1)
    return float(_gathered_distances(Covariates(x), treated[None, :])[0])


class Covariates:
    """A covariate matrix and its Mahalanobis balance metric.

    The metric (a Cholesky factor and the whitened centred covariates) is
    worked out on the first rerandomized draw and reused by every later
    draw on the same object, so a caller drawing many assignments for one
    matrix passes one Covariates to each draw. The inverse covariance the
    variance families read comes from the same factor.
    """

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)

    @cached_property
    def chol(self) -> np.ndarray:
        """Cholesky factor of the covariate covariance (divisor n - 1); a
        numerically singular covariance raises."""
        if self.x.shape[1] < 1:
            raise DegenerateCovariatesError("balance criterion needs at least one covariate")
        chol, errors = spd_factors(covariate_covariance(self.x), "covariate covariance")
        if errors:
            raise errors[0]
        return chol

    @cached_property
    def sxx_inv(self) -> np.ndarray:
        """Inverse covariate covariance, from the factor."""
        return inverse_from_factor(self.chol)

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
        f"(observed acceptance rate < {1.0 / cap:.1e})")
