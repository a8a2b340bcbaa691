"""Assignment generation under complete randomization and rerandomization."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_model import Dataset, DesignSpec
from .exceptions import AcceptanceRegionError, DegenerateCovariatesError, unstored
from .mixture import threshold_from_pa
from .stats_core import covariate_covariance, inverse_from_factor, spd_factors

__all__ = ["AssignmentVector", "Covariates", "draw_assignment", "mahalanobis",
           "threshold_from_pa"]

REJECTION_CAP = 1_000_000
# candidate rows per block of the rejection sampler (see draw_assignment)
BLOCK_ROWS = 64
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
    arithmetic the sampler decides near-threshold draws with. ``z`` must
    hold one 0/1 entry per row of ``x`` with both arms non-empty, or
    ValueError is raised."""
    cov = Covariates(x)
    z = np.asarray(z)
    n = len(cov.x)
    if z.shape != (n,):
        raise ValueError(f"z must hold one entry per row of x: got shape {z.shape} "
                         f"for {n} rows")
    if not np.all((z == 0) | (z == 1)):
        raise ValueError("z must be 0/1")
    treated = np.flatnonzero(z == 1)
    if not 0 < treated.size < n:
        raise ValueError(f"both arms must be non-empty: {treated.size} of {n} units treated")
    return float(_gathered_distances(cov, treated[None, :])[0])


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
        if self.x.ndim != 2:
            raise ValueError(f"covariates must be an (n, K) matrix, got shape {self.x.shape}")
        if self.x.shape[1] < 1:
            raise DegenerateCovariatesError("balance criterion needs at least one covariate")
        chol, errors = spd_factors(covariate_covariance(self.x), "covariate covariance")
        if errors:
            raise unstored(errors[0])
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

    Under ReM each candidate is one row of n uniform keys, and its n1
    smallest keys are the treated units. Candidates come in blocks of
    BLOCK_ROWS rows, ``rng.random((BLOCK_ROWS, n))`` at a time (the last
    block is cut at REJECTION_CAP), so a draw accepted at candidate j
    leaves the generator ceil(j / BLOCK_ROWS) * BLOCK_ROWS * n doubles on;
    the rows themselves, and so the accepted assignment and its attempt
    count, do not depend on the block size. Each row's n1-th smallest key
    is found on a float32 copy: rounding keeps the order of any two keys,
    so the mask of keys at or below it holds the n1 smallest, and it holds
    more units only where keys tie or round together at the boundary. Such
    a row, like one within roundoff of the threshold, is decided by
    gathering its treated rows by ``argpartition`` of the float64 keys.
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
    # candidates are evaluated in vectorized blocks; the n1 smallest of n
    # iid uniform keys is a uniform random treated subset, so the accepted
    # draw has exactly the law of one-at-a-time rejection sampling
    cap = REJECTION_CAP
    attempts = 0
    while attempts < cap:
        b = min(BLOCK_ROWS, cap - attempts)
        keys = rng.random((b, n))
        # rounding to float32 never reverses the order of two keys, so the
        # mask holds every unit of the n1 smallest; where keys tie, or round
        # to one float32 at the boundary, it holds more than n1 units
        keys32 = keys.astype(np.float32)
        mask = keys32 <= np.sort(keys32, axis=1)[:, n1 - 1:n1]
        sums = mask.astype(float) @ xw
        s1 = sums[:, :-1]
        m_vals = scale * np.einsum("ij,ij->i", s1, s1)
        # the mask distance differs from the gathered one in the last bits;
        # a row that close to the threshold, or whose mask does not count n1
        # units, is decided by the gathered arithmetic for the block
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
