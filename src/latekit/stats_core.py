"""Deterministic statistical kernels: arm moments, interacted OLS, sandwiches.

Conventions follow finite-population randomization inference throughout:
within-arm sample moments use divisor n_z - 1, full-sample covariate
matrices use n - 1, and the interacted regression includes assignment,
covariates, and their products.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data_model import Dataset
from .exceptions import (
    DegenerateCovariatesError,
    LeverageOnePointError,
    RankDeficientDesignError,
)

_RCOND_MIN = 1e-12
_RANK_TOL = 1e-10


def spd_factors(mats: np.ndarray, what: str
                ) -> tuple[np.ndarray, dict[int, DegenerateCovariatesError]]:
    """Cholesky factors of one symmetric (k, k) matrix or of every matrix in
    a (m, k, k) stack, and the error each numerically singular matrix
    raises, by its (flat) index; its factor is meaningless. This is the one
    place a covariate covariance is tested and factored: singular means a
    nonpositive variance, or a nonpositive smallest eigenvalue or a
    reciprocal condition below 1e-12 of the matrix scaled to unit diagonal
    (the correlation matrix), so rescaling a covariate never changes the
    decision, or a non-finite entry (the tests then see the identity). The
    unscaled matrix is factored; a stack gives each matrix's own bits."""
    finite = np.isfinite(mats).all(axis=(-2, -1), keepdims=True)
    mats = np.where(finite, mats, np.eye(mats.shape[-1]))
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    scale = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    eig = np.linalg.eigvalsh(mats * scale[..., :, None] * scale[..., None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (~finite[..., 0, 0] | (diag <= 0).any(axis=-1) | (eig[..., 0] <= 0)
               | (eig[..., 0] / eig[..., -1] < _RCOND_MIN))
    safe = np.where(bad[..., None, None], np.eye(mats.shape[-1]), mats)
    errors = {int(i): DegenerateCovariatesError(f"{what} is numerically singular")
              for i in np.flatnonzero(bad)}
    return np.linalg.cholesky(safe), errors


def inverse_from_factor(chol: np.ndarray) -> np.ndarray:
    """inv(L)' inv(L), the inverse of L L', for one factor or a stack."""
    inv_chol = np.linalg.inv(chol)
    return np.swapaxes(inv_chol, -1, -2) @ inv_chol


def spd_inverses(mats: np.ndarray, what: str
                 ) -> tuple[np.ndarray, dict[int, DegenerateCovariatesError]]:
    """The inverse of every matrix in a (m, k, k) stack through spd_factors,
    and the error each singular one raises; its inverse is meaningless."""
    chol, errors = spd_factors(mats, what)
    return inverse_from_factor(chol), errors


def covariate_covariances(xs: np.ndarray) -> np.ndarray:
    """The full-sample covariate covariance (divisor n - 1) of every (n, K)
    matrix of a stack; each keeps its own bits in any stack."""
    n = xs.shape[1]
    xc = xs - (np.add.reduce(xs, axis=1) / n)[:, None, :]  # each x.mean(axis=0)'s bits
    return np.swapaxes(xc, 1, 2) @ xc / (n - 1)


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ v[i] for every row i, one BLAS dot per row."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _row_forms(u: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ s @ v[i] for every row i, where ``s`` is one matrix or one per
    row: a vector-matrix product, then a dot."""
    return ((u[:, None, :] @ s) @ v[:, :, None])[:, 0, 0]


class _ArmArrays(NamedTuple):
    """Means, variances and covariate covariances within one arm, one entry
    (or row) per assignment; the covariate terms are None unless asked for."""

    y_mean: np.ndarray
    w_mean: np.ndarray
    s2_y: np.ndarray
    s2_w: np.ndarray
    s_yw: np.ndarray
    s_yx: np.ndarray | None = None
    s_wx: np.ndarray | None = None
    sxx: np.ndarray | None = None


def _arm_moments(idx: np.ndarray, y: np.ndarray, w: np.ndarray,
                 x: np.ndarray | None = None) -> _ArmArrays:
    """The arm's moments for every row of ``idx``, its unit indices under
    one assignment in ascending order; with ``x``, also its covariate terms.
    This is the one place arm moments are computed: ``summarize`` is its
    one-row call, the study passes call it for all of a cell's draws, and
    ``analyze`` for all arms of one size, treated or control, of a file."""
    if len(idx) and idx.shape[1] < 2:
        raise ValueError("each arm needs at least 2 units")
    ys, ws, m = y[idx], w[idx].astype(float), idx.shape[1]
    # np.add.reduce / count is ndarray.mean's arithmetic, without its wrapper
    y_mean, w_mean = np.add.reduce(ys, axis=1) / m, np.add.reduce(ws, axis=1) / m
    yc, wc, d = ys - y_mean[:, None], ws - w_mean[:, None], m - 1
    plain = (y_mean, w_mean, _row_dot(yc, yc) / d, _row_dot(wc, wc) / d, _row_dot(yc, wc) / d)
    if x is None:
        return _ArmArrays(*plain)
    xs = x[idx]
    xc = xs - (np.add.reduce(xs, axis=1) / m)[:, None, :]  # xs.mean's bits, never a warning
    xt = np.swapaxes(xc, 1, 2)
    return _ArmArrays(*plain, (xt @ yc[:, :, None])[:, :, 0] / d,
                      (xt @ wc[:, :, None])[:, :, 0] / d, xt @ xc / d)


def _arm_indices(zs: np.ndarray, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """The treated and the control unit indices of every assignment row (a
    0/1 row with ``n1`` ones), each arm in index order."""
    reps, n = zs.shape
    treated = zs.ravel() != 0
    # flat positions less each row's start: a 1-d nonzero of a bool mask is
    # about twice as fast as a 2-d one or a stable argsort of the rows
    starts = np.arange(0, reps * n, n)[:, None]
    return (np.flatnonzero(treated).reshape(reps, n1) - starts,
            np.flatnonzero(~treated).reshape(reps, n - n1) - starts)


class MomentSummary:
    """The arm moments of one assignment as one-row ``_ArmArrays``, ``arm1``
    and ``arm0``, with their covariate terms when the dataset has covariates
    (None without); ``covariate_arms`` is the pair."""

    def __init__(self, dataset: Dataset, z: np.ndarray):
        treated = np.asarray(z, dtype=np.int64) == 1
        self.dataset, self.n, self.k = dataset, dataset.n, dataset.k
        idx = np.flatnonzero(treated)[None, :], np.flatnonzero(~treated)[None, :]
        self.n1, self.n0 = (i.shape[1] for i in idx)
        x = dataset.x if dataset.k else None
        self.arm1, self.arm0 = (_arm_moments(i, dataset.y, dataset.w, x) for i in idx)
        self.tau_y = float(self.arm1.y_mean[0] - self.arm0.y_mean[0])
        self.tau_w = float(self.arm1.w_mean[0] - self.arm0.w_mean[0])

    @property
    def covariate_arms(self) -> tuple[_ArmArrays, _ArmArrays]:
        return self.arm1, self.arm0


def summarize(dataset: Dataset, z: np.ndarray) -> MomentSummary:
    """Compute every arm-wise moment for the given assignment."""
    return MomentSummary(dataset, z)


@dataclass
class InteractedOlsFit:
    """Least-squares fit of an outcome on assignment, covariates, and their
    interactions, with the pieces robust variances need.

    Columns are ordered [intercept, assignment, covariates, interactions];
    ``tau_hat`` is the assignment coefficient.
    """

    coef: np.ndarray
    residuals: np.ndarray
    hat_diag: np.ndarray
    gram_inv: np.ndarray
    design: np.ndarray = field(repr=False)
    k: int = 0

    @property
    def tau_hat(self) -> float:
        return float(self.coef[1])


def _interacted_design(dataset: Dataset, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    cols = [np.ones(dataset.n), z]
    if dataset.k:
        cols.append(dataset.x)
        cols.append(z[:, None] * dataset.x)
    return np.column_stack(cols)


class _QrContext:
    """Equilibrated QR of one interacted design, reused across outcomes."""

    def __init__(self, dataset: Dataset, z: np.ndarray):
        omega = _interacted_design(dataset, z)
        n, p = omega.shape
        if n <= p:
            raise RankDeficientDesignError(f"need n > {p} rows for {p} columns; got {n}")
        norms = np.linalg.norm(omega, axis=0)
        if np.any(norms == 0):
            bad = int(np.argmax(norms == 0))
            raise RankDeficientDesignError(f"design column {bad} is identically zero")
        q_mat, r_mat = np.linalg.qr(omega / norms)
        diag = np.abs(np.diag(r_mat))
        if diag.min() < _RANK_TOL * diag.max():
            bad = int(np.argmin(diag))
            raise RankDeficientDesignError(
                f"design is rank deficient (column {bad} collinear with earlier columns)"
            )
        self.omega = omega
        self.norms = norms
        self.q_mat = q_mat
        self.r_mat = r_mat
        self.hat_diag = np.einsum("ij,ij->i", q_mat, q_mat)
        r_inv = np.linalg.solve(r_mat, np.eye(p))
        self.gram_inv = (r_inv @ r_inv.T) / np.outer(norms, norms)
        self.k = dataset.k

    def fit(self, q: np.ndarray) -> InteractedOlsFit:
        q = np.asarray(q, dtype=float)
        coef = np.linalg.solve(self.r_mat, self.q_mat.T @ q) / self.norms
        residuals = q - self.omega @ coef
        return InteractedOlsFit(coef=coef, residuals=residuals,
                                hat_diag=self.hat_diag, gram_inv=self.gram_inv,
                                design=self.omega, k=self.k)


def fit_interacted(dataset: Dataset, z: np.ndarray, q: np.ndarray) -> InteractedOlsFit:
    """Fit the interacted regression by column-equilibrated QR.

    Raises on rank deficiency, identifying the offending column.
    """
    return _QrContext(dataset, z).fit(q)


def fit_interacted_pair(dataset: Dataset, z: np.ndarray
                        ) -> tuple[InteractedOlsFit, InteractedOlsFit]:
    """Fit outcome and receipt on one shared design (single factorization)."""
    ctx = _QrContext(dataset, z)
    return ctx.fit(dataset.y), ctx.fit(dataset.w)


@dataclass(frozen=True)
class SandwichCov:
    """Robust (co)variances of the assignment coefficients for a pair of
    outcomes sharing one interacted design."""

    v_y: float
    c_yw: float
    v_w: float
    flavor: str

    def family(self, name: str) -> tuple[float, float, float]:
        """(v_y, c_yw, v_w); a sandwich holds the 'sandwich' family only."""
        if name != "sandwich":
            raise ValueError(f"no {name!r} family in SandwichCov")
        return self.v_y, self.c_yw, self.v_w


_FLAVOR_EXPONENT = {"ehw": 0, "hc2": 1, "hc3": 2}


def sandwich_cov(fit_y: InteractedOlsFit, fit_w: InteractedOlsFit,
                 flavor: str = "ehw") -> SandwichCov:
    """Heteroskedasticity-robust sandwich for the assignment coefficient.

    The weight on each squared (or crossed) residual is (1 - h_i)^-(j-1)
    with j = 1, 2, 3 for EHW, HC2, HC3; the cross term pairs the two fits'
    residuals over the shared design.
    """
    if fit_y.design is not fit_w.design and not np.array_equal(fit_y.design, fit_w.design):
        raise ValueError("fits must share one design matrix")
    flavor = flavor.lower()
    if flavor not in _FLAVOR_EXPONENT:
        raise ValueError(f"unknown sandwich flavor: {flavor!r}")
    expo = _FLAVOR_EXPONENT[flavor]
    h = fit_y.hat_diag
    if expo and np.any(h >= 1.0 - 1e-12):
        raise LeverageOnePointError("leverage-one point: HC2/HC3 weights undefined")
    weights = np.ones_like(h) if expo == 0 else (1.0 - h) ** (-expo)
    # row of (Omega'Omega)^-1 Omega' belonging to the assignment coefficient
    bz = fit_y.gram_inv[1] @ fit_y.design.T
    wy = fit_y.residuals * bz
    ww = fit_w.residuals * bz
    v_y = float(np.sum(weights * wy * wy))
    v_w = float(np.sum(weights * ww * ww))
    c_yw = float(np.sum(weights * wy * ww))
    return SandwichCov(v_y=v_y, c_yw=c_yw, v_w=v_w, flavor=flavor)
