"""Dataset containers, design specifications, and analysis configuration.

The finite population under study is the n experimental units themselves:
potential outcomes and covariates are fixed, and only the assignment vector
is random. Everything downstream consumes the immutable containers defined
here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CENTERING_TOL = 1e-10
# largest |y - mean(y)| of an analysable outcome, unless it is 0: within
# these bounds its second moments and their products stay normal floats
Y_SPREAD_RANGE = (2.0 ** -400, 2.0 ** 400)


@dataclass(frozen=True)
class Dataset:
    """Observed data for the n units, with covariates centered at ingestion.

    ``z`` is the assignment indicator, ``w`` the treatment-received
    indicator, ``y`` the outcome, and ``x`` the n-by-K covariate matrix.
    """

    z: np.ndarray
    w: np.ndarray
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=np.int64))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.int64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(len(x), -1) if x.size else x.reshape(len(self.y), 0)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def n1(self) -> int:
        return int(self.z.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def k(self) -> int:
        return self.x.shape[1]


def check_rows(z: np.ndarray, w: np.ndarray, y: np.ndarray, x: np.ndarray,
               offsets: np.ndarray):
    """validate's checks of every row of (rows, n) ``z``, ``w``, ``y`` and
    (rows, n, K) ``x``, with (rows, K) ``offsets``: which rows fail each, in
    its order, and the y spread, covariate means and off-centre columns its
    messages print. Reductions run along rows, so validate is its one-row call."""
    n = z.shape[1]
    y_finite, x_finite = np.isfinite(y).all(axis=1), np.isfinite(x).all(axis=(1, 2))
    # rows that fail a finiteness check are zeroed, so they warn of nothing
    ys = y if y_finite.all() else np.where(y_finite[:, None], y, 0.0)
    xs = x if x_finite.all() else np.where(x_finite[:, None, None], x, 0.0)
    # np.add.reduce / count is ndarray.mean's arithmetic, without its wrapper
    spread = np.abs(ys - (np.add.reduce(ys, axis=1) / max(n, 1))[:, None]).max(axis=1,
                                                                             initial=0.0)
    means = np.add.reduce(xs, axis=1) / max(n, 1)
    scale = np.maximum(np.abs(xs).max(axis=(1, 2), initial=1.0),  # so at least 1
                       np.abs(offsets).max(axis=1, initial=0.0))
    off = np.abs(means) > CENTERING_TOL * scale[:, None]
    lo, hi = Y_SPREAD_RANGE
    n1 = np.add.reduce(z, axis=1)
    fails = [((z != 0) & (z != 1)).any(axis=1), ((w != 0) & (w != 1)).any(axis=1), ~y_finite,
             ((0 < spread) & (spread < lo)) | (spread > hi), ~x_finite, n1 < 2, n - n1 < 2,
             off.any(axis=1)]
    return fails, spread, means, off


def validate(dataset: Dataset, offsets: np.ndarray = ()) -> list[str]:
    """Return all invariant violations; an empty list means analyzable.

    Checks binary fields, minimum arm sizes (sample variances need at
    least two units per arm), finite outcomes on a workable scale (see
    Y_SPREAD_RANGE), and covariate centering: check_rows of one row.
    ``offsets`` are the column means the caller already subtracted from the
    covariates, as center_covariates returns them: the roundoff that
    subtraction leaves in the means grows with them, so they widen the
    centering tolerance.
    """
    fails, spread, means, off = check_rows(
        dataset.z[None], dataset.w[None], dataset.y[None], dataset.x[None],
        np.asarray(offsets, dtype=float).reshape(1, -1))
    z_bad, w_bad, *rest, uncentered = (f[0] for f in fails)
    report = [f"{name} contains non-binary values: {np.setdiff1d(np.unique(a), [0, 1]).tolist()}"
              for name, a, bad in (("z", dataset.z, z_bad), ("w", dataset.w, w_bad)) if bad]
    report += [text for text, bad in zip(
        ("y contains non-finite values",
         f"y varies on a scale ({spread[0]:.3g}) outside [2^-400, 2^400]; rescale y",
         "x contains non-finite values", "n1 < 2", "n0 < 2"), rest) if bad]
    if uncentered:
        cols = np.flatnonzero(off[0])
        report.append(f"covariates not centered: columns {cols.tolist()} have means "
                      f"{means[0][cols].tolist()}")
    return report


def center_covariates(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center each covariate column; returns (centered matrix, column means).

    The original means are kept so reports can show raw covariate scales.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 1:
        raw = raw.reshape(len(raw), -1)
    finite = np.isfinite(raw)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite covariate at row {r}, column {c}")
    means = np.add.reduce(raw, axis=0) / len(raw) if raw.size else np.zeros(raw.shape[1])
    return raw - means, means


@dataclass(frozen=True)
class PotentialDataset:
    """Full potential-outcome table; only the simulation harness sees one.

    ``w0``/``w1`` are treatment received under control/treatment assignment,
    ``y0``/``y1`` the corresponding outcomes (receipt determines the outcome,
    so assignment itself has no direct effect by construction).
    """

    w0: np.ndarray
    w1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for name in ("w0", "w1"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("y0", "y1"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(len(x), -1)
        object.__setattr__(self, "x", x)
        if np.any(self.w1 < self.w0):
            raise ValueError("monotonicity violated: w1 < w0 for some unit")
        if int((self.w1 - self.w0).sum()) < 1:
            raise ValueError("Assumption 1 violated: no compliers")

    @property
    def n(self) -> int:
        return len(self.w0)

    @property
    def n_compliers(self) -> int:
        return int((self.w1 - self.w0).sum())

    def reveal(self, z: np.ndarray) -> Dataset:
        """Observed dataset produced by assignment vector ``z``."""
        z = np.asarray(z, dtype=np.int64)
        w = np.where(z == 1, self.w1, self.w0)
        y = np.where(z == 1, self.y1, self.y0)
        return Dataset(z=z, w=w, y=y, x=self.x)


def true_sample_late(p: PotentialDataset) -> float:
    """Average outcome effect among compliers, the ratio estimand's truth.

    Equals the ratio of the assignment effects on outcome and on receipt
    exactly, because non-compliers have zero outcome effect.
    """
    if p.n_compliers < 1:
        raise ValueError("Assumption 1 violated: no compliers")
    compliers = (p.w1 - p.w0) == 1
    return float((p.y1[compliers] - p.y0[compliers]).mean())


@dataclass(frozen=True)
class DesignSpec:
    """How assignment vectors are generated: CRE or rerandomized (ReM).

    Complete randomization is the ReM special case with an infinite
    acceptance threshold ``a``; ``p_a`` records the acceptance probability
    the threshold was derived from, when that is how it was chosen.
    """

    kind: str
    n1: int
    a: float = math.inf
    p_a: float | None = None

    def __post_init__(self):
        if self.kind not in ("cre", "rem"):
            raise ValueError(f"unknown design kind: {self.kind!r}")
        if self.kind == "rem" and not self.a > 0:
            raise ValueError("ReM requires a positive acceptance threshold")
        if self.kind == "cre" and not math.isinf(self.a):
            raise ValueError("CRE is represented with an infinite threshold")

    @classmethod
    def cre(cls, n1: int) -> "DesignSpec":
        return cls(kind="cre", n1=n1)

    @classmethod
    def rem(cls, n1: int, *, a: float | None = None, p_a: float | None = None,
            k: int | None = None) -> "DesignSpec":
        """Build a ReM spec from an explicit threshold or from (p_a, k)."""
        if a is None:
            if p_a is None or k is None:
                raise ValueError("ReM needs either a or (p_a, k)")
            from .mixture import threshold_from_pa

            a = threshold_from_pa(p_a, k)
        return cls(kind="rem", n1=n1, a=float(a), p_a=p_a)


@dataclass(frozen=True)
class AnalysisConfig:
    """Tuning knobs shared by every confidence procedure.

    ``alpha`` is the confidence-level complement, ``gamma`` the first-stage
    significance level, ``p_plus`` the receipt-rate threshold separating
    weak from strong instruments, and ``adjustment`` selects the robust
    variance flavor when covariate adjustment is requested.
    """

    alpha: float = 0.05
    gamma: float = 0.075
    p_plus: float = 0.01
    adjustment: str = "none"
    design: DesignSpec = field(default_factory=lambda: DesignSpec.cre(n1=0))

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must be in (0, 1)")
        if self.regime == "rem" and not self.gamma < 0.5:  # a mixture quantile's tail
            raise ValueError(f"gamma must be in (0, 0.5) under rerandomization without "
                             f"adjustment; got {self.gamma!r}")
        if not 0 < self.p_plus < 1:
            raise ValueError("p_plus must be in (0, 1)")
        if self.adjustment not in ("none", "ehw", "hc2", "hc3"):
            raise ValueError(f"unknown adjustment: {self.adjustment!r}")

    @property
    def regime(self) -> str:
        """Which inferential regime applies: 'cre', 'rem', or 'adjusted'."""
        if self.adjustment != "none":
            return "adjusted"
        return self.design.kind
