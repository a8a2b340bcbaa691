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


def segment_reduce(ufunc: np.ufunc, a: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   empty=0) -> np.ndarray:
    """``ufunc`` reduced over each segment of a column, or of each row of a
    matrix, segment i the ``lengths[i]`` elements from ``starts[i]``, one
    after another; ``empty`` for an empty segment. Exact for integer sums,
    any and max; a float sum is another matter (see by_length)."""
    if np.count_nonzero(lengths) == len(lengths):  # cheaper than lengths.all() for a few
        return ufunc.reduceat(a, starts, axis=-1)
    found = ufunc.reduceat(np.concatenate([a, np.full((*a.shape[:-1], 1), empty, dtype=a.dtype)],
                                          axis=-1), starts, axis=-1)
    return np.where(lengths > 0, found, empty)


def by_length(starts: np.ndarray, lengths: np.ndarray):
    """For each distinct length m, shortest first: the positions of the
    segments of m elements and the (segments, m) indices of their elements,
    segment i's running up from starts[i].

    Floating-point sums over segments are taken on such a stack, never over
    the segments one after another (np.add.reduceat) nor padded to one
    length: only the stack reduces each segment in the order its own call
    does. Stratum s0002 of the analyze benchmark input at seed 20240901 has
    an F of exactly 10, which its own sums compute as 10.000000000000004 and
    the padded or reduceat sums as 10.0, deciding its F screen the other way."""
    # numpy's array methods, not its functions: a one-stratum call makes this
    # pass too, and each function's wrapper costs more than its work there
    order = lengths.argsort(kind="stable")
    ordered = lengths[order]
    if not len(order):
        return
    ends = ordered.cumsum()
    # the elements of every segment in that order, each length's a block
    units = np.arange(ends[-1]) + (starts[order] - ends + ordered).repeat(ordered)
    cuts = [0, *((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist(), len(order)]
    ends, ordered = [0, *ends.tolist()], ordered.tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        yield order[lo:hi], units[ends[lo]:ends[hi]].reshape(hi - lo, ordered[lo])


def column_sums(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The column sums of (N, K) ``x`` over the units of each (segments, m)
    row of ``idx``, each with the bits of np.add.reduce(x[row], axis=0):
    numpy sums one column pairwise, as a run, and several row after row,
    which the segments side by side ((m, segments, K)) do in fewer steps."""
    if x.shape[1] == 1:
        return np.add.reduce(x[idx], axis=1)
    return np.add.reduce(x.take(idx.T, axis=0), axis=0)


def check_rows(z: np.ndarray, w: np.ndarray, y: np.ndarray, x: np.ndarray,
               offsets: np.ndarray, lengths: np.ndarray):
    """validate's checks of every stratum of the (N,) columns ``z``, ``w``,
    ``y`` and (N, K) ``x``, whose strata of ``lengths`` units follow one
    another, with (strata, K) ``offsets``: which strata fail each check, in
    its order, and the y spread, covariate means and off-centre columns its
    messages print. Counts and extremes are segment_reduce calls, and the y
    and covariate sums are taken by_length, so validate is its one-stratum
    call."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = lengths.cumsum() - lengths
    # each check marks its units, and a stratum fails with any unit marked;
    # a unit's covariates are checked row by row only when one is not finite
    x_finite = np.isfinite(x)
    marked = np.array([(z != 0) & (z != 1), (w != 0) & (w != 1), ~np.isfinite(y),
                       np.zeros(len(x), dtype=bool) if np.logical_and.reduce(x_finite, axis=None)
                       else ~np.logical_and.reduce(x_finite, axis=1)])
    z_bad, w_bad, y_bad, x_bad = segment_reduce(np.logical_or, marked, starts, lengths, False)
    if np.logical_or.reduce(marked[2:], axis=None):
        # strata that fail a finiteness check are zeroed, so they warn of nothing
        y = np.where(y_bad.repeat(lengths), 0.0, y)
        x = np.where(x_bad.repeat(lengths)[:, None], 0.0, x)
    y_sums, means = np.empty(len(lengths)), np.empty((len(lengths), x.shape[1]))
    with np.errstate(over="ignore"):  # a sum past the largest double fails the scale check
        for rows, idx in by_length(starts, lengths):
            y_sums[rows] = np.add.reduce(y[idx], axis=1)
            means[rows] = column_sums(x, idx)
    # np.add.reduce / count is ndarray.mean's arithmetic, without its wrapper
    count = np.maximum(lengths, 1)
    y_mean = y_sums / count
    means /= count[:, None]
    # the largest |y - mean| is the larger of max y - mean and mean - min y,
    # as rounding is monotone and symmetric
    spread = np.maximum(np.maximum(
        segment_reduce(np.maximum, y, starts, lengths, -np.inf) - y_mean,
        y_mean - segment_reduce(np.minimum, y, starts, lengths, np.inf)), 0.0)
    scale = np.maximum(np.maximum.reduce(  # the largest |x| of a stratum, at least 1
        segment_reduce(np.maximum, np.abs(x.T), starts, lengths, 0.0), axis=0, initial=1.0),
        np.maximum.reduce(np.abs(offsets), axis=1, initial=0.0))
    off = np.abs(means) > CENTERING_TOL * scale[:, None]
    lo, hi = Y_SPREAD_RANGE
    n1 = segment_reduce(np.add, z, starts, lengths)
    fails = [z_bad, w_bad, y_bad, ((0 < spread) & (spread < lo)) | (spread > hi), x_bad, n1 < 2,
             lengths - n1 < 2, np.logical_or.reduce(off, axis=1)]
    return fails, spread, means, off


def messages(checks, row: int, z: np.ndarray, w: np.ndarray) -> list[str]:
    """validate's report of stratum ``row`` of a check_rows result ``checks``,
    whose assignment and receipt columns are ``z`` and ``w``."""
    fails, spread, means, off = checks
    z_bad, w_bad, *rest, uncentered = (f[row] for f in fails)
    report = [f"{name} contains non-binary values: {np.setdiff1d(np.unique(a), [0, 1]).tolist()}"
              for name, a, bad in (("z", z, z_bad), ("w", w, w_bad)) if bad]
    report += [text for text, bad in zip(
        ("y contains non-finite values",
         f"y varies on a scale ({spread[row]:.3g}) outside [2^-400, 2^400]; rescale y",
         "x contains non-finite values", "n1 < 2", "n0 < 2"), rest) if bad]
    if uncentered:
        cols = np.flatnonzero(off[row])
        report.append(f"covariates not centered: columns {cols.tolist()} have means "
                      f"{means[row][cols].tolist()}")
    return report


def validate(dataset: Dataset, offsets: np.ndarray = ()) -> list[str]:
    """Return all invariant violations; an empty list means analyzable.

    Checks binary fields, minimum arm sizes (sample variances need at
    least two units per arm), finite outcomes on a workable scale (see
    Y_SPREAD_RANGE), and covariate centering: the messages of check_rows of
    one stratum. ``offsets``, empty or K finite numbers (else ValueError), are
    the column means the caller already subtracted from the covariates, as
    center_covariates returns them: the roundoff that subtraction leaves in
    the means grows with them, so they widen the centering tolerance.
    """
    return messages(check_rows(dataset.z, dataset.w, dataset.y, dataset.x,
                               stratum_offsets(offsets, dataset.k), [dataset.n]),
                    0, dataset.z, dataset.w)


def stratum_offsets(offsets, k: int) -> np.ndarray:
    """validate's ``offsets`` as one stratum's (1, K) row of check_rows."""
    row = np.asarray(offsets, dtype=float).reshape(1, -1)
    if row.size not in (0, k) or not np.isfinite(row).all():
        raise ValueError(f"offsets must be empty or {k} finite covariate means: {row[0].tolist()}")
    return row


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
