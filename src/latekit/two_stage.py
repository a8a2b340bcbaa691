"""First-stage strength tests and the composite two-stage confidence sets.

The first stage tests whether the receipt rate gap exceeds a small
threshold; a rejection (strict inequality) selects the Wald interval,
otherwise the robust quadratic-inversion set is reported. The F-screen
comparators replicate the common practice of trusting the Wald interval
only when the first-stage F statistic exceeds 10.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .confidence_sets import (KINDS, ConfidenceSet, SetArrays, json_number,
                              solve_quadratic_sets, wald_intervals)
from .data_model import AnalysisConfig, Dataset
from .estimation import Estimates, r2_at, r2_ratio, r2_stars, regime_spec
from .mixture import MixtureParams, lambda_quantile, lambda_quantiles, normal_quantile

F_THRESHOLD = 10.0


@dataclass(frozen=True)
class FirstStageResult:
    statistic: float
    critical: float
    strong: bool
    statistic_kind: str
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        """The ``first_stage`` entry of a two-stage method in ``report.json``."""
        return {"statistic": json_number(self.statistic),
                "critical": json_number(self.critical),
                "strong": self.strong, "kind": self.statistic_kind}


@dataclass(frozen=True)
class TwoStageOutput:
    first_stage: FirstStageResult
    set: ConfidenceSet
    branch: str  # "wald" or "far"

    def to_json_dict(self) -> dict:
        """The ``ts`` entry ``analyze`` writes for the same data."""
        return {"first_stage": self.first_stage.to_json_dict(), "branch": self.branch,
                "set": self.set.to_json_dict()}


def first_stage_test(regime: str, estimates: Estimates, components,
                     config: AnalysisConfig) -> FirstStageResult:
    """Test whether the first stage clears the strength threshold.

    A nonpositive variance estimate cannot be standardized; the instrument
    is then conservatively declared weak.
    """
    spec = regime_spec(regime)
    var = components.family(spec.family)[2]
    if spec.mixture:
        rho = float(r2_ratio(components.family("proj")[2], var)[0])
        crit = lambda_quantile(
            MixtureParams(k=components.k, a=config.design.a, alpha=config.gamma), rho)
    else:
        crit = normal_quantile(1.0 - config.gamma)
    if var <= 0.0:
        return FirstStageResult(statistic=math.nan, critical=crit, strong=False,
                                statistic_kind=spec.statistic, degenerate=True)
    stat = (estimates.tau_w - config.p_plus) / math.sqrt(var)
    return FirstStageResult(statistic=stat, critical=crit, strong=stat > crit,
                            statistic_kind=spec.statistic)


def f_screen(regime: str, estimates: Estimates, components) -> FirstStageResult:
    """Squared first-stage t-ratio against the conventional threshold of 10."""
    var = components.family(regime_spec(regime).screen_family)[2]
    if var <= 0.0:
        return FirstStageResult(statistic=math.nan, critical=F_THRESHOLD,
                                strong=False, statistic_kind="f", degenerate=True)
    stat = estimates.tau_w ** 2 / var
    return FirstStageResult(statistic=stat, critical=F_THRESHOLD,
                            strong=stat > F_THRESHOLD, statistic_kind="f")


class RowScores(NamedTuple):
    """The scalar chain's results for many rows: the Wald and FAR sets (with
    what wald_ci and far_set raise), the first-stage t statistic, its critical
    value at each gamma, and the F statistic, nan (weak) at a variance <= 0."""

    wald: SetArrays
    far: SetArrays
    t_stat: np.ndarray
    t_crit: dict[float, np.ndarray]
    f_stat: np.ndarray

    def step(self, row: int, step: str, regime: str, gamma: float):
        """The scalar chain's result or error for one row's step (ts at ``gamma``)."""
        if step in ("wald", "far"):
            sets = getattr(self, step)
            if row in sets.errors:
                raise sets.errors[row]
            return ConfidenceSet(KINDS[sets.kind[row]], float(sets.lo[row]), float(sets.hi[row]),
                                 f"{step}[{regime}]", bool(sets.degenerate[row]))
        ts = step == "ts"
        stat = float((self.t_stat if ts else self.f_stat)[row])
        crit = float(self.t_crit[gamma][row]) if ts else F_THRESHOLD
        return FirstStageResult(stat, crit, stat > crit,
                                regime_spec(regime).statistic if ts else "f", math.isnan(stat))


def score_rows(tau_y: np.ndarray, tau_w: np.ndarray, families: dict, config: AnalysisConfig,
               k: int, gammas: tuple[float, ...]) -> RowScores:
    """wald_ci, far_set, first_stage_test at each of ``gammas`` and f_screen, with their
    bits and without raising, for every row of the estimates and ``families`` (a per-row
    (v_y, c_yw, v_w) triple per name), read by ``config``'s Regime row as the chain does."""
    spec = regime_spec(config.regime)
    triple, screen_var = families[spec.family], families[spec.screen_family][2]
    fs_var, tail = triple[2], config.alpha / 2.0
    if spec.mixture:
        proj = families["proj"]

        def lam(alpha, rho):
            return lambda_quantiles(MixtureParams(k=k, a=config.design.a, alpha=alpha), rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            # wald_ci: the mixture quantile at r2_of_tau at the ratio
            r2, _ = r2_at(proj, triple, np.where(tau_w != 0.0, tau_y / tau_w, 0.0))
        # first_stage_test: the mixture quantile at the receipt's own ratio
        rho, _ = r2_ratio(proj[2], fs_var)
        wald_crit, far_crit = lam(tail, r2), lam(tail, r2_stars(proj, triple)[0])
        t_crit = {g: lam(g, rho) for g in gammas}
    else:
        wald_crit = far_crit = normal_quantile(1.0 - tail)
        t_crit = {g: np.full(len(tau_w), normal_quantile(1.0 - g)) for g in gammas}
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = np.where(fs_var > 0.0, (tau_w - config.p_plus) / np.sqrt(fs_var), math.nan)
        f_stat = np.where(screen_var > 0.0, tau_w ** 2 / screen_var, math.nan)
    return RowScores(wald_intervals(tau_y, tau_w, wald_crit, *triple, family=spec.family),
                     solve_quadratic_sets(tau_y, tau_w, far_crit, *triple),
                     t_stat, t_crit, f_stat)


def two_stage_set(dataset: Dataset, config: AnalysisConfig,
                  offsets: np.ndarray = ()) -> TwoStageOutput:
    """Run the complete two-stage procedure on observed data by ``analyze``'s
    stratum steps: data ``analyze`` would skip raises InvalidDatasetError.
    ``offsets`` are the covariate means a centering removed (see validate).
    Strong first stage: the regime's Wald interval. Weak (including ties):
    the regime's robust set.
    """
    from .io import stratum_steps  # io imports this module's first-stage tests
    _, get = stratum_steps(dataset, config, offsets)
    fs = get("ts")
    branch = "wald" if fs.strong else "far"
    return TwoStageOutput(first_stage=fs, set=get(branch), branch=branch)
