"""First-stage strength tests and the composite two-stage confidence sets.

The first stage tests whether the receipt rate gap exceeds a small
threshold; a rejection (strict inequality) selects the Wald interval,
otherwise the robust quadratic-inversion set is reported. The F-screen
comparators replicate the common practice of trusting the Wald interval
only when the first-stage F statistic exceeds 10.

``score_rows`` scores many rows at once, with every critical value the
package uses; ``wald_ci``, ``far_set`` and ``first_stage_test`` read their
step of its one row by ``one_row_step``. ``METHODS`` says how each reported
method reads those steps; ``analyze`` and ``simulate`` both read it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .confidence_sets import (ConfidenceSet, SetArrays, json_number, solve_quadratic_sets,
                              wald_intervals)
from .data_model import AnalysisConfig, Dataset
from .estimation import Estimates, _one_row, r2_at, r2_ratio, r2_stars, regime_spec
from .mixture import MixtureParams, lambda_quantiles, normal_quantile
from .mixture import lambda_quantile  # not called here: perfbench/tracing.py rebinds it

F_THRESHOLD = 10.0


class Method(NamedTuple):
    """A row of METHODS, every reported method in report order."""

    first_stage: str | None  # step whose strong flag picks the set: "ts" (at gamma), "ts_f10" (F)
    strong: str  # set ("wald" or "far") reported where that step is strong, or without one
    weak: str | None  # set where it is weak; None: analyze skips, a study leaves the draw out


METHODS = {"wald": Method(None, "wald", "wald"), "far": Method(None, "far", "far"),
           "ts": Method("ts", "wald", "far"), "ts_f10": Method("ts_f10", "wald", "far"),
           "wald_f10": Method("ts_f10", "wald", None)}


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


def _statistics(tau_w, t_var, f_var, p_plus: float):
    """The first-stage t statistic (tau_w - p_plus) / sqrt(t_var), the F
    statistic tau_w^2 / f_var and whether F > 10 (a tie is weak) of every
    row, floats or arrays alike; a statistic is nan, so weak, at a variance <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        f_stat = np.where(f_var > 0.0, np.square(tau_w) / f_var, math.nan)
        return (np.where(t_var > 0.0, (tau_w - p_plus) / np.sqrt(t_var), math.nan),
                f_stat, f_stat > F_THRESHOLD)


def _first_stage(stat, crit, strong, kind: str) -> FirstStageResult:
    """One row's test, degenerate where a variance <= 0 left no statistic."""
    return FirstStageResult(statistic=float(stat), critical=float(crit), strong=bool(strong),
                            statistic_kind=kind, degenerate=math.isnan(stat))


def first_stage_test(regime: str, estimates: Estimates, components,
                     config: AnalysisConfig) -> FirstStageResult:
    """Test whether the first stage clears the strength threshold.

    A nonpositive variance estimate cannot be standardized; the instrument
    is then conservatively declared weak.
    """
    return one_row_step(regime, estimates, components, config, "ts")


def f_screen(regime: str, estimates: Estimates, components) -> FirstStageResult:
    """Squared first-stage t-ratio against the conventional threshold of 10."""
    var = components.family(regime_spec(regime).screen_family)[2]
    _, f_stat, strong = _statistics(estimates.tau_w, var, var, 0.0)
    return _first_stage(f_stat, F_THRESHOLD, strong, "f")


class RowScores(NamedTuple):
    """The Wald and FAR sets of many rows (with each row's error kept), the
    first-stage t statistic with its critical value and strong mask at each
    gamma, and the F statistic with its strong mask, nan (weak) at a variance <= 0."""

    wald: SetArrays
    far: SetArrays
    t_stat: np.ndarray
    t_crit: dict[float, np.ndarray]
    t_strong: dict[float, np.ndarray]
    f_stat: np.ndarray
    f_strong: np.ndarray

    def step(self, row: int, step: str, regime: str, gamma: float):
        """One row's set or first-stage result for a step (ts at ``gamma``);
        a set's kept error is raised."""
        if step in ("wald", "far"):
            return getattr(self, step).entry(row, f"{step}[{regime}]")
        if step == "ts":
            return _first_stage(self.t_stat[row], self.t_crit[gamma][row],
                                self.t_strong[gamma][row], regime_spec(regime).statistic)
        return _first_stage(self.f_stat[row], F_THRESHOLD, self.f_strong[row], "f")


def score_rows(regime: str, tau_y: np.ndarray, tau_w: np.ndarray, families: dict,
               config: AnalysisConfig, k: int, gammas: tuple[float, ...]) -> RowScores:
    """The Wald and FAR sets, the first-stage t test at each of ``gammas`` and
    the F screen, without raising, for every row of the estimates and
    ``families`` (a per-row (v_y, c_yw, v_w) triple per name), read by
    ``regime``'s Regime row with ``config``'s alpha, p_plus and threshold:
    every critical value the procedures use."""
    spec = regime_spec(regime)
    triple, screen_var = families[spec.family], families[spec.screen_family][2]
    fs_var, tail = triple[2], config.alpha / 2.0
    if spec.mixture:
        proj = families["proj"]

        def lam(alpha, rho):
            return lambda_quantiles(MixtureParams(k=k, a=config.design.a, alpha=alpha), rho)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the Wald set's: the mixture quantile at r2_of_tau at the ratio,
            # or at 0 where it is not finite (that Wald set is an error)
            ratio = tau_y / tau_w
            r2, _ = r2_at(proj, triple, np.where(np.isfinite(ratio), ratio, 0.0))
        # the t test's: the mixture quantile at the receipt's own ratio
        rho, _ = r2_ratio(proj[2], fs_var)
        wald_crit, far_crit = lam(tail, r2), lam(tail, r2_stars(proj, triple)[0])
        t_crit = {g: lam(g, rho) for g in gammas}
    else:
        wald_crit = far_crit = normal_quantile(1.0 - tail)
        t_crit = {g: np.full(len(tau_w), normal_quantile(1.0 - g)) for g in gammas}
    t_stat, f_stat, f_strong = _statistics(tau_w, fs_var, screen_var, config.p_plus)
    return RowScores(wald_intervals(tau_y, tau_w, wald_crit, *triple, family=spec.family),
                     solve_quadratic_sets(tau_y, tau_w, far_crit, *triple),
                     t_stat, t_crit, {g: t_stat > crit for g, crit in t_crit.items()},
                     f_stat, f_strong)


def one_row_step(regime: str, estimates: Estimates, components, config: AnalysisConfig,
                 step: str):
    """``step`` of one score_rows row of ``components`` (a VarianceComponents
    or a SandwichCov) in Regime.reads; only the "ts" step reads gamma."""
    spec = regime_spec(regime)
    families = {name: tuple(_one_row(*components.family(name))) for name in spec.reads}
    return score_rows(regime, *_one_row(*estimates), families, config,
                      components.k if spec.mixture else 0,
                      (config.gamma,) if step == "ts" else ()).step(0, step, regime, config.gamma)


def two_stage_set(dataset: Dataset, config: AnalysisConfig,
                  offsets: np.ndarray = ()) -> TwoStageOutput:
    """Run the complete two-stage procedure on observed data as ``analyze``
    scores a stratum alone: data it would skip raises InvalidDatasetError.
    ``offsets`` are the covariate means a centering removed (see validate).
    Strong first stage: the regime's Wald interval. Weak (including ties):
    the regime's robust set.
    """
    from .io import score_stratum, stratum_steps  # io imports this module's scorer
    _, get = stratum_steps(score_stratum(dataset, config, offsets), config)
    fs = get("ts")
    branch = "wald" if fs.strong else "far"
    return TwoStageOutput(first_stage=fs, set=get(branch), branch=branch)
