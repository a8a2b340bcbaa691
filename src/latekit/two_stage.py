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

import numpy as np

from .confidence_sets import ConfidenceSet, far_set, wald_ci
from .data_model import AnalysisConfig, Dataset
from .estimation import (Estimates, plain_components, r2_ratio, regime_spec,
                         variance_components)
from .mixture import MixtureParams, lambda_quantile, normal_quantile
from .stats_core import fit_interacted_pair, sandwich_cov, summarize

F_THRESHOLD = 10.0


@dataclass(frozen=True)
class FirstStageResult:
    statistic: float
    critical: float
    strong: bool
    statistic_kind: str
    degenerate: bool = False


@dataclass(frozen=True)
class TwoStageOutput:
    first_stage: FirstStageResult
    set: ConfidenceSet
    branch: str  # "wald" or "far"

    def to_json_dict(self) -> dict:
        fs = self.first_stage
        return {
            "branch": self.branch,
            "statistic": None if math.isnan(fs.statistic) else fs.statistic,
            "statistic_kind": fs.statistic_kind,
            "critical": fs.critical,
            "strong": fs.strong,
            "set": self.set.to_json_dict(),
        }


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


def two_stage_set(regime: str, dataset: Dataset, z: np.ndarray,
                  config: AnalysisConfig) -> TwoStageOutput:
    """Run the complete two-stage procedure on observed data.

    Strong first stage: the regime's Wald interval. Weak (including ties):
    the regime's robust set.
    """
    family = regime_spec(regime).family
    if family == "sandwich":
        fit_y, fit_w = fit_interacted_pair(dataset, z)
        estimates = Estimates(fit_y.tau_hat, fit_w.tau_hat)
        components = sandwich_cov(fit_y, fit_w, config.adjustment)
    else:
        summary = summarize(dataset, z)
        estimates = Estimates(summary.tau_y, summary.tau_w)
        components = (variance_components(summary) if family == "rem"
                      else plain_components(summary))
    fs = first_stage_test(regime, estimates, components, config)
    procedure = wald_ci if fs.strong else far_set
    return TwoStageOutput(first_stage=fs, set=procedure(regime, estimates, components, config),
                          branch="wald" if fs.strong else "far")
