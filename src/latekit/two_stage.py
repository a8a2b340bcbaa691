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

from .confidence_sets import ConfidenceSet, json_number
from .data_model import AnalysisConfig, Dataset
from .estimation import Estimates, r2_ratio, regime_spec
from .mixture import MixtureParams, lambda_quantile, normal_quantile

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
