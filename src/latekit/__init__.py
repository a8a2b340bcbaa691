"""Finite-population inference for the sample local average treatment effect.

Randomization-based confidence procedures for the complier average effect
in experiments with noncompliance: Wald (delta-method) intervals,
Fieller/Anderson-Rubin style inversion sets that stay valid under weak
first stages, and a two-stage selection between them, under complete
randomization or Mahalanobis-distance rerandomization, with optional
regression adjustment. A seeded Monte Carlo harness scores the procedures
on synthetic populations.
"""

__version__ = "0.1.0"

from .confidence_sets import ConfidenceSet, far_set, solve_quadratic_set, wald_ci
from .data_model import (
    AnalysisConfig,
    Dataset,
    DesignSpec,
    PotentialDataset,
    center_covariates,
    true_sample_late,
    validate,
)
from .design import AssignmentVector, Covariates, draw_assignment, mahalanobis
from .estimation import (
    Estimates,
    VarianceComponents,
    WaldEstimate,
    combined_variance,
    r2_of_tau,
    r2_star,
    variance_components,
    wald,
)
from .mixture import (
    MixtureParams,
    MixtureQuantileTable,
    chisq_cdf,
    chisq_quantile,
    lambda_quantile,
    normal_quantile,
    sample_truncated_component,
    threshold_from_pa,
)
from .simulation import (
    DgpConfig,
    PerformanceTable,
    StudyConfig,
    generate_population,
    population_oracle,
    run_study,
)
from .stats_core import (
    InteractedOlsFit,
    MomentSummary,
    SandwichCov,
    fit_interacted,
    fit_interacted_pair,
    sandwich_cov,
    summarize,
)
from .two_stage import FirstStageResult, TwoStageOutput, f_screen, first_stage_test, two_stage_set
