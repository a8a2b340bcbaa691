"""Exception types shared across the package."""
import copy


class LatekitError(Exception):
    """Base class for all package-specific errors."""


class DegenerateCovariatesError(LatekitError):
    """A covariate (cross-)covariance matrix is numerically singular."""


class RankDeficientDesignError(LatekitError):
    """The regression design matrix is rank deficient."""


class LeverageOnePointError(LatekitError):
    """A hat-matrix diagonal is 1, so HC2/HC3 weights are undefined."""


class AcceptanceRegionError(LatekitError):
    """Rerandomization failed to accept a draw within the attempt cap."""


class NoIdentificationError(LatekitError):
    """A confidence-set inversion is truly empty with a zero first stage."""


class InfeasibleTargetError(LatekitError):
    """A simulated population cannot reach the requested complier fraction."""


class InvalidDatasetError(LatekitError, ValueError):
    """Data analyze skips: invalid, or with non-finite variance estimates."""


def unstored(exc: Exception) -> Exception:
    """A copy of a kept error to raise, as the frames of its traceback may
    reach what keeps it: kept errors hold no traceback, so leave no cycle."""
    return copy.copy(exc)
