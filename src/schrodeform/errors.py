"""Exception hierarchy for schrodeform.

Every failure mode that callers are expected to handle gets its own class so
that tests and the CLI can react precisely (e.g. exit code 3 for bad config,
exit code 1 for runtime failures).
"""

__all__ = [
    "SchrodeformError",
    "DegenerateJacobianError",
    "EvaluationOutsideDomainError",
    "InverseUnavailableError",
    "SingularSystemError",
    "FlowLeftDomainError",
    "NonPositiveDensityError",
    "ContractionBoundExceededError",
    "NoConvergenceError",
    "PipelineFailedError",
    "EllipticityViolatedError",
    "NonRealEnergyError",
    "SolverDivergenceError",
    "SnapshotMissingError",
    "GaugeIncompatibleError",
    "DegenerateBranchError",
    "NonMonotoneReparametrizationError",
    "InvalidInputError",
    "ConfigError",
    "WorkerLostError",
]


class SchrodeformError(Exception):
    """Base class for all library errors."""


class DegenerateJacobianError(SchrodeformError):
    """The map is not orientation-preserving/invertible at some point."""

    def __init__(self, t, y, det):
        self.t = t
        self.y = y
        self.det = det
        super().__init__(f"det J = {det:.3e} <= 0 at t={t}, y={y}")

    def __reduce__(self):
        # rebuilt from (t, y, det), not from the message, so that the error
        # survives the pickling that carries it out of a worker process
        return type(self), (self.t, self.y, self.det)


class EvaluationOutsideDomainError(SchrodeformError):
    """A field callback could not be evaluated at a requested image point."""


class InverseUnavailableError(SchrodeformError):
    """An inverse map evaluation was requested but no inverse is available."""


class SingularSystemError(SchrodeformError):
    """The discrete right-inverse system is singular (stencil bug)."""


class FlowLeftDomainError(SchrodeformError):
    """A flow trajectory exited the closed reference domain."""


class NonPositiveDensityError(SchrodeformError):
    """A prescribed density is not strictly positive."""


class ContractionBoundExceededError(SchrodeformError):
    """Input density too far from 1 for the fixed-point construction."""


class NoConvergenceError(SchrodeformError):
    """An iteration hit its step limit without meeting tolerance."""


class PipelineFailedError(SchrodeformError):
    """The combined construction failed after all smoothing retries."""


class EllipticityViolatedError(SchrodeformError):
    """Diffusion coefficients fall below the declared ellipticity floor."""


class NonRealEnergyError(SchrodeformError):
    """An energy expectation came out complex (Hermiticity bug sentinel)."""


class SolverDivergenceError(SchrodeformError):
    """A linear solve failed to meet its tolerance.

    ``step`` is the index of the time step that failed, when one did.
    """

    def __init__(self, message, step=None):
        self.step = step
        super().__init__(message)


class SnapshotMissingError(SchrodeformError):
    """No stored snapshot at the requested time."""


class GaugeIncompatibleError(SchrodeformError):
    """Gauge phase does not rectify the motion field at requested points."""


class DegenerateBranchError(SchrodeformError):
    """Requested eigenbranch is not separated from its neighbours."""


class NonMonotoneReparametrizationError(SchrodeformError):
    """Time reparametrization is not strictly monotone."""


class InvalidInputError(SchrodeformError, ValueError):
    """An argument is malformed or out of range (shape, order, value)."""


class ConfigError(SchrodeformError):
    """Invalid run configuration (CLI exit code 3)."""


class WorkerLostError(SchrodeformError):
    """A worker process running an independent job died before finishing."""
