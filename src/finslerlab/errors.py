"""Exception hierarchy for the laboratory.

Every failure mode that callers are expected to branch on gets its own class;
plumbing failures reuse the closest specific class rather than bare ValueError
so that batch drivers can record the error kind per grid point.
"""


class FinslerLabError(Exception):
    """Base class for all package errors."""


class InvalidField(FinslerLabError, ValueError):
    """A constructor argument is out of range or of the wrong type.

    ``field`` names the argument, so the config layer can report it under
    its dotted path; ``reason`` is the message without the name.
    """

    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


def require_positive(obj, *names) -> None:
    """Raise InvalidField for the first named attribute of ``obj`` that is not a number > 0."""
    for name in names:
        value = getattr(obj, name)
        try:
            ok = value > 0
        except TypeError:
            ok = False
        if not ok:
            raise InvalidField(name, f"must be a positive number, got {value!r}")


# --- profiles ---------------------------------------------------------------

class InvalidSplice(InvalidField):
    """Splice half-width out of range or the bridge lost positivity."""


class InvalidBand(InvalidField):
    """Cutoff band endpoints are not ordered 0 < a0 < a1."""


# --- metrics ----------------------------------------------------------------

class ZeroCovector(FinslerLabError):
    """A metric or its derivatives were evaluated at xi = 0."""


class ConvexityLost(FinslerLabError):
    """Sampled fiber Hessian of H^2/2 failed to be positive definite."""

    def __init__(self, alpha, min_eigenvalue):
        self.alpha = alpha
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"fiber convexity check failed at alpha={alpha!r}: "
            f"min Hessian eigenvalue {min_eigenvalue:.3e} <= 0"
        )


class SeamMismatch(FinslerLabError):
    """Input metric is not even on the symmetrization seam {xi1 = 0}."""


# --- flow -------------------------------------------------------------------

class PoleProximity(FinslerLabError):
    """Orbit left the chart strip |x2| <= cap on a sphere-model run."""

    def __init__(self, time, state):
        self.time = float(time)
        self.state = state
        super().__init__(f"orbit reached the |x2| cap at flow time {self.time:.6f}")


class InvariantDrift(FinslerLabError):
    """Conserved quantity drifted beyond the configured tolerance."""

    def __init__(self, name, drift, tol):
        self.name = name
        self.drift = float(drift)
        self.tol = float(tol)
        super().__init__(f"{name} drift {drift:.3e} exceeds tolerance {tol:.3e}")


class StepFailure(FinslerLabError):
    """The adaptive integrator could not complete a step."""


# --- sections ---------------------------------------------------------------

class NoCrossing(FinslerLabError):
    """No transverse section crossing found within max_return_time."""


class NonTransverse(FinslerLabError):
    """Event (or start point) has transverse velocity below tolerance."""


class NotVanishing(FinslerLabError):
    """smooth division requested for an F with F(x, 0) != 0."""


class BranchMismatch(FinslerLabError):
    """Taylor and direct branches of a smooth quotient disagree at the switch."""


class ExtrapolationUnstable(FinslerLabError):
    """Boundary extrapolation has no usable approach sequence or no boundary root."""


# --- analysis ---------------------------------------------------------------

class MapFailure(FinslerLabError):
    """A section-map iterate failed; carries the failing iterate index."""

    def __init__(self, index, cause):
        self.index = int(index)
        self.cause = cause
        super().__init__(f"map iterate {index} failed: {cause}")


class NotConverged(FinslerLabError):
    """Asymptotic-direction chord has zero length (trace too short)."""


class EmptySample(FinslerLabError):
    """Estimator called with an empty sample set."""


class InsufficientCloud(FinslerLabError):
    """Point cloud too small for the requested separation scale."""


# --- harness ----------------------------------------------------------------

class UnknownScenario(FinslerLabError):
    """Scenario name is not registered."""


class ConfigInvalid(FinslerLabError):
    """Configuration violates the schema; message carries the dotted path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class EmptyInput(FinslerLabError):
    """Plot or export requested for an empty table."""


class IoFailure(FinslerLabError):
    """Report export failed at the filesystem level or unknown format."""
