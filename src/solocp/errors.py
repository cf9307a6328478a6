"""Exception hierarchy. Every library error derives from SolocpError so the
CLI can map them to nonzero exit codes with a distinct message prefix."""


class SolocpError(Exception):
    """Base class for all library errors."""


class NonFiniteValueError(SolocpError):
    """An observation is NaN or infinite."""


class TooShortError(SolocpError):
    """The series is shorter than the operation requires."""


class NonPositiveSigmaError(SolocpError):
    """noise_sd must be strictly positive."""


class InvalidHyperparameterError(SolocpError):
    """A hyperparameter violates its domain constraints."""


class NumericOverflowError(SolocpError):
    """A posterior score, a dense covariance or a noise estimate came out
    non-finite or lost its precision: the data, sigma or 1/tau_sq exceed the
    range of double precision."""


class LinearSolveFailureError(SolocpError):
    """A posterior precision matrix was numerically singular."""


class SingularCovarianceError(SolocpError):
    """A dense marginal covariance was not positive definite."""


class InvalidConfigError(SolocpError):
    """A sampler or experiment configuration is inconsistent."""


class UnknownSignalError(SolocpError):
    """No built-in signal with that name."""


class EmptySearchWindowError(SolocpError):
    """No candidate site satisfies the edge constraint."""


class EmptySetError(SolocpError):
    """A set-distance was requested against an empty set."""


class ParseError(SolocpError):
    """Malformed input file."""
