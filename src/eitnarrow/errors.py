"""Exception hierarchy shared by all eitnarrow modules."""


class EitNarrowError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(EitNarrowError):
    """A physical or numerical parameter violates its precondition."""


class MultimodalSpectrumError(EitNarrowError):
    """More than one disjoint region above half maximum."""


class FitFailedError(EitNarrowError):
    """Nonlinear fit did not converge within the iteration cap.

    Carries the best iterate found so far in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SingularRateError(EitNarrowError):
    """A complex dephasing rate or transfer denominator is zero."""


class OpticallyThinError(InvalidParameterError):
    """The closed-form width formula requires eta*L/Delta_W > 1.

    A derived parameter the physics rejects, hence an invalid parameter.
    """


class ResolutionError(EitNarrowError):
    """A numerical route failed its step-halving convergence check.

    ``residual`` is the achieved disagreement.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnresolvedWidthError(ResolutionError):
    """The spectrum never falls below half maximum on at least one side."""


class ConfigError(EitNarrowError):
    """Malformed run configuration (unknown key, bad value, missing file)."""

    def __init__(self, message, code="config-error"):
        super().__init__(message)
        self.code = code


class TruncationWarning(UserWarning):
    """Grid or lag range too short for the requested transform accuracy."""
