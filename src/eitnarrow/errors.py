"""Exception hierarchy shared by all eitnarrow modules, and the command
line's exit table: each class carries the ``code`` of its ``error: <code>:``
line and its process ``exit_code``; subclasses inherit both."""


class EitNarrowError(Exception):
    """Base class for all package errors: a failed invariant."""

    code = "invariant"
    exit_code = 1


class InvalidParameterError(EitNarrowError):
    """A physical or numerical parameter violates its precondition."""

    code = "bad-parameter"
    exit_code = 2


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
    """A numerical route failed a resolution check (e.g. the z Taylor tail).

    ``residual`` is the achieved disagreement.
    """

    code = "resolution"
    exit_code = 3

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnresolvedWidthError(ResolutionError):
    """The spectrum never falls below half maximum on at least one side."""


class ConfigError(EitNarrowError):
    """Malformed run configuration (unknown key, bad value, missing file)."""

    exit_code = 2

    def __init__(self, message, code="config-error"):
        super().__init__(message)
        self.code = code


class TruncationWarning(UserWarning):
    """Grid or lag range too short for the requested transform accuracy."""
