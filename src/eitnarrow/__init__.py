"""eitnarrow: spectral narrowing of noisy light in an optically thick
EIT medium.

A phase-noise-broadened probe propagating with a strong drive through a
three-level Lambda vapor exchanges its broad (e.g. Gaussian) beat
spectrum for a narrow Lorentzian whose width equals the EIT linewidth
and scales linearly with drive power.  The package provides the
analytic transfer-function route, an independent correlation-function
integrator, a time-domain Monte-Carlo oracle, lineshape analysis and a
configuration-driven CLI.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EitNarrowError,
    FitFailedError,
    InvalidParameterError,
    MultimodalSpectrumError,
    OpticallyThinError,
    ResolutionError,
    SingularRateError,
    TruncationWarning,
    UnresolvedWidthError,
)
from .spectral import (
    CorrelationFunction,
    FitResult,
    FrequencyGrid,
    Spectrum,
    correlation_to_spectrum,
    fwhm_estimate,
    gaussian_spectrum,
    lorentzian_spectrum,
    periodogram,
    spectrum_to_correlation,
    windowed_reference,
)
from .fitting import fit_lineshape, linear_fit
from .noise import (
    PhaseNoiseModel,
    realization_rng,
    sample_phase_trajectory,
    synthesize_probe_field,
)
from .medium import (
    AtomicMedium,
    FieldConfig,
    closed_form_width,
    complex_rates,
    coupling_eta,
    drive_for_target_width,
    eit_width,
    optical_depth,
    thick_filter_hwhm,
    transfer_exponent,
    transmission,
    wing_transmission,
)
from .propagation import (
    adiabatic_rate_check,
    narrowing_factor,
    propagate_correlation,
    propagate_spectrum,
    thick_medium_spectrum,
)
from .mc import (
    McConfig,
    band_average_transfer,
    ensemble_beat_spectrum,
)
from .config import RunConfig, load_config

__all__ = [
    "AtomicMedium",
    "ConfigError",
    "CorrelationFunction",
    "EitNarrowError",
    "FieldConfig",
    "FitFailedError",
    "FitResult",
    "FrequencyGrid",
    "InvalidParameterError",
    "McConfig",
    "MultimodalSpectrumError",
    "OpticallyThinError",
    "PhaseNoiseModel",
    "ResolutionError",
    "RunConfig",
    "SingularRateError",
    "Spectrum",
    "TruncationWarning",
    "UnresolvedWidthError",
    "adiabatic_rate_check",
    "band_average_transfer",
    "closed_form_width",
    "complex_rates",
    "correlation_to_spectrum",
    "coupling_eta",
    "drive_for_target_width",
    "eit_width",
    "ensemble_beat_spectrum",
    "fit_lineshape",
    "fwhm_estimate",
    "gaussian_spectrum",
    "linear_fit",
    "load_config",
    "lorentzian_spectrum",
    "narrowing_factor",
    "optical_depth",
    "periodogram",
    "propagate_correlation",
    "propagate_spectrum",
    "realization_rng",
    "sample_phase_trajectory",
    "spectrum_to_correlation",
    "synthesize_probe_field",
    "thick_filter_hwhm",
    "thick_medium_spectrum",
    "transfer_exponent",
    "transmission",
    "windowed_reference",
    "wing_transmission",
    "__version__",
]
