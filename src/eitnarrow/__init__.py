"""eitnarrow: spectral narrowing of noisy light in an optically thick
EIT medium.

A phase-noise-broadened probe propagating with a strong drive through a
three-level Lambda vapor exchanges its broad (e.g. Gaussian) beat
spectrum for a narrow Lorentzian whose width equals the EIT linewidth
and scales linearly with drive power.  The package provides the
analytic transfer-function route, an independent correlation-function
integrator, a time-domain Monte-Carlo oracle, lineshape analysis and a
configuration-driven CLI.  Each export is imported from its module on
first use (PEP 562), so ``import eitnarrow`` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "ConfigError", "EitNarrowError", "FitFailedError", "InvalidParameterError",
        "MultimodalSpectrumError", "OpticallyThinError", "ResolutionError",
        "SingularRateError", "TruncationWarning", "UnresolvedWidthError",
    ),
    "spectral": (
        "CorrelationFunction", "FitResult", "FrequencyGrid", "Spectrum",
        "correlation_to_spectrum", "fwhm_estimate", "gaussian_spectrum",
        "lorentzian_spectrum", "periodogram", "spectrum_to_correlation",
        "windowed_reference",
    ),
    "fitting": ("fit_lineshape", "linear_fit"),
    "noise": (
        "PhaseNoiseModel", "realization_rng", "sample_phase_trajectory",
        "synthesize_probe_field",
    ),
    "medium": (
        "AtomicMedium", "FieldConfig", "closed_form_width", "complex_rates", "coupling_eta",
        "drive_for_target_width", "eit_width", "optical_depth", "thick_filter_hwhm",
        "transfer_exponent", "transmission", "wing_transmission",
    ),
    "propagation": (
        "adiabatic_rate_check", "narrowing_factor", "propagate_correlation",
        "propagate_spectrum", "thick_medium_spectrum",
    ),
    "mc": ("McConfig", "band_average_transfer", "ensemble_beat_spectrum"),
    "config": ("RunConfig", "load_config"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER) + ["__version__"]


def __getattr__(name):
    """Import the module that owns ``name`` and keep its value here, so
    the next access is a plain attribute lookup."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
