"""Run configuration: sectioned key/value files with explicit units.

Grammar: INI sections parsed by :mod:`configparser`.  Every physical key
carries its unit in the name (``_mhz``, ``_khz``, ``_hz``, ``_cm``,
``_nm``, ``_us``, ``_ms``, ``_per_s``); frequency-like units are cyclic
and are converted to angular rad/s internally, so a ``2*pi`` can never
go missing silently.  Unknown sections or keys are errors.

Recognized sections and keys (defaults in parentheses):

[medium]
    density_cm3 (3e11)          atom number density [1/cm^3]
    wavelength_nm (794.98)      probe transition wavelength
    gamma_r_per_s (3.61e7)      radiative decay rate a -> b [1/s]
    gamma_ab_per_s (2e7)        homogeneous a-b coherence decay [1/s]
    gamma_ac_per_s (2e7)        homogeneous a-c coherence decay [1/s]
    gamma_cb_hz (0)             ground coherence decay [Hz]
    doppler_fwhm_mhz (500)      Doppler width Delta_W [MHz]
    doppler_mode (on)           on | off
    length_cm (2.5)             cell length

[fields]
    omega_d_mhz (0 = auto)      drive Rabi frequency; 0 picks the value
                                whose closed-form width equals
                                target_width_khz
    target_width_khz (4.6)      target output width for the auto drive
    omega_p_mhz (0)             probe Rabi frequency (Monte Carlo only)
    delta_p_mhz (0)             probe one-photon detuning
    delta_ac_mhz (0)            drive one-photon detuning
    rho_aa, rho_bb, rho_cc      frozen populations (0, 1, 0)

[input]
    shape (gaussian)            gaussian | lorentzian
    fwhm_khz (980)              input beat-spectrum FWHM
    grid_points (3001)
    span_factor (6.0)           grid half-width = span_factor * FWHM

[propagation]
    exponent_convention (paper) paper | derived

[mc]
    realizations (200)
    slices (8)
    dt_us (0.1)
    duration_ms (1.0)

[sweep]
    omega_d_min_mhz (2.0)
    omega_d_max_mhz (6.5)
    points (8)

[run]
    seed (12345)

``exponent_convention`` and ``doppler_mode`` become properties of the
medium: ``AtomicMedium.exponent_factor`` (``EXPONENT_FACTORS``: paper 1,
derived 2) and ``AtomicMedium.doppler``, which every route and closed
form reads.

The size keys are bounded above (``SIZE_RANGES``), as are the samples
per Monte-Carlo realization, ``duration_ms / dt_us``
(``MAX_MC_SAMPLES``), and their product with ``realizations``
(``MAX_MC_ELEMENTS``).
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidParameterError, OpticallyThinError
from .medium import AtomicMedium, FieldConfig, drive_for_target_width, thick_filter_hwhm
from .spectral import GAUSSIAN_FWHM_FACTOR, FrequencyGrid, Spectrum
from .spectral import gaussian_spectrum, lorentzian_spectrum

TWO_PI = 2.0 * np.pi

DEFAULTS: dict[str, dict[str, str]] = {
    "medium": {
        "density_cm3": "3e11",
        "wavelength_nm": "794.98",
        "gamma_r_per_s": "3.61e7",
        "gamma_ab_per_s": "2e7",
        "gamma_ac_per_s": "2e7",
        "gamma_cb_hz": "0",
        "doppler_fwhm_mhz": "500",
        "doppler_mode": "on",
        "length_cm": "2.5",
    },
    "fields": {
        "omega_d_mhz": "0",
        "target_width_khz": "4.6",
        "omega_p_mhz": "0",
        "delta_p_mhz": "0",
        "delta_ac_mhz": "0",
        "rho_aa": "0",
        "rho_bb": "1",
        "rho_cc": "0",
    },
    "input": {
        "shape": "gaussian",
        "fwhm_khz": "980",
        "grid_points": "3001",
        "span_factor": "6.0",
    },
    "propagation": {
        "exponent_convention": "paper",
    },
    "mc": {
        "realizations": "200",
        "slices": "8",
        "dt_us": "0.1",
        "duration_ms": "1.0",
    },
    "sweep": {
        "omega_d_min_mhz": "2.0",
        "omega_d_max_mhz": "6.5",
        "points": "8",
    },
    "run": {
        "seed": "12345",
    },
}

# ``AtomicMedium.exponent_factor`` of each ``exponent_convention``
EXPONENT_FACTORS = {"paper": 1.0, "derived": 2.0}

_ENUMS = {
    ("medium", "doppler_mode"): ("on", "off"),
    ("input", "shape"): ("gaussian", "lorentzian"),
    ("propagation", "exponent_convention"): tuple(EXPONENT_FACTORS),
}

_INTS = {
    ("input", "grid_points"),
    ("mc", "realizations"),
    ("mc", "slices"),
    ("sweep", "points"),
    ("run", "seed"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run configuration."""

    medium: AtomicMedium
    fields: FieldConfig
    input_shape: str
    input_fwhm: float  # rad/s
    grid_points: int
    span_factor: float
    mc_realizations: int
    mc_slices: int
    mc_dt: float  # s
    mc_duration: float  # s
    sweep_omega_d: np.ndarray  # rad/s
    seed: int
    resolved: dict  # section -> key -> string, fully resolved
    digest: str  # short hash of the resolved configuration

    def input_spectrum(self, grid: FrequencyGrid) -> Spectrum:
        """The configured input beat spectrum sampled on ``grid``."""
        if self.input_shape == "gaussian":
            return gaussian_spectrum(self.input_fwhm / GAUSSIAN_FWHM_FACTOR, grid)
        return lorentzian_spectrum(self.input_fwhm / 2.0, grid)

    def output_grid(self, fields: FieldConfig | None = None) -> FrequencyGrid:
        """Grid resolving the transmitted line: ``span_factor`` times the
        thick-filter half width on each side."""
        f = fields if fields is not None else self.fields
        hwhm = thick_filter_hwhm(self.medium, abs(f.omega_d) ** 2 + abs(f.omega_p) ** 2)
        return FrequencyGrid.spanning(2.0 * self.span_factor * hwhm, self.grid_points)


def _resolve_text(path: str | None) -> dict[str, dict[str, str]]:
    merged = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
    if path is None:
        return merged
    if not os.path.isfile(path):
        raise ConfigError(f"configuration file not found: {path}", code="config-not-found")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}", code="config-parse-error") from exc
    for sec in parser.sections():
        if sec not in merged:
            raise ConfigError(f"unknown section [{sec}]", code="unknown-key")
        for key, value in parser.items(sec):
            if key not in merged[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]", code="unknown-key")
            merged[sec][key] = value.strip()
    return merged


# bound on the magnitude of a float key: far beyond any physical value in
# the listed units, and small enough that the squares and products formed
# from the parameters stay finite
MAX_MAGNITUDE = 1e30


# allowed range of each size key: the upper bounds lie far above every
# shipped and tested configuration and keep the arrays a run allocates
# within a few GB
SIZE_RANGES = {
    ("input", "grid_points"): (8, 10**6),
    ("mc", "realizations"): (8, 10**5),
    ("mc", "slices"): (1, 10**4),
    ("sweep", "points"): (1, 10**4),
}
MAX_MC_SAMPLES = 10**6  # duration_ms / dt_us
MAX_MC_ELEMENTS = 10**8  # realizations * duration_ms / dt_us


def _number(resolved, sec, key) -> float:
    raw = resolved[sec][key]
    if (sec, key) in _INTS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"key {key!r} in [{sec}] must be an integer, got {raw!r}",
                code="bad-number",
            ) from None
    try:
        value = float(raw)
        if abs(value) <= MAX_MAGNITUDE:
            return value
    except ValueError:
        pass
    raise ConfigError(
        f"key {key!r} in [{sec}] must be a finite number of magnitude at most "
        f"{MAX_MAGNITUDE:g}, got {raw!r}",
        code="bad-number",
    )


def _size(sec: str, key: str, value: int) -> int:
    low, high = SIZE_RANGES[(sec, key)]
    if not low <= value <= high:
        raise ConfigError(
            f"{key} must lie in [{low}, {high}], got {value}", code="bad-parameter"
        )
    return value


def _enum(resolved, sec, key) -> str:
    raw = resolved[sec][key].lower()
    allowed = _ENUMS[(sec, key)]
    if raw not in allowed:
        raise ConfigError(
            f"key {key!r} in [{sec}] must be one of {allowed}, got {raw!r}",
            code="bad-enum",
        )
    return raw


def config_digest(resolved: dict) -> str:
    text = "\n".join(
        f"{sec}.{key}={resolved[sec][key]}"
        for sec in sorted(resolved)
        for key in sorted(resolved[sec])
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_config(path: str | None = None, seed: int | None = None) -> RunConfig:
    """Load, merge with defaults, validate and convert a configuration.

    ``seed`` overrides the [run] seed (CLI ``--seed`` flag).
    """
    resolved = _resolve_text(path)
    if seed is not None:
        resolved["run"]["seed"] = str(int(seed))

    num = lambda sec, key: _number(resolved, sec, key)  # noqa: E731
    exponent_factor = EXPONENT_FACTORS[_enum(resolved, "propagation", "exponent_convention")]
    doppler = _enum(resolved, "medium", "doppler_mode") == "on"
    input_shape = _enum(resolved, "input", "shape")

    try:
        medium = AtomicMedium(
            number_density=num("medium", "density_cm3") * 1e6,
            wavelength=num("medium", "wavelength_nm") * 1e-9,
            gamma_r=num("medium", "gamma_r_per_s"),
            gamma_ab=num("medium", "gamma_ab_per_s"),
            gamma_ac=num("medium", "gamma_ac_per_s"),
            gamma_cb=num("medium", "gamma_cb_hz") * TWO_PI,
            doppler_width=num("medium", "doppler_fwhm_mhz") * TWO_PI * 1e6,
            length=num("medium", "length_cm") * 1e-2,
            exponent_factor=exponent_factor,
            doppler=doppler,
        )
        omega_d = num("fields", "omega_d_mhz") * TWO_PI * 1e6
        if omega_d == 0:
            target = num("fields", "target_width_khz") * TWO_PI * 1e3
            try:
                omega_d = drive_for_target_width(medium, target)
            except OpticallyThinError as exc:
                raise ConfigError(
                    f"omega_d_mhz = 0 (auto) needs an optically thick medium: {exc}",
                    code="bad-parameter",
                ) from exc
            resolved["fields"]["omega_d_mhz"] = repr(omega_d / (TWO_PI * 1e6))
        fields = FieldConfig(
            omega_d=omega_d,
            omega_p=num("fields", "omega_p_mhz") * TWO_PI * 1e6,
            delta_p=num("fields", "delta_p_mhz") * TWO_PI * 1e6,
            delta_ac=num("fields", "delta_ac_mhz") * TWO_PI * 1e6,
            rho_aa=num("fields", "rho_aa"),
            rho_bb=num("fields", "rho_bb"),
            rho_cc=num("fields", "rho_cc"),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), code="bad-parameter") from exc

    size = lambda sec, key: _size(sec, key, num(sec, key))  # noqa: E731
    sweep = np.linspace(
        num("sweep", "omega_d_min_mhz"),
        num("sweep", "omega_d_max_mhz"),
        size("sweep", "points"),
    ) * TWO_PI * 1e6

    grid_points = size("input", "grid_points")
    span_factor = num("input", "span_factor")
    input_fwhm = num("input", "fwhm_khz") * TWO_PI * 1e3
    if span_factor <= 0 or input_fwhm <= 0:
        raise ConfigError("span_factor and fwhm_khz must be positive", code="bad-parameter")
    mc_realizations = size("mc", "realizations")
    mc_slices = size("mc", "slices")
    mc_dt = num("mc", "dt_us") * 1e-6
    mc_duration = num("mc", "duration_ms") * 1e-3
    if mc_dt <= 0 or mc_duration <= 0:
        raise ConfigError("dt_us and duration_ms must be positive", code="bad-parameter")
    samples = mc_duration / mc_dt
    if samples > MAX_MC_SAMPLES:
        raise ConfigError(
            f"duration_ms / dt_us = {samples:.4g} samples exceeds {MAX_MC_SAMPLES:.0e}",
            code="bad-parameter",
        )
    if mc_realizations * samples > MAX_MC_ELEMENTS:
        raise ConfigError(
            f"realizations * duration_ms / dt_us = {mc_realizations * samples:.4g} "
            f"exceeds {MAX_MC_ELEMENTS:.0e}",
            code="bad-parameter",
        )
    seed = int(num("run", "seed"))
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}", code="bad-parameter")

    return RunConfig(
        medium=medium,
        fields=fields,
        input_shape=input_shape,
        input_fwhm=input_fwhm,
        grid_points=grid_points,
        span_factor=span_factor,
        mc_realizations=mc_realizations,
        mc_slices=mc_slices,
        mc_dt=mc_dt,
        mc_duration=mc_duration,
        sweep_omega_d=sweep,
        seed=seed,
        resolved=resolved,
        digest=config_digest(resolved),
    )


__all__ = ["DEFAULTS", "RunConfig", "config_digest", "load_config"]
