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

Each key is one row of ``KEYS``: its section, name, default text, kind,
the factors that take it to SI units and, for a size key, its bounds.
``DEFAULTS`` is derived from the rows.  The samples per Monte-Carlo
realization, ``duration_ms / dt_us``, are bounded too
(``MAX_MC_SAMPLES``), as is their product with ``realizations``
(``MAX_MC_ELEMENTS``).
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidParameterError, OpticallyThinError
from .medium import AtomicMedium, FieldConfig, drive_for_target_width, thick_filter_hwhm
from .spectral import GAUSSIAN_FWHM_FACTOR, FrequencyGrid, Spectrum
from .spectral import gaussian_spectrum, lorentzian_spectrum

TWO_PI = 2.0 * np.pi
_MHZ = (TWO_PI, 1e6)
_KHZ = (TWO_PI, 1e3)

# ``AtomicMedium.exponent_factor`` of each ``exponent_convention``
EXPONENT_FACTORS = {"paper": 1.0, "derived": 2.0}


class Key(NamedTuple):
    """One configuration key.  ``kind`` is ``float``, ``int`` or the
    tuple of allowed words; ``factors`` take a value in the key's unit
    to SI, applied one at a time (``x * 2π * 1e6``, which rounds unlike
    ``x * (2π·1e6)``); ``bounds`` is the (low, high) range of a size
    key."""

    section: str
    name: str
    default: str
    kind: type | tuple[str, ...] = float
    factors: tuple[float, ...] = ()
    bounds: tuple[int, int] | None = None

    def si(self, value):
        for factor in self.factors:
            value = value * factor
        return value


# the upper size bounds lie far above every shipped and tested
# configuration and keep the arrays a run allocates within a few GB
KEYS = (
    Key("medium", "density_cm3", "3e11", float, (1e6,)),
    Key("medium", "wavelength_nm", "794.98", float, (1e-9,)),
    Key("medium", "gamma_r_per_s", "3.61e7"),
    Key("medium", "gamma_ab_per_s", "2e7"),
    Key("medium", "gamma_ac_per_s", "2e7"),
    Key("medium", "gamma_cb_hz", "0", float, (TWO_PI,)),
    Key("medium", "doppler_fwhm_mhz", "500", float, _MHZ),
    Key("medium", "doppler_mode", "on", ("on", "off")),
    Key("medium", "length_cm", "2.5", float, (1e-2,)),
    Key("fields", "omega_d_mhz", "0", float, _MHZ),
    Key("fields", "target_width_khz", "4.6", float, _KHZ),
    Key("fields", "omega_p_mhz", "0", float, _MHZ),
    Key("fields", "delta_p_mhz", "0", float, _MHZ),
    Key("fields", "delta_ac_mhz", "0", float, _MHZ),
    Key("fields", "rho_aa", "0"),
    Key("fields", "rho_bb", "1"),
    Key("fields", "rho_cc", "0"),
    Key("input", "shape", "gaussian", ("gaussian", "lorentzian")),
    Key("input", "fwhm_khz", "980", float, _KHZ),
    Key("input", "grid_points", "3001", int, bounds=(8, 10**6)),
    Key("input", "span_factor", "6.0"),
    Key("propagation", "exponent_convention", "paper", tuple(EXPONENT_FACTORS)),
    Key("mc", "realizations", "200", int, bounds=(8, 10**5)),
    Key("mc", "slices", "8", int, bounds=(1, 10**4)),
    Key("mc", "dt_us", "0.1", float, (1e-6,)),
    Key("mc", "duration_ms", "1.0", float, (1e-3,)),
    Key("sweep", "omega_d_min_mhz", "2.0", float, _MHZ),
    Key("sweep", "omega_d_max_mhz", "6.5", float, _MHZ),
    Key("sweep", "points", "8", int, bounds=(1, 10**4)),
    Key("run", "seed", "12345", int),
)
_ROWS = {(k.section, k.name): k for k in KEYS}
DEFAULTS: dict[str, dict[str, str]] = {
    sec: {k.name: k.default for k in KEYS if k.section == sec}
    for sec in dict.fromkeys(k.section for k in KEYS)
}

# bound on the magnitude of a float key: far beyond any physical value in
# the listed units, and small enough that the squares and products formed
# from the parameters stay finite
MAX_MAGNITUDE = 1e30
MAX_MC_SAMPLES = 10**6  # duration_ms / dt_us
MAX_MC_ELEMENTS = 10**8  # realizations * duration_ms / dt_us


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
    try:  # ``parser.read`` would skip a file it cannot open
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}", code="config-parse-error") from exc
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


def _read(resolved: dict, sec: str, key: str, si: bool = True):
    """The resolved value of one key, checked against its row: one of its
    words, an integer within its bounds, or a float of magnitude at most
    ``MAX_MAGNITUDE`` in SI units (in the key's own unit if not ``si``)."""
    row, raw = _ROWS[sec, key], resolved[sec][key]
    if isinstance(row.kind, tuple):
        word = raw.lower()
        if word not in row.kind:
            raise ConfigError(
                f"key {key!r} in [{sec}] must be one of {row.kind}, got {word!r}",
                code="bad-enum",
            )
        return word
    try:
        value = row.kind(raw)
    except ValueError:
        value = None
    if value is None or row.kind is float and not abs(value) <= MAX_MAGNITUDE:
        what = (
            "an integer" if row.kind is int
            else f"a finite number of magnitude at most {MAX_MAGNITUDE:g}"
        )
        raise ConfigError(f"key {key!r} in [{sec}] must be {what}, got {raw!r}", code="bad-number")
    low, high = row.bounds or (value, value)
    if not low <= value <= high:
        raise ConfigError(f"{key} must lie in [{low}, {high}], got {value}", code="bad-parameter")
    return row.si(value) if si else value


def _key_lines(resolved: dict) -> list[str]:
    """``section.key=value`` of every resolved key in sorted order: the
    text the digest hashes and the sidecar lists."""
    return [f"{sec}.{k}={v}" for sec in sorted(resolved) for k, v in sorted(resolved[sec].items())]


def config_digest(resolved: dict) -> str:
    return hashlib.sha256("\n".join(_key_lines(resolved)).encode()).hexdigest()[:12]


def load_config(path: str | None = None, seed: int | None = None) -> RunConfig:
    """Load, merge with defaults, validate and convert a configuration.

    ``seed`` overrides the [run] seed (CLI ``--seed`` flag).
    """
    resolved = _resolve_text(path)
    if seed is not None:
        resolved["run"]["seed"] = str(int(seed))

    read = functools.partial(_read, resolved)
    exponent_factor = EXPONENT_FACTORS[read("propagation", "exponent_convention")]
    doppler = read("medium", "doppler_mode") == "on"
    input_shape = read("input", "shape")

    try:
        medium = AtomicMedium(
            number_density=read("medium", "density_cm3"),
            wavelength=read("medium", "wavelength_nm"),
            gamma_r=read("medium", "gamma_r_per_s"),
            gamma_ab=read("medium", "gamma_ab_per_s"),
            gamma_ac=read("medium", "gamma_ac_per_s"),
            gamma_cb=read("medium", "gamma_cb_hz"),
            doppler_width=read("medium", "doppler_fwhm_mhz"),
            length=read("medium", "length_cm"),
            exponent_factor=exponent_factor,
            doppler=doppler,
        )
        omega_d = read("fields", "omega_d_mhz")
        if omega_d == 0:
            try:
                omega_d = drive_for_target_width(medium, read("fields", "target_width_khz"))
            except OpticallyThinError as exc:
                raise ConfigError(
                    f"omega_d_mhz = 0 (auto) needs an optically thick medium: {exc}",
                    code="bad-parameter",
                ) from exc
            per_mhz = _ROWS["fields", "omega_d_mhz"].si(1.0)
            resolved["fields"]["omega_d_mhz"] = repr(omega_d / per_mhz)
        fields = FieldConfig(
            omega_d=omega_d,
            omega_p=read("fields", "omega_p_mhz"),
            delta_p=read("fields", "delta_p_mhz"),
            delta_ac=read("fields", "delta_ac_mhz"),
            rho_aa=read("fields", "rho_aa"),
            rho_bb=read("fields", "rho_bb"),
            rho_cc=read("fields", "rho_cc"),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), code="bad-parameter") from exc

    # spaced in MHz, then scaled: spacing the scaled endpoints rounds differently
    sweep = _ROWS["sweep", "omega_d_min_mhz"].si(np.linspace(
        read("sweep", "omega_d_min_mhz", si=False),
        read("sweep", "omega_d_max_mhz", si=False),
        read("sweep", "points"),
    ))

    grid_points = read("input", "grid_points")
    span_factor = read("input", "span_factor")
    input_fwhm = read("input", "fwhm_khz")
    if span_factor <= 0 or input_fwhm <= 0:
        raise ConfigError("span_factor and fwhm_khz must be positive", code="bad-parameter")
    mc_realizations = read("mc", "realizations")
    mc_slices = read("mc", "slices")
    mc_dt = read("mc", "dt_us")
    mc_duration = read("mc", "duration_ms")
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
    seed = read("run", "seed")
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


__all__ = ["DEFAULTS", "KEYS", "Key", "RunConfig", "config_digest", "load_config"]
