"""Run configuration: sectioned key/value files with explicit units.

Grammar: INI sections parsed by :mod:`configparser`.  Every physical key
carries its unit in the name (``_mhz``, ``_khz``, ``_hz``, ``_cm``,
``_us``, ``_ms``, ``_per_s``); frequency-like units are cyclic
and are converted to angular rad/s internally, so a ``2*pi`` can never
go missing silently.  Unknown sections or keys are errors.

Recognized sections and keys (defaults in parentheses):

[medium]
    density_cm3 (3e11)          atom number density [1/cm^3]
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
    delta_p_mhz (0)             probe one-photon detuning
    delta_ac_mhz (0)            drive one-photon detuning
    rho_aa, rho_bb, rho_cc      frozen populations (0, 1, 0)

[input]
    shape (gaussian)            gaussian | lorentzian
    fwhm_khz (980)              input beat-spectrum FWHM
    grid_points (3001)
    span_factor (6.0)           grid half-width = span_factor * FWHM

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

``doppler_mode`` becomes a property of the medium,
``AtomicMedium.doppler``, which every route and closed form reads.

Each key is one row of ``KEYS``: its section, name, default text, kind,
the factors that take it to SI units and, for a size key, its bounds.
``DEFAULTS`` is derived from the rows.  ``load_config`` checks every key
against its row first, in ``KEYS`` order, whether or not the run uses it;
the physical and cross-key checks follow, so a file with a malformed key
and a physical fault reports the key.  The samples per Monte-Carlo
realization, ``duration_ms / dt_us``, are bounded too
(``MAX_MC_SAMPLES``), which bounds an ensemble's memory, as is their
product with ``realizations`` (``MAX_MC_ELEMENTS``), which bounds its
run time.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidParameterError, OpticallyThinError, ResolutionError
from .fitting import fit_lineshape
from .mc import McConfig
from .medium import AtomicMedium, FieldConfig, drive_for_target_width, thick_filter_hwhm
from .noise import PhaseNoiseModel
from .propagation import propagate_spectrum
from .spectral import GAUSSIAN_FWHM_FACTOR, FrequencyGrid, Spectrum
from .spectral import gaussian_spectrum, lorentzian_spectrum

TWO_PI = 2.0 * np.pi
_MHZ = (TWO_PI, 1e6)
_KHZ = (TWO_PI, 1e3)


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
    Key("medium", "gamma_ab_per_s", "2e7"),
    Key("medium", "gamma_ac_per_s", "2e7"),
    Key("medium", "gamma_cb_hz", "0", float, (TWO_PI,)),
    Key("medium", "doppler_fwhm_mhz", "500", float, _MHZ),
    Key("medium", "doppler_mode", "on", ("on", "off")),
    Key("medium", "length_cm", "2.5", float, (1e-2,)),
    Key("fields", "omega_d_mhz", "0", float, _MHZ),
    Key("fields", "target_width_khz", "4.6", float, _KHZ),
    Key("fields", "delta_p_mhz", "0", float, _MHZ),
    Key("fields", "delta_ac_mhz", "0", float, _MHZ),
    Key("fields", "rho_aa", "0"),
    Key("fields", "rho_bb", "1"),
    Key("fields", "rho_cc", "0"),
    Key("input", "shape", "gaussian", ("gaussian", "lorentzian")),
    Key("input", "fwhm_khz", "980", float, _KHZ),
    Key("input", "grid_points", "3001", int, bounds=(8, 10**6)),
    Key("input", "span_factor", "6.0"),
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
MAX_MC_SAMPLES = 10**6  # duration_ms / dt_us; bounds an ensemble's memory
# realizations * duration_ms / dt_us: the ensemble streams its
# realizations into running sums, so this bounds run time, not memory
MAX_MC_ELEMENTS = 10**8
# fewest grid steps across a fitted output FWHM; at 4 or more the fit
# reads within 0.1 % of its fully resolved width at the default config,
# Doppler on and off (CHANGES.md gives the table)
MIN_STEPS_PER_FWHM = 4.0


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

    def input_grid(self) -> FrequencyGrid:
        """Grid resolving the input line: ``span_factor`` times its FWHM
        on each side."""
        return FrequencyGrid.spanning(self.span_factor * self.input_fwhm, self.grid_points)

    def output_grid(self, fields: FieldConfig | None = None) -> FrequencyGrid:
        """Grid resolving the transmitted line: ``span_factor`` times the
        thick-filter half width on each side."""
        f = fields if fields is not None else self.fields
        hwhm = thick_filter_hwhm(self.medium, abs(f.omega_d) ** 2)
        return FrequencyGrid.spanning(2.0 * self.span_factor * hwhm, self.grid_points)

    def output_line(self, fields: FieldConfig, grid: FrequencyGrid):
        """The configured input on ``grid``, the spectrum the cell
        transmits with ``fields`` and its Lorentzian fit, refused with
        ``ResolutionError`` when the fitted FWHM spans fewer than
        ``MIN_STEPS_PER_FWHM`` grid steps."""
        s_in = self.input_spectrum(grid)
        s_out = propagate_spectrum(self.medium, fields, s_in)
        fit = fit_lineshape(s_out, "lorentzian")
        steps = fit.fwhm / grid.step
        if steps < MIN_STEPS_PER_FWHM:
            raise ResolutionError(
                f"output fwhm spans {steps:.2f} grid steps, fewer than "
                f"{MIN_STEPS_PER_FWHM:g}; raise [input] grid_points"
            )
        return s_in, s_out, fit

    def mc_config(self, realizations: int) -> McConfig:
        """The configured ensemble of ``realizations`` runs, its noise shaped
        by the input line out to ``span_factor`` FWHMs or 0.95 Nyquist."""
        half = min(self.span_factor * self.input_fwhm, 0.95 * (np.pi / self.mc_dt))
        shaping = self.input_spectrum(FrequencyGrid.spanning(half, 513))
        return McConfig(
            medium=self.medium,
            fields=self.fields,
            noise=PhaseNoiseModel(diffusion=0.0, shaping=shaping, seed=self.seed),
            dt=self.mc_dt,
            duration=self.mc_duration,
            realizations=realizations,
            slices=self.mc_slices,
        )


def _resolve_text(path: str | None) -> dict[str, dict[str, str]]:
    merged = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
    if path is None:
        return merged
    if not os.path.isfile(path):
        raise ConfigError(f"configuration file not found: {path}", code="config-not-found")
    # no header spells an empty name, so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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


def _read(resolved: dict, row: Key):
    """The resolved value of one key in its own unit, checked against its
    row: one of its words, an integer within its bounds, or a float of
    magnitude at most ``MAX_MAGNITUDE`` in the key's own unit."""
    sec, key = row.section, row.name
    raw = resolved[sec][key]
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
    return value


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

    # every key in its own unit and in SI units (no name is in two sections)
    own, si = {}, {}
    for row in KEYS:
        own[row.name] = _read(resolved, row)
        si[row.name] = row.si(own[row.name])

    try:
        medium = AtomicMedium(
            number_density=si["density_cm3"],
            gamma_ab=si["gamma_ab_per_s"],
            gamma_ac=si["gamma_ac_per_s"],
            gamma_cb=si["gamma_cb_hz"],
            doppler_width=si["doppler_fwhm_mhz"],
            length=si["length_cm"],
            doppler=si["doppler_mode"] == "on",
        )
        omega_d = si["omega_d_mhz"]
        if omega_d == 0:
            try:
                omega_d = drive_for_target_width(medium, si["target_width_khz"])
            except OpticallyThinError as exc:
                raise ConfigError(
                    f"omega_d_mhz = 0 (auto) needs an optically thick medium: {exc}",
                    code="bad-parameter",
                ) from exc
            per_mhz = _ROWS["fields", "omega_d_mhz"].si(1.0)
            resolved["fields"]["omega_d_mhz"] = repr(omega_d / per_mhz)
        fields = FieldConfig(
            omega_d=omega_d,
            delta_p=si["delta_p_mhz"],
            delta_ac=si["delta_ac_mhz"],
            rho_aa=si["rho_aa"],
            rho_bb=si["rho_bb"],
            rho_cc=si["rho_cc"],
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), code="bad-parameter") from exc

    # spaced in MHz, then scaled: spacing the scaled endpoints rounds differently
    sweep = _ROWS["sweep", "omega_d_min_mhz"].si(
        np.linspace(own["omega_d_min_mhz"], own["omega_d_max_mhz"], own["points"])
    )

    if si["span_factor"] <= 0 or si["fwhm_khz"] <= 0:
        raise ConfigError("span_factor and fwhm_khz must be positive", code="bad-parameter")
    if si["dt_us"] <= 0 or si["duration_ms"] <= 0:
        raise ConfigError("dt_us and duration_ms must be positive", code="bad-parameter")
    samples = si["duration_ms"] / si["dt_us"]
    if samples > MAX_MC_SAMPLES:
        raise ConfigError(
            f"duration_ms / dt_us = {samples:.4g} samples exceeds {MAX_MC_SAMPLES:.0e}",
            code="bad-parameter",
        )
    if si["realizations"] * samples > MAX_MC_ELEMENTS:
        raise ConfigError(
            f"realizations * duration_ms / dt_us = {si['realizations'] * samples:.4g} "
            f"exceeds {MAX_MC_ELEMENTS:.0e}",
            code="bad-parameter",
        )
    if not 0 <= si["seed"] < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {si['seed']}", code="bad-parameter")

    return RunConfig(
        medium=medium,
        fields=fields,
        input_shape=si["shape"],
        input_fwhm=si["fwhm_khz"],
        grid_points=si["grid_points"],
        span_factor=si["span_factor"],
        mc_realizations=si["realizations"],
        mc_slices=si["slices"],
        mc_dt=si["dt_us"],
        mc_duration=si["duration_ms"],
        sweep_omega_d=sweep,
        seed=si["seed"],
        resolved=resolved,
        digest=config_digest(resolved),
    )


__all__ = ["DEFAULTS", "KEYS", "Key", "RunConfig", "config_digest", "load_config"]
