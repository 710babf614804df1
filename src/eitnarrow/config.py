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
    doppler_fwhm_mhz (500)      Doppler width Delta_W [MHz]; 0 for a
                                homogeneous medium (gamma_ab, gamma_ac)
    length_cm (2.5)             cell length

[fields]
    omega_d_mhz (0 = auto)      drive Rabi frequency; 0 picks the value
                                whose closed-form width equals
                                target_width_khz
    target_width_khz (4.6)      target output width for the auto drive
    delta_p_mhz (0)             probe one-photon detuning
    delta_ac_mhz (0)            drive one-photon detuning
    rho_aa, rho_cc              frozen populations (0, 0); rho_bb is
                                1 - rho_aa - rho_cc

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

No key switches the Doppler model: ``doppler_fwhm_mhz > 0`` is the
substitution gamma -> Delta_W (``AtomicMedium.doppler``), which every
route and closed form reads.  A word key is recorded in lower case,
however typed, so ``GAUSSIAN`` and ``gaussian`` share one digest.
``RunConfig.power_sweep`` runs the [sweep].

Each key is one row of ``KEYS``: its section, name, the field it fills,
default text, kind, the factors that take it to SI units and, for a size
key, its bounds.  ``[medium]`` keys fill ``AtomicMedium``, ``[fields]``
keys ``FieldConfig`` and the ``[input]``, ``[mc]`` and ``[run]`` keys
``RunConfig``; ``target_width_khz`` and the ``[sweep]`` keys fill none.
``DEFAULTS`` is derived from the rows.  ``load_config`` checks every key
against its row first, in ``KEYS`` order, whether or not the run uses it;
the physical and cross-key checks follow, so a file with a malformed key
and a physical fault reports the key.  The samples per Monte-Carlo
realization, ``duration_ms / dt_us``, are bounded too
(``MAX_MC_SAMPLES``), which bounds an ensemble's memory, as is their
product with ``realizations`` (``MAX_MC_ELEMENTS``), which bounds its
per-realization work: two transforms of each record.  The slab itself
runs once per ensemble, over two records, 2 x ``slices`` x samples,
bounded by ``slices`` and the samples.
"""

from __future__ import annotations

import configparser
import hashlib
import os
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    FitFailedError,
    InvalidParameterError,
    OpticallyThinError,
    ResolutionError,
)
from .fitting import fit_lineshape
from .mc import McConfig
from .medium import AtomicMedium, FieldConfig, drive_for_target_width, thick_filter_hwhm
from .noise import PhaseNoiseModel
from .propagation import adiabatic_rate_check, propagate_spectrum
from .spectral import GAUSSIAN_FWHM_FACTOR, MIN_STEPS_PER_FWHM, FrequencyGrid, Spectrum
from .spectral import gaussian_spectrum, lorentzian_spectrum

TWO_PI = 2.0 * np.pi
_MHZ = (TWO_PI, 1e6)
_KHZ = (TWO_PI, 1e3)


class Key(NamedTuple):
    """One configuration key.  ``field`` is the field its SI value fills
    in the object its section builds (``_FILLS``), or empty for a key
    that fills none; ``kind`` is ``float``, ``int`` or the tuple of
    allowed words; ``factors`` take a value in the key's unit
    to SI, applied one at a time (``x * 2π * 1e6``, which rounds unlike
    ``x * (2π·1e6)``); ``bounds`` is the (low, high) range of a size
    key."""

    section: str
    name: str
    field: str
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
    Key("medium", "density_cm3", "number_density", "3e11", float, (1e6,)),
    Key("medium", "gamma_ab_per_s", "gamma_ab", "2e7"),
    Key("medium", "gamma_ac_per_s", "gamma_ac", "2e7"),
    Key("medium", "gamma_cb_hz", "gamma_cb", "0", float, (TWO_PI,)),
    Key("medium", "doppler_fwhm_mhz", "doppler_width", "500", float, _MHZ),
    Key("medium", "length_cm", "length", "2.5", float, (1e-2,)),
    Key("fields", "omega_d_mhz", "omega_d", "0", float, _MHZ),
    Key("fields", "target_width_khz", "", "4.6", float, _KHZ),
    Key("fields", "delta_p_mhz", "delta_p", "0", float, _MHZ),
    Key("fields", "delta_ac_mhz", "delta_ac", "0", float, _MHZ),
    Key("fields", "rho_aa", "rho_aa", "0"),
    Key("fields", "rho_cc", "rho_cc", "0"),
    Key("input", "shape", "input_shape", "gaussian", ("gaussian", "lorentzian")),
    Key("input", "fwhm_khz", "input_fwhm", "980", float, _KHZ),
    Key("input", "grid_points", "grid_points", "3001", int, bounds=(8, 10**6)),
    Key("input", "span_factor", "span_factor", "6.0"),
    Key("mc", "realizations", "mc_realizations", "200", int, bounds=(8, 10**5)),
    Key("mc", "slices", "mc_slices", "8", int, bounds=(1, 10**4)),
    Key("mc", "dt_us", "mc_dt", "0.1", float, (1e-6,)),
    Key("mc", "duration_ms", "mc_duration", "1.0", float, (1e-3,)),
    Key("sweep", "omega_d_min_mhz", "", "2.0", float, _MHZ),
    Key("sweep", "omega_d_max_mhz", "", "6.5", float, _MHZ),
    Key("sweep", "points", "", "8", int, bounds=(1, 10**4)),
    Key("run", "seed", "seed", "12345", int),
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
# realizations into running sums, so this bounds run time, not memory:
# each realization costs two transforms of its record whatever the slice
# count, which enters only the slab's one impulse run per ensemble
MAX_MC_ELEMENTS = 10**8


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
        ``MIN_STEPS_PER_FWHM`` grid steps, or when the fit fails and the
        predicted FWHM, 2 ``thick_filter_hwhm``, spans fewer."""
        s_in = self.input_spectrum(grid)
        s_out = propagate_spectrum(self.medium, fields, s_in)
        try:
            fit = fit_lineshape(s_out, "lorentzian")
        except FitFailedError:
            hwhm = thick_filter_hwhm(self.medium, abs(fields.omega_d) ** 2)
            steps = 2.0 * hwhm / grid.step
            if not steps < MIN_STEPS_PER_FWHM:
                raise
            raise ResolutionError(
                f"predicted output fwhm spans {steps:.2f} grid steps, fewer than "
                f"{MIN_STEPS_PER_FWHM:g}, and the fit failed; raise [input] grid_points"
            ) from None
        steps = fit.fwhm / grid.step
        if steps < MIN_STEPS_PER_FWHM:
            raise ResolutionError(
                f"output fwhm spans {steps:.2f} grid steps, fewer than "
                f"{MIN_STEPS_PER_FWHM:g}; raise [input] grid_points"
            )
        return s_in, s_out, fit

    def power_sweep(self) -> tuple[np.ndarray, np.ndarray, list]:
        """The figure-4 sweep: |Omega_d|^2 and the fitted output FWHM of
        each point that ``adiabatic_rate_check`` reports valid, and
        (Omega_d, report) of each point it excludes, warned of as it
        goes.  A sweep with a drive <= 0 is refused with
        ``bad-parameter`` before any grid is built; one of fewer than 6
        points, not spanning more than a decade of |Omega_d|^2 or keeping
        fewer than two points with ``sweep-too-small``."""
        if not self.sweep_omega_d.min() > 0:
            sweep = self.resolved["sweep"]
            raise ConfigError(
                f"[sweep] omega_d_min_mhz = {sweep['omega_d_min_mhz']} and omega_d_max_mhz = "
                f"{sweep['omega_d_max_mhz']}: every sweep drive must be > 0",
                code="bad-parameter",
            )
        sq = self.sweep_omega_d**2
        if sq.size < 6 or not sq.max() > 10.0 * sq.min():
            raise ConfigError(
                "power sweep needs 6 or more points spanning over a decade of |Omega_d|^2",
                code="sweep-too-small",
            )
        rows, excluded = [], []
        for omega_d in self.sweep_omega_d:
            f = replace(self.fields, omega_d=omega_d)
            grid = self.output_grid(f)
            report = adiabatic_rate_check(self.medium, f, grid.omegas)
            if report.valid:
                rows.append((abs(omega_d) ** 2, self.output_line(f, grid)[2].fwhm))
                continue
            excluded.append((omega_d, report))
            mhz = omega_d / _ROWS["fields", "omega_d_mhz"].si(1.0)
            warnings.warn(
                f"point |Omega_d| = {mhz:.4f} MHz excluded "
                f"(adiabatic validity ratio {report.validity_ratio:.2f} < 10)"
            )
        if len(rows) < 2:
            raise ConfigError("fewer than two valid sweep points", code="sweep-too-small")
        return (*np.array(rows).T, excluded)

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


# the class each section's keys fill; [sweep] keys fill none
_FILLS = {"medium": AtomicMedium, "fields": FieldConfig, "input": RunConfig, "mc": RunConfig,
         "run": RunConfig}


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
    magnitude at most ``MAX_MAGNITUDE`` in the key's own unit.  A word is
    written back to ``resolved`` in lower case, so the digest and the
    sidecar record the word that runs, however it was typed."""
    sec, key = row.section, row.name
    raw = resolved[sec][key]
    if isinstance(row.kind, tuple):
        word = raw.lower()
        if word not in row.kind:
            raise ConfigError(
                f"key {key!r} in [{sec}] must be one of {row.kind}, got {word!r}",
                code="bad-enum",
            )
        resolved[sec][key] = word
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

    # every key in its own unit and in SI units (no name is in two sections),
    # and the fields its SI value fills, by the class that holds them
    own, si = {}, {}
    filled = {cls: {} for cls in _FILLS.values()}
    for row in KEYS:
        own[row.name] = _read(resolved, row)
        si[row.name] = row.si(own[row.name])
        if row.field:
            filled[_FILLS[row.section]][row.field] = si[row.name]

    try:
        medium = AtomicMedium(**filled[AtomicMedium])
        omega_d = filled[FieldConfig]["omega_d"]
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
        fields = FieldConfig(**{**filled[FieldConfig], "omega_d": omega_d})
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
        **filled[RunConfig],
        medium=medium,
        fields=fields,
        sweep_omega_d=sweep,
        resolved=resolved,
        digest=config_digest(resolved),
    )


__all__ = ["DEFAULTS", "KEYS", "Key", "RunConfig", "config_digest", "load_config"]
