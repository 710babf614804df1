"""Invariant checks shared by ``eitnarrow validate`` and the test suite.

``run_checks`` is the registry: it yields one :class:`CheckRecord` per
check, in the order ``validate`` prints them.  The arithmetic of each
check lives in a helper that takes plain arguments, so the acceptance
tests call the same code with their own configurations.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .fitting import fit_lineshape
from .mc import McConfig, McEnsembleResult, band_average_transfer, bloch_medium
from .mc import ensemble_beat_spectrum, windowed_reference
from .medium import AtomicMedium, FieldConfig, complex_rates, transmission
from .noise import PhaseNoiseModel
from .propagation import propagate_correlation, propagate_spectrum
from .propagation import thick_medium_spectrum
from .spectral import GAUSSIAN_FWHM_FACTOR, FrequencyGrid, correlation_to_spectrum
from .spectral import gaussian_spectrum, lorentzian_spectrum, spectrum_to_correlation


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    value: float  # the achieved value the verdict rests on
    detail: str

    @property
    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def route_deviations(medium: AtomicMedium, drive: float) -> list[float]:
    """Largest difference between the (tau, z) route's beat correlation
    and the transform of the Fourier route's output, relative to R(0),
    on resonance, with the probe detuned by 0.1 Delta_W, and with a
    ground decay of 0.2 times the power broadening (``medium``'s own
    gamma_cb is replaced)."""
    base = replace(medium, gamma_cb=0.0)
    on_res = FieldConfig(omega_d=drive)
    detuned = FieldConfig(omega_d=drive, delta_p=0.1 * medium.doppler_width)
    broadening = complex_rates(base, on_res).gamma_cb_eff.real
    decaying = replace(medium, gamma_cb=0.2 * broadening)
    devs = []
    for m, f in ((base, on_res), (base, detuned), (decaying, on_res)):
        scale = complex_rates(m, f).gamma_cb_eff.real
        grid = FrequencyGrid.spanning(120.0 * scale, 1201)
        s_in = gaussian_spectrum(20.0 * scale / GAUSSIAN_FWHM_FACTOR, grid)
        corr = propagate_correlation(m, f, s_in)
        fourier = propagate_spectrum(m, f, s_in)
        ref = spectrum_to_correlation(fourier, corr.beat.lag_step, corr.beat.values.size)
        devs.append(float(np.max(np.abs(corr.beat.values - ref.values)) / abs(ref.values[0])))
    return devs


def wiener_khinchin_error(fwhm: float) -> float:
    """Largest error, relative to the peak, of a Gaussian spectrum of
    the given FWHM sent to the lag domain and back."""
    grid = FrequencyGrid.spanning(8.0 * fwhm, 1501)
    s_in = gaussian_spectrum(fwhm / GAUSSIAN_FWHM_FACTOR, grid)
    dtau = np.pi / (8.0 * abs(grid.omegas[-1]))
    n_tau = int(np.ceil(30.0 / (fwhm * dtau)))
    back = correlation_to_spectrum(spectrum_to_correlation(s_in, dtau, n_tau), grid)
    return float(np.max(np.abs(back.density - s_in.density)) / s_in.density.max())


def band_transfer_vs_reference(
    result: McEnsembleResult, cfg: McConfig, floor: float, n_bands: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band-averaged Monte-Carlo transfer against its analytic reference.

    The bins whose ensemble input power exceeds ``floor`` times the peak
    are split into ``n_bands`` contiguous bands.  Returns the Monte-Carlo
    band transfer, the input-weighted mean over each band of the
    window-convolved transfer of ``bloch_medium(cfg.medium)``, and the
    band standard errors."""
    weights = result.input_density
    mask = weights > floor * weights.max()
    analytic = transmission(bloch_medium(cfg.medium), cfg.fields, result.spectrum.omegas)
    ref_bins = windowed_reference(result, analytic)
    groups, values, errs = band_average_transfer(result, mask, n_bands)
    refs = np.array([np.sum(ref_bins[g] * weights[g]) / np.sum(weights[g]) for g in groups])
    return values, refs, errs


def _reduced_mc_config(cfg: RunConfig) -> McConfig:
    """Gentle optical depth and moderate rates so the Monte-Carlo check
    stays well inside the validate-time budget."""
    medium = replace(
        cfg.medium, number_density=cfg.medium.number_density / 10.0, gamma_cb=0.0
    )
    drive = abs(cfg.fields.omega_d)
    # a genuinely weak probe: the slaved coherence carries the probe's
    # own power broadening, which would bias the analytic comparison
    fields = FieldConfig(omega_d=drive, omega_p=1e-3 * drive)
    rates = complex_rates(medium, fields)
    g = rates.gamma_cb_eff.real
    dt = 0.005 / g
    shaping_grid = FrequencyGrid.spanning(min(40.0 * g, 0.9 * np.pi / dt), 257)
    shaping = gaussian_spectrum(10.0 * g / GAUSSIAN_FWHM_FACTOR, shaping_grid)
    return McConfig(
        medium=medium,
        fields=fields,
        noise=PhaseNoiseModel(diffusion=0.0, shaping=shaping, seed=cfg.seed),
        dt=dt,
        duration=60.0 / g,
        realizations=64,
        slices=cfg.mc_slices,
    )


def run_checks(cfg: RunConfig, quick: bool) -> Iterator[CheckRecord]:
    """The reduced-scale invariant suite; ``quick`` leaves out the
    Monte-Carlo check."""
    # the output grid first: a medium too thin for it fails before any
    # record is yielded
    grid = cfg.output_grid()
    devs = route_deviations(cfg.medium, abs(cfg.fields.omega_d))
    for i, dev in enumerate(devs, 1):
        yield CheckRecord(f"route-equivalence-{i}", dev < 1e-3, dev, f"max deviation {dev:.3e}")

    s_in = cfg.input_spectrum(grid)
    out = propagate_spectrum(cfg.medium, cfg.fields, s_in)
    t1 = out.density / s_in.density
    yield CheckRecord(
        "passivity",
        bool(np.all(out.density <= s_in.density * (1.0 + 1e-12))),
        float(t1.max()),
        "output density <= input density pointwise",
    )

    alt = lorentzian_spectrum(cfg.input_fwhm / 2.0, grid)
    t2 = propagate_spectrum(cfg.medium, cfg.fields, alt).density / alt.density
    dev = float(np.max(np.abs(t1 - t2) / t2))
    yield CheckRecord(
        "shape-independence", dev < 1e-9, dev, f"transfer ratio deviation {dev:.3e}"
    )

    # closed-form filter identity (gamma_cb = 0)
    med0 = replace(cfg.medium, gamma_cb=0.0)
    f0 = FieldConfig(omega_d=cfg.fields.omega_d)
    thick = thick_medium_spectrum(med0, abs(f0.omega_d) ** 2, s_in)
    full = propagate_spectrum(med0, f0, s_in)
    dev = float(np.max(np.abs(thick.density - full.density) / full.density.max()))
    yield CheckRecord("closed-form-identity", dev < 1e-6, dev, f"max deviation {dev:.3e}")

    dev = wiener_khinchin_error(cfg.input_fwhm)
    yield CheckRecord("wiener-khinchin-roundtrip", dev < 1e-6, dev, f"max deviation {dev:.3e}")

    # fit exactness on a synthetic Lorentzian
    hwhm = cfg.input_fwhm / 2.0
    lor = lorentzian_spectrum(hwhm, FrequencyGrid.spanning(8.0 * cfg.input_fwhm, 1501))
    dev = abs(fit_lineshape(lor, "lorentzian").width - hwhm) / hwhm
    yield CheckRecord("fit-exactness", dev < 1e-6, dev, f"relative parameter error {dev:.3e}")

    if not quick:
        mc_cfg = _reduced_mc_config(cfg)
        n_bands = 16
        values, refs, errs = band_transfer_vs_reference(
            ensemble_beat_spectrum(mc_cfg), mc_cfg, 0.02, n_bands
        )
        dev = float(np.max(np.abs(values - refs) / np.maximum(errs, 1e-300)))
        yield CheckRecord(
            "mc-vs-analytic",
            dev <= 3.0,
            dev,
            f"worst band deviation {dev:.2f} sigma (limit 3), {n_bands} bands",
        )
