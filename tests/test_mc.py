"""Time-domain Monte-Carlo oracle: slices, ensembles and statistics."""

import numpy as np
import pytest

from eitnarrow.checks import band_transfer_vs_reference
from eitnarrow.errors import InvalidParameterError
from eitnarrow.medium import (
    AtomicMedium,
    FieldConfig,
    complex_rates,
    transmission,
)
from eitnarrow.mc import (
    McConfig,
    band_average_transfer,
    bloch_medium,
    ensemble_beat_spectrum,
    integrate_slice,
    slice_convergence,
)
from eitnarrow.noise import PhaseNoiseModel
from eitnarrow.spectral import GAUSSIAN_FWHM_FACTOR, FrequencyGrid, gaussian_spectrum

TWO_PI = 2.0 * np.pi


def reduced_medium(**overrides) -> AtomicMedium:
    """Gentle optical depth (about 2.2) for fast ensemble runs."""
    params = dict(
        number_density=1e17,
        wavelength=794.98e-9,
        gamma_r=3.61e7,
        gamma_ab=2e7,
        gamma_ac=2e7,
        gamma_cb=0.0,
        doppler_width=TWO_PI * 500e6,
        length=0.025,
    )
    params.update(overrides)
    return AtomicMedium(**params)


def reduced_fields() -> FieldConfig:
    drive = TWO_PI * 2.3e6
    return FieldConfig(omega_d=drive, omega_p=0.05 * drive)


def reduced_config(**overrides) -> McConfig:
    m = reduced_medium()
    f = reduced_fields()
    g = complex_rates(m, f).gamma_cb_eff.real
    dt = 0.02 / g
    shaping_grid = FrequencyGrid.spanning(min(40.0 * g, 0.9 * np.pi / dt), 257)
    shaping = gaussian_spectrum(10.0 * g / GAUSSIAN_FWHM_FACTOR, shaping_grid)
    params = dict(
        medium=m,
        fields=f,
        noise=PhaseNoiseModel(diffusion=0.0, shaping=shaping, seed=3),
        dt=dt,
        duration=40.0 / g,
        realizations=32,
        slices=8,
    )
    params.update(overrides)
    return McConfig(**params)


def test_config_invariants():
    cfg = reduced_config()
    with pytest.raises(InvalidParameterError):
        reduced_config(realizations=4)
    with pytest.raises(InvalidParameterError):
        reduced_config(slices=0)
    with pytest.raises(InvalidParameterError):
        reduced_config(dt=100.0 * cfg.dt)  # does not resolve the coherence
    with pytest.raises(InvalidParameterError):
        reduced_config(duration=cfg.dt * 10)  # shorter than the output line
    with pytest.raises(InvalidParameterError):
        reduced_config(fields=FieldConfig(omega_d=TWO_PI * 2.3e6, omega_p=0.0))


def test_uncoupled_slice_is_the_identity():
    """gamma_r = 0 removes the coupling; the probe passes unchanged."""
    m = reduced_medium(gamma_r=0.0)
    f = reduced_fields()
    rng = np.random.default_rng(1)
    env = rng.normal(size=256) + 1j * rng.normal(size=256)
    probe = env * abs(f.omega_p)
    out = integrate_slice(probe, 1e-7, m, f, m.length)
    assert np.array_equal(out, probe)


def test_eit_transparency_for_constant_probe():
    """A noiseless on-resonance weak probe (gamma_cb = 0) is transmitted
    with unit amplitude to 1e-4.

    The probe must be genuinely weak: the slaved coherence carries the
    probe's own power broadening, a residual absorption of order
    (omega_p/omega_d)^2 times the optical depth."""
    m = reduced_medium(number_density=3e17)
    drive = TWO_PI * 2.3e6
    f = FieldConfig(omega_d=drive, omega_p=1e-3 * drive)
    g = complex_rates(m, f).gamma_cb_eff.real
    dt = 1e-6
    n = int(20.0 / (g * dt))
    probe = np.full(n, f.omega_p, dtype=complex)
    out = probe
    for _ in range(16):
        out = integrate_slice(out, dt, m, f, m.length / 16.0)
    tail = slice(-n // 10, None)
    assert np.max(np.abs(out[tail] - probe[tail])) < 1e-4 * abs(
        f.omega_p
    )


def test_detuned_beat_matches_analytic_transfer():
    """A monochromatic beat component at offset delta is attenuated by
    exp(Re kappa(delta) L) of the slab's Bloch medium (2 eta), to 1e-3."""
    m = reduced_medium()
    f = reduced_fields()
    g = complex_rates(m, f).gamma_cb_eff.real
    delta = 10.0 * g
    dt = 0.05 / delta
    n = int(np.ceil(15.0 / (g * dt)))
    t = dt * np.arange(n)
    out = abs(f.omega_p) * np.exp(-1j * delta * t)
    for _ in range(8):
        out = integrate_slice(out, dt, m, f, m.length / 8.0)
    settled = np.abs(out[-n // 10 :]) ** 2 / abs(f.omega_p) ** 2
    expected = transmission(bloch_medium(m), f, np.array([delta]))[0]
    assert np.max(np.abs(settled - expected)) < 1e-3


def test_noiseless_ensemble_is_a_single_line():
    cfg = reduced_config(
        noise=PhaseNoiseModel(diffusion=0.0, seed=3), realizations=8
    )
    result = ensemble_beat_spectrum(cfg)
    d = result.spectrum.density
    i0 = int(np.argmax(d))
    assert abs(result.spectrum.omegas[i0]) <= result.spectrum.grid.step
    # the Hann main lobe spans three bins; essentially all power is there
    assert d[i0 - 1 : i0 + 2].sum() > 0.999 * d.sum()
    assert 0.0 < result.drive_depletion


def test_center_transfer_is_unity_within_three_sigma():
    """With gamma_cb = 0 the line center is fully transmitted."""
    result = ensemble_beat_spectrum(reduced_config())
    w = result.spectrum.omegas
    g = complex_rates(reduced_medium(), reduced_fields()).gamma_cb_eff.real
    mask = np.abs(w) < 0.2 * g
    centers, values, errs = band_average_transfer(result, mask, 1)
    assert abs(values[0] - 1.0) <= 3.0 * errs[0]


def test_passivity_per_realization():
    result = ensemble_beat_spectrum(reduced_config(realizations=16))
    power_in = result.per_real_in.sum(axis=1)
    power_out = result.per_real_out.sum(axis=1)
    assert np.all(power_out <= power_in * (1.0 + 1e-9))


def test_stderr_shrinks_with_realizations():
    r32 = ensemble_beat_spectrum(reduced_config(realizations=32))
    r64 = ensemble_beat_spectrum(reduced_config(realizations=64))
    ratio = np.mean(r64.stderr) / np.mean(r32.stderr)
    assert abs(ratio - 1.0 / np.sqrt(2.0)) < 0.3 / np.sqrt(2.0)


def test_transfer_vs_analytic_in_bands():
    """Band-averaged Monte-Carlo transfer tracks the window-convolved
    exp(Re kappa L) reference within a generous multiple of the
    realization scatter."""
    cfg = reduced_config(realizations=64)
    values, refs, errs = band_transfer_vs_reference(
        ensemble_beat_spectrum(cfg), cfg, 0.05, 8
    )
    assert np.all(np.abs(values - refs) <= np.maximum(5.0 * errs, 0.01))


def test_slice_convergence():
    cfg = reduced_config(realizations=16)
    t1, t2, rel = slice_convergence(cfg)
    assert rel < 0.05


def test_band_average_requires_enough_bins():
    result = ensemble_beat_spectrum(reduced_config(realizations=8))
    mask = np.zeros(result.spectrum.grid.count, dtype=bool)
    mask[:4] = True
    with pytest.raises(InvalidParameterError):
        band_average_transfer(result, mask, 16)
