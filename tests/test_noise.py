"""Phase diffusion statistics, shaped noise and reproducibility."""

import numpy as np
import pytest

from eitnarrow.errors import InvalidParameterError
from eitnarrow.fitting import fit_lineshape
from eitnarrow.noise import (
    PhaseNoiseModel,
    realization_rng,
    sample_phase_trajectory,
    synthesize_probe_field,
)
from eitnarrow.spectral import FitResult, FrequencyGrid, gaussian_spectrum, periodogram

TWO_PI = 2.0 * np.pi


def test_zero_diffusion_zero_phase():
    model = PhaseNoiseModel(diffusion=0.0, seed=4)
    phi = sample_phase_trajectory(model, dt=1e-6, n=256)
    assert np.all(phi == 0.0)
    assert np.allclose(synthesize_probe_field(model, 2.0, 1e-6, 256), 2.0)


def test_wiener_variance_at_one_millisecond():
    """var phi(t) = 2*D*t: D = 1e6 rad^2/s at t = 1 ms gives 2e3 rad^2,
    checked to 5% over 1e4 independent seeds."""
    d = 1.0e6
    t = 1.0e-3
    n_seeds = 10_000
    phis = np.empty(n_seeds)
    for r in range(n_seeds):
        model = PhaseNoiseModel(diffusion=d, seed=123)
        phis[r] = sample_phase_trajectory(model, dt=t / 10.0, n=11, realization=r)[-1]
    var = np.var(phis)
    assert abs(var - 2.0 * d * t) < 0.05 * 2.0 * d * t
    # mean phase is zero within three standard errors
    se = np.sqrt(var / n_seeds)
    assert abs(np.mean(phis)) < 3.0 * se


def test_pure_diffusion_linewidth_is_2d():
    """The averaged field periodogram is Lorentzian with FWHM 2*D."""
    d = 1.0e4
    dt = 2.0e-6
    n = 5000
    model = PhaseNoiseModel(diffusion=d, seed=21)
    acc = None
    n_real = 200
    for r in range(n_real):
        s = periodogram(synthesize_probe_field(model, 1.0, dt, n, realization=r), dt)
        acc = s.density if acc is None else acc + s.density
    mean = type(s)(s.grid, acc / n_real)
    fit = fit_lineshape(mean, "lorentzian")
    assert abs(fit.fwhm - 2.0 * d) < 0.10 * 2.0 * d


def test_shaped_field_matches_target_width():
    """Gaussian-shaped synthesis reproduces a 980 kHz FWHM line to 5%."""
    fwhm = TWO_PI * 980e3
    omega_w = fwhm / (2.0 * np.sqrt(np.log(2.0)))
    target = gaussian_spectrum(omega_w, FrequencyGrid.spanning(3.0 * fwhm, 513))
    model = PhaseNoiseModel(diffusion=0.0, shaping=target, seed=8)
    dt = 1.0e-7
    n = 16384
    acc = None
    n_real = 100
    for r in range(n_real):
        s = periodogram(synthesize_probe_field(model, 1.0, dt, n, realization=r), dt)
        acc = s.density if acc is None else acc + s.density
    mean = type(s)(s.grid, acc / n_real)
    # per-bin noise defeats the half-max initializer; give a coarse guess
    init = FitResult("gaussian", 0.0, 2.0 * omega_w, float(mean.density.max()), 0.0)
    fit = fit_lineshape(mean, "gaussian", init=init)
    assert abs(fit.fwhm - fwhm) < 0.05 * fwhm


def test_shaping_beyond_nyquist_rejected():
    target = gaussian_spectrum(1.0e6, FrequencyGrid.spanning(5.0e6, 65))
    model = PhaseNoiseModel(diffusion=0.0, shaping=target, seed=0)
    with pytest.raises(InvalidParameterError):
        synthesize_probe_field(model, 1.0, dt=1.0e-5, n=64)


def test_diffusion_beside_a_shaping_rejected():
    """A shaped model draws its spectrum from the shaping alone, so a
    nonzero diffusion beside it would be dropped without a word."""
    target = gaussian_spectrum(1.0e6, FrequencyGrid.spanning(5.0e6, 65))
    with pytest.raises(InvalidParameterError):
        PhaseNoiseModel(diffusion=1.0e4, shaping=target)
    PhaseNoiseModel(diffusion=0.0, shaping=target)
    PhaseNoiseModel(diffusion=1.0e4)


def test_stationarity_of_halves():
    """Mean power of the first and second halves of an ensemble agree
    within three standard errors."""
    model = PhaseNoiseModel(diffusion=5.0e3, seed=13)
    dt = 1.0e-5
    n = 4096
    n_real = 64
    first = np.empty(n_real)
    second = np.empty(n_real)
    for r in range(n_real):
        env = synthesize_probe_field(model, 1.0, dt, n, realization=r)
        first[r] = np.mean(np.abs(env[: n // 2]) ** 2)
        second[r] = np.mean(np.abs(env[n // 2 :]) ** 2)
    diff = first - second
    se = np.std(diff) / np.sqrt(n_real) + 1e-30
    assert abs(np.mean(diff)) < 3.0 * se


def test_bit_identical_determinism():
    model = PhaseNoiseModel(diffusion=3.0e4, seed=77)
    a = synthesize_probe_field(model, 1.0, 1e-6, 1000, realization=5)
    b = synthesize_probe_field(model, 1.0, 1e-6, 1000, realization=5)
    c = synthesize_probe_field(model, 1.0, 1e-6, 1000, realization=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_realization_streams_are_independent():
    x = realization_rng(42, 0).normal(size=8)
    y = realization_rng(42, 1).normal(size=8)
    z = realization_rng(42, 0).normal(size=8)
    assert np.array_equal(x, z)
    assert not np.array_equal(x, y)
