"""Lineshape fitting: exact recovery, model discrimination, line fits."""

import numpy as np
import pytest

from eitnarrow.errors import FitFailedError, InvalidParameterError
from eitnarrow.fitting import fit_lineshape, linear_fit
from eitnarrow.spectral import (
    FrequencyGrid,
    Spectrum,
    gaussian_spectrum,
    lorentzian_spectrum,
)

TWO_PI = 2.0 * np.pi


def test_gaussian_exact_recovery():
    omega_w = TWO_PI * 588.5e3
    center = 0.35 * omega_w
    grid = FrequencyGrid.centered(step=omega_w / 100.0, count=801)
    w = grid.omegas
    s = Spectrum(grid, 0.7 * np.exp(-(((w - center) / omega_w) ** 2)))
    fit = fit_lineshape(s, "gaussian")
    assert abs(fit.width - omega_w) <= 1e-6 * omega_w
    assert abs(fit.center - center) <= 1e-6 * omega_w
    assert abs(fit.amplitude - 0.7) <= 1e-6
    assert fit.rms_residual < 1e-10
    assert fit.fwhm == pytest.approx(2.0 * np.sqrt(np.log(2.0)) * omega_w)


def test_lorentzian_exact_recovery():
    gamma = TWO_PI * 4.6e3 / 2.0
    grid = FrequencyGrid.spanning(30.0 * gamma, 901)
    w = grid.omegas
    s = Spectrum(grid, 1.3 * gamma**2 / ((w - 0.5 * gamma) ** 2 + gamma**2))
    fit = fit_lineshape(s, "lorentzian")
    assert abs(fit.width - gamma) <= 1e-6 * gamma
    assert abs(fit.center - 0.5 * gamma) <= 1e-6 * gamma
    assert fit.fwhm == pytest.approx(2.0 * gamma, rel=1e-6)


def test_recovery_survives_small_noise():
    rng = np.random.default_rng(11)
    gamma = 1.0e4
    grid = FrequencyGrid.spanning(25.0 * gamma, 601)
    clean = lorentzian_spectrum(gamma, grid).density
    noisy = np.clip(clean + rng.normal(0.0, 1e-3, clean.size), 0.0, None)
    fit = fit_lineshape(Spectrum(grid, noisy), "lorentzian")
    assert fit.width == pytest.approx(gamma, rel=5e-3)
    assert fit.rms_residual < 5e-3


def test_cross_model_residual_discrimination():
    """A Gaussian line is fit much better by the Gaussian model and a
    Lorentzian line by the Lorentzian model."""
    grid = FrequencyGrid.spanning(8.0e4, 501)
    g = gaussian_spectrum(1.0e4, grid)
    lo = lorentzian_spectrum(1.0e4, grid)
    for s, own, other in ((g, "gaussian", "lorentzian"), (lo, "lorentzian", "gaussian")):
        r_own = fit_lineshape(s, own).rms_residual
        r_other = fit_lineshape(s, other).rms_residual
        assert r_own < 1e-8
        assert r_other > 10.0 * max(r_own, 1e-6)


def test_fit_input_validation():
    grid = FrequencyGrid.spanning(10.0, 64)
    s = gaussian_spectrum(2.0, grid)
    with pytest.raises(InvalidParameterError):
        fit_lineshape(s, "voigt")
    with pytest.raises(InvalidParameterError):
        fit_lineshape(Spectrum(grid, np.zeros(64)), "gaussian")


def test_fit_failure_carries_best_estimate():
    """A convergence failure still exposes the best parameters found."""
    grid = FrequencyGrid.spanning(10.0, 64)
    best = fit_lineshape(gaussian_spectrum(2.0, grid), "gaussian")
    err = FitFailedError("did not converge", best=best)
    assert err.best is best
    assert err.best.width > 0


def test_linear_fit_exact_line():
    x = np.linspace(0.0, 10.0, 12)
    slope, intercept, r2 = linear_fit(x, 3.5 * x - 2.0)
    assert slope == pytest.approx(3.5, rel=1e-12)
    assert intercept == pytest.approx(-2.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_linear_fit_r_squared_drops_with_scatter():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 50)
    y = x + rng.normal(0.0, 0.5, 50)
    _, _, r2 = linear_fit(x, y)
    assert r2 < 0.9
    with pytest.raises(InvalidParameterError):
        linear_fit(np.array([1.0]), np.array([2.0]))
