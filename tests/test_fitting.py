"""Lineshape fitting: exact recovery, model discrimination, the Newton
path's derivatives and convergence, line fits."""

from dataclasses import replace

import numpy as np
import pytest

from eitnarrow import fitting
from eitnarrow.config import load_config
from eitnarrow.errors import FitFailedError, InvalidParameterError, MultimodalSpectrumError
from eitnarrow.fitting import _MODELS, _SYM, fit_lineshape, linear_fit
from eitnarrow.spectral import (
    FrequencyGrid,
    Spectrum,
    fwhm_estimate,
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


@pytest.mark.parametrize("model", ["gaussian", "lorentzian"])
def test_fwhm_is_a_python_float(model):
    """Either model's FWHM is a Python float, so its ``repr`` is the
    plain number the sidecars record."""
    grid = FrequencyGrid.spanning(8.0, 201)
    fit = fit_lineshape(gaussian_spectrum(1.0, grid), model)
    assert type(fit.fwhm) is float
    assert repr(fit.fwhm) == str(fit.fwhm)


def test_recovery_survives_small_noise():
    rng = np.random.default_rng(11)
    gamma = 1.0e4
    grid = FrequencyGrid.spanning(25.0 * gamma, 601)
    clean = lorentzian_spectrum(gamma, grid).density
    noisy = np.clip(clean + rng.normal(0.0, 1e-3, clean.size), 0.0, None)
    fit = fit_lineshape(Spectrum(grid, noisy), "lorentzian")
    assert fit.width == pytest.approx(gamma, rel=5e-3)
    assert fit.rms_residual < 5e-3


def test_a_stray_spike_above_half_maximum_does_not_stop_the_fit():
    """The fit seeds its width from the half-max region around the peak,
    so a one-bin spike above half maximum elsewhere, which the half-max
    estimate refuses as a second region, leaves the fit to the line."""
    gamma = 1.0e4
    grid = FrequencyGrid.spanning(20.0 * gamma, 801)
    spike = np.where(np.abs(grid.omegas - 6.0 * gamma) < grid.step / 2.0, 0.8, 0.0)
    spiky = Spectrum(grid, lorentzian_spectrum(gamma, grid).density + spike)
    with pytest.raises(MultimodalSpectrumError):
        fwhm_estimate(spiky)
    assert fit_lineshape(spiky, "lorentzian").width == pytest.approx(gamma, rel=1e-2)


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


def test_cross_model_fit_stops_at_the_cost_rounding(monkeypatch):
    """The Lorentzian fit of the Gaussian line above stops once its
    Newton step's predicted decrease is below the cost's rounding,
    within 8 model evaluations, instead of halving that step 14 times
    (20 evaluations)."""
    calls = []
    lorentzian = _MODELS["lorentzian"]

    def counted(*args):
        calls.append(args)
        return lorentzian(*args)

    monkeypatch.setitem(_MODELS, "lorentzian", counted)
    grid = FrequencyGrid.spanning(8.0e4, 501)
    fit = fit_lineshape(gaussian_spectrum(1.0e4, grid), "lorentzian")
    assert 1 <= len(calls) <= 8
    assert fit.rms_residual > 1e-3


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


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_second_derivatives_match_differenced_jacobian(model):
    """Each point's analytic 3 x 3 second derivatives equal central
    differences of the analytic Jacobian, at the centre, off it and far in
    the wings."""
    fun = _MODELS[model]
    p = np.array([1.3, 4.0e3, 2.1e4])
    w = p[1] + p[2] * np.array([0.0, 0.37, -0.81, 1.9, -3.3, 6.2])
    hess = fun(w, *p)[2][_SYM]  # (3, 3, points)
    steps = 1e-6 * np.array([p[0], p[2], p[2]])
    for k, h in enumerate(steps):
        e = np.zeros(3)
        e[k] = h
        differenced = (fun(w, *(p + e))[1] - fun(w, *(p - e))[1]) / (2 * h)
        scale = np.abs(hess).max(axis=(0, 1))
        assert np.all(np.abs(differenced - hess[:, k]) <= 1e-7 * scale)


@pytest.fixture(scope="module")
def output_line():
    """The default config's transmitted line and its fit, as ``figure2``
    and ``propagate`` make them."""
    cfg = load_config()
    _, s_out, fit = cfg.output_line(cfg.fields, cfg.output_grid())
    return s_out, fit


def test_output_line_fit_is_independent_of_the_start(output_line):
    """The output line is not a Lorentzian, so a Gauss-Newton loop
    converges only linearly and stops 7e-11 from where another start
    stops; Newton steps converge to the same width from both."""
    s_out, fit = output_line
    start = replace(fit, amplitude=0.98 * fit.amplitude, width=1.02 * fit.width)
    other = fit_lineshape(s_out, "lorentzian", init=start)
    assert abs(other.width - fit.width) <= 1e-12 * fit.width


def test_output_line_fit_takes_few_model_evaluations(monkeypatch):
    """Newton steps reach the default output line's optimum in 6 model
    evaluations, where a Gauss-Newton loop takes 16."""
    calls = []
    lorentzian = _MODELS["lorentzian"]

    def counted(*args):
        calls.append(args)
        return lorentzian(*args)

    monkeypatch.setitem(_MODELS, "lorentzian", counted)
    cfg = load_config()
    cfg.output_line(cfg.fields, cfg.output_grid())
    assert 1 <= len(calls) <= 8


def test_fit_out_of_iterations_raises_with_its_best_estimate(output_line, monkeypatch):
    """fit_lineshape's own non-convergence path carries the parameters it
    reached."""
    s_out, fit = output_line
    monkeypatch.setattr(fitting, "MAX_ITER", 1)
    with pytest.raises(FitFailedError, match="did not converge within 1 iterations") as info:
        fit_lineshape(s_out, "lorentzian")
    best = info.value.best
    assert best is not None
    values = (best.amplitude, best.center, best.width, best.rms_residual)
    assert np.isfinite(values).all() and best.width > 0
    assert abs(best.width - fit.width) < 0.5 * fit.width


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
