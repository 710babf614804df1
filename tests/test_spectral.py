"""Grids, model lineshapes, FWHM estimation and transform pairs."""

import tracemalloc

import numpy as np
import pytest

from eitnarrow.errors import (
    InvalidParameterError,
    MultimodalSpectrumError,
    TruncationWarning,
    UnresolvedWidthError,
)
from eitnarrow.noise import PhaseNoiseModel, synthesize_probe_field
from eitnarrow.spectral import (
    GAUSSIAN_FWHM_FACTOR,
    _chirp_sum,
    CorrelationFunction,
    FrequencyGrid,
    Spectrum,
    correlation_to_spectrum,
    fwhm_estimate,
    gaussian_spectrum,
    lorentzian_spectrum,
    periodogram,
    spectrum_to_correlation,
)

TWO_PI = 2.0 * np.pi


def test_centered_grid_is_symmetric():
    grid = FrequencyGrid.centered(step=1.5, count=101)
    w = grid.omegas
    assert np.allclose(w, -w[::-1])
    assert w[50] == 0.0


def test_grid_invariants():
    with pytest.raises(InvalidParameterError):
        FrequencyGrid(start=0.0, step=0.0, count=100)
    with pytest.raises(InvalidParameterError):
        FrequencyGrid(start=0.0, step=1.0, count=4)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: FrequencyGrid(0.0, float("nan"), 10), id="grid-nan-step"),
        pytest.param(lambda: FrequencyGrid(0.0, float("inf"), 10), id="grid-inf-step"),
        pytest.param(lambda: FrequencyGrid(float("inf"), 1.0, 10), id="grid-inf-start"),
        pytest.param(lambda: FrequencyGrid(float("nan"), 1.0, 10), id="grid-nan-start"),
        pytest.param(lambda: FrequencyGrid(0.0, 1.0, 10.5), id="grid-fractional-count"),
        pytest.param(lambda: FrequencyGrid(0.0, 1.0, 10.0), id="grid-float-count"),
        pytest.param(lambda: CorrelationFunction(float("nan"), np.ones(4)), id="lag-nan-step"),
        pytest.param(lambda: CorrelationFunction(float("inf"), np.ones(4)), id="lag-inf-step"),
        pytest.param(
            lambda: synthesize_probe_field(PhaseNoiseModel(0.0), 1.0, float("nan"), 4),
            id="series-nan-dt",
        ),
        pytest.param(
            lambda: synthesize_probe_field(PhaseNoiseModel(0.0), 1.0, float("inf"), 4),
            id="series-inf-dt",
        ),
    ],
)
def test_containers_reject_non_finite_steps_and_fractional_counts(make):
    with pytest.raises(InvalidParameterError):
        make()


def test_grid_count_accepts_numpy_integers():
    assert FrequencyGrid(0.0, 1.0, np.int64(10)).omegas.size == 10


def test_gaussian_peak_and_unit_offset():
    grid = FrequencyGrid.centered(step=0.25, count=65)
    s = gaussian_spectrum(4.0, grid)
    assert s.density[32] == 1.0
    # omega = +/- omega_w -> 1/e
    i = np.argmin(np.abs(grid.omegas - 4.0))
    assert s.density[i] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_gaussian_fwhm_factor():
    omega_w = 2.0 * np.pi * 588.5e3
    grid = FrequencyGrid.spanning(4.0 * omega_w, 4001)
    s = gaussian_spectrum(omega_w, grid)
    est = fwhm_estimate(s)
    assert abs(est - GAUSSIAN_FWHM_FACTOR * omega_w) < grid.step
    # the derived input width: omega_w = FWHM/(2 sqrt(ln 2)) with FWHM 980 kHz
    assert est == pytest.approx(TWO_PI * 980e3, rel=1e-3)


def test_lorentzian_peak_half_max_and_fwhm():
    gamma = TWO_PI * 4.6e3
    grid = FrequencyGrid.spanning(40.0 * gamma, 8001)
    s = lorentzian_spectrum(gamma, grid)
    assert s.density.max() == 1.0
    i = np.argmin(np.abs(grid.omegas - gamma))
    assert s.density[i] == pytest.approx(0.5, abs=1e-3)
    assert abs(fwhm_estimate(s) - 2.0 * gamma) < grid.step
    assert fwhm_estimate(s) == pytest.approx(TWO_PI * 9.2e3, rel=1e-3)


def test_model_constructors_reject_nonpositive_width():
    grid = FrequencyGrid.centered(step=1.0, count=16)
    with pytest.raises(InvalidParameterError):
        gaussian_spectrum(0.0, grid)
    with pytest.raises(InvalidParameterError):
        lorentzian_spectrum(-1.0, grid)


def test_fwhm_estimate_flat_spectrum_unresolved():
    grid = FrequencyGrid.centered(step=1.0, count=32)
    with pytest.raises(UnresolvedWidthError):
        fwhm_estimate(Spectrum(grid, np.ones(32)))


def test_fwhm_estimate_multimodal():
    grid = FrequencyGrid.centered(step=0.1, count=201)
    w = grid.omegas
    two_peaks = np.exp(-((w - 5.0) ** 2)) + np.exp(-((w + 5.0) ** 2))
    with pytest.raises(MultimodalSpectrumError):
        fwhm_estimate(Spectrum(grid, two_peaks))


def test_fwhm_estimate_edge_peak_with_a_bump_is_unresolved():
    """A peak region that reaches the grid edge leaves the width
    unresolved even when an interior bump also rises above half maximum;
    two interior peaks stay multimodal."""
    grid = FrequencyGrid.centered(step=0.1, count=201)
    w = grid.omegas
    edge_and_bump = np.exp(-(((w + 9.0) / 3.0) ** 2)) + 0.8 * np.exp(-((w - 5.0) ** 2))
    assert np.argmax(edge_and_bump) not in (0, w.size - 1)
    assert edge_and_bump[0] > edge_and_bump.max() / 2.0
    with pytest.raises(UnresolvedWidthError):
        fwhm_estimate(Spectrum(grid, edge_and_bump))
    two_peaks = np.exp(-((w - 5.0) ** 2)) + 0.8 * np.exp(-((w + 5.0) ** 2))
    with pytest.raises(MultimodalSpectrumError):
        fwhm_estimate(Spectrum(grid, two_peaks))


def test_gaussian_correlation_pair():
    omega_w = 3.0e4
    grid = FrequencyGrid.spanning(8.0 * omega_w, 2001)
    s = gaussian_spectrum(omega_w, grid)
    taus = np.linspace(0.0, 6.0 / omega_w, 40)
    r = spectrum_to_correlation(s, taus[1], taus.size)
    expected = np.abs(r.values[0]) * np.exp(-(omega_w**2) * r.lags**2 / 4.0)
    assert np.allclose(np.abs(r.values), expected, atol=1e-6 * abs(r.values[0]))


def test_lorentzian_correlation_pair():
    gamma = 2.0e3
    grid = FrequencyGrid.spanning(4000.0 * gamma, 400001)
    s = lorentzian_spectrum(gamma, grid)
    r = spectrum_to_correlation(s, 0.1 / gamma, 30)
    expected = np.abs(r.values[0]) * np.exp(-gamma * r.lags)
    assert np.allclose(np.abs(r.values), expected, rtol=2e-3)


def test_zero_spectrum_zero_correlation():
    grid = FrequencyGrid.centered(step=1.0, count=64)
    r = spectrum_to_correlation(Spectrum(grid, np.zeros(64)), 0.01, 16)
    assert np.all(r.values == 0)


def test_truncation_warning_on_wide_density():
    grid = FrequencyGrid.centered(step=1.0, count=64)
    with pytest.warns(TruncationWarning):
        spectrum_to_correlation(Spectrum(grid, np.ones(64)), 0.01, 16)


def _dense_sum(v, x0, dx, y0, dy, m, sign):
    # oracle: the direct sum through the dense phase matrix
    x = x0 + dx * np.arange(len(v))
    y = y0 + dy * np.arange(m)
    return np.exp(sign * 1j * np.outer(y, x)) @ v


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize(
    "n, m, x0, y0",
    [
        pytest.param(64, 257, 0.0, 0.0, id="even-n<m"),
        pytest.param(301, 40, -1.5e5, 0.0, id="odd-even-n>m"),
        pytest.param(127, 1001, -3.0e5, -2.5e-4, id="odd-n<m-offsets"),
        pytest.param(1200, 333, 0.0, 1.7e-5, id="even-odd-n>m-offsets"),
    ],
)
def test_chirp_sum_matches_the_dense_sum(n, m, x0, y0, sign):
    rng = np.random.default_rng(n + m)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    dx = 2.0 * abs(x0) / (n - 1) if x0 else 731.0
    dy = np.pi / (8.0 * (abs(x0) + n * dx))
    fast = _chirp_sum(v, x0, dx, y0, dy, m, sign)
    dense = _dense_sum(v, x0, dx, y0, dy, m, sign)
    assert fast.shape == (m,)
    assert np.max(np.abs(fast - dense)) <= 1e-10 * np.max(np.abs(dense))


def _dense_sum_long_double(v, x0, dx, y0, dy, rows, sign):
    # oracle in extended precision on the sampled output rows
    ld = np.longdouble
    x = ld(x0) + ld(dx) * np.arange(len(v), dtype=ld)
    re, im = v.real.astype(ld), v.imag.astype(ld)
    out = np.empty(len(rows), dtype=complex)
    for i, j in enumerate(rows):
        phase = sign * x * (ld(y0) + ld(dy) * ld(j))
        c, s = np.cos(phase), np.sin(phase)
        out[i] = complex(float(np.sum(re * c - im * s)), float(np.sum(re * s + im * c)))
    return out


@pytest.mark.parametrize("n, m", [(1201, 10391), (10391, 1201)])
def test_chirp_sum_accuracy_at_the_validate_scale(n, m):
    """The validate grids: 1201 frequencies and 10 391 lags, both ways
    round.  Forming the chirp's phase from the exact integers k^2 keeps
    the error near 1e-12 of the largest output, where a chirp raised to
    the power k^2/2 in complex arithmetic reached 1e-10."""
    rng = np.random.default_rng(n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    x0 = -6.0e5
    dx = 2.0 * abs(x0) / (n - 1)
    dy = np.pi / (8.0 * abs(x0))
    y0 = -(m // 2) * dy
    fast = _chirp_sum(v, x0, dx, y0, dy, m, -1)
    rows = rng.choice(m, 250, replace=False)
    dense = _dense_sum_long_double(v, x0, dx, y0, dy, rows, -1)
    assert np.max(np.abs(fast[rows] - dense)) <= 1e-11 * np.max(np.abs(fast))


def test_lag_transform_memory_stays_linear():
    """One spectrum_to_correlation call at the validate scale (1201
    frequencies, 10 391 lags): the dense phase matrix alone would take
    about 200 MB, the chirp-z evaluation under 1 MB."""
    grid = FrequencyGrid.spanning(6.0e5, 1201)
    s = gaussian_spectrum(1.0e5, grid)
    dtau = np.pi / (8.0 * abs(grid.omegas[-1]))
    tracemalloc.start()
    try:
        r = spectrum_to_correlation(s, dtau, 10391)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.values.size == 10391
    assert peak < 20e6


def test_round_trip_gaussian():
    omega_w = 1.0e5
    grid = FrequencyGrid.spanning(8.0 * omega_w, 1501)
    s = gaussian_spectrum(omega_w, grid)
    dtau = np.pi / (8.0 * abs(grid.omegas[-1]))
    n = int(np.ceil(16.0 / (omega_w * dtau)))
    r = spectrum_to_correlation(s, dtau, n)
    back = correlation_to_spectrum(r, grid)
    assert np.max(np.abs(back.density - s.density)) < 1e-6


def test_parseval():
    omega_w = 1.0e5
    grid = FrequencyGrid.spanning(8.0 * omega_w, 1501)
    s = gaussian_spectrum(omega_w, grid)
    r = spectrum_to_correlation(s, 1e-7, 8)
    assert abs(r.values[0].real - s.integral()) < 1e-8 * s.integral()


def test_constant_correlation_is_a_line_at_zero():
    r = CorrelationFunction(1e-3, np.ones(64, dtype=complex))
    grid = FrequencyGrid.spanning(2e4, 201)
    with pytest.warns(TruncationWarning):
        s = correlation_to_spectrum(r, grid)
    assert np.argmax(s.density) == 100


def test_exponential_correlation_gives_lorentzian():
    gamma = 1.0e3
    dtau = 1e-5
    n = 2000
    taus = dtau * np.arange(n)
    r = CorrelationFunction(dtau, np.exp(-gamma * taus).astype(complex))
    grid = FrequencyGrid.spanning(20.0 * gamma, 801)
    s = correlation_to_spectrum(r, grid)
    expected = (1.0 / np.pi) * gamma / (grid.omegas**2 + gamma**2)
    assert np.allclose(s.density, expected, atol=2e-3 * expected.max())


def test_periodogram_normalization_and_windows():
    rng = np.random.default_rng(3)
    x = rng.normal(size=512) + 1j * rng.normal(size=512)
    dt = 1e-4
    for window in ("boxcar", "hann"):
        s = periodogram(x, dt, window=window)
        # density integral ~ (window-weighted) mean power
        assert s.integral() == pytest.approx(np.mean(np.abs(x) ** 2), rel=0.2)
    with pytest.raises(InvalidParameterError):
        periodogram(x, dt, window="flat-top")


def test_hann_periodogram_matches_a_fresh_window():
    """The Hann window is built once per length: repeated calls at
    several lengths give the bytes of a window built on the spot."""
    rng = np.random.default_rng(5)
    dt = 1e-4
    for n in (512, 513, 512):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = np.hanning(n)
        spec = np.fft.fftshift(np.fft.fft(x * w))
        expected = (np.abs(spec) ** 2) * dt / (2.0 * np.pi * np.sum(w**2))
        assert np.array_equal(periodogram(x, dt, window="hann").density, expected)


def test_spectrum_rejects_negative_density():
    grid = FrequencyGrid.centered(step=1.0, count=16)
    with pytest.raises(InvalidParameterError):
        Spectrum(grid, np.full(16, -1.0))
