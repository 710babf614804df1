"""Spectrum and correlation propagation routes and their cross-checks."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitnarrow.propagation as propagation
from eitnarrow.checks import route_deviations
from eitnarrow.config import load_config
from eitnarrow.errors import InvalidParameterError, ResolutionError, TruncationWarning
from eitnarrow.kernels import g_sweep, g_sweep_coefficients
from eitnarrow.medium import (
    FieldConfig,
    _dynamic_exponent,
    complex_rates,
    coupling_eta,
    drive_for_target_width,
    optical_width,
    thick_filter_hwhm,
    transfer_exponent,
    transfer_hwhm,
    transmission,
    wing_transmission,
)
from eitnarrow.propagation import (
    adiabatic_rate_check,
    narrowing_factor,
    propagate_correlation,
    propagate_spectrum,
    thick_medium_spectrum,
)
from eitnarrow.spectral import (
    GAUSSIAN_FWHM_FACTOR,
    FrequencyGrid,
    Spectrum,
    fwhm_estimate,
    gaussian_spectrum,
    lorentzian_spectrum,
    spectrum_to_correlation,
)
from eitnarrow.spectral import _chirp_sum, _trapezoid_weights
from eitnarrow.fitting import fit_lineshape
from paper_params import TWO_PI, paper_medium
from test_spectral import _dense_sum_long_double


def paper_fields() -> FieldConfig:
    return FieldConfig(omega_d=drive_for_target_width(paper_medium(), TWO_PI * 4.6e3))


def paper_input(grid: FrequencyGrid) -> Spectrum:
    return gaussian_spectrum(TWO_PI * 980e3 / GAUSSIAN_FWHM_FACTOR, grid)


def _case_medium(case, doppler=True):
    """Medium and fields of one route-equivalence problem, in the
    Doppler-broadened medium or, with ``doppler`` false, the homogeneous
    one, each at the drive for a 4.6 kHz line: on resonance, with a
    ground decay of 0.2 times the power broadening, or with the probe
    detuned by 0.1 times the optical width (Delta_W or gamma_ab)."""
    m = paper_medium() if doppler else paper_medium(doppler_width=0.0)
    f = FieldConfig(omega_d=drive_for_target_width(m, TWO_PI * 4.6e3))
    if case == "decaying":
        m = replace(m, gamma_cb=0.2 * complex_rates(m, f).gamma_cb_eff.real)
    elif case == "detuned":
        f = replace(f, delta_p=0.1 * optical_width(m))
    return m, f


def _route_case(case="on-resonance", doppler=True):
    """One problem of the route-equivalence check, sized as
    ``checks.route_deviations`` sizes it: from h, the half width at half
    maximum of its own transfer, a grid of +-120 h on 1201 points and an
    input of FWHM 20 h."""
    m, f = _case_medium(case, doppler)
    h = transfer_hwhm(m, f)
    grid = FrequencyGrid.spanning(120.0 * h, 1201)
    return m, f, gaussian_spectrum(20.0 * h / GAUSSIAN_FWHM_FACTOR, grid)


def _route_lags(m, f, s):
    """The lag step, count and settling pad the route takes on ``s``."""
    exponent = transfer_exponent(m, f, s.omegas).real * m.length
    return propagation._auto_tau_grid(complex_rates(m, f), s.grid, exponent)


def test_zero_length_is_the_identity():
    m = paper_medium(length=0.0)
    grid = FrequencyGrid.spanning(TWO_PI * 5e6, 801)
    s = paper_input(grid)
    out = propagate_spectrum(m, paper_fields(), s)
    assert np.array_equal(out.density, s.density)


def test_paper_scale_narrowing():
    """A 980 kHz Gaussian input leaves the cell as a few-kHz line; the
    narrowing factor exceeds 100."""
    m = paper_medium()
    f = paper_fields()
    hwhm = thick_filter_hwhm(m, abs(f.omega_d) ** 2)
    grid = FrequencyGrid.spanning(12.0 * hwhm, 3001)
    out = propagate_spectrum(m, f, paper_input(grid))
    width = fwhm_estimate(out)
    assert width == pytest.approx(2.0 * hwhm, rel=0.2)
    assert narrowing_factor(TWO_PI * 980e3, width) > 100.0


def test_output_transfer_equals_exponent():
    m = paper_medium()
    f = paper_fields()
    grid = FrequencyGrid.spanning(TWO_PI * 200e3, 501)
    s = paper_input(grid)
    out = propagate_spectrum(m, f, s)
    kappa = transfer_exponent(m, f, s.omegas)
    assert np.allclose(out.density, s.density * np.exp(kappa.real * m.length))
    assert np.all(out.density <= s.density)  # passivity


# density N, and 2N: the coupling 2 eta of the Bloch reduction at N
@pytest.mark.parametrize("factor", [1.0, 2.0], ids=["paper", "derived"])
def test_thick_filter_center_wing_and_identity(factor):
    m = paper_medium(number_density=factor * paper_medium().number_density)
    f = paper_fields()
    osq = abs(f.omega_d) ** 2
    grid = FrequencyGrid.spanning(TWO_PI * 2e6, 2001)
    s = paper_input(grid)
    thick = thick_medium_spectrum(m, osq, s)
    # omega = 0 passes untouched
    assert thick.density[1000] == s.density[1000]
    # the wing limit is the bare resonant absorption exp(-c eta L / Delta_W)
    transfer = thick.density / np.maximum(s.density, 1e-300)
    assert transfer[0] == pytest.approx(wing_transmission(m, f), rel=1e-2)
    # identity with the full transfer at the same factor (gamma_cb = 0)
    full = propagate_spectrum(m, f, s)
    assert np.max(np.abs(thick.density - full.density)) < 1e-6 * full.density.max()


def test_correlation_route_rejects_zero_input():
    m = paper_medium()
    grid = FrequencyGrid.spanning(1e6, 201)
    with pytest.raises(InvalidParameterError):
        propagate_correlation(m, paper_fields(), Spectrum(grid, np.zeros(201)))


def test_correlation_route_rejects_an_undamped_coherence():
    """With no ground decay and no drive, Re Gamma_cb_eff = 0: the lag
    range, and the settling pad that follows from it, have no scale."""
    grid = FrequencyGrid.spanning(1e6, 200)  # even count: omega = 0 is off the grid
    s = gaussian_spectrum(2e5, grid)
    with pytest.raises(InvalidParameterError, match="cannot choose a lag range automatically"):
        propagate_correlation(paper_medium(gamma_cb=0.0), FieldConfig(omega_d=0.0), s)


def _dense_propagator(m, f, slave_row, sweep, size):
    """exp(L M) for the cell length L, as a real 2n x 2n matrix acting on
    (Re R, Im R): M is the real-linear z-derivative of the route, built
    column by column, and the exponential is scipy's scaling and squaring
    of a Pade approximant (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31, 970 (2009))."""
    from scipy.linalg import expm  # the package itself runs on numpy alone

    rates = complex_rates(m, f)
    nfac = rates.n_factor
    b_pump = rates.gamma_cb_eff - m.gamma_cb
    pref = 0.5 * coupling_eta(m)

    def derivative(r):
        g = g_sweep(r, slave_row @ r, sweep, 1.0)
        h = np.conj(g[::-1])
        return pref * ((nfac * r - b_pump * g) + (np.conj(nfac) * r - np.conj(b_pump) * h))

    mat = np.empty((2 * size, 2 * size))
    for k in range(2 * size):
        e = np.zeros(size, dtype=complex)
        e[k % size] = 1.0 if k < size else 1j
        d = derivative(e)
        mat[:size, k] = d.real
        mat[size:, k] = d.imag
    return expm(m.length * mat)


def _small_case(case):
    m, f = _case_medium(case)
    broadening = complex_rates(paper_medium(), paper_fields()).gamma_cb_eff.real
    grid = FrequencyGrid.spanning(40.0 * broadening, 201)
    s = gaussian_spectrum(6.0 * broadening / GAUSSIAN_FWHM_FACTOR, grid)
    return m, f, s


def _small_dtau(s):
    """The lag step of a small case, a quarter of its grid's Nyquist step:
    its grid resolves the transfer by fewer than ``MIN_STEPS_PER_FWHM``
    steps, which ``_auto_tau_grid`` refuses, but the z-march is exact for
    the lag system it is given."""
    return np.pi / (4.0 * abs(s.grid.start))


def _march_args(m, f, s):
    """The z-march arguments of a small case: the input correlation on
    301 lags, r0, and kappa on the input grid last."""
    rates = complex_rates(m, f)
    dtau = _small_dtau(s)
    half, slave_row = propagation._lag_rows(rates, s, dtau, 151)
    r0 = np.concatenate([np.conj(half[:0:-1]), half])
    sweep = g_sweep_coefficients(rates.gamma_cb_eff, rates.n_factor, dtau, r0.size)
    return m, rates, slave_row, sweep, r0, transfer_exponent(m, f, s.omegas)


def _small_march(m, f, s):
    """``_march_args`` and the exact R at z = L."""
    march = _march_args(m, f, s)
    _, _, slave_row, sweep, r0, _ = march
    exact = _dense_propagator(m, f, slave_row, sweep, r0.size) @ np.concatenate([r0.real, r0.imag])
    return march, exact[: r0.size] + 1j * exact[r0.size :]


@pytest.mark.parametrize(
    "case, stretch",
    [("on-resonance", 1), ("decaying", 1), ("detuned", 1), ("decaying", 12)],
    ids=["on-resonance", "decaying", "detuned", "decaying-12-steps"],
)
def test_taylor_march_matches_the_dense_exponential(case, stretch):
    """The z-march, one Chebyshev series over the cell, agrees with the
    exact propagator exp(L M) within 1e-10 of |R(0)| at z = L; its
    residual (the series' last two terms and its rounding bound) bounds
    that error and stays below 1e-10 itself.  Unstretched, the error is
    at most 3.5e-15 and the residual at most 7.9e-14; stretched 12-fold (rho =
    32.5), the decaying case's R(0) falls by 5e-10 and the error is
    6.3e-13 against a residual of 5.1e-11."""
    m, f, s = _small_case(case)
    m = replace(m, length=stretch * m.length)
    march, r_ref = _small_march(m, f, s)
    r0 = march[4]
    center = r0.size // 2
    r, residual = propagation._integrate_correlation(*march)
    assert abs(r_ref[center]) < 0.99 * abs(r0[center])  # the march did work
    error = np.max(np.abs(r - r_ref)) / abs(r_ref[center])
    assert error <= residual <= 1e-10


def test_march_with_gain_and_loss_matches_the_dense_exponential():
    """With half the atoms in the excited state, the probe detuned by
    Delta_W and the drive by 0.3 Delta_W, Re kappa L takes both signs on
    the input grid (-1.15 to +3.25) and over every frequency, [lo, hi] L
    = [-1.16, 3.25], so the series is centred off zero.  R(0) grows
    12.9-fold over the cell, and the march matches the exact propagator
    within its residual (6.3e-15 against 6.7e-14)."""
    m, f, s = _small_case("on-resonance")
    f = replace(f, rho_aa=0.5, delta_p=m.doppler_width, delta_ac=0.3 * m.doppler_width)
    re_kappa = transfer_exponent(m, f, s.omegas).real
    lo, hi = propagation._exponent_range(m, complex_rates(m, f))
    assert lo <= np.min(re_kappa) < 0.0 < np.max(re_kappa) <= hi
    assert 0.5 * (lo + hi) * m.length > 0.5
    march, r_ref = _small_march(m, f, s)
    r0 = march[4]
    center = r0.size // 2
    r, residual = propagation._integrate_correlation(*march)
    assert abs(r_ref[center]) > 1.01 * abs(r0[center])
    error = np.max(np.abs(r - r_ref)) / abs(r_ref[center])
    assert error <= residual <= 1e-10


def test_z_march_refuses_an_output_that_underflows():
    """Stretched 800-fold, the decaying case's R(0) falls past the
    smallest double: e^(hi L) = e^-867 underflows to 0, and the march,
    reading R(0) after that factor, raises ``ResolutionError`` before it
    divides by |R(0)|, so no invalid-value warning is raised.  The 151
    one-sided lags span 150 dtau, too short a window to resolve the
    narrowed line, so R(0) falls faster than the e^(max Re kappa L) of
    the input grid."""
    m, f, s = _small_case("decaying")
    m = replace(m, length=800 * m.length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError, match="underflows"):
            propagation._integrate_correlation(*_march_args(m, f, s))


@pytest.mark.parametrize(
    "rho", [0.0, 1e-3, 3.25, 510.0, 5000.0, propagation.MAX_REACH],
    ids=["0", "1e-3", "3.25", "510", "5000", "max-reach"],
)
def test_chebyshev_coefficients_reproduce_the_exponential(rho):
    """The coefficients sum e^(rho (x - 1)) on [-1, 1] within 1e-13,
    summed in long double so that only their own error shows (1.7e-14 at
    most, at ``MAX_REACH``); each is positive, they sum to 1, and their
    count grows as sqrt(rho), at most 20 + 10 sqrt(rho): 963 at
    ``MAX_REACH``."""
    coeffs = propagation._chebyshev_coefficients(rho)
    x = np.cos(np.linspace(0.0, np.pi, 20001)).astype(np.longdouble)
    series = np.polynomial.chebyshev.chebval(x, coeffs.astype(np.longdouble))
    assert np.max(np.abs(series - np.exp(rho * (x - 1)))) <= 1e-13
    assert np.all(coeffs > 0)
    assert abs(np.sum(coeffs) - 1.0) <= 1e-14
    assert coeffs.size <= 20.0 + 10.0 * np.sqrt(rho)


@pytest.mark.parametrize("doppler", [True, False], ids=["doppler", "homogeneous"])
@pytest.mark.parametrize("case", ["on-resonance", "detuned", "decaying"])
def test_exponent_range_covers_every_frequency(case, doppler):
    """The closed-form [lo, hi] holds Re kappa on 4e5 frequencies that
    cover the whole real line, omega = Im Gamma + |Gamma| tan(theta),
    and the scan reaches both ends within 1e-9 of the range: the range
    of the operator the series expands, not only of an input grid.  In
    the homogeneous detuned problem lo L is -1021, where the route's own
    input grid reads -974 and the limit omega -> infinity, eta Re nfac L,
    -1011."""
    m, f = _case_medium(case, doppler)
    rates = complex_rates(m, f)
    lo, hi = propagation._exponent_range(m, rates)
    gamma = rates.gamma_cb_eff
    theta = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 400001)[1:-1]
    re_kappa = transfer_exponent(m, f, gamma.imag + abs(gamma) * np.tan(theta)).real
    scale = max(abs(lo), abs(hi))
    assert lo - 1e-12 * scale <= np.min(re_kappa) <= lo + 1e-9 * scale
    assert hi - 1e-9 * scale <= np.max(re_kappa) <= hi + 1e-12 * scale
    if case == "detuned" and not doppler:
        assert round(lo * m.length) == -1021
        grid = _route_case(case, doppler)[2].omegas
        wing = coupling_eta(m) * rates.n_factor.real
        assert min(np.min(transfer_exponent(m, f, grid).real), wing) * m.length > -1015.0


def test_z_march_refuses_a_nan_residual(monkeypatch):
    """The residual guard is written so that NaN fails it."""
    real = propagation._integrate_correlation
    monkeypatch.setattr(propagation, "_integrate_correlation",
                        lambda *a: (real(*a)[0], float("nan")))
    m, f, s = _route_case()
    with pytest.raises(ResolutionError, match="residual nan"):
        propagate_correlation(m, f, s)


def test_input_correlation_is_hermitian(monkeypatch):
    """The route transforms only the lags tau >= 0 and mirrors them:
    R(-tau) = R*(tau) holds bit for bit.  On 300 lags the result agrees
    with a long-double direct sum within 1e-13 of R(0) (5.9e-15 measured),
    and everywhere with the two-sided chirp sum within 2e-12 of R(0),
    which is that sum's own rounding (2.3e-13 from the direct sum)."""
    args = []
    real = propagation._integrate_correlation
    monkeypatch.setattr(propagation, "_integrate_correlation",
                        lambda *a: args.append(a) or real(*a))
    m, f, s = _route_case()
    propagate_correlation(m, f, s)
    r0 = args[-1][4]
    assert np.array_equal(r0[::-1], np.conj(r0))
    center = r0.size // 2
    dtau, _, _ = _route_lags(m, f, s)
    g = s.grid
    weights = _trapezoid_weights(g.count, g.step) * s.density
    two_sided = _chirp_sum(weights, g.start, g.step, -center * dtau, dtau, r0.size, -1)
    rows = np.random.default_rng(0).choice(r0.size, 300, replace=False)
    direct = _dense_sum_long_double(weights, g.start, g.step, -center * dtau, dtau, rows, -1)
    assert np.max(np.abs(r0[rows] - direct)) <= 1e-13 * abs(r0[center])
    assert np.max(np.abs(r0 - two_sided)) <= 2e-12 * abs(r0[center])


def _slave_weights(rates, g):
    # the trapezoid-weighted nfac/(gtilde - i omega) of the slaved row
    return _trapezoid_weights(g.count, g.step) * rates.n_factor / (rates.gamma_cb_eff - 1j * g.omegas)


@pytest.mark.parametrize("case", ["on-resonance", "decaying", "detuned"])
def test_slave_row_from_two_half_length_rows(case):
    """The slaved-initial-condition row, assembled from two one-sided
    rows at ``total`` lags, matches the oracle, one transform at all
    2*total - 1 lags tau_0 + j*dtau with the phases e^{-i omega tau_0}
    and e^{i omega tau_j} combined into e^{i omega j dtau}, within 1e-12
    of its largest entry (1e-14 measured); its input row is
    ``spectrum_to_correlation`` bit for bit.  At the route's own 1 050
    to 1 065 one-sided lags the two differ by up to 2.7e-13 of the row's
    largest entry, and each lies within 1.5e-13 of a long-double direct
    sum: the assembled row 9.6e-14 to 1.4e-13, the oracle 7.7e-14 to
    8.2e-14."""
    m, f, s = _small_case(case)
    rates = complex_rates(m, f)
    dtau = _small_dtau(s)
    half, row = propagation._lag_rows(rates, s, dtau, 151)
    assert np.array_equal(half, spectrum_to_correlation(s, dtau, 151).values)
    g = s.grid
    w_tau = _trapezoid_weights(row.size, dtau) / (2.0 * np.pi)
    oracle = _chirp_sum(_slave_weights(rates, g), g.start, g.step, 0.0, dtau, row.size, 1) * w_tau
    assert np.max(np.abs(row - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    m, f, s = _route_case(case)
    rates = complex_rates(m, f)
    dtau, count, pad = _route_lags(m, f, s)
    _, row = propagation._lag_rows(rates, s, dtau, count + pad)
    g = s.grid
    w_tau = _trapezoid_weights(row.size, dtau) / (2.0 * np.pi)
    lags = np.random.default_rng(0).choice(row.size, 200, replace=False)
    direct = _dense_sum_long_double(_slave_weights(rates, g), g.start, g.step, 0.0, dtau, lags, 1)
    assert np.max(np.abs(row[lags] - direct * w_tau[lags])) <= 1e-12 * np.max(np.abs(row))


def test_correlation_route_makes_one_lag_transform(monkeypatch):
    """One propagate_correlation makes one ``_chirp_sum`` call: the input
    correlation and both halves of the slaved-initial-condition row are
    the rows of one batch."""
    calls = []

    def counting(*args):
        calls.append(np.shape(args[0]))
        return _chirp_sum(*args)

    monkeypatch.setattr(propagation, "_chirp_sum", counting)
    m, f, s = _route_case()
    propagate_correlation(m, f, s)
    assert calls == [(3, s.grid.count)]


@pytest.mark.parametrize(
    "points, match",
    [(401, "3.40 steps per fwhm, fewer than 4"), (801, "does not fit inside the input grid's period")],
    ids=["under-resolved", "lag-range-beyond-period"],
)
def test_correlation_route_refuses_an_unresolved_problem(monkeypatch, points, match):
    """On the route problem's span of +-120 h, 401 points resolve the
    transfer's FWHM by 3.3 steps (3.40 as read off the grid's own
    points), fewer than ``MIN_STEPS_PER_FWHM``; 801
    points resolve it by 6.7, but the grid's period 2 pi/domega = 20.9/h
    is shorter than the two-sided lag range, 24/h and the settling pad
    10/Re Gamma_cb_eff (27.5/h).  Each raises ResolutionError before any
    lag transform or lag sweep."""
    calls = []
    monkeypatch.setattr(propagation, "_chirp_sum", lambda *args: calls.append(args))
    monkeypatch.setattr(propagation, "g_sweep", lambda *args: calls.append(args))
    m, f = _case_medium("on-resonance")
    h = transfer_hwhm(m, f)
    s = gaussian_spectrum(20.0 * h / GAUSSIAN_FWHM_FACTOR, FrequencyGrid.spanning(120.0 * h, points))
    with pytest.raises(ResolutionError, match=match):
        propagate_correlation(m, f, s)
    assert calls == []


def test_correlation_route_warns_once_on_a_truncated_input():
    """An input density still at 1.5e-5 of its peak at the grid edges
    gets the lag transform's one TruncationWarning, and the route runs."""
    m, f = _case_medium("on-resonance")
    h = transfer_hwhm(m, f)
    s = gaussian_spectrum(60.0 * h / GAUSSIAN_FWHM_FACTOR, FrequencyGrid.spanning(120.0 * h, 1201))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        propagate_correlation(m, f, s)
    assert [w.category for w in caught] == [TruncationWarning]


def test_correlation_route_sweep_count(monkeypatch):
    """One propagate_correlation evaluates the lag sweep once per term of
    its Chebyshev series after the first: for this input rho = 3.25 (Re
    kappa L from -6.5 to 0), so 21 terms and 20 sweeps."""
    calls = []

    def counting(*args):
        calls.append(None)
        return g_sweep(*args)

    monkeypatch.setattr(propagation, "g_sweep", counting)
    m, f, s = _route_case()
    lo, hi = propagation._exponent_range(m, complex_rates(m, f))
    terms = propagation._chebyshev_coefficients(0.5 * (hi - lo) * m.length).size
    propagate_correlation(m, f, s)
    assert len(calls) == terms - 1 == 20


@pytest.mark.parametrize("doppler, fewest, most", [(True, 59, 59), (False, 1, 600)],
                         ids=["doppler", "homogeneous"])
def test_route_check_sweep_count(monkeypatch, doppler, fewest, most):
    """The route check's three problems take 59 lag sweeps in the
    Doppler-broadened medium and at most 600 in the homogeneous one, at
    depth 4 300 (555 measured): the series length grows as the square
    root of the depth."""
    calls = []
    monkeypatch.setattr(propagation, "g_sweep", lambda *a: calls.append(None) or g_sweep(*a))
    m, f = _case_medium("on-resonance", doppler)
    assert max(route_deviations(m, abs(f.omega_d))) < 1e-5
    assert fewest <= len(calls) <= most


def test_route_march_matches_two_half_cell_marches(monkeypatch):
    """On each full-size route-equivalence problem the one series over
    the cell agrees with two series over half the cell in turn within
    1e-10 of R(0), and its residual bounds that difference (9.7e-16 at most
    against 4.5e-14).  Each problem marches its own two-sided lag count,
    about 2 100: 917 or 918 lags span the horizon 12/h at the step
    pi/(2 omega_max) = pi/(240 h), whatever h, and the settling pad
    5/Re Gamma_cb_eff adds 132 to 147, as h/Re Gamma_cb_eff runs from
    0.345 to 0.383."""
    args = []
    real = propagation._integrate_correlation
    monkeypatch.setattr(propagation, "_integrate_correlation",
                        lambda *a: args.append(a) or real(*a))
    for case in ("on-resonance", "decaying", "detuned"):
        propagate_correlation(*_route_case(case))
        m, rates, slave_row, sweep, r0, kappa = args[-1]
        assert r0.size == {"on-resonance": 2099, "decaying": 2129, "detuned": 2101}[case]
        one, residual = real(*args[-1])
        half = replace(m, length=0.5 * m.length)
        middle, _ = real(half, rates, slave_row, sweep, r0, kappa)
        two, _ = real(half, rates, slave_row, sweep, middle, kappa)
        center = r0.size // 2
        assert abs(two[center]) < 0.99 * abs(r0[center])  # the march did work
        error = np.max(np.abs(one - two)) / abs(two[center])
        assert error <= residual <= 1e-10


def test_series_length_follows_the_exponent_range():
    """In a homogeneous medium a probe detuned by 0.1 times 2 pi 500 MHz
    has a bare rate |a L| of about 4 but max |kappa| L of about 1021 on
    its input grid, still within ``MAX_REACH``; the series follows the
    range of Re kappa L over every frequency, [-1021.3, 0], which holds
    the grid's: rho = 510.6 and 192 terms, of order sqrt(rho)."""
    m = paper_medium(doppler_width=0.0)
    drive = drive_for_target_width(m, TWO_PI * 4.6e3)
    f = FieldConfig(omega_d=drive, delta_p=0.1 * TWO_PI * 500e6)
    rates = complex_rates(m, f)
    bare = abs(coupling_eta(m) * rates.n_factor.real * m.length)
    grid = FrequencyGrid.spanning(120.0 * rates.gamma_cb_eff.real, 1201)
    kappa = transfer_exponent(m, f, grid.omegas)
    reach = np.max(np.abs(kappa)) * m.length
    assert 3.0 < bare < 5.0
    assert 1000.0 < reach < 1050.0 < propagation.MAX_REACH
    lo, hi = propagation._exponent_range(m, rates)
    assert lo <= np.min(kappa.real) and np.max(kappa.real) <= hi
    rho = 0.5 * (hi - lo) * m.length
    assert 500.0 < rho < 525.0
    assert propagation._chebyshev_coefficients(rho).size <= 10.0 * np.sqrt(rho)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(
    density_cm3=st.floats(1e11, 3e12),
    doppler_mhz=st.one_of(st.just(0.0), st.floats(10.0, 800.0)),
    target_khz=st.floats(1.0, 30.0),
    gamma_cb_hz=st.floats(0.0, 1e3),
)
def test_route_equivalence_holds_over_the_config_space(
    density_cm3, doppler_mhz, target_khz, gamma_cb_hz
):
    """Over the density, the Doppler width (0 included), the target width
    of the auto drive and the ground decay, the route check either
    passes, each deviation at most 1e-3 of R(0) (a NaN fails), or is
    refused with ResolutionError or InvalidParameterError.  A draw
    marches a reach max |kappa| L of at most about 4 500: without Doppler
    broadening and above about 1.3e12 cm^-3, route problem 3's Fourier
    output underflows to 0 and the draw is refused before any march.
    The 20 draws take 0.7 to 0.9 s on two cores; 12 pass, with deviations
    of at most 1.9e-6 and reaches of at most 2 503, and 8 are refused by
    that underflow."""
    m = paper_medium(
        number_density=1e6 * density_cm3,
        doppler_width=TWO_PI * 1e6 * doppler_mhz,
        gamma_cb=TWO_PI * gamma_cb_hz,
    )
    try:
        devs = route_deviations(m, drive_for_target_width(m, TWO_PI * 1e3 * target_khz))
    except (ResolutionError, InvalidParameterError):
        return
    assert len(devs) == 3 and all(dev <= 1e-3 for dev in devs)


def test_adiabatic_report_flags_validity():
    m = paper_medium()  # gamma_cb = 0 -> infinitely adiabatic
    f = paper_fields()
    omegas = FrequencyGrid.spanning(1e6, 64).omegas
    report = adiabatic_rate_check(m, f, omegas)
    assert report.valid
    assert report.validity_ratio == np.inf
    # strong ground decoherence breaks adiabaticity: ratio < 10 -> invalid
    bad = paper_medium(gamma_cb=1e6)
    report = adiabatic_rate_check(bad, f, omegas)
    assert report.validity_ratio < 10.0
    assert not report.valid


@pytest.mark.parametrize("doppler", [False, True], ids=["homogeneous", "doppler"])
def test_dynamic_exponent_solves_the_first_order_bloch_equations(doppler):
    """kappa with rho_ab kept dynamic equals a linear solve of the
    first-order Bloch equations at every omega, to 1e-12 relative.

    For a probe w e^{-i omega t} under a constant drive d, with n_ca = 0
    (rho_ca has no first-order part),
        (Gamma_ab - i omega) rho_ab + i d rho_cb = i n_ab w
        i conj(d) rho_ab + (gamma_cb - i omega) rho_cb = 0,
    and the field advances as dw/dz = -i eta rho_ab, so the density
    exponent is 2 (-i eta rho_ab / w): the exponent of the medium at
    twice the density.  Checked at densities N and 2N."""
    base = paper_medium(gamma_cb=TWO_PI * 3e3)
    if not doppler:
        base = replace(base, doppler_width=0.0)
    f = FieldConfig(
        omega_d=TWO_PI * 2e6 * np.exp(0.3j),
        delta_p=TWO_PI * 5e6,
        delta_ac=-TWO_PI * 3e6,
    )
    gamma_ab = (base.doppler_width if doppler else base.gamma_ab) + 1j * f.delta_p
    width = complex_rates(base, f).gamma_cb_eff.real
    omegas = np.concatenate([
        np.linspace(-50.0 * width, 50.0 * width, 101),
        np.linspace(-3.0 * abs(gamma_ab), 3.0 * abs(gamma_ab), 60),
    ])
    d = f.omega_d
    mat = np.empty((omegas.size, 2, 2), dtype=complex)
    mat[:, 0, 0] = gamma_ab - 1j * omegas
    mat[:, 0, 1] = 1j * d
    mat[:, 1, 0] = 1j * np.conj(d)
    mat[:, 1, 1] = base.gamma_cb - 1j * omegas
    rhs = np.zeros((omegas.size, 2, 1), dtype=complex)
    rhs[:, 0, 0] = 1j * f.n_ab  # per unit probe amplitude
    rho_ab = np.linalg.solve(mat, rhs)[:, 0, 0]
    for density in (base.number_density, 2.0 * base.number_density):
        m = replace(base, number_density=density)
        oracle = 2.0 * (-1j) * coupling_eta(m) * rho_ab
        kappa = _dynamic_exponent(replace(m, number_density=2.0 * density), f, omegas)
        assert np.all(np.abs(kappa - oracle) <= 1e-12 * np.abs(oracle))


def test_slaving_error_bounds_a_low_density_homogeneous_medium():
    """Homogeneous, N = 2e14 m^-3, |Omega_d| = 2 pi 0.5 MHz: the input
    reaches a quarter of Gamma_ab, so slaving the optical coherence
    visibly moves the transfer, but by at most 0.03 over the bins
    holding more than 5 % of the input power."""
    m = paper_medium(number_density=2e14, doppler_width=0.0)
    f = FieldConfig(omega_d=TWO_PI * 0.5e6)
    g = complex_rates(m, f).gamma_cb_eff.real
    grid = FrequencyGrid.spanning(10.0 * g, 129)
    s = gaussian_spectrum(4.0 * g / GAUSSIAN_FWHM_FACTOR, grid)
    mask = s.density > 0.05 * s.density.max()
    error = adiabatic_rate_check(m, f, grid.omegas[mask]).slaving_error
    assert 1e-3 < error <= 0.03


def test_slaving_error_is_negligible_at_the_default_config():
    """Slaving rho_ab changes the transfer by under 1e-4 on the default
    output grid, and the gamma -> Delta_W substitution still transmits
    about 2e-3 at that grid's edge."""
    cfg = load_config()
    omegas = cfg.output_grid().omegas
    report = adiabatic_rate_check(cfg.medium, cfg.fields, omegas)
    assert report.slaving_error < 1e-4
    assert transmission(cfg.medium, cfg.fields, omegas[:1])[0] > 1e-3


def test_output_lineshape_near_lorentzian_scale():
    """The fitted Lorentzian FWHM of the transmitted line sits at the
    thick-filter half-max scale (about 0.85 of it at this depth)."""
    m = paper_medium()
    f = paper_fields()
    hwhm = thick_filter_hwhm(m, abs(f.omega_d) ** 2)
    grid = FrequencyGrid.spanning(12.0 * hwhm, 3001)
    out = propagate_spectrum(m, f, paper_input(grid))
    fit = fit_lineshape(out, "lorentzian")
    assert fit.fwhm == pytest.approx(0.85 * 2.0 * hwhm, rel=0.05)


def test_narrowing_factor_validation():
    assert narrowing_factor(100.0, 2.0) == 50.0
    with pytest.raises(InvalidParameterError):
        narrowing_factor(0.0, 1.0)


def test_lorentzian_input_same_transfer():
    m = paper_medium()
    f = paper_fields()
    grid = FrequencyGrid.spanning(TWO_PI * 200e3, 501)
    g_in = paper_input(grid)
    l_in = lorentzian_spectrum(TWO_PI * 490e3, grid)
    t_g = propagate_spectrum(m, f, g_in).density / g_in.density
    t_l = propagate_spectrum(m, f, l_in).density / l_in.density
    assert np.allclose(t_g, t_l, rtol=1e-9)
