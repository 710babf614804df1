"""Spectrum and correlation propagation routes and their cross-checks."""

from dataclasses import replace

import numpy as np
import pytest

import eitnarrow.propagation as propagation
from eitnarrow.config import load_config
from eitnarrow.errors import InvalidParameterError, ResolutionError
from eitnarrow.kernels import g_sweep, g_sweep_coefficients
from eitnarrow.medium import (
    FieldConfig,
    _dynamic_exponent,
    complex_rates,
    coupling_eta,
    drive_for_target_width,
    thick_filter_hwhm,
    transfer_exponent,
    transmission,
    wing_transmission,
)
from eitnarrow.mc import bloch_medium
from eitnarrow.propagation import (
    PropagationProblem,
    adiabatic_rate_check,
    doppler_average_transfer,
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
from eitnarrow.fitting import fit_lineshape
from paper_params import TWO_PI, paper_medium


def paper_fields() -> FieldConfig:
    return FieldConfig(omega_d=drive_for_target_width(paper_medium(), TWO_PI * 4.6e3))


def paper_input(grid: FrequencyGrid) -> Spectrum:
    return gaussian_spectrum(TWO_PI * 980e3 / GAUSSIAN_FWHM_FACTOR, grid)


def test_zero_length_is_the_identity():
    m = paper_medium(length=0.0)
    grid = FrequencyGrid.spanning(TWO_PI * 5e6, 801)
    s = paper_input(grid)
    out = propagate_spectrum(PropagationProblem(m, paper_fields(), s))
    assert np.array_equal(out.density, s.density)


def test_paper_scale_narrowing():
    """A 980 kHz Gaussian input leaves the cell as a few-kHz line; the
    narrowing factor exceeds 100."""
    m = paper_medium()
    f = paper_fields()
    hwhm = thick_filter_hwhm(m, abs(f.omega_d) ** 2)
    grid = FrequencyGrid.spanning(12.0 * hwhm, 3001)
    out = propagate_spectrum(PropagationProblem(m, f, paper_input(grid)))
    width = fwhm_estimate(out)
    assert width == pytest.approx(2.0 * hwhm, rel=0.2)
    assert narrowing_factor(TWO_PI * 980e3, width) > 100.0


def test_output_transfer_equals_exponent():
    m = paper_medium()
    f = paper_fields()
    grid = FrequencyGrid.spanning(TWO_PI * 200e3, 501)
    s = paper_input(grid)
    out = propagate_spectrum(PropagationProblem(m, f, s))
    kappa = transfer_exponent(m, f, s.omegas)
    assert np.allclose(out.density, s.density * np.exp(kappa.real * m.length))
    assert np.all(out.density <= s.density)  # passivity


@pytest.mark.parametrize("factor", [1.0, 2.0], ids=["paper", "derived"])
def test_thick_filter_center_wing_and_identity(factor):
    m = paper_medium(exponent_factor=factor)
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
    full = propagate_spectrum(PropagationProblem(m, f, s))
    assert np.max(np.abs(thick.density - full.density)) < 1e-6 * full.density.max()


def test_correlation_route_rejects_zero_input():
    m = paper_medium()
    grid = FrequencyGrid.spanning(1e6, 201)
    p = PropagationProblem(m, paper_fields(), Spectrum(grid, np.zeros(201)))
    with pytest.raises(InvalidParameterError):
        propagate_correlation(p)


def test_coherence_decays_with_lag():
    """The slaved coherence correlation G(tau) decays over the output
    coherence scale."""
    m = paper_medium()
    f = paper_fields()
    g = complex_rates(m, f).gamma_cb_eff.real
    grid = FrequencyGrid.spanning(120.0 * g, 1201)
    s = gaussian_spectrum(20.0 * g / GAUSSIAN_FWHM_FACTOR, grid)
    corr = propagate_correlation(PropagationProblem(m, f, s))
    gmag = np.abs(corr.coherence.values)
    assert gmag[-1] < 0.05 * gmag.max()


def _dense_propagator(p, slave_row, sweep, size):
    """exp(L M) for the cell length L, as a real 2n x 2n matrix acting on
    (Re R, Im R): M is the real-linear z-derivative of the route, built
    column by column, and the exponential is taken by scaling and
    squaring of a Taylor series."""
    m = p.medium
    rates = complex_rates(m, p.fields)
    nfac = rates.n_factor
    b_pump = rates.gamma_cb_eff - m.gamma_cb
    pref = 0.5 * coupling_eta(m)

    def derivative(r):
        g = g_sweep(r, slave_row @ r, sweep)
        h = np.conj(g[::-1])
        return pref * ((nfac * r - b_pump * g) + (np.conj(nfac) * r - np.conj(b_pump) * h))

    mat = np.empty((2 * size, 2 * size))
    for k in range(2 * size):
        e = np.zeros(size, dtype=complex)
        e[k % size] = 1.0 if k < size else 1j
        d = derivative(e)
        mat[:size, k] = d.real
        mat[size:, k] = d.imag
    a = m.length * mat
    squarings = max(0, int(np.ceil(np.log2(np.linalg.norm(a, 1) / 0.25))))
    a /= 2.0**squarings
    out = np.eye(2 * size)
    term = np.eye(2 * size)
    for j in range(1, 30):
        term = term @ a / j
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def _small_problem(case):
    m = paper_medium()
    f = paper_fields()
    broadening = complex_rates(m, f).gamma_cb_eff.real
    if case == "decaying":
        m = replace(m, gamma_cb=0.2 * broadening)
    elif case == "detuned":
        f = replace(f, delta_p=0.1 * m.doppler_width)
    grid = FrequencyGrid.spanning(40.0 * broadening, 201)
    s = gaussian_spectrum(6.0 * broadening / GAUSSIAN_FWHM_FACTOR, grid)
    return PropagationProblem(m, f, s)


@pytest.mark.parametrize("case", ["on-resonance", "decaying", "detuned"])
def test_taylor_march_matches_the_dense_exponential(case):
    """At the step count the route chooses, the z-march agrees with the
    exact propagator exp(L M) within 1e-10 of |R(0)| at z = L."""
    p = _small_problem(case)
    dtau, _ = propagation._auto_tau_grid(p)
    half = spectrum_to_correlation(p.input_spectrum, dtau, 151).values
    r0 = np.concatenate([np.conj(half[:0:-1]), half])
    center = half.size - 1
    slave_row = propagation._slave_row(p, dtau, r0.size)
    rates = complex_rates(p.medium, p.fields)
    sweep = g_sweep_coefficients(rates.gamma_cb_eff, rates.n_factor, dtau, r0.size)
    steps = propagation._step_count(p)
    r = propagation._integrate_correlation(p, slave_row, sweep, r0, steps)
    exact = _dense_propagator(p, slave_row, sweep, r0.size) @ np.concatenate([r0.real, r0.imag])
    r_ref = exact[: r0.size] + 1j * exact[r0.size :]
    assert abs(r_ref[center]) < 0.99 * abs(r0[center])  # the march did work
    assert np.max(np.abs(r - r_ref)) <= 1e-10 * abs(r_ref[center])


def test_correlation_route_sweep_count(monkeypatch):
    """One propagate_correlation evaluates the lag sweep once per term of
    the degree-12 Taylor step, for each z step of the coarse (N) and the
    fine (2N) pass, plus once for the coherence of the fine pass; N = 7
    for this problem."""
    calls = []

    def counting(*args):
        calls.append(None)
        return g_sweep(*args)

    monkeypatch.setattr(propagation, "g_sweep", counting)
    m = paper_medium()
    f = paper_fields()
    g = complex_rates(m, f).gamma_cb_eff.real
    grid = FrequencyGrid.spanning(120.0 * g, 1201)
    s = gaussian_spectrum(20.0 * g / GAUSSIAN_FWHM_FACTOR, grid)
    p = PropagationProblem(m, f, s)
    assert propagation._step_count(p) == 7
    propagate_correlation(p)
    assert len(calls) == 12 * (7 + 2 * 7) + 1  # 253


def test_step_count_follows_the_largest_exponent():
    """With Doppler off the detuned route problem has a bare rate
    |a L| of about 4 but max |kappa| L of about 1021 on its input grid;
    the step count follows the latter."""
    m = paper_medium(doppler=False)
    drive = drive_for_target_width(m, TWO_PI * 4.6e3)
    f = FieldConfig(omega_d=drive, delta_p=0.1 * m.doppler_width)
    rates = complex_rates(m, f)
    bare = abs(coupling_eta(m) * rates.n_factor.real * m.length)
    scale = rates.gamma_cb_eff.real
    grid = FrequencyGrid.spanning(120.0 * scale, 1201)
    p = PropagationProblem(m, f, gaussian_spectrum(20.0 * scale / GAUSSIAN_FWHM_FACTOR, grid))
    reach = np.max(np.abs(transfer_exponent(m, f, grid.omegas))) * m.length
    assert 3.0 < bare < 5.0
    assert 1000.0 < reach < 1050.0
    assert propagation._step_count(p) == int(np.ceil(reach))


def test_adiabatic_report_flags_validity():
    m = paper_medium()  # gamma_cb = 0 -> infinitely adiabatic
    f = paper_fields()
    report = adiabatic_rate_check(PropagationProblem(m, f, paper_input(
        FrequencyGrid.spanning(1e6, 64))))
    assert report.valid
    assert report.validity_ratio == np.inf
    # strong ground decoherence breaks adiabaticity: ratio < 10 -> invalid
    bad = paper_medium(gamma_cb=1e6)
    report = adiabatic_rate_check(PropagationProblem(bad, f, paper_input(
        FrequencyGrid.spanning(1e6, 64))))
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
    and the field advances as dw/dz = -i eta rho_ab, so the derived
    (2 eta) density exponent is 2 (-i eta rho_ab / w)."""
    m = paper_medium(gamma_cb=TWO_PI * 3e3, doppler=doppler)
    f = FieldConfig(
        omega_d=TWO_PI * 2e6 * np.exp(0.3j),
        delta_p=TWO_PI * 5e6,
        delta_ac=-TWO_PI * 3e6,
    )
    gamma_ab = (m.doppler_width if doppler else m.gamma_ab) + 1j * f.delta_p
    width = complex_rates(m, f).gamma_cb_eff.real
    omegas = np.concatenate([
        np.linspace(-50.0 * width, 50.0 * width, 101),
        np.linspace(-3.0 * abs(gamma_ab), 3.0 * abs(gamma_ab), 60),
    ])
    d = f.omega_d
    mat = np.empty((omegas.size, 2, 2), dtype=complex)
    mat[:, 0, 0] = gamma_ab - 1j * omegas
    mat[:, 0, 1] = 1j * d
    mat[:, 1, 0] = 1j * np.conj(d)
    mat[:, 1, 1] = m.gamma_cb - 1j * omegas
    rhs = np.zeros((omegas.size, 2, 1), dtype=complex)
    rhs[:, 0, 0] = 1j * f.n_ab  # per unit probe amplitude
    rho_ab = np.linalg.solve(mat, rhs)[:, 0, 0]
    oracle = 2.0 * (-1j) * coupling_eta(m) * rho_ab
    kappa = _dynamic_exponent(bloch_medium(m), f, omegas)
    assert np.all(np.abs(kappa - oracle) <= 1e-12 * np.abs(oracle))


def test_slaving_error_bounds_a_low_density_homogeneous_medium():
    """Homogeneous, N = 1e14 m^-3, |Omega_d| = 2 pi 0.5 MHz, derived
    convention (exponent factor 2): the input reaches a quarter of
    Gamma_ab, so slaving the optical coherence visibly moves the
    transfer, but by at most 0.03 over the bins holding more than 5 % of
    the input power."""
    m = paper_medium(number_density=1e14, exponent_factor=2.0, doppler=False)
    drive = TWO_PI * 0.5e6
    f = FieldConfig(omega_d=drive, omega_p=0.05 * drive)
    g = complex_rates(m, f).gamma_cb_eff.real
    grid = FrequencyGrid.spanning(10.0 * g, 129)
    s = gaussian_spectrum(4.0 * g / GAUSSIAN_FWHM_FACTOR, grid)
    mask = s.density > 0.05 * s.density.max()
    strong = FrequencyGrid(float(grid.omegas[mask][0]), grid.step, int(mask.sum()))
    p = PropagationProblem(m, f, Spectrum(strong, s.density[mask]))
    error = adiabatic_rate_check(p).slaving_error
    assert 1e-3 < error <= 0.03


def test_slaving_error_is_negligible_at_the_default_config():
    cfg = load_config()
    report = adiabatic_rate_check(cfg.problem(cfg.input_spectrum(cfg.output_grid())))
    assert report.slaving_error < 1e-4


def test_doppler_average_cross_check():
    """The velocity average quantifies the gamma -> Delta_W substitution
    error: it reduces to the homogeneous result at zero Doppler width,
    is even in omega, and reports a finite deviation otherwise."""
    f = paper_fields()
    # zero Doppler width: the average is exactly the homogeneous transfer
    m0 = paper_medium(doppler_width=0.0)
    grid = FrequencyGrid.spanning(TWO_PI * 100e3, 101)
    homogeneous = transmission(replace(m0, doppler=False), f, grid.omegas)
    report0 = doppler_average_transfer(m0, f, grid, nodes=51)
    assert np.array_equal(report0.averaged, homogeneous)
    # symmetric velocity distribution: transfer even in omega
    m = paper_medium()
    g = complex_rates(m, f).gamma_cb_eff.real
    sym_grid = FrequencyGrid.spanning(20.0 * g, 101)
    report = doppler_average_transfer(m, f, sym_grid)
    assert np.allclose(report.averaged, report.averaged[::-1], rtol=1e-10)
    # the average agrees at line center but departs in the wings; the
    # report surfaces that deviation rather than hiding it
    assert report.averaged[50] == pytest.approx(report.substituted[50], abs=1e-6)
    assert report.max_relative_deviation > 0.0
    # 201 nodes over +-4 sigma are spaced wider than gamma_ab: node
    # doubling exposes the unconverged quadrature
    with pytest.raises(ResolutionError):
        doppler_average_transfer(m, f, sym_grid, nodes=201)


def test_doppler_average_at_the_default_config():
    """Averaging the exponent over the velocity classes keeps full
    transparency at line centre and closes the wings on the default
    output grid, where the gamma -> Delta_W substitution still
    transmits about 2e-3."""
    cfg = load_config()
    grid = cfg.output_grid()
    report = doppler_average_transfer(cfg.medium, cfg.fields, grid)
    assert abs(report.averaged[grid.count // 2] - 1.0) <= 1e-12
    assert report.averaged[0] < 1e-6
    assert report.averaged[-1] < 1e-6
    assert report.substituted[0] > 1e-3


def test_output_lineshape_near_lorentzian_scale():
    """The fitted Lorentzian FWHM of the transmitted line sits at the
    thick-filter half-max scale (about 0.85 of it at this depth)."""
    m = paper_medium()
    f = paper_fields()
    hwhm = thick_filter_hwhm(m, abs(f.omega_d) ** 2)
    grid = FrequencyGrid.spanning(12.0 * hwhm, 3001)
    out = propagate_spectrum(PropagationProblem(m, f, paper_input(grid)))
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
    t_g = propagate_spectrum(PropagationProblem(m, f, g_in)).density / g_in.density
    t_l = propagate_spectrum(PropagationProblem(m, f, l_in)).density / l_in.density
    assert np.allclose(t_g, t_l, rtol=1e-9)
