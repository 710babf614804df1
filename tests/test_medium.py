"""Coupling constant, complex rates, transfer exponent and widths."""

import numpy as np
import pytest

from eitnarrow.errors import InvalidParameterError, OpticallyThinError, SingularRateError
from eitnarrow.medium import (
    FieldConfig,
    closed_form_width,
    complex_rates,
    coupling_eta,
    drive_for_target_width,
    eit_width,
    optical_depth,
    thick_filter_hwhm,
    transfer_exponent,
    transmission,
    wing_transmission,
)
from eitnarrow.noise import PhaseNoiseModel, sample_phase_trajectory
from eitnarrow.propagation import narrowing_factor
from eitnarrow.spectral import FrequencyGrid
from paper_params import TWO_PI, paper_medium


def drive_fields(omega_d=TWO_PI * 2.3e6, **overrides) -> FieldConfig:
    return FieldConfig(omega_d=omega_d, **overrides)


def test_coupling_eta_reference_value():
    assert coupling_eta(paper_medium()) == pytest.approx(8.2e11, rel=0.01)


def test_coupling_eta_scalings():
    m = paper_medium()
    doubled = paper_medium(number_density=2.0 * m.number_density)
    assert coupling_eta(doubled) == 2.0 * coupling_eta(m)


def test_optical_depth_reference_value():
    assert optical_depth(paper_medium()) == pytest.approx(6.5015, rel=1e-3)


def test_complex_rates_doppler_substitution():
    m = paper_medium()
    f = drive_fields(delta_p=1.0e5, delta_ac=-2.0e5)
    r = complex_rates(m, f)
    assert r.gamma_ab == m.doppler_width + 1j * f.delta_p
    assert r.gamma_ca == m.doppler_width - 1j * f.delta_ac
    hom = complex_rates(paper_medium(doppler_width=0.0), f)
    assert hom.gamma_ab == m.gamma_ab + 1j * f.delta_p


def test_effective_ground_rate_reference_value():
    """|Omega_d|^2 / Delta_W at Omega_d = 2*pi*2.3 MHz, Delta_W = 2*pi*500 MHz."""
    r = complex_rates(paper_medium(), drive_fields())
    assert r.gamma_cb_eff.imag == 0.0
    assert r.gamma_cb_eff.real == pytest.approx(6.65e4, rel=1e-2)


def test_effective_ground_rate_collapses_without_fields():
    m = paper_medium(gamma_cb=120.0)
    r = complex_rates(m, FieldConfig(omega_d=0.0))
    assert r.gamma_cb_eff == 120.0


def test_n_factor_ground_state_atoms():
    r = complex_rates(paper_medium(), drive_fields())
    assert r.n_factor == pytest.approx(-1.0 / r.gamma_ab)


def test_singular_rates_rejected():
    m = paper_medium(doppler_width=0.0, gamma_ab=0.0)
    with pytest.raises(SingularRateError):
        complex_rates(m, drive_fields())


def test_line_centre_kappa_vanishes_for_perfect_ground_coherence():
    kappa = transfer_exponent(paper_medium(), drive_fields(), np.array([0.0]))
    assert kappa[0] == 0.0


def test_kappa_wing_asymptote_derived_convention():
    """The Bloch reduction's coupling 2 eta at density N, which is eta at 2N."""
    m = paper_medium(number_density=2.0 * paper_medium().number_density)
    f = drive_fields()
    eta = coupling_eta(paper_medium())
    big = np.array([1e12])
    kappa = transfer_exponent(m, f, big)
    assert kappa[0] == pytest.approx(-2.0 * eta / m.doppler_width, rel=1e-3)
    wing = wing_transmission(m, f)
    assert wing == pytest.approx(np.exp(-2.0 * eta * m.length / m.doppler_width))


def test_kappa_algebraic_reduction_on_resonance():
    """For gamma_cb = 0 on two-photon resonance the exponent reduces to
    Re kappa = -c eta omega^2 / (Delta_W (g^2 + omega^2)) with
    g = |Omega_d|^2/Delta_W; checked at 10 random frequencies."""
    m = paper_medium()
    f = drive_fields()
    eta = coupling_eta(m)
    g = abs(f.omega_d) ** 2 / m.doppler_width
    rng = np.random.default_rng(17)
    w = rng.uniform(-20.0 * g, 20.0 * g, 10)
    for c in (1.0, 2.0):  # density N, and 2N: the Bloch reduction's 2 eta
        kappa = transfer_exponent(paper_medium(number_density=c * m.number_density), f, w)
        expected = -c * eta * w**2 / (m.doppler_width * (g**2 + w**2))
        assert np.allclose(kappa.real, expected, rtol=1e-12)


def test_transmission_endpoints_evenness_monotonicity():
    m = paper_medium()
    f = drive_fields()
    w = np.linspace(0.0, 5e6, 400)
    t_pos = transmission(m, f, w)
    t_neg = transmission(m, f, -w)
    assert t_pos[0] == 1.0  # full transparency at line center
    assert np.array_equal(t_pos, t_neg)
    assert np.all(np.diff(t_pos) <= 0)  # monotone decay toward the wing
    assert t_pos[-1] > wing_transmission(m, f)


def test_closed_form_width_anchors():
    m = paper_medium()
    # depth exactly 2: width equals |Omega|^2/Delta_W
    d = optical_depth(m)
    m2 = paper_medium(length=m.length * 2.0 / d)
    assert optical_depth(m2) == pytest.approx(2.0)
    omega_sq = (TWO_PI * 2.3e6) ** 2
    assert closed_form_width(m2, omega_sq) == pytest.approx(
        omega_sq / m2.doppler_width, rel=1e-9
    )
    # linear in |Omega|^2
    assert closed_form_width(m, 2.0 * omega_sq) == pytest.approx(
        2.0 * closed_form_width(m, omega_sq), rel=1e-12
    )


def test_closed_form_width_paper_anchor():
    """The default medium with the auto drive gives a 4.6 kHz width."""
    m = paper_medium()
    target = TWO_PI * 4.6e3
    omega_d = drive_for_target_width(m, target)
    assert omega_d / (TWO_PI * 1e6) == pytest.approx(2.3227, rel=1e-3)
    assert closed_form_width(m, omega_d**2) == pytest.approx(target, rel=1e-12)


def test_optically_thin_medium_rejected():
    thin = paper_medium(length=1e-4)
    assert optical_depth(thin) < 1.0
    with pytest.raises(OpticallyThinError):
        closed_form_width(thin, 1e12)
    with pytest.raises(OpticallyThinError):
        drive_for_target_width(thin, 1e4)


def test_thick_filter_hwhm_anchor():
    m = paper_medium()
    omega_d = drive_for_target_width(m, TWO_PI * 4.6e3)
    assert thick_filter_hwhm(m, omega_d**2) == pytest.approx(23418.79, rel=1e-4)


def test_eit_scan_width_matches_thick_filter_scale():
    m = paper_medium()
    f = drive_fields()
    g = complex_rates(m, f).gamma_cb_eff.real
    width = eit_width(m, f, FrequencyGrid.spanning(30.0 * g, 1201))
    # optical thickness narrows the feature well below the bare
    # power-broadened width 2g, toward the thick-filter half-max width
    assert width < 2.0 * g
    assert width == pytest.approx(2.0 * thick_filter_hwhm(m, abs(f.omega_d) ** 2), rel=0.2)


def test_eit_width_requires_a_feature():
    m = paper_medium(length=0.0)
    f = drive_fields()
    grid = FrequencyGrid.spanning(1e6, 101)
    assert np.all(transmission(m, f, grid.omegas) == 1.0)
    with pytest.raises(InvalidParameterError):
        eit_width(m, f, grid)


def test_populations_must_sum_to_one():
    with pytest.raises(InvalidParameterError):
        FieldConfig(omega_d=1.0, rho_aa=0.5, rho_cc=0.6)


@pytest.mark.parametrize(
    "name", ["number_density", "gamma_ab", "gamma_ac", "gamma_cb", "doppler_width", "length"]
)
def test_a_nan_medium_parameter_is_refused(name):
    """A NaN fails every check, so it cannot pass as a homogeneous medium."""
    with pytest.raises(InvalidParameterError):
        paper_medium(**{name: float("nan")})


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: narrowing_factor(NAN, 1.0),
    lambda: closed_form_width(paper_medium(), NAN),
    lambda: drive_for_target_width(paper_medium(), NAN),
    lambda: PhaseNoiseModel(diffusion=NAN),
    lambda: sample_phase_trajectory(PhaseNoiseModel(1e3), NAN, 8),
], ids=[
    "narrowing_factor", "closed_form_width", "drive_for_target_width", "PhaseNoiseModel",
    "sample_phase_trajectory",
])
def test_a_nan_argument_fails_the_guard(call):
    """Each guard is written as ``not x > 0``, which a NaN fails, so it
    cannot pass on to a NaN result or a silently constant probe."""
    with pytest.raises(InvalidParameterError):
        call()


@pytest.mark.parametrize("pops", [
    dict(rho_aa=float("nan")),
    dict(rho_cc=float("nan")),
    dict(rho_aa=-0.1),
    dict(rho_cc=-0.1),
    dict(rho_aa=0.6, rho_cc=0.6),
], ids=["nan-aa", "nan-cc", "negative-aa", "negative-cc", "sum-above-one"])
def test_populations_are_refused_by_name(pops):
    with pytest.raises(InvalidParameterError, match=r"rho_aa = .* and rho_cc = "):
        FieldConfig(omega_d=1.0, **pops)

