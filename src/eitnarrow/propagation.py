"""Propagation of beat-signal spectra and correlation functions.

Two independent routes through the medium:

* the per-frequency (Fourier) route, exact under frozen populations:
  I_omega(L) = I_omega(0) exp(Re kappa(omega) L);
* a (tau, z) integration of the coupled correlation equations, kept as
  a numerical cross-check.  At each z stage the slaved-coherence lag ODE
  is solved with an exact exponential integrator and the correlation is
  advanced in z by the Taylor polynomial of exp(dz L) in Horner form: the
  z-derivative L is real-linear in R and z-independent (RK4 is the
  degree-4 case).  There is one step per unit of max |kappa(omega)| L.

Correlations are conjugate correlations <S*(t) S(t+tau)>, so R(0) is
real-positive and the density transfer of the (tau, z) system reduces
per frequency to exp(Re kappa L), matching the Fourier route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, ResolutionError
from .kernels import LagSweep, g_sweep, g_sweep_coefficients
from .medium import (
    AtomicMedium,
    FieldConfig,
    _dynamic_exponent,
    complex_rates,
    coupling_eta,
    optical_depth,
    optical_width,
    transfer_exponent,
    transmission,
)
from .spectral import (
    CorrelationFunction,
    FrequencyGrid,
    Spectrum,
    _chirp_sum,
    _trapezoid_weights,
)

# largest z-step halving residual, relative to R(0), that the (tau, z)
# route accepts
HALVING_TOL = 1e-4

# the z-march: degree of one Taylor step, the |kappa| dz it spans, and
# the most steps the route takes before calling the medium too deep
TAYLOR_DEGREE = 12
STEP_REACH = 1.0
MAX_STEPS = 10**4


@dataclass(frozen=True)
class PropagationProblem:
    medium: AtomicMedium
    fields: FieldConfig
    input_spectrum: Spectrum


@dataclass(frozen=True)
class CorrelationResult:
    beat: CorrelationFunction  # R(tau, L), tau >= 0
    coherence: CorrelationFunction  # G(tau, L), tau >= 0
    residual: float  # step-halving disagreement, relative to R(0)


@dataclass(frozen=True)
class AdiabaticReport:
    validity_ratio: float  # |Omega_d|^2 / |Gamma_ab * Gamma_cb|
    valid: bool  # ratio >= 10
    slaving_error: float  # max |T_dynamic - T_slaved| over the input grid


@dataclass(frozen=True)
class DopplerAverageReport:
    averaged: np.ndarray  # transfer of the velocity-averaged exponent
    substituted: np.ndarray  # transfer with the gamma -> Delta_W substitution
    max_relative_deviation: float


def propagate_spectrum(p: PropagationProblem) -> Spectrum:
    """Fourier-route propagation: I_omega at z = L."""
    s = p.input_spectrum
    kappa = transfer_exponent(p.medium, p.fields, s.omegas)
    return Spectrum(s.grid, s.density * np.exp(kappa.real * p.medium.length))


def thick_medium_spectrum(m: AtomicMedium, omega_sq: float, s: Spectrum) -> Spectrum:
    """Closed-form thick-medium filter applied to an input spectrum."""
    if omega_sq <= 0:
        raise InvalidParameterError("|Omega|^2 must be positive")
    width = optical_width(m)
    w = s.omegas
    exponent = -coupling_eta(m) * m.length * w**2 / (width * ((omega_sq / width) ** 2 + w**2))
    return Spectrum(s.grid, s.density * np.exp(exponent))


def _auto_tau_grid(p: PropagationProblem) -> tuple[float, int]:
    s = p.input_spectrum
    omega_max = max(abs(s.grid.start), abs(s.omegas[-1]))
    dtau = np.pi / (8.0 * omega_max)
    # long enough for the narrowed output correlation to decay
    rates = complex_rates(p.medium, p.fields)
    slow = min(rates.gamma_cb_eff.real, omega_max)
    if slow <= 0:
        raise InvalidParameterError("cannot choose a lag range automatically")
    count = int(np.ceil(12.0 / (slow * dtau))) + 1
    return dtau, count


def _slave_row(p: PropagationProblem, dtau: float, size: int) -> np.ndarray:
    """Row vector mapping R on the lag grid tau_0 + j*dtau to the slaved
    initial condition G(tau_0) = slave_row @ R.

    G(tau_0) = integral nfac I_omega/(gtilde - i omega) e^{-i omega tau_0},
    with I_omega recovered from R by the inverse lag transform
    (1/2pi) sum_j w_j R(tau_j) e^{i omega tau_j}; the two phases combine
    into e^{i omega j dtau}.
    """
    rates = complex_rates(p.medium, p.fields)
    g = p.input_spectrum.grid
    omegas = p.input_spectrum.omegas
    g0_weights = (
        _trapezoid_weights(g.count, g.step)
        * rates.n_factor
        / (rates.gamma_cb_eff - 1j * omegas)
    )
    w_tau = _trapezoid_weights(size, dtau)
    return _chirp_sum(g0_weights, g.start, g.step, 0.0, dtau, size, 1) * w_tau / (2.0 * np.pi)


def _step_count(p: PropagationProblem) -> int:
    """Coarse z-step count: max |kappa(omega)| L over the input grid, one
    step per ``STEP_REACH``; a ResolutionError beyond ``MAX_STEPS``."""
    kappa = transfer_exponent(p.medium, p.fields, p.input_spectrum.omegas)
    reach = float(np.max(np.abs(kappa))) * p.medium.length / STEP_REACH
    # a NaN or infinite reach fails the comparison too
    if not reach <= MAX_STEPS:
        raise ResolutionError(
            f"the medium needs {reach:.3e} z steps (max |kappa| L), more than {MAX_STEPS}",
            residual=reach,
        )
    return max(1, int(np.ceil(reach)))


def _integrate_correlation(
    p: PropagationProblem, slave_row, sweep: LagSweep, r0, steps
) -> np.ndarray:
    m = p.medium
    rates = complex_rates(m, p.fields)
    b_pump = rates.gamma_cb_eff - m.gamma_cb  # |Omega_d|^2/Gamma_ab + |Omega_p|^2/Gamma_ca
    pref = 0.5 * coupling_eta(m)
    # L r = pref*((nfac r - b G) + (conj(nfac) r - conj(b) conj(G[::-1])))
    #     = a r - t - conj(t[::-1]) with t = pref*b*G
    a = 2.0 * pref * rates.n_factor.real
    b_g = pref * b_pump

    def advance(r, v, s):
        """r + s * L v for a real step s."""
        t = g_sweep(v, slave_row @ v, sweep)
        t *= s * b_g
        out = (s * a) * v
        out -= t
        out -= np.conj(t[::-1])
        out += r
        return out

    # Taylor polynomial of exp(dz L) in Horner form (see the module docstring)
    r = r0.astype(complex)
    dz = m.length / steps
    for _ in range(steps):
        v = r
        for j in range(TAYLOR_DEGREE, 0, -1):
            v = advance(r, v, dz / j)
        r = v
    return r


def propagate_correlation(p: PropagationProblem) -> CorrelationResult:
    """(tau, z) route; raises ResolutionError beyond ``MAX_STEPS`` z steps
    or if halving the z step changes R by more than ``HALVING_TOL`` R(0)."""
    steps = _step_count(p)
    dtau, count = _auto_tau_grid(p)
    horizon = (count - 1) * dtau
    # the slaved initial condition at the grid edge carries a transient
    # decaying at Re Gamma_cb_eff; pad the lag grid by the settling
    # length 5/Re Gamma_cb_eff and trim it before returning, so the
    # transient never enters the reported lags (directly at -tau or via
    # the Hermitian companion at +tau)
    rates = complex_rates(p.medium, p.fields)
    settle = 5.0 / rates.gamma_cb_eff.real if rates.gamma_cb_eff.real > 0 else 0.0
    if settle > horizon:
        raise InvalidParameterError(
            "lag horizon shorter than the coherence settling time"
        )
    pad = int(np.ceil(settle / dtau))
    total = count + pad
    # two-sided lag grid tau_j = (j - center) * dtau, j < 2*total - 1
    center = total - 1
    size = 2 * total - 1
    g = p.input_spectrum.grid
    r0 = _chirp_sum(
        _trapezoid_weights(g.count, g.step) * p.input_spectrum.density,
        g.start, g.step, -center * dtau, dtau, size, -1,
    )
    r0_peak = abs(r0[center])
    if r0_peak <= 0:
        raise InvalidParameterError("input correlation is identically zero")
    if max(abs(r0[0]), abs(r0[-1])) > 1e-4 * r0_peak:
        raise InvalidParameterError(
            "lag grid too short: |R| has not decayed below 1e-4 R(0)"
        )

    keep = slice(center - (count - 1), center + count)  # trimmed two-sided range
    slave_row = _slave_row(p, dtau, size)
    sweep = g_sweep_coefficients(rates.gamma_cb_eff, rates.n_factor, dtau, size)
    r_coarse = _integrate_correlation(p, slave_row, sweep, r0, steps)
    r_fine = _integrate_correlation(p, slave_row, sweep, r0, 2 * steps)
    residual = float(
        np.max(np.abs(r_fine[keep] - r_coarse[keep])) / np.abs(r_fine[center])
    )
    if residual > HALVING_TOL:
        raise ResolutionError(
            f"z-step halving changed R by {residual:.3e} relative to R(0)",
            residual=residual,
        )
    half = slice(center, center + count)  # tau in [0, horizon]
    g_fine = g_sweep(r_fine, slave_row @ r_fine, sweep)
    return CorrelationResult(
        beat=CorrelationFunction(dtau, r_fine[half]),
        coherence=CorrelationFunction(dtau, g_fine[half]),
        residual=residual,
    )


def adiabatic_rate_check(p: PropagationProblem) -> AdiabaticReport:
    """Report the validity ratio |Omega_d|^2 / |Gamma_ab Gamma_cb| and
    bound the error of slaving the optical coherence: the largest change
    of the density transfer exp(Re kappa L) on the input grid when rho_ab
    is kept dynamic instead."""
    m, f = p.medium, p.fields
    rates = complex_rates(m, f)
    denom = abs(rates.gamma_ab) * m.gamma_cb
    ratio = float(np.inf) if denom == 0 else abs(f.omega_d) ** 2 / denom
    omegas = p.input_spectrum.omegas
    slaved = transfer_exponent(m, f, omegas)
    dynamic = _dynamic_exponent(m, f, omegas)
    slaving_error = np.max(
        np.abs(np.exp(dynamic.real * m.length) - np.exp(slaved.real * m.length))
    )
    return AdiabaticReport(
        validity_ratio=ratio,
        valid=ratio >= 10.0,
        slaving_error=float(slaving_error),
    )


def doppler_average_transfer(
    m: AtomicMedium,
    f: FieldConfig,
    grid: FrequencyGrid,
    nodes: int = 1001,
    rtol: float = 1e-3,
) -> DopplerAverageReport:
    """Velocity average of the exponent as a cross-check of the
    gamma -> Delta_W substitution.

    Each velocity class shifts both one-photon detunings by the same
    amount (two-photon detuning untouched) and uses the homogeneous
    widths.  All classes act on the same field, so the medium's exponent
    is the Gaussian-weighted average <kappa_v> over the classes and the
    transfer is exp(Re <kappa_v> L).  Node doubling must agree within
    ``rtol`` or a ResolutionError is raised; the nodes span +-4 sigma of
    the velocity profile and must resolve gamma_ab.
    """
    # at zero Doppler width the substitution degenerates to the
    # homogeneous rates
    substituted = transmission(replace(m, doppler=m.doppler_width > 0), f, grid.omegas)
    hom = replace(m, doppler=False)

    def averaged_with(n):
        if m.doppler_width == 0:
            return transmission(hom, f, grid.omegas)
        sigma = m.doppler_width / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        shifts = np.linspace(-4.0 * sigma, 4.0 * sigma, n)
        weights = np.exp(-0.5 * (shifts / sigma) ** 2)
        weights *= _trapezoid_weights(n, shifts[1] - shifts[0])
        weights /= weights.sum()
        rate = np.zeros(grid.count)
        for shift, weight in zip(shifts, weights):
            fv = replace(f, delta_p=f.delta_p + shift, delta_ac=f.delta_ac + shift)
            rate += weight * transfer_exponent(hom, fv, grid.omegas).real
        return np.exp(rate * m.length)

    coarse = averaged_with(nodes)
    fine = averaged_with(2 * nodes - 1)
    err = float(np.max(np.abs(fine - coarse)) / np.max(fine))
    if err > rtol:
        raise ResolutionError(
            f"velocity quadrature not converged (node doubling moved the "
            f"transfer by {err:.3e})",
            residual=err,
        )
    deviation = float(np.max(np.abs(fine - substituted)) / np.max(substituted))
    return DopplerAverageReport(fine, substituted, deviation)


def narrowing_factor(input_fwhm: float, output_fwhm: float) -> float:
    if input_fwhm <= 0 or output_fwhm <= 0:
        raise InvalidParameterError("widths must be positive")
    return input_fwhm / output_fwhm


__all__ = [
    "AdiabaticReport",
    "CorrelationResult",
    "DopplerAverageReport",
    "PropagationProblem",
    "adiabatic_rate_check",
    "doppler_average_transfer",
    "narrowing_factor",
    "optical_depth",
    "propagate_correlation",
    "propagate_spectrum",
    "thick_medium_spectrum",
]
