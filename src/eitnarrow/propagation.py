"""Propagation of beat-signal spectra and correlation functions.

Two independent routes through the medium:

* the per-frequency (Fourier) route, exact under frozen populations:
  I_omega(L) = I_omega(0) exp(Re kappa(omega) L);
* a (tau, z) integration of the coupled correlation equations, kept as
  a numerical cross-check.  At each z stage the slaved-coherence lag ODE
  is solved with an exact exponential integrator and the correlation is
  advanced in z by the Taylor polynomial of exp(dz L), summed forward
  term by term: the z-derivative L is real-linear in R and z-independent
  (RK4 is the degree-4 case).  There is one degree-36 step per 7 units of
  max |kappa(omega)| L, and the last two terms of each step estimate its
  truncation (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
  Each term costs one lag sweep, and the route returns R(tau, L) alone.

Correlations are conjugate correlations <S*(t) S(t+tau)>, so R(0) is
real-positive and the density transfer of the (tau, z) system reduces
per frequency to exp(Re kappa L), matching the Fourier route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, ResolutionError, SingularRateError
from .kernels import LagSweep, g_sweep, g_sweep_coefficients
from .medium import (
    AtomicMedium,
    ComplexRates,
    FieldConfig,
    _dynamic_exponent,
    complex_rates,
    coupling_eta,
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

# largest z truncation residual that the (tau, z) route accepts: the
# Taylor tails of all z steps, each relative to the R(0) that step
# returns, summed
TAIL_TOL = 1e-4

# the z-march: degree m of one Taylor step, the |kappa| dz = theta it
# spans (truncation bound theta^(m+1)/(m+1)! = 1.35e-12 per step), and
# the largest max |kappa| L the route marches before calling the medium
# too deep
TAYLOR_DEGREE = 36
STEP_REACH = 7.0
MAX_REACH = 1e4


@dataclass(frozen=True)
class CorrelationResult:
    beat: CorrelationFunction  # R(tau, L), tau >= 0
    residual: float  # summed Taylor tail of the z-march, relative to R(0)


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


def propagate_spectrum(m: AtomicMedium, f: FieldConfig, s: Spectrum) -> Spectrum:
    """Fourier-route propagation: I_omega at z = L."""
    kappa = transfer_exponent(m, f, s.omegas)
    return Spectrum(s.grid, s.density * np.exp(kappa.real * m.length))


def thick_medium_spectrum(m: AtomicMedium, omega_sq: float, s: Spectrum) -> Spectrum:
    """Closed-form thick-medium filter applied to an input spectrum."""
    if omega_sq <= 0:
        raise InvalidParameterError("|Omega|^2 must be positive")
    width = optical_width(m)
    w = s.omegas
    exponent = -coupling_eta(m) * m.length * w**2 / (width * ((omega_sq / width) ** 2 + w**2))
    return Spectrum(s.grid, s.density * np.exp(exponent))


def _auto_tau_grid(rates: ComplexRates, grid: FrequencyGrid) -> tuple[float, int]:
    omega_max = max(abs(grid.start), abs(grid.omegas[-1]))
    dtau = np.pi / (8.0 * omega_max)
    # long enough for the narrowed output correlation to decay
    slow = min(rates.gamma_cb_eff.real, omega_max)
    if slow <= 0:
        raise InvalidParameterError("cannot choose a lag range automatically")
    count = int(np.ceil(12.0 / (slow * dtau))) + 1
    return dtau, count


def _slave_row(rates: ComplexRates, g: FrequencyGrid, dtau: float, size: int) -> np.ndarray:
    """Row vector mapping R on the lag grid tau_0 + j*dtau to the slaved
    initial condition G(tau_0) = slave_row @ R.

    G(tau_0) = integral nfac I_omega/(gtilde - i omega) e^{-i omega tau_0},
    with I_omega recovered from R by the inverse lag transform
    (1/2pi) sum_j w_j R(tau_j) e^{i omega tau_j}; the two phases combine
    into e^{i omega j dtau}.
    """
    g0_weights = (
        _trapezoid_weights(g.count, g.step)
        * rates.n_factor
        / (rates.gamma_cb_eff - 1j * g.omegas)
    )
    w_tau = _trapezoid_weights(size, dtau)
    return _chirp_sum(g0_weights, g.start, g.step, 0.0, dtau, size, 1) * w_tau / (2.0 * np.pi)


def _step_count(m: AtomicMedium, f: FieldConfig, omegas: np.ndarray) -> int:
    """Coarse z-step count: ceil(max |kappa(omega)| L / ``STEP_REACH``)
    over ``omegas``; a ResolutionError if max |kappa| L exceeds
    ``MAX_REACH``."""
    kappa = transfer_exponent(m, f, omegas)
    reach = float(np.max(np.abs(kappa))) * m.length
    # a NaN or infinite reach fails the comparison too
    if not reach <= MAX_REACH:
        raise ResolutionError(
            f"max |kappa| L = {reach:.3e} exceeds {MAX_REACH:.0e}",
            residual=reach,
        )
    return max(1, int(np.ceil(reach / STEP_REACH)))


def _integrate_correlation(
    m: AtomicMedium, rates: ComplexRates, slave_row, sweep: LagSweep, r0, steps
) -> tuple[np.ndarray, float]:
    """R at z = L after ``steps`` Taylor steps, and the truncation
    residual: the max-norms of each step's last two terms, relative to
    |R(0)| at the end of that step, summed over the steps."""
    b_pump = rates.gamma_cb_eff - m.gamma_cb  # |Omega_d|^2/Gamma_ab + |Omega_p|^2/Gamma_ca
    pref = 0.5 * coupling_eta(m)
    # L r = pref*((nfac r - b G) + (conj(nfac) r - conj(b) conj(G[::-1])))
    #     = a r - t - conj(t[::-1]) with t = pref*b*G
    a = 2.0 * pref * rates.n_factor.real
    b_g = pref * b_pump

    def apply(v, s):
        """s * L v for a real s."""
        t = g_sweep(v, slave_row @ v, sweep)
        t *= s * b_g
        out = (s * a) * v
        out -= t
        out -= np.conj(t[::-1])
        return out

    # forward Taylor sum of exp(dz L) r (see the module docstring)
    r = r0.astype(complex)
    center = r.size // 2
    dz = m.length / steps
    residual = 0.0
    for _ in range(steps):
        term = r
        tail = 0.0
        for j in range(1, TAYLOR_DEGREE + 1):
            term = apply(term, dz / j)
            r += term
            if j >= TAYLOR_DEGREE - 1:
                tail += np.max(np.abs(term))
        residual += tail / abs(r[center])
    return r, float(residual)


def propagate_correlation(m: AtomicMedium, f: FieldConfig, s: Spectrum) -> CorrelationResult:
    """(tau, z) route in ceil(max |kappa| L / ``STEP_REACH``) Taylor steps
    of degree ``TAYLOR_DEGREE``; raises ResolutionError if max |kappa| L
    exceeds ``MAX_REACH`` or if the summed Taylor tail exceeds
    ``TAIL_TOL``."""
    steps = _step_count(m, f, s.omegas)
    rates = complex_rates(m, f)
    dtau, count = _auto_tau_grid(rates, s.grid)  # raises unless Re Gamma_cb_eff > 0
    # the slaved initial condition at the grid edge carries a transient
    # decaying at Re Gamma_cb_eff; pad the lag grid by the settling
    # length 5/Re Gamma_cb_eff and trim it before returning, so the
    # transient never enters the reported lags (directly at -tau or via
    # the Hermitian companion at +tau)
    pad = int(np.ceil(5.0 / rates.gamma_cb_eff.real / dtau))
    total = count + pad
    # two-sided lag grid tau_j = (j - center) * dtau, j < 2*total - 1
    center = total - 1
    size = 2 * total - 1
    g = s.grid
    r0 = _chirp_sum(
        _trapezoid_weights(g.count, g.step) * s.density,
        g.start, g.step, -center * dtau, dtau, size, -1,
    )
    r0_peak = abs(r0[center])
    if r0_peak <= 0:
        raise InvalidParameterError("input correlation is identically zero")
    if max(abs(r0[0]), abs(r0[-1])) > 1e-4 * r0_peak:
        raise InvalidParameterError(
            "lag grid too short: |R| has not decayed below 1e-4 R(0)"
        )

    slave_row = _slave_row(rates, g, dtau, size)
    sweep = g_sweep_coefficients(rates.gamma_cb_eff, rates.n_factor, dtau, size)
    r, residual = _integrate_correlation(m, rates, slave_row, sweep, r0, steps)
    if residual > TAIL_TOL:
        raise ResolutionError(
            f"z-march Taylor tail {residual:.3e} relative to R(0)",
            residual=residual,
        )
    # tau in [0, (count - 1) * dtau]
    return CorrelationResult(CorrelationFunction(dtau, r[center:center + count]), residual)


def adiabatic_rate_check(m: AtomicMedium, f: FieldConfig, omegas: np.ndarray) -> AdiabaticReport:
    """Report the validity ratio |Omega_d|^2 / |Gamma_ab Gamma_cb| and
    bound the error of slaving the optical coherence: the largest change
    of the density transfer exp(Re kappa L) over ``omegas`` when rho_ab
    is kept dynamic instead."""
    rates = complex_rates(m, f)
    denom = abs(rates.gamma_ab) * m.gamma_cb
    ratio = float(np.inf) if denom == 0 else abs(f.omega_d) ** 2 / denom
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


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-iz) for Im z >= 0: Weideman's 32-term
    rational approximation (SIAM J. Numer. Anal. 31, 1497 (1994))."""
    n = 32
    big_l = np.sqrt(n / np.sqrt(2.0))
    t = big_l * np.tan(0.5 * np.pi * np.arange(1 - 2 * n, 2 * n) / (2 * n))
    f = np.concatenate(([0.0], np.exp(-(t**2)) * (big_l**2 + t**2)))
    coeffs = np.fft.fft(np.fft.fftshift(f)).real[n:0:-1] / (4 * n)
    lz = big_l - 1j * z
    return 2.0 * np.polyval(coeffs, (big_l + 1j * z) / lz) / lz**2 + 1.0 / (np.sqrt(np.pi) * lz)


def _doppler_averaged_exponent(m: AtomicMedium, f: FieldConfig, omegas: np.ndarray) -> np.ndarray:
    """<kappa_v(omega)> over Gaussian velocity shifts s of FWHM Delta_W:
    with Gamma_ab = a + i s, Gamma_ca = b - i s and g = gamma_cb - i omega,
    kappa_v = eta (n_ab Gamma_ca - n_ca Gamma_ab) / ((s - p1)(s - p2)), the
    poles being the roots of g Gamma_ab Gamma_ca + |Omega_d|^2 Gamma_ca +
    |Omega_p|^2 Gamma_ab, and <1/(s - p)> = i sqrt(pi) w(p/k)/k, k = sqrt(2)
    sigma, for Im p >= 0.  kappa = 0 where g = 0."""
    a, b = m.gamma_ab + 1j * f.delta_p, m.gamma_ac - 1j * f.delta_ac
    g = m.gamma_cb - 1j * np.asarray(omegas, dtype=float)
    live = g != 0
    g = g[live]
    c1 = 1j * (g * (b - a) - abs(f.omega_d) ** 2 + abs(f.omega_p) ** 2)
    c0 = g * a * b + abs(f.omega_d) ** 2 * b + abs(f.omega_p) ** 2 * a
    root = np.sqrt(c1**2 - 4.0 * g * c0)
    if np.any(root == 0):
        raise SingularRateError("coincident poles in the velocity shift")
    q = -0.5 * (c1 + np.where((np.conj(c1) * root).real >= 0, root, -root))
    poles = (q / g, c0 / q)  # the cancellation-free pair
    k = m.doppler_width / np.sqrt(4.0 * np.log(2.0))
    kappa = np.zeros(live.shape, dtype=complex)
    for p, other in (poles, poles[::-1]):
        upper = p.imag >= 0
        mean = 1j * np.sqrt(np.pi) * _faddeeva(np.where(upper, p, np.conj(p)) / k) / k
        residue = (f.n_ab * (b - 1j * p) - f.n_ca * (a + 1j * p)) / (p - other)
        kappa[live] += residue * np.where(upper, mean, np.conj(mean))
    return coupling_eta(m) * kappa


def doppler_average_transfer(
    m: AtomicMedium, f: FieldConfig, grid: FrequencyGrid
) -> DopplerAverageReport:
    """The gamma -> Delta_W substitution against the exact velocity
    average.  Each class shifts both one-photon detunings alike (the
    two-photon detuning is untouched) and keeps the homogeneous widths;
    all classes act on one field, so the transfer is exp(Re <kappa_v> L).
    At zero Doppler width both arms are the homogeneous transfer."""
    substituted = transmission(replace(m, doppler=m.doppler_width > 0), f, grid.omegas)
    averaged = substituted
    if m.doppler_width > 0:
        averaged = np.exp(_doppler_averaged_exponent(m, f, grid.omegas).real * m.length)
    deviation = float(np.max(np.abs(averaged - substituted)) / np.max(substituted))
    return DopplerAverageReport(averaged, substituted, deviation)


def narrowing_factor(input_fwhm: float, output_fwhm: float) -> float:
    if input_fwhm <= 0 or output_fwhm <= 0:
        raise InvalidParameterError("widths must be positive")
    return input_fwhm / output_fwhm


__all__ = [
    "AdiabaticReport",
    "CorrelationResult",
    "DopplerAverageReport",
    "adiabatic_rate_check",
    "doppler_average_transfer",
    "narrowing_factor",
    "propagate_correlation",
    "propagate_spectrum",
    "thick_medium_spectrum",
]
