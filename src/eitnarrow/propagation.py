"""Propagation of beat-signal spectra and correlation functions.

Two independent routes through the medium:

* the per-frequency (Fourier) route, exact under frozen populations:
  I_omega(L) = I_omega(0) exp(Re kappa(omega) L);
* a (tau, z) integration of the coupled correlation equations, kept as
  a numerical cross-check.  The slaved-coherence lag ODE is solved with
  a fourth-order exponential integrator, and the correlation crosses
  the cell of length ell in one Chebyshev series of exp(ell L): the
  z-derivative L is real-linear in R and z-independent, and its spectrum
  is Re kappa(omega), real and within the closed-form range [lo, hi] over
  every real omega, so exp(ell L) = e^(hi ell) sum_k a_k T_k(A) with
  A = ell (L - c)/rho mapping [lo, hi] onto [-1, 1] and a_k = (2 - [k=0])
  I_k(rho) e^-rho (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).
  The series length grows as sqrt(rho), each term after the first
  costs one lag sweep, and the route returns R(tau, L) alone.  Its lag grid
  follows the problem it is given: the step is half the input grid's
  Nyquist step, and the horizon is 12/h, h the half width at half
  maximum of the transfer exp(Re kappa L) read off the input grid; a
  grid that under-resolves that transfer, or whose period 2 pi/domega
  cannot hold the lag range, is refused before any lag transform.

Correlations are conjugate correlations <S*(t) S(t+tau)>, so R(0) is
real-positive and the density transfer of the (tau, z) system reduces
per frequency to exp(Re kappa L), matching the Fourier route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ResolutionError
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
)
from .spectral import (
    MIN_STEPS_PER_FWHM,
    CorrelationFunction,
    FrequencyGrid,
    Spectrum,
    _chirp_sum,
    _half_max_width,
    _trapezoid_weights,
    _weighted_density,
)

# largest z residual that the (tau, z) route accepts: the last two
# terms of the Chebyshev series and its rounding bound, relative to the
# R(0) it returns
TAIL_TOL = 1e-4

# the largest max |kappa| L the route marches before calling the medium
# too deep, and the fraction of the zeroth coefficient below which the
# z-march's Chebyshev series is cut
MAX_REACH = 1e4
SERIES_TOL = 1e-15


@dataclass(frozen=True)
class CorrelationResult:
    beat: CorrelationFunction  # R(tau, L), tau >= 0
    residual: float  # series truncation and rounding of the z-march, relative to R(0)


@dataclass(frozen=True)
class AdiabaticReport:
    validity_ratio: float  # |Omega_d|^2 / |Gamma_ab * Gamma_cb|
    valid: bool  # ratio >= 10
    slaving_error: float  # max |T_dynamic - T_slaved| over the input grid


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


def _auto_tau_grid(
    rates: ComplexRates, grid: FrequencyGrid, exponent: np.ndarray
) -> tuple[float, int, int]:
    """The lag step, the lag count and the settling pad of the (tau, z)
    route on ``grid``, from h, the half width at half maximum of the
    transfer exp(``exponent``) read off the grid's own points.

    The step is pi/(2 omega_max), half the grid's Nyquist step pi/omega_max:
    the lag sweep is fourth order, and at this step its error (about 5e-8
    of R(0) on the route problems of ``checks.route_deviations``) is far
    below the route's gate.  The count spans the horizon 12/h, long enough
    for the output correlation to decay; the pad spans 5/Re Gamma_cb_eff,
    the settling length of the slaved initial condition.  An
    InvalidParameterError unless Re Gamma_cb_eff > 0; a ResolutionError
    when the grid resolves the transfer by fewer than
    ``MIN_STEPS_PER_FWHM`` steps per FWHM, or when the two-sided lag range,
    padded, does not fit inside the grid's period 2 pi/domega, beyond which
    the input correlation of the sampled spectrum repeats."""
    slow = rates.gamma_cb_eff.real
    if not slow > 0:
        raise InvalidParameterError("cannot choose a lag range automatically")
    omegas = grid.omegas
    fwhm = _half_max_width(omegas, np.exp(exponent - exponent.max()))
    steps = fwhm / grid.step
    if steps < MIN_STEPS_PER_FWHM:
        raise ResolutionError(
            f"the input grid resolves the output line by {steps:.2f} steps per fwhm, "
            f"fewer than {MIN_STEPS_PER_FWHM:g}"
        )
    omega_max = max(abs(grid.start), abs(omegas[-1]))
    dtau = np.pi / (2.0 * omega_max)
    h = 0.5 * fwhm
    count = int(np.ceil(12.0 / (h * dtau))) + 1
    pad = int(np.ceil(5.0 / slow / dtau))
    span = 2 * (count + pad - 1) * dtau
    period = 2.0 * np.pi / grid.step
    if not span < period:
        raise ResolutionError(
            f"the two-sided lag range {span:.3e} s does not fit inside the input grid's "
            f"period 2 pi/domega = {period:.3e} s"
        )
    return dtau, count, pad


def _lag_rows(rates: ComplexRates, s: Spectrum, dtau: float, total: int):
    """The input correlation at lags j*dtau, j < ``total``, and the row
    giving the slaved initial condition G(tau_0) = row @ R on the lags
    tau_j = tau_0 + j*dtau, j < 2*total - 1, tau_0 = -(total - 1)*dtau.

    G(tau_0) = integral nfac I_omega/(gtilde - i omega) e^{-i omega tau_0},
    with I_omega recovered from R by the inverse lag transform, so row_j =
    (w_j/2pi) sum_k h_k e^{i omega_k tau_j}, h = g0w e^{-i omega tau_0}.
    With T the transform of ``spectrum_to_correlation`` that is
    conj(T[conj h]) at tau >= 0 and T[h] at tau <= 0: two half-length
    rows, batched with the density in one ``_chirp_sum``.
    """
    g = s.grid
    center = total - 1
    g0w = (
        _trapezoid_weights(g.count, g.step)
        * rates.n_factor
        / (rates.gamma_cb_eff - 1j * g.omegas)
    )
    h = g0w * np.exp(1j * (center * dtau) * g.omegas)
    batch = np.stack([_weighted_density(s), np.conj(h), h])
    batch = _chirp_sum(batch, g.start, g.step, 0.0, dtau, total, -1)
    row = np.empty(2 * total - 1, dtype=complex)
    row[center:] = np.conj(batch[1])
    row[center::-1] = batch[2]
    row *= _trapezoid_weights(row.size, dtau) / (2.0 * np.pi)
    # a copy, so the batch is freed before the z-march
    return batch[0].copy(), row


def _chebyshev_coefficients(rho: float) -> np.ndarray:
    """a_k = (2 - [k=0]) I_k(rho) e^-rho, the Chebyshev coefficients of
    e^(rho (x - 1)) on [-1, 1], up to the first below ``SERIES_TOL`` a_0:
    the real FFT of e^(rho (cos theta - 1)) = e^(-2 rho sin^2(theta/2)) on
    M angles over M, M doubled until it is at least 4 times the count."""
    size = 128
    while True:
        half = (np.pi / size) * np.arange(size)
        coeffs = np.fft.rfft(np.exp(-2.0 * rho * np.sin(half) ** 2)).real / size
        coeffs[1:] *= 2.0
        small = np.flatnonzero(coeffs < SERIES_TOL * coeffs[0])
        count = small[0] if small.size else coeffs.size
        if 4 * count <= size:
            return coeffs[:count]
        size *= 2


def _exponent_range(m: AtomicMedium, rates: ComplexRates) -> tuple[float, float]:
    """[lo, hi] of Re kappa over every real omega: kappa = eta nfac (1 +
    (gamma_cb - Gamma)/(Gamma - i omega)), Gamma = Gamma_cb_eff, and
    1/(Gamma - i omega) runs over the circle of centre and radius
    1/(2 Re Gamma), so Re kappa = Re(eta nfac + q) +- |q| at most, q =
    eta nfac (gamma_cb - Gamma)/(2 Re Gamma)."""
    base = coupling_eta(m) * rates.n_factor
    q = base * (m.gamma_cb - rates.gamma_cb_eff) / (2.0 * rates.gamma_cb_eff.real)
    return (base + q).real - abs(q), (base + q).real + abs(q)


def _integrate_correlation(
    m: AtomicMedium, rates: ComplexRates, slave_row, sweep: LagSweep, r0, kappa
) -> tuple[np.ndarray, float]:
    """R at z = ell, e^(hi ell) sum_k a_k T_k(A) r0 with A = ell (L - c)/rho
    mapping ``_exponent_range`` onto [-1, 1] and a_k of
    ``_chebyshev_coefficients(rho)``, and the residual: the last two
    terms after the first and the rounding bound K eps max |T_k r0|, in
    max-norm relative to |R(0)| (sum a_k = 1).  A ResolutionError if
    max |``kappa``| ell exceeds ``MAX_REACH`` or R(0, ell) underflows to 0."""
    lo, hi = _exponent_range(m, rates)
    rho = 0.5 * (hi - lo) * m.length
    # rho, half the spread of Re kappa ell, is at most max |kappa| ell
    # over every omega; a NaN or infinite reach fails the comparison too
    reach = float(np.maximum(np.max(np.abs(kappa)) * m.length, rho))
    if not reach <= MAX_REACH:
        raise ResolutionError(f"max |kappa| L = {reach:.3e} exceeds {MAX_REACH:.0e}")
    coeffs = _chebyshev_coefficients(rho)
    pref = 0.5 * coupling_eta(m)
    # L r = pref*((nfac r - b G) + (conj(nfac) r - conj(b) conj(G[::-1])))
    #     = a r - t - conj(t[::-1]) with t = pref*b*G; L - c takes a - c for a
    a = 2.0 * pref * rates.n_factor.real - 0.5 * (lo + hi)
    b_g = pref * (rates.gamma_cb_eff - m.gamma_cb)  # b = |Omega_d|^2/Gamma_ab

    def apply(v, s, sub):
        """s * (L - c) v - sub for a real s."""
        t = g_sweep(v, slave_row @ v, sweep, s * b_g)
        out = (s * a) * v
        out -= t
        out -= np.conj(t[::-1])
        out -= sub
        return out

    # T_1 = A T_0 and T_(k+1) = 2 A T_k - T_(k-1)
    prev, term = 0.0, r0.astype(complex)
    r = coeffs[0] * term
    norms = [np.abs(term).max()]
    for k in range(1, coeffs.size):
        prev, term = term, apply(term, min(k, 2) * m.length / rho, prev)
        r += coeffs[k] * term
        norms.append(np.abs(term).max())
    bound = coeffs[1:][-2:] @ norms[1:][-2:] + coeffs.size * np.finfo(float).eps * max(norms)
    center = r.size // 2
    peak = abs(r[center])  # e^(hi ell) scales the sum and its R(0) alike
    r *= np.exp(hi * m.length)
    if not abs(r[center]) > 0:
        raise ResolutionError("the output beat correlation R(0, z) underflows to 0 in the z-march")
    return r, float(bound / peak)


def propagate_correlation(m: AtomicMedium, f: FieldConfig, s: Spectrum) -> CorrelationResult:
    """(tau, z) route in one Chebyshev series over the whole cell, on the
    lags that ``_auto_tau_grid`` sizes from kappa over the input grid;
    raises ResolutionError if max |kappa| L exceeds ``MAX_REACH``, if the
    grid under-resolves the transfer or is too coarse for the lag range,
    if R(0, z) underflows to 0 or if the summed residual is not at most
    ``TAIL_TOL``.  On the problems of ``checks.route_deviations`` (1201
    frequencies over +-120 h) it marches about 2 100 lags, and its one lag
    transform, ``_lag_rows``, has FFT length 3072 (1201 + about 1050 - 1)."""
    if not np.any(s.density):
        raise InvalidParameterError("input correlation is identically zero")
    kappa = transfer_exponent(m, f, s.omegas)
    rates = complex_rates(m, f)
    dtau, count, pad = _auto_tau_grid(rates, s.grid, kappa.real * m.length)
    # the slaved initial condition at the grid edge carries a transient
    # decaying at Re Gamma_cb_eff; the lag grid is padded by the settling
    # length 5/Re Gamma_cb_eff and trimmed before returning, so the
    # transient never enters the reported lags (directly at -tau or via
    # the Hermitian companion at +tau)
    total = count + pad
    # two-sided lag grid tau_j = (j - center) * dtau, j < 2*total - 1;
    # the density is real, so only tau >= 0 is transformed and
    # R(-tau) = R*(tau) with R(0) real
    center = total - 1
    size = 2 * total - 1
    half, slave_row = _lag_rows(rates, s, dtau, total)
    half[0] = half[0].real
    if abs(half[-1]) > 1e-4 * abs(half[0]):
        raise InvalidParameterError(
            "lag grid too short: |R| has not decayed below 1e-4 R(0)"
        )
    r0 = np.concatenate([np.conj(half[:0:-1]), half])

    sweep = g_sweep_coefficients(rates.gamma_cb_eff, rates.n_factor, dtau, size)
    r, residual = _integrate_correlation(m, rates, slave_row, sweep, r0, kappa)
    if not residual <= TAIL_TOL:  # a NaN residual is refused too
        raise ResolutionError(f"z-march residual {residual:.3e} relative to R(0)")
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


def narrowing_factor(input_fwhm: float, output_fwhm: float) -> float:
    if not (input_fwhm > 0 and output_fwhm > 0):
        raise InvalidParameterError("widths must be positive")
    return input_fwhm / output_fwhm


__all__ = [
    "AdiabaticReport",
    "CorrelationResult",
    "adiabatic_rate_check",
    "narrowing_factor",
    "propagate_correlation",
    "propagate_spectrum",
    "thick_medium_spectrum",
]
