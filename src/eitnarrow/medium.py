"""Three-level Lambda medium parameterization.

Complex dephasing rates, the coupling constant eta, the effective
ground-coherence rate, per-frequency transfer exponents, the EIT
transmission width and the closed-form thick-medium width.

Every route (the Monte-Carlo slab included) and every closed form reads
the coupling eta of ``coupling_eta``, the quoted thick-medium filter's.
The reduction of the correlation-propagation equations gives 2*eta;
since eta is linear in the number density, that is the same medium at
twice the density.  The slab's per-field coupling is half of
``coupling_eta``, so its density exponent is the medium's own.

One model choice is a property of the medium: ``doppler`` applies the
substitution gamma -> Delta_W to both optical coherences in
``complex_rates``; off, the homogeneous widths apply.  The closed forms
follow it through ``optical_width``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, OpticallyThinError, SingularRateError
from .fitting import fit_lineshape
from .spectral import FrequencyGrid, Spectrum

# the 87Rb D1 line (Steck, Rubidium 87 D Line Data): probe wavelength
# lambda [m] and radiative decay rate a -> b [1/s]; written as nm times
# 1e-9, which is one ulp from the literal 794.98e-9
WAVELENGTH = 794.98 * 1e-9
GAMMA_R = 3.61e7


@dataclass(frozen=True)
class AtomicMedium:
    """Vapor-cell parameters of the D1 line.  Rates in 1/s, lengths in m."""

    number_density: float  # N [1/m^3]
    gamma_ab: float  # optical coherence decay on a-b [1/s]
    gamma_ac: float  # optical coherence decay on a-c [1/s]
    gamma_cb: float  # ground coherence decay [1/s]
    doppler_width: float  # Delta_W [rad/s]
    length: float  # cell length L [m]
    doppler: bool = True  # gamma -> Delta_W on the optical coherences

    def __post_init__(self):
        if self.number_density <= 0 or self.length < 0:
            raise InvalidParameterError("N must be positive, L >= 0")
        for name in ("gamma_ab", "gamma_ac", "gamma_cb", "doppler_width"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")


@dataclass(frozen=True)
class FieldConfig:
    """Drive Rabi frequency, detunings and frozen populations.  The probe
    is first order in every route, so its amplitude is no field of the
    configuration."""

    omega_d: complex  # drive Rabi frequency [rad/s]
    delta_p: float = 0.0  # probe detuning [rad/s]
    delta_ac: float = 0.0  # drive detuning [rad/s]
    rho_aa: float = 0.0
    rho_bb: float = 1.0
    rho_cc: float = 0.0

    def __post_init__(self):
        pops = (self.rho_aa, self.rho_bb, self.rho_cc)
        if min(pops) < 0 or abs(sum(pops) - 1.0) > 1e-9:
            raise InvalidParameterError("populations must be >= 0 and sum to 1")

    @property
    def n_ab(self) -> float:
        return self.rho_aa - self.rho_bb

    @property
    def n_ca(self) -> float:
        return self.rho_cc - self.rho_aa


@dataclass(frozen=True)
class ComplexRates:
    """Complex dephasing rates and derived coherence quantities."""

    gamma_ab: complex  # Gamma_ab = gamma_eff + i*delta_p [1/s]
    gamma_ca: complex  # Gamma_ca = gamma_eff - i*delta_ac [1/s]
    gamma_cb_eff: complex  # power-broadened ground coherence rate [1/s]
    n_factor: complex  # population/dephasing factor [s]


def coupling_eta(m: AtomicMedium) -> float:
    """Field-medium coupling eta = 3 lambda^2 N gamma_r / (8 pi), with
    the D1 line's ``WAVELENGTH`` and ``GAMMA_R``."""
    return 3.0 * WAVELENGTH**2 * m.number_density * GAMMA_R / (8.0 * np.pi)


def optical_width(m: AtomicMedium) -> float:
    """Width of the a-b coherence: Delta_W with the Doppler substitution
    on, gamma_ab with it off."""
    return m.doppler_width if m.doppler else m.gamma_ab


def complex_rates(m: AtomicMedium, f: FieldConfig) -> ComplexRates:
    """Dephasing rates with the Doppler substitution gamma -> Delta_W
    applied to both optical coherences when ``m.doppler`` is on."""
    g_ac = m.doppler_width if m.doppler else m.gamma_ac
    gamma_ab = optical_width(m) + 1j * f.delta_p
    gamma_ca = g_ac - 1j * f.delta_ac
    if gamma_ab == 0 or gamma_ca == 0:
        raise SingularRateError("optical dephasing rate is zero")
    gamma_cb_eff = m.gamma_cb + abs(f.omega_d) ** 2 / gamma_ab
    n_factor = f.n_ab / gamma_ab - f.n_ca / gamma_ca
    return ComplexRates(gamma_ab, gamma_ca, gamma_cb_eff, n_factor)


def transfer_exponent(m: AtomicMedium, f: FieldConfig, omega) -> np.ndarray:
    """Per-frequency propagation exponent kappa(omega) [1/m].

    The spectral density transfer over a length z is exp(Re kappa * z).
    """
    rates = complex_rates(m, f)
    omega = np.asarray(omega, dtype=float)
    denom = rates.gamma_cb_eff - 1j * omega
    if np.any(np.abs(denom) == 0):
        raise SingularRateError("transfer denominator vanishes on the grid")
    return coupling_eta(m) * (m.gamma_cb - 1j * omega) * rates.n_factor / denom


def _dynamic_exponent(m: AtomicMedium, f: FieldConfig, omega) -> np.ndarray:
    """kappa(omega) with the optical coherence rho_ab kept dynamic.

    The linear-response Lambda susceptibility (Fleischhauer, Imamoglu &
    Marangos, Rev. Mod. Phys. 77, 633 (2005)): the optical rate
    Gamma_ab - i omega stands where ``transfer_exponent`` slaves rho_ab
    with Gamma_ab, and putting Gamma_ab back gives it exactly.
    """
    rates = complex_rates(m, f)
    omega = np.asarray(omega, dtype=float)
    ground = m.gamma_cb - 1j * omega
    denom = (rates.gamma_ab - 1j * omega) * ground + abs(f.omega_d) ** 2
    num = coupling_eta(m) * rates.n_factor * rates.gamma_ab * ground
    return num / denom


def transmission(m: AtomicMedium, f: FieldConfig, omega) -> np.ndarray:
    """Spectral density transfer exp(Re kappa(omega) * L)."""
    return np.exp(transfer_exponent(m, f, omega).real * m.length)


def wing_transmission(m: AtomicMedium, f: FieldConfig) -> float:
    """omega -> infinity transfer limit (bare resonant absorption)."""
    rates = complex_rates(m, f)
    return float(np.exp(coupling_eta(m) * rates.n_factor.real * m.length))


def eit_width(m: AtomicMedium, f: FieldConfig, grid: FrequencyGrid) -> float:
    """Fitted FWHM [rad/s] of the EIT feature T(delta) - T(inf) that a
    monochromatic probe scanned across the two-photon resonance sees on
    ``grid``."""
    feature = np.clip(transmission(m, f, grid.omegas) - wing_transmission(m, f), 0.0, None)
    if feature.max() <= 0:
        raise InvalidParameterError("scan shows no transparency feature")
    fit = fit_lineshape(Spectrum(grid, feature), "lorentzian")
    return fit.fwhm


def optical_depth(m: AtomicMedium) -> float:
    """Dimensionless thick-medium parameter eta*L/Delta_W; here and in the
    closed forms below Delta_W stands for ``optical_width``."""
    if optical_width(m) <= 0:
        raise InvalidParameterError("optical width must be positive")
    return coupling_eta(m) * m.length / optical_width(m)


def closed_form_width(m: AtomicMedium, omega_sq: float) -> float:
    """Closed-form beat-signal width |Omega|^2/(Delta_W sqrt(eta L/Delta_W - 1))."""
    if omega_sq <= 0:
        raise InvalidParameterError("|Omega|^2 must be positive")
    d = optical_depth(m)
    if d <= 1.0:
        raise OpticallyThinError(
            f"eta*L/Delta_W = {d:.4g} <= 1; the medium is optically thin "
            "and the narrowing formula does not apply"
        )
    return omega_sq / (optical_width(m) * np.sqrt(d - 1.0))


def drive_for_target_width(m: AtomicMedium, width: float) -> float:
    """|Omega_d| that makes the closed-form width equal ``width``."""
    if width <= 0:
        raise InvalidParameterError("target width must be positive")
    d = optical_depth(m)
    if d <= 1.0:
        raise OpticallyThinError("medium is optically thin")
    return float(np.sqrt(width * optical_width(m) * np.sqrt(d - 1.0)))


def thick_filter_hwhm(m: AtomicMedium, omega_sq: float) -> float:
    """Half width at half maximum of the thick-medium spectral filter
    exp(-eta L omega^2 / (Delta_W ((|Omega|^2/Delta_W)^2 + omega^2)))."""
    d = optical_depth(m)
    if d <= np.log(2.0):
        raise OpticallyThinError(
            "filter never drops to half maximum (eta*L/Delta_W <= ln 2)"
        )
    a = omega_sq / optical_width(m)
    return float(a * np.sqrt(np.log(2.0) / (d - np.log(2.0))))
