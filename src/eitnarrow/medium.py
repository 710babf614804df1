"""Three-level Lambda medium parameterization.

Complex dephasing rates, the coupling constant eta, the effective
ground-coherence rate, per-frequency transfer exponents, EIT
transmission scans and the closed-form thick-medium width.

Two model choices are properties of the medium, so every route and
every closed form follows them from one place:

* ``exponent_factor`` scales the coupling ``coupling_eta``.  The quoted
  thick-medium filter uses eta (factor 1), while the reduction of the
  correlation-propagation equations gives 2*eta (factor 2).  Since eta
  is linear in the number density, factor 2 at density N equals factor
  1 at 2N.
* ``doppler`` applies the substitution gamma -> Delta_W to both optical
  coherences in ``complex_rates``; off, the homogeneous widths apply.
  The closed forms follow it through ``optical_width``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, OpticallyThinError, SingularRateError
from .fitting import fit_lineshape
from .spectral import FrequencyGrid, Spectrum

@dataclass(frozen=True)
class AtomicMedium:
    """Vapor-cell parameters.  Rates in 1/s, lengths in m."""

    number_density: float  # N [1/m^3]
    wavelength: float  # lambda [m]
    gamma_r: float  # radiative decay a -> b [1/s]
    gamma_ab: float  # optical coherence decay on a-b [1/s]
    gamma_ac: float  # optical coherence decay on a-c [1/s]
    gamma_cb: float  # ground coherence decay [1/s]
    doppler_width: float  # Delta_W [rad/s]
    length: float  # cell length L [m]
    exponent_factor: float = 1.0  # eta prefactor: 1 quoted filter, 2 Bloch reduction
    doppler: bool = True  # gamma -> Delta_W on the optical coherences

    def __post_init__(self):
        if self.number_density <= 0 or self.wavelength <= 0 or self.length < 0:
            raise InvalidParameterError("N and lambda must be positive, L >= 0")
        if not self.exponent_factor > 0:
            raise InvalidParameterError("exponent_factor must be positive")
        for name in ("gamma_r", "gamma_ab", "gamma_ac", "gamma_cb", "doppler_width"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")


@dataclass(frozen=True)
class FieldConfig:
    """Rabi frequencies, detunings and frozen populations."""

    omega_d: complex  # drive Rabi frequency [rad/s]
    omega_p: complex = 0.0  # probe Rabi frequency [rad/s]
    delta_p: float = 0.0  # probe detuning [rad/s]
    delta_ac: float = 0.0  # drive detuning [rad/s]
    rho_aa: float = 0.0
    rho_bb: float = 1.0
    rho_cc: float = 0.0

    def __post_init__(self):
        pops = (self.rho_aa, self.rho_bb, self.rho_cc)
        if min(pops) < 0 or abs(sum(pops) - 1.0) > 1e-9:
            raise InvalidParameterError("populations must be >= 0 and sum to 1")
        if abs(self.omega_p) > 0.1 * abs(self.omega_d):
            warnings.warn(
                "probe Rabi frequency is not small against the drive; "
                "weak-probe interpretation does not apply",
                UserWarning,
                stacklevel=2,
            )

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
    """Field-medium coupling eta = 3 lambda^2 N gamma_r / (8 pi), times
    the medium's ``exponent_factor``."""
    eta = 3.0 * m.wavelength**2 * m.number_density * m.gamma_r / (8.0 * np.pi)
    return m.exponent_factor * eta


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
    gamma_cb_eff = (
        m.gamma_cb
        + abs(f.omega_d) ** 2 / gamma_ab
        + abs(f.omega_p) ** 2 / gamma_ca
    )
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
    # gamma_cb_eff without the drive's power broadening |Omega_d|^2/Gamma_ab
    ground = m.gamma_cb + abs(f.omega_p) ** 2 / rates.gamma_ca - 1j * omega
    denom = (rates.gamma_ab - 1j * omega) * ground + abs(f.omega_d) ** 2
    num = coupling_eta(m) * rates.n_factor * rates.gamma_ab * (m.gamma_cb - 1j * omega)
    return num / denom


def transmission(m: AtomicMedium, f: FieldConfig, omega) -> np.ndarray:
    """Spectral density transfer exp(Re kappa(omega) * L)."""
    return np.exp(transfer_exponent(m, f, omega).real * m.length)


def wing_transmission(m: AtomicMedium, f: FieldConfig) -> float:
    """omega -> infinity transfer limit (bare resonant absorption)."""
    rates = complex_rates(m, f)
    return float(np.exp(coupling_eta(m) * rates.n_factor.real * m.length))


@dataclass(frozen=True)
class TransmissionScan:
    """Monochromatic-probe EIT transmission versus two-photon detuning."""

    grid: FrequencyGrid
    transmission: np.ndarray
    wing: float  # T at infinite detuning


def eit_transmission_scan(
    m: AtomicMedium, f: FieldConfig, grid: FrequencyGrid
) -> TransmissionScan:
    """Transmission T(delta) of a monochromatic probe scanned across the
    two-photon resonance."""
    t = transmission(m, f, grid.omegas)
    return TransmissionScan(grid, t, wing_transmission(m, f))


def eit_width(scan: TransmissionScan) -> float:
    """Fitted FWHM of the EIT feature T(delta) - T(inf) [rad/s]."""
    feature = np.clip(scan.transmission - scan.wing, 0.0, None)
    if feature.max() <= 0:
        raise InvalidParameterError("scan shows no transparency feature")
    fit = fit_lineshape(Spectrum(scan.grid, feature), "lorentzian")
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
