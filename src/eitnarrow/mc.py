"""Time-domain Monte-Carlo oracle for the analytic propagation chain.

Stochastic probe envelopes are pushed through a thinly sliced medium
lit by the paper's monochromatic drive ``fields.omega_d``, held constant
in time and along the cell (weak-probe regime).  The optical
coherences are adiabatically slaved to the instantaneous fields, the
ground coherence of each slice is integrated as an ODE, and the probe
advances across each slice with the exact frozen-coefficient
exponential (field sampled at mid-slice).  The error of slaving the
optical coherences is bounded in closed form by
``propagation.adiabatic_rate_check`` (``AdiabaticReport.slaving_error``).

The per-field Bloch equations carry the full coupling, so the density
exponent realized here is always 2 eta (exponent factor 2), whatever the
medium's ``exponent_factor``.  ``bloch_medium`` states this once: the
slab takes its coupling from it, and analytic references for the slab
are computed on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .kernels import _phi12, mc_batch
from .medium import AtomicMedium, FieldConfig, complex_rates, coupling_eta
from .noise import PhaseNoiseModel, synthesize_probe_field
from .spectral import Spectrum, periodogram


@dataclass(frozen=True)
class McConfig:
    medium: AtomicMedium
    fields: FieldConfig
    noise: PhaseNoiseModel
    dt: float
    duration: float
    realizations: int = 200
    slices: int = 8

    def __post_init__(self):
        if self.slices < 1:
            raise InvalidParameterError("need at least one slice")
        if self.realizations < 8:
            raise InvalidParameterError("need at least 8 realizations")
        if self.dt <= 0 or self.duration <= 0:
            raise InvalidParameterError("dt and duration must be positive")
        if abs(self.fields.omega_p) <= 0:
            raise InvalidParameterError("Monte-Carlo runs need a nonzero probe")
        rates = complex_rates(self.medium, self.fields)
        g = rates.gamma_cb_eff.real
        if self.dt * g > 0.1:
            raise InvalidParameterError(
                f"dt does not resolve the coherence rate (dt*Re Gamma = {self.dt * g:.3g} > 0.1)"
            )
        if g > 0 and self.duration * g < 20.0:
            raise InvalidParameterError(
                "duration shorter than 20 coherence times of the output line"
            )


@dataclass(frozen=True)
class McEnsembleResult:
    spectrum: Spectrum  # ensemble-mean transmitted beat spectrum
    stderr: np.ndarray  # per-bin standard error of the mean
    input_density: np.ndarray  # ensemble-mean input spectrum (same grid)
    per_real_in: np.ndarray  # per-realization input periodograms
    per_real_out: np.ndarray  # per-realization output periodograms
    realizations: int
    drive_depletion: float  # implied drive power transmission (diagnostic)


def bloch_medium(m: AtomicMedium) -> AtomicMedium:
    """``m`` with the exponent factor 2 that the slab's Bloch equations
    realize."""
    return replace(m, exponent_factor=2.0)


def _slab_coefficients(m: AtomicMedium, f: FieldConfig, dz: float, dt: float):
    rates = complex_rates(m, f)
    eta = 0.5 * coupling_eta(bloch_medium(m))  # coupling of the per-field equations
    a = eta * f.n_ab / rates.gamma_ab  # homogeneous field advance rate [1/m]
    fcoef = -eta / rates.gamma_ab
    e_full = np.exp(a * dz)
    e_half = np.exp(a * dz / 2.0)
    if a == 0:
        b_full, b_half = dz, dz / 2.0
    else:
        b_full = (e_full - 1.0) / a
        b_half = (e_half - 1.0) / a
    x = -rates.gamma_cb_eff * dt
    phi1, phi2 = _phi12(complex(x))
    erho = np.exp(x)
    alpha = dt * (phi1 + phi2) * rates.n_factor
    beta = -dt * phi2 * rates.n_factor
    return (
        e_full, e_half, b_full, b_half, fcoef, erho, alpha, beta,
        rates.n_factor, rates.gamma_cb_eff,
    )


def integrate_slice(
    envelope: np.ndarray, dt: float, m: AtomicMedium, f: FieldConfig, thickness: float
) -> np.ndarray:
    """Advance a probe envelope sampled at step ``dt`` across one medium
    slice lit by the constant drive ``f.omega_d`` (frozen in the
    weak-probe regime)."""
    if thickness <= 0:
        raise InvalidParameterError("slice thickness must be positive")
    rates = complex_rates(m, f)
    if dt * rates.gamma_cb_eff.real > 0.1:
        raise InvalidParameterError("dt does not resolve the coherence rate")
    coeffs = _slab_coefficients(m, f, thickness, dt)
    return mc_batch(envelope, f.omega_d, 1, *coeffs)


def _implied_drive_depletion(cfg: McConfig) -> float:
    """Drive power transmission implied by the steady weak-probe
    coherences; reported as a diagnostic, never fed back into the run."""
    rates = complex_rates(cfg.medium, cfg.fields)
    f = cfg.fields
    s = f.omega_p * np.conj(f.omega_d)
    rho_cb = rates.n_factor * s / rates.gamma_cb_eff
    rho_ca = 1j * (np.conj(f.omega_d) * f.n_ca + np.conj(f.omega_p) * rho_cb) / rates.gamma_ca
    od2 = abs(f.omega_d) ** 2
    if od2 == 0:
        return 1.0
    # d|Omega_d|^2/dz = 2 Re(Omega_d^* (-i eta rho_ca^*))
    eta = 0.5 * coupling_eta(bloch_medium(cfg.medium))
    rate = 2.0 * np.real(np.conj(f.omega_d) * (-1j) * eta * np.conj(rho_ca)) / od2
    return float(np.exp(rate * cfg.medium.length))


def ensemble_beat_spectrum(cfg: McConfig) -> McEnsembleResult:
    """Ensemble-averaged beat spectrum of the transmitted probe.

    Realizations run one at a time: each is synthesized, propagated and
    reduced to its input and output periodograms before the next, so
    memory holds one envelope pair beside the periodogram tables.
    Deterministic for a fixed noise seed: realization r always draws
    from the stream seed^r, and the reduction order is fixed.
    """
    rates = complex_rates(cfg.medium, cfg.fields)
    g = rates.gamma_cb_eff.real
    burn = int(np.ceil(5.0 / (g * cfg.dt))) if g > 0 else 0
    n_keep = int(round(cfg.duration / cfg.dt))
    n_total = n_keep + burn
    dz = cfg.medium.length / cfg.slices
    coeffs = _slab_coefficients(cfg.medium, cfg.fields, dz, cfg.dt)
    amp = abs(cfg.fields.omega_p)

    p_in = np.empty((cfg.realizations, n_keep))
    p_out = np.empty((cfg.realizations, n_keep))
    for r in range(cfg.realizations):
        probe = synthesize_probe_field(cfg.noise, amp, cfg.dt, n_total, r)
        out = mc_batch(probe, cfg.fields.omega_d, cfg.slices, *coeffs)
        spec_in = periodogram(probe[burn:], cfg.dt, window="hann")
        p_in[r] = spec_in.density
        p_out[r] = periodogram(out[burn:], cfg.dt, window="hann").density

    mean_out = p_out.mean(axis=0)
    mean_in = p_in.mean(axis=0)
    nr = cfg.realizations
    err_out = p_out.std(axis=0, ddof=1) / np.sqrt(nr)
    return McEnsembleResult(
        spectrum=Spectrum(spec_in.grid, mean_out),
        stderr=err_out,
        input_density=mean_in,
        per_real_in=p_in,
        per_real_out=p_out,
        realizations=nr,
        drive_depletion=_implied_drive_depletion(cfg),
    )


def band_average_transfer(
    result: McEnsembleResult, mask: np.ndarray, n_bands: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band-aggregated transfer with realization scatter.

    For each contiguous band of masked bins, every realization yields a
    band-power ratio (sum of output periodogram bins over sum of input
    bins); numerator and denominator share the same random amplitudes,
    so the ratio is tight and nearly unbiased even where single-bin
    ratios would be heavy tailed.  Returns (band centers, band transfer
    means, band standard errors).
    """
    idx = np.flatnonzero(mask)
    if idx.size < n_bands:
        raise InvalidParameterError("fewer masked bins than requested bands")
    omegas = result.spectrum.omegas
    groups = np.array_split(idx, n_bands)
    nr = result.realizations
    centers = np.empty(n_bands)
    values = np.empty(n_bands)
    errs = np.empty(n_bands)
    for i, g in enumerate(groups):
        q = result.per_real_out[:, g].sum(axis=1) / result.per_real_in[:, g].sum(axis=1)
        centers[i] = omegas[g].mean()
        values[i] = q.mean()
        errs[i] = q.std(ddof=1) / np.sqrt(nr)
    return centers, values, errs


def windowed_reference(result: McEnsembleResult, analytic_bins: np.ndarray) -> np.ndarray:
    """Expected periodogram-domain transfer: the analytic per-frequency
    transfer seen through the Hann window's spectral kernel.

    Near a line much narrower than the spectral resolution the raw
    analytic curve and the windowed estimate differ strongly; convolving
    the input-weighted transfer with the window kernel makes the
    comparison exact in expectation."""
    n = analytic_bins.size
    w = np.hanning(n)
    kern = np.abs(np.fft.fftshift(np.fft.fft(w))) ** 2
    kern /= kern.sum()
    kern = np.roll(kern, (n - 1) // 2 - int(np.argmax(kern)))
    num = np.convolve(analytic_bins * result.input_density, kern, mode="same")
    den = np.convolve(result.input_density, kern, mode="same")
    return num / np.maximum(den, 1e-300)


def slice_convergence(cfg: McConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Transfer (ratio of ensemble-mean densities) with the configured
    slice count versus double the count, on the bins with meaningful
    input power; returns both transfers and their max relative
    difference."""
    res1 = ensemble_beat_spectrum(cfg)
    res2 = ensemble_beat_spectrum(replace(cfg, slices=2 * cfg.slices))
    mask = res1.input_density > 1e-3 * res1.input_density.max()
    t1, t2 = (r.spectrum.density[mask] / r.input_density[mask] for r in (res1, res2))
    rel = float(np.max(np.abs(t2 - t1) / np.maximum(t1, 1e-300)))
    return t1, t2, rel


__all__ = [
    "McConfig",
    "McEnsembleResult",
    "band_average_transfer",
    "bloch_medium",
    "ensemble_beat_spectrum",
    "integrate_slice",
    "slice_convergence",
    "windowed_reference",
]
