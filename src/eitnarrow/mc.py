"""Time-domain Monte-Carlo oracle for the analytic propagation chain.

Stochastic probe envelopes are pushed through a thinly sliced medium:
optical coherences are adiabatically slaved to the instantaneous fields,
the ground coherence of each slice is integrated as an ODE, and the
probe advances across each slice with the exact frozen-coefficient
exponential (field sampled at mid-slice).

The per-field equations carry the full coupling, so the density transfer
realized here corresponds to the "derived" exponent convention
(kappa = 2 eta ...); comparisons against the Fourier route must use that
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .kernels import _phi12, mc_batch
from .medium import AtomicMedium, FieldConfig, complex_rates, coupling_eta
from .noise import FieldSeries, PhaseNoiseModel, sample_phase_trajectory, synthesize_probe_field
from .spectral import Spectrum, periodogram

# drive-noise realizations draw from a disjoint stream block
_DRIVE_STREAM_OFFSET = 1 << 32


@dataclass(frozen=True)
class McConfig:
    medium: AtomicMedium
    fields: FieldConfig
    noise: PhaseNoiseModel
    dt: float
    duration: float
    realizations: int = 200
    slices: int = 8
    doppler: bool = True
    seed: int = 0
    drive_diffusion: float = 0.0  # D_d for the optional noisy-drive mode
    # integrate the optical coherences as ODEs instead of slaving them;
    # spot-check mode, only practical at small grid sizes
    full_integration: bool = False

    def __post_init__(self):
        if self.slices < 1:
            raise InvalidParameterError("need at least one slice")
        if self.realizations < 8:
            raise InvalidParameterError("need at least 8 realizations")
        if self.dt <= 0 or self.duration <= 0:
            raise InvalidParameterError("dt and duration must be positive")
        if abs(self.fields.omega_p) <= 0:
            raise InvalidParameterError("Monte-Carlo runs need a nonzero probe")
        rates = complex_rates(self.medium, self.fields, self.doppler)
        g = rates.gamma_cb_eff.real
        if self.dt * g > 0.1:
            raise InvalidParameterError(
                f"dt does not resolve the coherence rate (dt*Re Gamma = {self.dt * g:.3g} > 0.1)"
            )
        if g > 0 and self.duration * g < 20.0:
            raise InvalidParameterError(
                "duration shorter than 20 coherence times of the output line"
            )
        if self.drive_diffusion < 0:
            raise InvalidParameterError("drive diffusion must be >= 0")
        if self.full_integration:
            fast = rates.gamma_ab.real
            if self.dt * fast > 0.1:
                raise InvalidParameterError(
                    "full integration needs dt to resolve the optical "
                    f"coherence rate (dt*Re Gamma_ab = {self.dt * fast:.3g} > 0.1)"
                )


@dataclass(frozen=True)
class McEnsembleResult:
    spectrum: Spectrum  # ensemble-mean transmitted beat spectrum
    stderr: np.ndarray  # per-bin standard error of the mean
    input_density: np.ndarray  # ensemble-mean input spectrum (same grid)
    transfer: np.ndarray  # ratio of ensemble-mean densities
    per_real_in: np.ndarray  # per-realization input periodograms
    per_real_out: np.ndarray  # per-realization output periodograms
    realizations: int
    drive_depletion: float  # implied drive power transmission (diagnostic)


def _slab_coefficients(m: AtomicMedium, f: FieldConfig, doppler: bool, dz: float, dt: float):
    rates = complex_rates(m, f, doppler)
    eta = coupling_eta(m)
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
    probe: FieldSeries,
    drive: FieldSeries,
    m: AtomicMedium,
    f: FieldConfig,
    thickness: float,
    doppler: bool = True,
) -> tuple[FieldSeries, FieldSeries]:
    """Advance a probe/drive pair across one medium slice.

    The drive is frozen (weak-probe regime); it is returned unchanged.
    """
    if probe.dt != drive.dt or probe.envelope.size != drive.envelope.size:
        raise InvalidParameterError("probe and drive grids must match")
    if thickness <= 0:
        raise InvalidParameterError("slice thickness must be positive")
    rates = complex_rates(m, f, doppler)
    if probe.dt * rates.gamma_cb_eff.real > 0.1:
        raise InvalidParameterError("dt does not resolve the coherence rate")
    coeffs = _slab_coefficients(m, f, doppler, thickness, probe.dt)
    out = mc_batch(probe.envelope[None, :], drive.envelope[None, :], 1, *coeffs)
    return (
        FieldSeries(probe.dt, out[0], probe.carrier_offset),
        drive,
    )


def _drive_envelope(cfg: McConfig, n: int, realization: int) -> np.ndarray:
    amp = complex(cfg.fields.omega_d)
    if cfg.drive_diffusion <= 0:
        return np.full(n, amp)
    model = PhaseNoiseModel(diffusion=cfg.drive_diffusion, seed=cfg.seed)
    phi = sample_phase_trajectory(model, cfg.dt, n, realization + _DRIVE_STREAM_OFFSET)
    return amp * np.exp(-1j * phi)


def _implied_drive_depletion(cfg: McConfig) -> float:
    """Drive power transmission implied by the steady weak-probe
    coherences; reported as a diagnostic, never fed back into the run."""
    rates = complex_rates(cfg.medium, cfg.fields, cfg.doppler)
    f = cfg.fields
    s = f.omega_p * np.conj(f.omega_d)
    rho_cb = rates.n_factor * s / rates.gamma_cb_eff
    rho_ca = 1j * (np.conj(f.omega_d) * f.n_ca + np.conj(f.omega_p) * rho_cb) / rates.gamma_ca
    od2 = abs(f.omega_d) ** 2
    if od2 == 0:
        return 1.0
    # d|Omega_d|^2/dz = 2 Re(Omega_d^* (-i eta rho_ca^*))
    rate = 2.0 * np.real(np.conj(f.omega_d) * (-1j) * coupling_eta(cfg.medium) * np.conj(rho_ca)) / od2
    return float(np.exp(rate * cfg.medium.length))


def _full_batch(probe: np.ndarray, drive: np.ndarray, cfg: McConfig) -> np.ndarray:
    """Spot-check propagation integrating all three coherences as ODEs
    (no adiabatic slaving).  Frozen fields within a time step, Euler in
    z; accurate only for well-resolved, small configurations."""
    m, f = cfg.medium, cfg.fields
    rates = complex_rates(m, f, cfg.doppler)
    eta = coupling_eta(m)
    gab, gca, gcb = rates.gamma_ab, rates.gamma_ca, complex(m.gamma_cb)
    nreal, nt = probe.shape
    nsl = cfg.slices
    dz = m.length / nsl
    dt = cfg.dt

    def deriv(rab, rca, rcb, w, d):
        dab = -gab * rab + 1j * (w * f.n_ab - d * rcb)
        dca = -gca * rca + 1j * (np.conj(d) * f.n_ca + np.conj(w) * rcb)
        dcb = -gcb * rcb - 1j * np.conj(d) * rab + 1j * w * rca
        return dab, dca, dcb

    out = np.empty_like(probe)
    # slaved steady state as the initial condition
    rab = np.zeros((nreal, nsl), dtype=complex)
    rca = np.zeros((nreal, nsl), dtype=complex)
    rcb = np.zeros((nreal, nsl), dtype=complex)
    w = probe[:, 0].copy()
    d0 = drive[:, 0]
    for j in range(nsl):
        s = w * np.conj(d0)
        rcb[:, j] = rates.n_factor * s / rates.gamma_cb_eff
        rab[:, j] = 1j * (w * f.n_ab - d0 * rcb[:, j]) / gab
        rca[:, j] = 1j * (np.conj(d0) * f.n_ca + np.conj(w) * rcb[:, j]) / gca
        w = w + dz * (-1j * eta * rab[:, j])
    for t in range(nt):
        w = probe[:, t].copy()
        d = drive[:, t]
        for j in range(nsl):
            w_in = w
            w = w + dz * (-1j * eta * rab[:, j])
            a0, c0, b0 = rab[:, j], rca[:, j], rcb[:, j]
            k1 = deriv(a0, c0, b0, w_in, d)
            k2 = deriv(a0 + 0.5 * dt * k1[0], c0 + 0.5 * dt * k1[1], b0 + 0.5 * dt * k1[2], w_in, d)
            k3 = deriv(a0 + 0.5 * dt * k2[0], c0 + 0.5 * dt * k2[1], b0 + 0.5 * dt * k2[2], w_in, d)
            k4 = deriv(a0 + dt * k3[0], c0 + dt * k3[1], b0 + dt * k3[2], w_in, d)
            rab[:, j] = a0 + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            rca[:, j] = c0 + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            rcb[:, j] = b0 + (dt / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        out[:, t] = w
    return out


def ensemble_beat_spectrum(cfg: McConfig, chunk: int = 32) -> McEnsembleResult:
    """Ensemble-averaged beat spectrum of the transmitted probe.

    Deterministic for a fixed seed: realization r always draws from the
    stream seed^r regardless of chunking, and the reduction order is
    fixed.
    """
    rates = complex_rates(cfg.medium, cfg.fields, cfg.doppler)
    g = rates.gamma_cb_eff.real
    burn = int(np.ceil(5.0 / (g * cfg.dt))) if g > 0 else 0
    n_keep = int(round(cfg.duration / cfg.dt))
    n_total = n_keep + burn
    dz = cfg.medium.length / cfg.slices
    coeffs = _slab_coefficients(cfg.medium, cfg.fields, cfg.doppler, dz, cfg.dt)

    noise = PhaseNoiseModel(
        diffusion=cfg.noise.diffusion, shaping=cfg.noise.shaping, seed=cfg.seed
    )
    amp = abs(cfg.fields.omega_p)

    p_in = np.empty((cfg.realizations, n_keep))
    p_out = np.empty((cfg.realizations, n_keep))
    for lo in range(0, cfg.realizations, chunk):
        hi = min(lo + chunk, cfg.realizations)
        probe = np.empty((hi - lo, n_total), dtype=complex)
        drive = np.empty((hi - lo, n_total), dtype=complex)
        for i, r in enumerate(range(lo, hi)):
            probe[i] = synthesize_probe_field(noise, amp, cfg.dt, n_total, r).envelope
            drive[i] = _drive_envelope(cfg, n_total, r)
        if cfg.full_integration:
            out = _full_batch(probe, drive, cfg)
        else:
            out = mc_batch(probe, drive, cfg.slices, *coeffs)
        for i, r in enumerate(range(lo, hi)):
            p_in[r] = periodogram(probe[i, burn:], cfg.dt, window="hann").density
            p_out[r] = periodogram(out[i, burn:], cfg.dt, window="hann").density

    grid = periodogram(np.zeros(n_keep, dtype=complex) + 1.0, cfg.dt).grid
    mean_out = p_out.mean(axis=0)
    mean_in = p_in.mean(axis=0)
    nr = cfg.realizations
    err_out = p_out.std(axis=0, ddof=1) / np.sqrt(nr)
    with np.errstate(divide="ignore", invalid="ignore"):
        transfer = np.where(mean_in > 0, mean_out / np.where(mean_in > 0, mean_in, 1.0), np.nan)
    return McEnsembleResult(
        spectrum=Spectrum(0.0, grid, mean_out),
        stderr=err_out,
        input_density=mean_in,
        transfer=transfer,
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


def slice_convergence(cfg: McConfig, chunk: int = 32) -> tuple[np.ndarray, np.ndarray, float]:
    """Transfer with the configured slice count versus double the count;
    returns both transfers and their max relative difference (over bins
    with meaningful input power)."""
    res1 = ensemble_beat_spectrum(cfg, chunk)
    res2 = ensemble_beat_spectrum(replace(cfg, slices=2 * cfg.slices), chunk)
    mask = res1.input_density > 1e-3 * res1.input_density.max()
    rel = float(
        np.max(np.abs(res2.transfer[mask] - res1.transfer[mask]) / np.maximum(res1.transfer[mask], 1e-300))
    )
    return res1.transfer, res2.transfer, rel


__all__ = [
    "McConfig",
    "McEnsembleResult",
    "band_average_transfer",
    "ensemble_beat_spectrum",
    "integrate_slice",
    "slice_convergence",
    "windowed_reference",
]
