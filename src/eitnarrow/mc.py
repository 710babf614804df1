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

The per-field coupling is half of ``coupling_eta``, so the slab's
density exponent is the medium's own, and its analytic reference is
``transmission`` of the same medium.  ``mc_slab`` builds one slice's
gains and poles once per ensemble, and ``kernels.mc_batch`` runs the
slices in the time domain: once per ensemble, on a unit sample at
t = 1 over two records, which gives the slab's impulse response from
rest.  The slab is linear and time-invariant, and a shaped probe is the
inverse FFT of shaped white noise, so it repeats exactly with the period
of its record (Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1088
(1997)): its settled output is one cyclic convolution with that
response (Percival & Walden, *Spectral Analysis for Physical
Applications* (1993), ch. 6), and no start-up is discarded.
``_slab_filter`` takes it as one product with the response's transform
and one inverse FFT, whatever the slice count: the probe synthesizer
hands it the probe's spectrum.  With the periodogram's FFT, a
realization of ``ensemble_beat_spectrum`` runs two transforms of its
record; ``band_average_transfer`` reads the probe too, so a shaped
probe's inverse FFT and its periodogram add two more.  ``mc_batch``
still defines the operator; the filter matches the last period of its
output on three periods of the probe to a few 1e-15 of the output's
peak.  A Wiener-phase probe does not repeat: the transient of its wrap,
from the record's last sample to its first, opens the kept samples,
where their Hann taper is zero.

The slab is linear in the probe, so the probe's amplitude only scales
the output densities and their standard errors.  The ensemble draws it
at ``PROBE_FRACTION`` times |Omega_d|, inside the weak-probe regime.

Each realization's record is the kept samples padded to the next
2^a 3^b 5^c length, so that the probe's inverse FFT and the slab
filter's run fast (Frigo & Johnson, Proc. IEEE 93, 216 (2005)); the
first ``cfg.grid.count`` are kept.  A slab whose impulse response does
not settle within the record, more than ``MAX_TAIL`` of its L1 mass over
two records in the second, is refused with ``ResolutionError`` before
the synthesizer is built.

An ensemble streams: each realization's periodograms are reduced into
running sums as they come and dropped, so memory does not grow with the
realization count.  ``ensemble_beat_spectrum`` takes the output's
periodogram alone and reduces it per bin; ``band_average_transfer``
takes the input's too, and reduces both per band fixed before the run.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ResolutionError
from .kernels import Slab, _phi, _power_table, mc_batch
from .medium import AtomicMedium, FieldConfig, complex_rates, coupling_eta
from .noise import PhaseNoiseModel, _probe_synthesizer
from .spectral import FrequencyGrid, Spectrum, _periodogram_grid, _periodogram_writer

PROBE_FRACTION = 0.05  # probe amplitude of the ensemble in units of |Omega_d|
# the largest share of the slab's impulse response, in L1 mass over two
# records, that may lie in the second; at this share the folded filter
# misses the settled output by about 1e-6 of its peak
MAX_TAIL = 1e-3


@dataclass(frozen=True)
class McConfig:
    medium: AtomicMedium
    fields: FieldConfig
    noise: PhaseNoiseModel
    dt: float
    duration: float
    realizations: int
    slices: int

    def __post_init__(self):
        if self.slices < 1:
            raise InvalidParameterError("need at least one slice")
        if self.realizations < 8:
            raise InvalidParameterError("need at least 8 realizations")
        # a NaN fails the comparison too
        if not self.dt > 0 or not self.duration > 0:
            raise InvalidParameterError("dt and duration must be positive")
        if abs(self.fields.omega_d) <= 0:
            raise InvalidParameterError("Monte-Carlo runs need a nonzero drive")
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

    @property
    def grid(self) -> FrequencyGrid:
        """The periodogram grid of one realization's kept samples, known
        before any draw."""
        return _periodogram_grid(int(round(self.duration / self.dt)), self.dt)


@dataclass(frozen=True)
class McEnsembleResult:
    """The running sums of one ensemble, reduced per bin: no periodogram
    of a single realization is kept."""

    spectrum: Spectrum  # ensemble-mean transmitted beat spectrum
    stderr: np.ndarray  # per-bin standard error of the mean (Welford)
    drive_depletion: float  # implied drive power transmission (diagnostic)


def mc_slab(m: AtomicMedium, f: FieldConfig, dz: float, dt: float, count: int) -> Slab:
    """One slice of thickness ``dz`` of the slab at time step ``dt``, its
    gains and poles at the drive modulus |Omega_d|, for ``count``
    samples."""
    rates = complex_rates(m, f)
    eta = 0.5 * coupling_eta(m)  # coupling of the per-field equations
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
    phi1, phi2, _, _ = _phi(complex(x))
    erho = np.exp(x)
    alpha = dt * (phi1 + phi2) * rates.n_factor
    beta = -dt * phi2 * rates.n_factor
    dmod = abs(f.omega_d)
    k_h = b_half * fcoef * dmod
    k_f = b_full * fcoef * dmod
    c1 = complex(erho + alpha * dmod * k_h)
    c2 = complex(beta * dmod * k_h)
    # roots of z^2 - c1 z - c2; the sign that adds moduli avoids cancellation
    root = np.sqrt(c1 * c1 + 4.0 * c2)
    s = 0.5 * (c1 + root if abs(c1 + root) >= abs(c1 - root) else c1 - root)
    return Slab(e_full, k_f, rates.n_factor * dmod, rates.gamma_cb_eff,
                dmod * (alpha * e_half + beta), alpha * dmod * e_half, beta * dmod * e_half,
                -c2 / s, _power_table(s, abs(np.log(abs(s))), count))


def _slab_filter(cfg: McConfig, n: int):
    """The function fft(probe) -> the first ``cfg.grid.count`` samples of
    the settled output of ``cfg``'s slab when the ``n``-sample probe
    repeats with period n; the slab's one ``mc_batch`` run is made here.

    The slab is linear and, from rest, time-invariant, so the settled
    output of a probe of period n is the cyclic convolution of one period
    with the impulse response folded onto n samples.  h_k is the response
    k samples after a unit sample at t = 1, which finds the slab at rest;
    it runs to k = 2n - 2 and h_{n..2n-2} are folded onto h_{0..n-2}, so
    the filter leaves out only the response beyond 2n.  A slab that keeps
    more than ``MAX_TAIL`` of the L1 mass of h in h_{n..2n-2} does not
    settle within the record and is refused with ``ResolutionError``.  A
    call runs one inverse FFT, whatever the slice count.

    The slab, its table of powers included, lives only through the
    impulse run.  The output is a view of the filter's one buffer,
    overwritten by the next call: a caller that keeps an output past that
    copies it."""
    unit = np.zeros(2 * n, dtype=complex)
    unit[1] = 1.0
    slab = mc_slab(cfg.medium, cfg.fields, cfg.medium.length / cfg.slices, cfg.dt, n)
    h = mc_batch(unit, cfg.slices, slab)  # h[k + 1] = h_k
    mass = np.abs(h)
    tail = mass[n + 1:].sum() / mass.sum()
    if not tail <= MAX_TAIL:
        raise ResolutionError(
            f"the slab's impulse response over two {n}-sample records keeps {tail:.3g} "
            f"of its L1 mass in the second (limit {MAX_TAIL:g}): it does not settle within "
            f"[mc] duration_ms = {cfg.duration * 1e3:g} at [mc] slices = {cfg.slices} and "
            f"dt_us = {cfg.dt * 1e6:g}"
        )
    out = h[1:n + 1]
    out[:-1] += h[n + 1:]
    transfer = np.fft.fft(out)  # the response is spent: out is the call's buffer
    keep = cfg.grid.count

    def apply(spectrum):
        np.multiply(spectrum, transfer, out=out)
        return np.fft.ifft(out, out=out)[:keep]

    return apply


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= ``n``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _implied_drive_depletion(cfg: McConfig) -> float:
    """Drive power transmission exp(-eta n_ca Re(1/Gamma_ca) L): the
    drive's own linear absorption on a-c, which the probe leaves
    untouched at first order; 1 when n_ca = 0.  Reported as a
    diagnostic, never fed back into the run."""
    rates = complex_rates(cfg.medium, cfg.fields)
    rate = -coupling_eta(cfg.medium) * cfg.fields.n_ca * (1.0 / rates.gamma_ca).real
    return float(np.exp(rate * cfg.medium.length))


def _realization_envelopes(
    cfg: McConfig, probes: bool
) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
    """Each realization's kept probe, or None without ``probes``, and
    slab output, in realization order.  A shaped probe is the
    synthesizer's buffer and the output the slab filter's, each
    overwritten by the next realization; without ``probes`` a shaped
    probe's inverse FFT is not taken.

    Once per ensemble, before the first realization: the slab with its
    poles and table of powers, its impulse run, the check that it settles
    within the record and its transform, then the shaping's gain and the
    draw buffer.  Per realization: its noise (the stream keyed (seed, r)),
    which comes with its spectrum, and the slab filter."""
    keep = cfg.grid.count
    n = _fft_length(keep)
    propagate = _slab_filter(cfg, n)
    synthesize = _probe_synthesizer(
        cfg.noise, PROBE_FRACTION * abs(cfg.fields.omega_d), cfg.dt, n, envelope=probes
    )
    for r in range(cfg.realizations):
        probe, spectrum = synthesize(r)
        yield (probe[:keep] if probes else None), propagate(spectrum)


def _realization_passes(cfg: McConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each realization's input and output Hann periodograms on
    ``cfg.grid``, in realization order, as fresh rows the consumer owns."""
    n_keep = cfg.grid.count
    write_periodogram = _periodogram_writer(n_keep, cfg.dt)
    for probe, out in _realization_envelopes(cfg, probes=True):
        yield write_periodogram(probe, np.empty(n_keep)), write_periodogram(out, np.empty(n_keep))


def ensemble_beat_spectrum(cfg: McConfig) -> McEnsembleResult:
    """Ensemble-averaged beat spectrum of the transmitted probe.

    Each realization's output periodogram, the one periodogram it takes,
    is added into per-bin running sums and dropped, so memory does not
    grow with ``cfg.realizations``.  The sums are taken in realization
    order, so the density equals ``mean(axis=0)`` of the stacked rows bit
    for bit; the standard error comes from Welford's update
    (Technometrics 4, 419 (1962)) and equals ``std(axis=0, ddof=1) /
    sqrt(R)`` of the rows to rounding.
    """
    grid = cfg.grid
    write_periodogram = _periodogram_writer(grid.count, cfg.dt)
    total, mean, m2, row, delta = (np.zeros(grid.count) for _ in range(5))
    for k, (_, out) in enumerate(_realization_envelopes(cfg, probes=False), 1):
        write_periodogram(out, row)
        total += row
        np.subtract(row, mean, out=delta)
        mean += delta / k
        row -= mean
        delta *= row
        m2 += delta
    nr = cfg.realizations
    return McEnsembleResult(
        spectrum=Spectrum(grid, total / nr),
        stderr=np.sqrt(m2 / (nr - 1)) / np.sqrt(nr),
        drive_depletion=_implied_drive_depletion(cfg),
    )


def band_average_transfer(
    cfg: McConfig, mask: np.ndarray, n_bands: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Band-aggregated Monte-Carlo transfer with realization scatter.

    The masked bins of ``cfg.grid`` are split into ``n_bands`` contiguous
    bands before the ensemble runs.  For each band every realization
    yields a band-power ratio (sum of output periodogram bins over sum of
    input bins); numerator and denominator share the same random
    amplitudes, so the ratio is tight and nearly unbiased even where
    single-bin ratios would be heavy tailed.  Only these ratios, one per
    realization and band, and a running sum of the input are kept.
    Returns (the bin indices of each band, band transfer means, band
    standard errors, the ensemble-mean input density).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (cfg.grid.count,):
        raise InvalidParameterError("the band mask must have one entry per periodogram bin")
    idx = np.flatnonzero(mask)
    if idx.size < n_bands:
        raise InvalidParameterError("fewer masked bins than requested bands")
    groups = np.array_split(idx, n_bands)
    nr = cfg.realizations
    ratios = np.empty((n_bands, nr))
    sum_in = np.zeros(mask.size)
    for r, (p_in, p_out) in enumerate(_realization_passes(cfg)):
        sum_in += p_in
        for i, g in enumerate(groups):
            ratios[i, r] = p_out[g].sum() / p_in[g].sum()
    values = np.array([q.mean() for q in ratios])
    errs = np.array([q.std(ddof=1) for q in ratios]) / np.sqrt(nr)
    return groups, values, errs, sum_in / nr


__all__ = [
    "McConfig",
    "McEnsembleResult",
    "band_average_transfer",
    "ensemble_beat_spectrum",
]
