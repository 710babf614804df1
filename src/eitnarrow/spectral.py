"""Frequency grids, spectra, correlation functions and their transforms.

All frequencies are angular (rad/s); conversions from Hz happen at the
I/O boundary.  Spectra are baseband: a grid holds offsets from the
carrier, and no route needs the carrier's absolute frequency.

Spectrum <-> correlation transforms are trapezoid sums over uniform
grids of arbitrary (non power-of-two) length, evaluated as Bluestein
chirp convolutions on ``numpy.fft``: O((N+M) log(N+M)) time and O(N+M)
memory for N frequencies and M lags, equal to the direct quadrature up
to round-off (about 1e-12 of the largest output at 1201 x 10 391,
about five times the route's 2 100 two-sided lags).
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameterError,
    MultimodalSpectrumError,
    TruncationWarning,
    UnresolvedWidthError,
)

SQRT_LN2 = math.sqrt(math.log(2.0))
# Gaussian exp(-(w/ww)^2) has FWHM = GAUSSIAN_FWHM_FACTOR * ww
GAUSSIAN_FWHM_FACTOR = 2.0 * SQRT_LN2

EDGE_DECAY = 1e-6  # spectral density / correlation edge decay threshold
# fewest grid steps across an output FWHM, for a fitted output line and
# for a route problem's transfer alike; at 4 or more the fit reads within
# 0.1 % of its fully resolved width at the default config,
# Doppler-broadened and homogeneous (CHANGES.md gives the table)
MIN_STEPS_PER_FWHM = 4.0
# share of its peak below which the window-convolved input of
# ``windowed_reference`` leaves the reference unresolved (NaN)
WINDOWED_FLOOR = 1e-9


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of angular frequency offsets from the carrier."""

    start: float  # rad/s
    step: float  # rad/s
    count: int

    def __post_init__(self):
        if not (np.isfinite(self.start) and np.isfinite(self.step)):
            raise InvalidParameterError("grid start and step must be finite")
        if not self.step > 0:
            raise InvalidParameterError("grid step must be positive")
        try:
            count = operator.index(self.count)
        except TypeError:
            raise InvalidParameterError("grid count must be an integer") from None
        if count < 8:
            raise InvalidParameterError("grid needs at least 8 points")

    @classmethod
    def centered(cls, step: float, count: int) -> "FrequencyGrid":
        """Grid symmetric about zero offset."""
        return cls(start=-step * (count - 1) / 2.0, step=step, count=count)

    @classmethod
    def spanning(cls, half_width: float, count: int) -> "FrequencyGrid":
        """Centered grid covering [-half_width, +half_width]."""
        if half_width <= 0:
            raise InvalidParameterError("half_width must be positive")
        return cls.centered(step=2.0 * half_width / (count - 1), count=count)

    @property
    def omegas(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @cached_property
    def omega_text(self) -> tuple[str, ...]:  # the CSV ω column, formatted once per grid
        return tuple(map(repr, self.omegas.tolist()))


@dataclass(frozen=True)
class Spectrum:
    """Nonnegative spectral density samples on a frequency grid."""

    grid: FrequencyGrid
    density: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "density", d)
        if d.shape != (self.grid.count,):
            raise InvalidParameterError("density length must match grid count")
        if not np.all(np.isfinite(d)):
            raise InvalidParameterError("density must be finite")
        if np.any(d < 0):
            raise InvalidParameterError("density must be nonnegative")

    @property
    def omegas(self) -> np.ndarray:
        return self.grid.omegas

    def integral(self) -> float:
        """Trapezoid integral of the density over the grid."""
        return float(np.trapezoid(self.density, dx=self.grid.step))


@dataclass(frozen=True)
class CorrelationFunction:
    """Complex correlation samples at lags 0, dtau, 2*dtau, ..."""

    lag_step: float  # s
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if not (np.isfinite(self.lag_step) and self.lag_step > 0):
            raise InvalidParameterError("lag step must be finite and positive")
        if v.ndim != 1 or v.size < 2:
            raise InvalidParameterError("need at least two lag samples")

    @property
    def lags(self) -> np.ndarray:
        return self.lag_step * np.arange(self.values.size)


@dataclass(frozen=True)
class FitResult:
    """Parameters of a fitted Gaussian or Lorentzian lineshape.

    ``width`` is omega_w for the Gaussian model and the HWHM gamma_n for
    the Lorentzian model (FWHM = 2*gamma_n).
    """

    model: str  # "gaussian" | "lorentzian"
    center: float  # rad/s
    width: float  # rad/s
    amplitude: float
    rms_residual: float  # rms residual / peak amplitude

    @property
    def fwhm(self) -> float:
        if self.model == "gaussian":
            return GAUSSIAN_FWHM_FACTOR * self.width
        return 2.0 * self.width


def gaussian_spectrum(omega_w: float, grid: FrequencyGrid) -> Spectrum:
    """exp(-omega^2 / omega_w^2) sampled on ``grid``."""
    if omega_w <= 0:
        raise InvalidParameterError("omega_w must be positive")
    w = grid.omegas
    return Spectrum(grid, np.exp(-((w / omega_w) ** 2)))


def lorentzian_spectrum(gamma_n: float, grid: FrequencyGrid) -> Spectrum:
    """gamma_n^2 / (omega^2 + gamma_n^2) sampled on ``grid``."""
    if gamma_n <= 0:
        raise InvalidParameterError("gamma_n must be positive")
    w = grid.omegas
    return Spectrum(grid, gamma_n**2 / (w**2 + gamma_n**2))


def _cross(w0, y0, w1, y1, half):
    # linear interpolation of the half-max crossing between two grid points
    return w0 + (half - y0) * (w1 - w0) / (y1 - y0)


def _half_max_width(w: np.ndarray, y: np.ndarray) -> float:
    """Width between the interpolated half-max crossings that bound the
    contiguous region of ``y`` above half maximum around its peak, on the
    ascending abscissae ``w``, uniform or not; regions apart from it are
    ignored."""
    imax = int(np.argmax(y))
    if imax == 0 or imax == y.size - 1:
        raise UnresolvedWidthError("peak lies on the grid boundary")
    half = y[imax] / 2.0
    below = y < half
    below_left = np.flatnonzero(below[:imax])
    below_right = np.flatnonzero(below[imax:])
    if below_left.size == 0 or below_right.size == 0:
        raise UnresolvedWidthError("density never falls below half maximum")
    il = below_left[-1]  # last point below half on the left
    ir = imax + below_right[0]  # first point below half on the right
    left = _cross(w[il], y[il], w[il + 1], y[il + 1], half)
    right = _cross(w[ir - 1], y[ir - 1], w[ir], y[ir], half)
    return float(right - left)


def fwhm_estimate(s: Spectrum) -> float:
    """Full width at half maximum from interpolated half-max crossings;
    a spectrum with more than one region above half maximum is refused.
    A peak region reaching the grid edge is unresolved, even beside
    other peaks."""
    width = _half_max_width(s.omegas, s.density)
    above = s.density >= s.density.max() / 2.0
    # count contiguous regions above half maximum
    edges = np.flatnonzero(np.diff(above.astype(int)))
    n_regions = (int(above[0]) + int(above[-1]) + edges.size) // 2
    if n_regions > 1:
        raise MultimodalSpectrumError(
            f"{n_regions} disjoint regions above half maximum"
        )
    return width


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] = w[-1] = step / 2.0
    return w


def _fft_length(n: int) -> int:
    """The smaller of the next 2^k and the next 3*2^k that are >= n.  Not
    ``mc._fft_length``'s 2^a 3^b 5^c, which keeps the simulated record
    short: here it saved no FFT time (6.5 against 6.9-7.5 ms per ``--quick
    validate``, 2-core Xeon) and moved ``wiener-khinchin-roundtrip``'s
    rounding (9.770e-15 to 1.044e-14).  The route's largest transform,
    1201 frequencies to at most 1065 one-sided lags, takes
    1201 + 1065 - 1 -> 3072."""
    return min(1 << (n - 1).bit_length(), 3 << (-(-n // 3) - 1).bit_length())


def _apply_phase(a: np.ndarray, offset: float, rate: float) -> None:
    """a[..., j] *= exp(i*(offset + rate*j)), j = b*p + q, as the outer
    product of exp(i*(offset + rate*b*p)) and exp(i*rate*q), b ~ sqrt(j)."""
    if offset == 0.0 and rate == 0.0:
        return
    count = a.shape[-1]
    b = math.isqrt(count - 1) + 1
    coarse = np.exp(1j * (offset + rate * (b * np.arange(-(-count // b)))))
    fine = np.exp(1j * (rate * np.arange(b)))
    a *= np.outer(coarse, fine).ravel()[:count]


def _chirp_sum(v, x0, dx, y0, dy, m, sign):
    """out[..., j] = sum_k v[..., k] exp(sign*i*(x0 + k*dx)*(y0 + j*dy))
    for j < m, for each row of ``v`` (shape (n,) or (rows, n)).

    The direct sum over two uniform grids, evaluated as a chirp-z
    transform (Bluestein 1970) in O((n+m) log(n+m)) time and O(n+m)
    memory per row.  The linear phases k*dx*y0 and x0*(y0 + j*dy) are
    applied outside the transform as separable products
    (``_apply_phase``), so only exp(sign*i*dx*dy*k*j) goes through it.
    With k*j = (k^2 + j^2 - (j-k)^2)/2 and the chirp c[k] =
    exp(0.5j*sign*dx*dy*k^2), that term is c[j] * sum_k (c[k] u[k])
    conj(c[j-k]): a linear convolution with conj(c) at lags -(n-1)..m-1,
    done as a cyclic one of length ``_fft_length(n+m-1)``, a power of two
    or three times one.  The rows share the chirp and the kernel's FFT,
    and the FFTs run in place.  The chirp's phase is formed in real
    arithmetic from the exact integers k^2.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    k = np.arange(max(n, m))
    chirp = np.exp(1j * ((0.5 * sign * dx * dy) * (k * k).astype(float)))
    size = _fft_length(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
    np.fft.fft(kernel, out=kernel)
    buf = np.zeros(v.shape[:-1] + (size,), dtype=complex)
    u = buf[..., :n]
    u[...] = v
    _apply_phase(u, 0.0, sign * dx * y0)
    u *= chirp[:n]
    np.fft.fft(buf, out=buf)
    buf *= kernel
    np.fft.ifft(buf, out=buf)
    out = buf[..., :m] * chirp[:m]
    _apply_phase(out, sign * x0 * y0, sign * x0 * dy)
    return out


def _weighted_density(s: Spectrum) -> np.ndarray:
    """Trapezoid weights times the density; a TruncationWarning if the
    density has not decayed below ``EDGE_DECAY`` of peak at the edges."""
    peak = s.density.max()
    if peak > 0 and max(s.density[0], s.density[-1]) >= EDGE_DECAY * peak:
        warnings.warn(
            "spectral density has not decayed below 1e-6 of peak at the "
            "grid edges; correlation values are truncated",
            TruncationWarning,
            stacklevel=3,
        )
    return _trapezoid_weights(s.grid.count, s.grid.step) * s.density


def spectrum_to_correlation(s: Spectrum, dtau: float, n: int) -> CorrelationFunction:
    """R(tau) = integral I_omega exp(-i omega tau) domega by trapezoid."""
    if dtau <= 0 or n < 2:
        raise InvalidParameterError("need dtau > 0 and n >= 2")
    g = s.grid
    values = _chirp_sum(_weighted_density(s), g.start, g.step, 0.0, dtau, n, -1)
    return CorrelationFunction(dtau, values)


def correlation_to_spectrum(r: CorrelationFunction, grid: FrequencyGrid) -> Spectrum:
    """Inverse transform using the Hermitian extension R(-tau) = R*(tau)."""
    v = r.values
    r0 = abs(v[0])
    if r0 > 0 and abs(v[-1]) >= EDGE_DECAY * r0:
        warnings.warn(
            "correlation has not decayed below 1e-6 of R(0) at the last "
            "lag; spectrum values are truncated",
            TruncationWarning,
            stacklevel=2,
        )
    weights = _trapezoid_weights(v.size, r.lag_step)
    sums = _chirp_sum(weights * v, 0.0, r.lag_step, grid.start, grid.step, grid.count, 1)
    density = sums.real / np.pi
    # round-off can leave tiny negative values; clip them
    density = np.clip(density, 0.0, None)
    return Spectrum(grid, density)


def _periodogram_grid(n: int, dt: float) -> FrequencyGrid:
    """The shifted FFT frequencies of ``n`` samples at step ``dt``."""
    if n < 8:
        raise InvalidParameterError("series too short for a periodogram")
    freqs = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n, dt))
    return FrequencyGrid(start=float(freqs[0]), step=float(freqs[1] - freqs[0]), count=n)


def _periodogram_writer(n: int, dt: float):
    """A function writing one ``n``-sample envelope's Hann periodogram
    into a row; the window, scaled by sqrt(dt / norm) so that |fft|^2 is
    the density, and one FFT buffer are made once for all calls."""
    w = np.hanning(n)
    w *= np.sqrt(dt / (2.0 * np.pi * np.sum(w**2)))
    buf, half = np.empty(n, dtype=complex), n // 2

    def write(envelope, row):
        np.fft.fft(np.multiply(envelope, w, out=buf), out=buf)
        np.abs(buf[:n - half], out=row[half:])  # fftshift: bin j to (j + n//2) mod n
        np.abs(buf[n - half:], out=row[:half])
        return np.square(row, out=row)

    return write


def windowed_reference(input_density: np.ndarray, analytic_bins: np.ndarray) -> np.ndarray:
    """Expected periodogram-domain transfer: the analytic per-frequency
    transfer, weighted by ``input_density`` on the same bins, seen
    through the Hann window's spectral kernel.

    Near a line much narrower than the spectral resolution the raw
    analytic curve and the windowed estimate differ strongly; convolving
    the input-weighted transfer with the window kernel makes the
    comparison exact in expectation.  The periodogram's kernel,
    |fft(hann)|^2, wraps around the DFT grid, so both convolutions are
    circular: two FFT products with the kernel's transform.  Their
    rounding is about 1e-15 of the convolved input's peak, so a bin where
    that input falls below ``WINDOWED_FLOOR`` of its peak reads NaN: its
    ratio is not resolved (at 1e-9 of the peak it is good to about 1e-7
    against a direct sum)."""
    kern = np.abs(np.fft.fft(np.hanning(analytic_bins.size))) ** 2
    kern /= kern.sum()
    num, den = np.fft.ifft(
        np.fft.fft(np.stack([analytic_bins * input_density, input_density])) * np.fft.fft(kern)
    ).real
    out = np.full(den.shape, np.nan)
    return np.divide(num, den, out=out, where=den > WINDOWED_FLOOR * den.max())


def periodogram(envelope: np.ndarray, dt: float) -> Spectrum:
    """Hann periodogram of a complex envelope, normalized so the density
    integral equals the window-weighted mean power of the series.  The
    taper suppresses leakage sidelobes when a narrow line sits on weak
    broadband wings."""
    x = np.asarray(envelope, dtype=complex)
    grid = _periodogram_grid(x.size, dt)
    return Spectrum(grid, _periodogram_writer(x.size, dt)(x, np.empty(x.size)))
