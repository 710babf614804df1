"""Frequency grids, spectra, correlation functions and their transforms.

All frequencies are angular (rad/s); conversions from Hz happen at the
I/O boundary.  Spectra are baseband: a grid holds offsets from the
carrier, and no route needs the carrier's absolute frequency.

Spectrum <-> correlation transforms are trapezoid sums over uniform
grids of arbitrary (non power-of-two) length, evaluated as Bluestein
chirp convolutions on ``numpy.fft``: O((N+M) log(N+M)) time and O(N+M)
memory for N frequencies and M lags, equal to the direct quadrature up
to round-off (about 1e-12 of the largest output at 1201 x 10 391).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidParameterError,
    MultimodalSpectrumError,
    TruncationWarning,
    UnresolvedWidthError,
)

SQRT_LN2 = np.sqrt(np.log(2.0))
# Gaussian exp(-(w/ww)^2) has FWHM = GAUSSIAN_FWHM_FACTOR * ww
GAUSSIAN_FWHM_FACTOR = 2.0 * SQRT_LN2

EDGE_DECAY = 1e-6  # spectral density / correlation edge decay threshold


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


def fwhm_estimate(s: Spectrum) -> float:
    """Full width at half maximum from interpolated half-max crossings."""
    y = s.density
    w = s.omegas
    imax = int(np.argmax(y))
    if imax == 0 or imax == y.size - 1:
        raise UnresolvedWidthError("peak lies on the grid boundary")
    half = y[imax] / 2.0
    above = y >= half
    below_left = np.flatnonzero(~above[:imax])
    below_right = np.flatnonzero(~above[imax:])
    # a peak region reaching the grid edge is unresolved, even beside other peaks
    if below_left.size == 0 or below_right.size == 0:
        raise UnresolvedWidthError("density never falls below half maximum")
    # count contiguous regions above half maximum
    edges = np.flatnonzero(np.diff(above.astype(int)))
    n_regions = (int(above[0]) + int(above[-1]) + edges.size) // 2
    if n_regions > 1:
        raise MultimodalSpectrumError(
            f"{n_regions} disjoint regions above half maximum"
        )
    il = below_left[-1]  # last point below half on the left
    ir = imax + below_right[0]  # first point below half on the right
    left = _cross(w[il], y[il], w[il + 1], y[il + 1], half)
    right = _cross(w[ir - 1], y[ir - 1], w[ir], y[ir], half)
    return float(right - left)


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] = w[-1] = step / 2.0
    return w


def _chirp_sum(v, x0, dx, y0, dy, m, sign):
    """out[j] = sum_k v[k] exp(sign*i*(x0 + k*dx)*(y0 + j*dy)) for j < m.

    The direct sum over two uniform grids, evaluated as a chirp-z
    transform (Bluestein 1970) in O((n+m) log(n+m)) time and O(n+m)
    memory.  The linear phases k*dx*y0 and x0*(y0 + j*dy) are applied
    outside the transform, so only exp(sign*i*dx*dy*k*j) goes through it.
    With k*j = (k^2 + j^2 - (j-k)^2)/2 and the chirp c[k] =
    exp(0.5j*sign*dx*dy*k^2), that term is c[j] * sum_k (c[k] u[k])
    conj(c[j-k]): a linear convolution with conj(c) at lags -(n-1)..m-1,
    done as a cyclic one of power-of-two length.  The chirp's phase is
    formed in real arithmetic from the exact integers k^2.
    """
    n = len(v)
    k = np.arange(max(n, m))
    chirp = np.exp(1j * ((0.5 * sign * dx * dy) * (k * k).astype(float)))
    size = 1 << (n + m - 2).bit_length()  # next power of two >= n+m-1
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
    u = v * np.exp(sign * 1j * (dx * y0) * k[:n])
    u *= chirp[:n]
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(kernel))[:m]
    y = y0 + dy * np.arange(m)
    return chirp[:m] * conv * np.exp(sign * 1j * x0 * y)


def spectrum_to_correlation(s: Spectrum, dtau: float, n: int) -> CorrelationFunction:
    """R(tau) = integral I_omega exp(-i omega tau) domega by trapezoid."""
    if dtau <= 0 or n < 2:
        raise InvalidParameterError("need dtau > 0 and n >= 2")
    peak = s.density.max()
    if peak > 0 and max(s.density[0], s.density[-1]) >= EDGE_DECAY * peak:
        warnings.warn(
            "spectral density has not decayed below 1e-6 of peak at the "
            "grid edges; correlation values are truncated",
            TruncationWarning,
            stacklevel=2,
        )
    g = s.grid
    weights = _trapezoid_weights(g.count, g.step)
    values = _chirp_sum(weights * s.density, g.start, g.step, 0.0, dtau, n, -1)
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


@lru_cache(maxsize=4)
def _hann(n: int) -> np.ndarray:
    """The n-point Hann window, built once per length and shared
    read-only between calls."""
    w = np.hanning(n)
    w.flags.writeable = False
    return w


def _periodogram_writer(n: int, dt: float, window: str):
    """The grid of an ``n``-sample periodogram and a function writing one
    envelope's density into a row; the window, its norm and one FFT
    buffer are made once for all calls."""
    if n < 8:
        raise InvalidParameterError("series too short for a periodogram")
    if window not in ("boxcar", "hann"):
        raise InvalidParameterError(f"unknown window {window!r}")
    w = _hann(n) if window == "hann" else np.ones(n)
    norm = 2.0 * np.pi * np.sum(w**2)
    freqs = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n, dt))
    grid = FrequencyGrid(start=float(freqs[0]), step=float(freqs[1] - freqs[0]), count=n)
    buf, half = np.empty(n, dtype=complex), n // 2

    def write(envelope, row):
        np.fft.fft(np.multiply(envelope, w, out=buf), out=buf)
        np.abs(buf[:n - half], out=row[half:])  # fftshift: bin j to (j + n//2) mod n
        np.abs(buf[n - half:], out=row[:half])
        np.square(row, out=row)
        row *= dt
        row /= norm
        return row

    return grid, write


def periodogram(envelope: np.ndarray, dt: float, window: str = "boxcar") -> Spectrum:
    """Periodogram of a complex envelope, normalized so the density
    integral equals the (window-weighted) mean power of the series.

    ``window`` is ``boxcar`` or ``hann``; the Hann taper suppresses
    leakage sidelobes when a narrow line sits on weak broadband wings.
    """
    x = np.asarray(envelope, dtype=complex)
    grid, write = _periodogram_writer(x.size, dt, window)
    return Spectrum(grid, write(x, np.empty(x.size)))
