"""Stochastic phase trajectories and synthesized noisy probe fields.

Two synthesis modes: pure phase diffusion (Wiener phase, Lorentzian line
of HWHM D) and a stationary Gaussian-process surrogate shaped to a
target spectral density (the modulator's limited response bandwidth is
modeled by the resulting spectrum, not from first principles).  A model
with a shaping uses the second mode and must set no diffusion.
``synthesize_probe_field`` returns the complex envelope as an array,
through the same ``_probe_synthesizer`` the Monte-Carlo ensemble calls.

RNG: numpy Philox (counter based); realization r of a model with seed s
uses the stream keyed by s XOR r, so ensembles are reproducible and
order independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .spectral import Spectrum


def realization_rng(seed: int, realization: int = 0) -> np.random.Generator:
    """Independent stream for one ensemble realization."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) ^ np.uint64(realization)))


@dataclass(frozen=True)
class PhaseNoiseModel:
    """White frequency-noise diffusion or, in its place, a spectral
    shaping."""

    diffusion: float  # D [rad^2/s]
    shaping: Spectrum | None = None
    seed: int = 0

    def __post_init__(self):
        if self.diffusion < 0:
            raise InvalidParameterError("diffusion constant must be >= 0")
        if self.diffusion > 0 and self.shaping is not None:
            raise InvalidParameterError(
                "a shaped model takes its spectrum from the shaping; diffusion must be 0"
            )


def sample_phase_trajectory(
    model: PhaseNoiseModel, dt: float, n: int, realization: int = 0
) -> np.ndarray:
    """Wiener phase phi(t): phi(0) = 0, increments N(0, 2*D*dt)."""
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    if n < 2:
        raise InvalidParameterError("need at least two samples")
    phi = np.zeros(n)
    if model.diffusion > 0:
        rng = realization_rng(model.seed, realization)
        increments = rng.normal(0.0, np.sqrt(2.0 * model.diffusion * dt), n - 1)
        np.cumsum(increments, out=phi[1:])
    return phi


def _probe_synthesizer(model: PhaseNoiseModel, amplitude: float, dt: float, n: int):
    """The function realization -> probe envelope of ``n`` samples; the
    checks and a shaped model's gain on the FFT grid are made once."""
    if not (np.isfinite(dt) and dt > 0) or n < 2:
        raise InvalidParameterError("need a finite dt > 0 and n >= 2")
    shaping = model.shaping
    if shaping is None:
        return lambda r: amplitude * np.exp(-1j * sample_phase_trajectory(model, dt, n, r))
    if max(abs(shaping.grid.start), abs(shaping.omegas[-1])) > np.pi / dt:
        raise InvalidParameterError("shaping grid extends beyond the Nyquist frequency pi/dt")
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, dt)
    gain = np.sqrt(np.interp(freqs, shaping.omegas, shaping.density, left=0.0, right=0.0))

    def envelope(realization):
        rng = realization_rng(model.seed, realization)
        noise = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)
        env = np.fft.ifft(gain * noise)
        power = np.mean(np.abs(env) ** 2)
        if power <= 0:
            raise InvalidParameterError("shaping spectrum produced a zero field")
        return env * (amplitude / np.sqrt(power))

    return envelope


def synthesize_probe_field(
    model: PhaseNoiseModel,
    amplitude: float,
    dt: float,
    n: int,
    realization: int = 0,
) -> np.ndarray:
    """Noisy probe envelope, sampled at step ``dt``, with the model's
    spectral statistics."""
    return _probe_synthesizer(model, amplitude, dt, n)(realization)
