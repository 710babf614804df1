"""Stochastic phase trajectories and synthesized noisy probe fields.

Two synthesis modes: pure phase diffusion (Wiener phase, Lorentzian line
of HWHM D) and a stationary Gaussian-process surrogate shaped to a
target spectral density (the modulator's limited response bandwidth is
modeled by the resulting spectrum, not from first principles).  A model
with a shaping uses the second mode and must set no diffusion.
``synthesize_probe_field`` returns the complex envelope as an array,
through the same ``_probe_synthesizer`` the Monte-Carlo ensemble calls.
A shaped synthesizer makes its gain and its buffers once; each call fills
the spectrum buffer with 2n standard normals, views them as n complex
values and shapes and scales them in place.  Only a synthesizer built
to hand back the envelope runs the inverse FFT into the envelope buffer:
the Monte-Carlo slab filter starts from the spectrum, and an ensemble
that reads no probe takes no transform of it.

RNG: numpy Philox (counter based; Salmon et al., SC'11 (2011));
realization r of a model with seed s uses the stream with the two-word
key (s, r), so ensembles are reproducible and order independent, and no
two (seed, realization) pairs share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .spectral import Spectrum


def realization_rng(seed: int, realization: int = 0) -> np.random.Generator:
    """Independent stream for one ensemble realization: Philox keyed
    with the two words (seed, realization)."""
    return np.random.Generator(np.random.Philox(key=[seed, realization]))


@dataclass(frozen=True)
class PhaseNoiseModel:
    """White frequency-noise diffusion or, in its place, a spectral
    shaping."""

    diffusion: float  # D [rad^2/s]
    shaping: Spectrum | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.diffusion >= 0:
            raise InvalidParameterError("diffusion constant must be >= 0")
        if self.diffusion > 0 and self.shaping is not None:
            raise InvalidParameterError(
                "a shaped model takes its spectrum from the shaping; diffusion must be 0"
            )


def sample_phase_trajectory(
    model: PhaseNoiseModel, dt: float, n: int, realization: int = 0
) -> np.ndarray:
    """Wiener phase phi(t): phi(0) = 0, increments N(0, 2*D*dt)."""
    if not dt > 0:
        raise InvalidParameterError("dt must be positive")
    if n < 2:
        raise InvalidParameterError("need at least two samples")
    phi = np.zeros(n)
    if model.diffusion > 0:
        rng = realization_rng(model.seed, realization)
        increments = rng.normal(0.0, np.sqrt(2.0 * model.diffusion * dt), n - 1)
        np.cumsum(increments, out=phi[1:])
    return phi


def _probe_synthesizer(
    model: PhaseNoiseModel, amplitude: float, dt: float, n: int, envelope: bool = True
):
    """The function realization -> (probe envelope of ``n`` samples, its
    FFT); the checks and a shaped model's gain on the FFT grid are made
    once.

    A shaped model's envelope and spectrum are its buffers, overwritten
    by the next call: a caller that keeps either past that copies it.
    Its spectrum is the one the inverse FFT took, so equals
    ``fft(envelope)`` to rounding; without ``envelope`` that inverse FFT
    is not run and the envelope is None.  A Wiener-phase or constant
    envelope is drawn in the time domain whatever ``envelope`` says, and
    gets ``fft(envelope)`` itself."""
    if not (np.isfinite(dt) and dt > 0) or n < 2:
        raise InvalidParameterError("need a finite dt > 0 and n >= 2")
    shaping = model.shaping
    if shaping is None:

        def phase_envelope(realization):
            env = amplitude * np.exp(-1j * sample_phase_trajectory(model, dt, n, realization))
            return env, np.fft.fft(env)

        return phase_envelope
    if max(abs(shaping.grid.start), abs(shaping.omegas[-1])) > np.pi / dt:
        raise InvalidParameterError("shaping grid extends beyond the Nyquist frequency pi/dt")
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, dt)
    # the 1/sqrt(2) makes the complex noise of unit variance
    gain = np.sqrt(0.5 * np.interp(freqs, shaping.omegas, shaping.density, left=0.0, right=0.0))
    draws = np.empty(2 * n)
    spec = draws.view(complex)  # draws 2k and 2k + 1 are bin k's real and imaginary parts
    env = np.empty(n, dtype=complex) if envelope else None

    def shaped(realization):
        realization_rng(model.seed, realization).standard_normal(out=draws)
        np.multiply(spec, gain, out=spec)
        # mean |ifft(spec)|^2 by Parseval: sum |spec|^2 / n^2; einsum's
        # own loop, not a BLAS call (no thread pool per realization)
        power = np.einsum("i,i", draws, draws) / n**2
        if power <= 0:
            raise InvalidParameterError("shaping spectrum produced a zero field")
        np.multiply(spec, amplitude / np.sqrt(power), out=spec)
        return (None if env is None else np.fft.ifft(spec, out=env)), spec

    return shaped


def synthesize_probe_field(
    model: PhaseNoiseModel,
    amplitude: float,
    dt: float,
    n: int,
    realization: int = 0,
) -> np.ndarray:
    """Noisy probe envelope, sampled at step ``dt``, with the model's
    spectral statistics."""
    return _probe_synthesizer(model, amplitude, dt, n)(realization)[0]
