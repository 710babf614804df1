"""Hot numeric kernels: linear recurrences with constant coefficients,
each solved exactly without a Python loop over its samples.

The lag sweep is a first-order recurrence along the lag grid.  Its
closed form is a power-weighted cumulative sum, evaluated with
``np.cumsum`` in chunks short enough that the weights cannot overflow.

The Monte-Carlo slab is linear time-invariant.  The drive ``d`` is
constant, so the slaved coherence is proportional to ``conj(d)`` and the
source ``fcoef d rho`` carries only ``|d|``: the drive phase cancels
from every slice.  Each slice's ground coherence obeys a second-order
recurrence in time, whose slow and fast poles run one after the other:
the fast one by log-step doubling, the slow one by the same chunked
cumulative sum as the lag sweep.  The slab is ``nsl`` slices in series;
``mc.mc_slab`` builds one slice's gains and poles (a ``Slab``) once, as
``g_sweep_coefficients`` builds the lag sweep's coefficients.  An
ensemble runs ``mc_batch`` twice, on a unit sample at t = 0 and at
t = 1, and ``mc._slab_filter`` applies those impulse responses to each
realization by FFT convolution; ``mc_batch`` defines the operator.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError


def _phi12(x: complex) -> tuple[complex, complex]:
    """phi1 = (e^x - 1)/x, phi2 = (e^x - 1 - x)/x^2 with small-x guard.

    The direct quotients cancel catastrophically for small |x|, so the
    series takes over below 1e-2 where its truncation error is ~1e-13.
    """
    if abs(x) < 1e-2:
        x2 = x * x
        phi1 = 1.0 + x / 2.0 + x2 / 6.0 + x2 * x / 24.0 + x2 * x2 / 120.0
        phi2 = 0.5 + x / 6.0 + x2 / 24.0 + x2 * x / 120.0 + x2 * x2 / 720.0
        return phi1, phi2
    ex = np.exp(x)
    return (ex - 1.0) / x, (ex - 1.0 - x) / (x * x)


# ---------------------------------------------------------------------------
# correlation sweep: G' = nfac * R(tau) - gtilde * G, exponential integrator
# with piecewise-linear source:
#   G[k+1] = decay*G[k] + c_prev*R[k] + c_curr*R[k+1]
# whose closed form, with u[j] = c_prev*R[j-1] + c_curr*R[j], is
#   G[k] = decay^k * (G[0] + sum_{1<=j<=k} decay^-j * u[j]).
# The sum runs as a cumulative sum over chunks of at most CHUNK_EXPONENT /
# |ln|decay|| lags, restarting from the last G of the previous chunk, so
# that decay^-j stays far from overflow.
# ---------------------------------------------------------------------------

CHUNK_EXPONENT = 300.0


def _power_table(decay: complex, rate: float, count: int) -> np.ndarray:
    """Rows ``decay**k`` and ``decay**-k`` for ``0 <= k <= chunk``, the
    chunk of a scan over ``count`` steps.

    ``rate`` is ``|ln|decay||``; a chunk spans at most
    ``CHUNK_EXPONENT / rate`` steps, so ``|decay|**-k`` stays below
    ``e**CHUNK_EXPONENT``.  The powers are a running product: its
    rounding grows with ``k`` but stays near ``1e-14`` relative over
    10^4 steps, and it costs a fraction of a complex ``**``.
    """
    chunk = max(1, count)
    if rate * chunk > CHUNK_EXPONENT:
        chunk = int(CHUNK_EXPONENT / rate)
    up = np.cumprod(np.concatenate(([1.0], np.full(chunk, decay, dtype=complex))))
    return np.stack([up, 1.0 / up])


def _power_scan(u, carry, powers, out):
    """``out[j] = decay*out[j-1] + u[j]`` with ``out[-1] = carry``.

    Runs as ``out[j] = decay^(j+1) * (carry + sum_{i<=j} decay^-(i+1) u[i])``
    over chunks of the ``powers`` table, each restarting from the last
    value of the one before; the carry enters as the first summand.
    ``u`` is overwritten.
    """
    up, down = powers
    step = up.size - 1
    for lo in range(0, u.size, step):
        seg = u[lo:lo + step]
        seg *= down[1:seg.size + 1]
        if carry:  # skipped when zero: the slab starts from rest
            seg[0] += carry
        block = out[lo:lo + seg.size]
        np.cumsum(seg, out=block)
        block *= up[1:seg.size + 1]
        carry = block[-1]
    return out


class LagSweep(NamedTuple):
    """Coefficients of the lag recurrence and its table of powers."""

    c_prev: complex
    c_curr: complex
    powers: np.ndarray  # rows decay**k and decay**-k, 0 <= k <= one chunk


def g_sweep_coefficients(gtilde: complex, nfac: complex, dtau: float, size: int) -> LagSweep:
    """Coefficients of the lag sweep over ``size`` lags of step ``dtau``."""
    x = -gtilde * dtau
    rate = abs(x.real)  # |ln|decay||
    if rate > CHUNK_EXPONENT:
        raise InvalidParameterError(
            f"|Re gtilde| * dtau = {rate:.3g} exceeds {CHUNK_EXPONENT:g}: "
            "the lag step is far longer than the coherence time"
        )
    phi1, phi2 = _phi12(x)
    decay = complex(np.exp(x))
    return LagSweep(
        complex(dtau * nfac * (phi1 - phi2)),
        complex(dtau * nfac * phi2),
        _power_table(decay, rate, size - 1),
    )


def g_sweep(r_values, g0, sweep: LagSweep, scale):
    """``scale`` times the solution of the slaved-coherence lag ODE along
    the lag grid from ``G[0] = g0``.

    The recurrence is linear, so ``scale`` rides in its two source
    weights and its start value at no extra pass.  The rounding error
    is the recurrence's own, about eps * max|scale*G| / (1 - |decay|).
    """
    r_values = np.asarray(r_values, dtype=complex)
    out = np.empty(r_values.size, dtype=complex)
    out[0] = scale * g0
    u = (scale * sweep.c_prev) * r_values[:-1]
    u += (scale * sweep.c_curr) * r_values[1:]
    _power_scan(u, out[0], sweep.powers, out[1:])
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo slab propagation.
#
# Per time sample the probe envelope is swept through nsl slices; each
# slice advances the field exactly for its frozen ground coherence
# (midpoint field sampling) and steps the coherence with a second-order
# exponential integrator.  With k_h = b_half*fcoef*|d| and
# k_f = b_full*fcoef*|d|, a slice maps its input x to
#   y[t]     = e_full*x[t] + k_f*rho[t]
#   q[t]     = |d|*(e_half*x[t] + k_h*rho[t])
#   rho[t+1] = erho*rho[t] + alpha*q[t] + beta*q[t-1]
# starting from the slaved state rho[0] = nfac*|d|*x[0]/gtilde,
# q[-1] = |d|*x[0].  Eliminating q leaves a recurrence in rho alone,
#   rho[t] - c1*rho[t-1] - c2*rho[t-2] = src[t],
#   c1 = erho + alpha*|d|*k_h,  c2 = beta*|d|*k_h,
#   src[0] = rho[0],  src[1] = |d|*(alpha*e_half + beta)*x[0],
#   src[t] = |d|*e_half*(alpha*x[t-1] + beta*x[t-2])  for t >= 2,
# with rho[-1] = rho[-2] = 0.  The characteristic polynomial factors as
#   1 - c1/z - c2/z^2 = (1 - s/z)(1 - f/z),  s + f = c1,  s*f = -c2,
# with s the root of larger modulus, so rho is src passed through the
# fast pole f and then the slow pole s: once the slaved start has decayed
# a slice is H(z) = e_full + k_f*(a_src/z + b_src/z^2)/((1 - s/z)(1 - f/z)).
# The fast pole runs by log-step doubling, src[k:] += f^k src[:-k] for
# k = 1, 2, 4, ..., until |f|^k drops below 2^-60 (the rest of its tail is
# below rounding) or k reaches the length (the prefix is then complete).
# The slow pole runs as the chunked cumulative sum of the lag sweep.
# ---------------------------------------------------------------------------

FAST_POLE_CUTOFF = 2.0**-60


class Slab(NamedTuple):
    """Gains, poles and table of powers of one slice of the slab."""

    e_full: complex  # field advance across the slice
    k_f: complex  # field gain of the ground coherence
    rho_gain: complex  # nfac*|d|: src[0] = rho_gain*x[0]/gtilde
    gtilde: complex
    kick: complex  # src[1] = kick*x[0]
    a_src: complex  # src[t] = a_src*x[t-1] + b_src*x[t-2], t >= 2
    b_src: complex
    fast: complex  # fast pole f
    powers: np.ndarray  # rows s**k and s**-k of the slow pole, one chunk


def mc_batch(probe, nsl, slab: Slab):
    """Propagate one probe envelope through ``nsl`` slices of ``slab``."""
    y = np.array(probe, dtype=complex)
    n = y.size
    # every pass writes into these two buffers: fresh temporaries of
    # this size cost about 15 % more per slice
    src = np.empty(n, dtype=complex)
    tmp = np.empty(n, dtype=complex)
    for _ in range(nsl):
        src[0] = slab.rho_gain * y[0] / slab.gtilde
        src[1] = slab.kick * y[0]
        np.multiply(y[1:-1], slab.a_src, out=src[2:])
        np.multiply(y[:-2], slab.b_src, out=tmp[2:])
        src[2:] += tmp[2:]
        k, fk = 1, slab.fast
        while k < n and abs(fk) >= FAST_POLE_CUTOFF:
            np.multiply(src[:-k], fk, out=tmp[k:])
            src[k:] += tmp[k:]
            k, fk = 2 * k, fk * fk
        rho = _power_scan(src, 0.0, slab.powers, tmp)
        rho *= slab.k_f
        y *= slab.e_full
        y += rho
    return y
