"""Hot numeric kernels: linear recurrences with constant coefficients,
each solved exactly without a Python loop over its samples.

The lag sweep is a first-order recurrence along the lag grid with a
four-point source.  Its closed form is a power-weighted cumulative sum,
evaluated with ``np.cumsum`` in chunks short enough that the weights
cannot overflow.

The Monte-Carlo slab is linear time-invariant.  The drive ``d`` is
constant, so the slaved coherence is proportional to ``conj(d)`` and the
source ``fcoef d rho`` carries only ``|d|``: the drive phase cancels
from every slice.  Each slice's ground coherence obeys a second-order
recurrence in time, whose slow and fast poles run one after the other:
the fast one by log-step doubling, the slow one by the same chunked
cumulative sum as the lag sweep.  The slab is ``nsl`` slices in series;
``mc.mc_slab`` builds one slice's gains and poles (a ``Slab``) once, as
``g_sweep_coefficients`` builds the lag sweep's coefficients.  An
ensemble runs ``mc_batch`` once, on a unit sample at t = 1, and
``mc._slab_filter`` applies that impulse response to each realization
by cyclic FFT convolution; ``mc_batch`` defines the operator.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError


def _phi(x: complex) -> tuple[complex, complex, complex, complex]:
    """phi_k(x) = sum_j x^j/(j+k)! for k = 1..4, so phi1 = (e^x - 1)/x
    and phi_{k+1} = (phi_k - 1/k!)/x, with small-x guards.

    The direct quotients cancel catastrophically for small |x|, the more
    so the higher k.  phi1 and phi2 take their five-term series below
    1e-2, where its truncation error is ~1e-13; phi3 and phi4 take an
    18-term series below 1, where its truncation error is below 1e-19,
    and the recurrence above it.
    """
    if abs(x) < 1e-2:
        x2 = x * x
        phi1 = 1.0 + x / 2.0 + x2 / 6.0 + x2 * x / 24.0 + x2 * x2 / 120.0
        phi2 = 0.5 + x / 6.0 + x2 / 24.0 + x2 * x / 120.0 + x2 * x2 / 720.0
    else:
        ex = np.exp(x)
        phi1, phi2 = (ex - 1.0) / x, (ex - 1.0 - x) / (x * x)
    if abs(x) < 1.0:
        phi3, phi4 = (_phi_series(x, k) for k in (3, 4))
    else:
        phi3 = (phi2 - 0.5) / x
        phi4 = (phi3 - 1.0 / 6.0) / x
    return phi1, phi2, phi3, phi4


def _phi_series(x: complex, k: int) -> complex:
    """phi_k(x) by Horner's rule over the terms j < 18."""
    out = 0j
    for j in range(17, -1, -1):
        out = out * x + 1.0 / math.factorial(j + k)
    return out


# ---------------------------------------------------------------------------
# correlation sweep: G' = nfac * R(tau) - gtilde * G, exponential integrator
# with a piecewise-cubic source (Cox & Matthews, J. Comput. Phys. 176, 430
# (2002); Hochbruck & Ostermann, Acta Numerica 19, 209 (2010)):
#   G[k+1] = decay*G[k] + u[k],  u[k] = sum_i c_i * R[k-1+i],  i < 4,
# the cubic through R[k-1..k+2], one-sided through R[0..3] on the first
# interval and R[n-4..n-1] on the last.  With s the lag from tau_k in
# steps and a_ip the coefficient of s^p in the Lagrange basis polynomial
# of node i, integral_0^1 e^{x(1-s)} s^p ds = p! phi_{p+1}(x) gives
#   c_i = nfac * dtau * sum_p a_ip * p! * phi_{p+1}(x),  x = -gtilde*dtau,
# so the sweep is fourth order in dtau.  The closed form of the recurrence,
#   G[k] = decay^k * (G[0] + sum_{j<k} decay^-(j+1) * u[j]),
# runs as a cumulative sum over chunks of at most CHUNK_EXPONENT /
# |ln|decay|| lags, restarting from the last G of the previous chunk, so
# that decay^-j stays far from overflow.
# ---------------------------------------------------------------------------

# 6 * a_ip * p!: row i, column p, for the nodes t_i = 0, 1, 2, 3 of the
# first interval, -1, 0, 1, 2 of an interior one and -2, -1, 0, 1 of the last
_STENCILS = np.array([
    [[6, -11, 12, -6], [0, 18, -30, 18], [0, -9, 24, -18], [0, 2, -6, 6]],
    [[0, -2, 6, -6], [6, -3, -12, 18], [0, 6, 6, -18], [0, -1, 0, 6]],
    [[0, 1, 0, -6], [0, -6, 6, 18], [6, 3, -12, -18], [0, 2, 6, 6]],
]) / 6.0

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
    """Source weights of the lag recurrence and its table of powers."""

    weights: np.ndarray  # c_i of the first, an interior and the last interval
    powers: np.ndarray  # rows decay**k and decay**-k, 0 <= k <= one chunk


def g_sweep_coefficients(gtilde: complex, nfac: complex, dtau: float, size: int) -> LagSweep:
    """Coefficients of the lag sweep over ``size`` lags of step ``dtau``;
    the cubic source needs at least 4 lags."""
    if size < 4:
        raise InvalidParameterError(f"the lag sweep needs at least 4 lags, not {size}")
    x = -gtilde * dtau
    rate = abs(x.real)  # |ln|decay||
    if rate > CHUNK_EXPONENT:
        raise InvalidParameterError(
            f"|Re gtilde| * dtau = {rate:.3g} exceeds {CHUNK_EXPONENT:g}: "
            "the lag step is far longer than the coherence time"
        )
    phis = np.array(_phi(complex(x)))
    decay = complex(np.exp(x))
    return LagSweep((dtau * nfac) * (_STENCILS @ phis), _power_table(decay, rate, size - 1))


def g_sweep(r_values, g0, sweep: LagSweep, scale):
    """``scale`` times the solution of the slaved-coherence lag ODE along
    the lag grid from ``G[0] = g0``.

    The recurrence is linear, so ``scale`` rides in its source weights
    and its start value at no extra pass.  The rounding error is the
    recurrence's own, about eps * max|scale*G| / (1 - |decay|).
    """
    r = np.asarray(r_values, dtype=complex)
    first, inner, last = scale * sweep.weights
    out = np.empty(r.size, dtype=complex)
    out[0] = scale * g0
    u = np.empty(r.size - 1, dtype=complex)
    u[0] = first @ r[:4]
    u[-1] = last @ r[-4:]
    # the interior intervals k = 1 .. n-3, with out[2:-1] as scratch
    body, tmp = u[1:-1], out[2:-1]
    np.multiply(r[:-3], inner[0], out=body)
    for i in (1, 2, 3):
        np.multiply(r[i:i + body.size], inner[i], out=tmp)
        body += tmp
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
