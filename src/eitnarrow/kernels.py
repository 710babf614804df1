"""Hot numeric kernels: linear recurrences with constant coefficients,
each solved exactly without a Python loop over its samples.

The lag sweep is a first-order recurrence along the lag grid.  Its
closed form is a power-weighted cumulative sum, evaluated with
``np.cumsum`` in chunks short enough that the weights cannot overflow.

The Monte-Carlo slab is linear time-invariant.  The drive ``d`` is
constant, so the slaved coherence is proportional to ``conj(d)`` and the
source ``fcoef d rho`` carries only ``|d|``: the drive phase cancels
from every slice.  Each slice's ground coherence obeys a second-order
recurrence in time, solved as a unit-lower-triangular banded system
(LAPACK ``ztbtrs``, forward substitution); the slice output is then a
sum of its input and that coherence, and the slab is ``nsl`` slices in
series.
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
    chunk = max(1, size - 1)
    if rate * chunk > CHUNK_EXPONENT:
        chunk = int(CHUNK_EXPONENT / rate)
    up = decay ** np.arange(chunk + 1)
    return LagSweep(
        complex(dtau * nfac * (phi1 - phi2)),
        complex(dtau * nfac * phi2),
        np.stack([up, 1.0 / up]),
    )


def g_sweep(r_values, g0, sweep: LagSweep):
    """Integrate the slaved-coherence lag ODE along the lag grid.

    The rounding error is the recurrence's own, about
    eps * max|G| / (1 - |decay|).
    """
    r_values = np.asarray(r_values, dtype=complex)
    up, down = sweep.powers
    out = np.empty(r_values.size, dtype=complex)
    out[0] = g0
    u = sweep.c_prev * r_values[:-1]
    u += sweep.c_curr * r_values[1:]
    step = up.size - 1
    for lo in range(0, u.size, step):
        seg = u[lo:lo + step]
        seg *= down[1:seg.size + 1]
        block = out[lo + 1:lo + 1 + seg.size]
        np.cumsum(seg, out=block)
        block += out[lo]
        block *= up[1:seg.size + 1]
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
#   s[t]     = |d|*(e_half*x[t] + k_h*rho[t])
#   rho[t+1] = erho*rho[t] + alpha*s[t] + beta*s[t-1]
# starting from the slaved state rho[0] = nfac*|d|*x[0]/gtilde,
# s[-1] = |d|*x[0].  Eliminating s leaves a recurrence in rho alone,
#   rho[t] - c1*rho[t-1] - c2*rho[t-2] = src[t],
#   c1 = erho + alpha*|d|*k_h,  c2 = beta*|d|*k_h,
#   src[0] = rho[0],  src[1] = |d|*(alpha*e_half + beta)*x[0],
#   src[t] = |d|*e_half*(alpha*x[t-1] + beta*x[t-2])  for t >= 2,
# a unit-lower-triangular banded system with two subdiagonals.
# ---------------------------------------------------------------------------


def mc_batch(probe, drive, nsl, e_full, e_half, b_full, b_half,
             fcoef, erho, alpha, beta, nfac, gtilde):
    """Propagate one probe envelope through ``nsl`` slices lit by the
    constant drive ``drive``; only ``|drive|`` enters."""
    # scipy.linalg costs about 0.3 s to import and only the MC needs it
    from scipy.linalg.lapack import ztbtrs

    y = np.asarray(probe, dtype=complex)
    dmod = abs(drive)
    k_h = b_half * fcoef * dmod
    k_f = b_full * fcoef * dmod
    # LAPACK lower band storage: band[i - j, j] = A[i, j]
    band = np.empty((3, y.size), dtype=complex, order="F")
    band[0] = 1.0
    band[1] = -(erho + alpha * dmod * k_h)
    band[2] = -beta * dmod * k_h
    src = np.empty((y.size, 1), dtype=complex, order="F")
    col = src[:, 0]
    for _ in range(nsl):
        col[0] = nfac * dmod * y[0] / gtilde
        col[1] = dmod * (alpha * e_half + beta) * y[0]
        col[2:] = alpha * y[1:-1] + beta * y[:-2]
        col[2:] *= dmod * e_half
        rho, _ = ztbtrs(band, src, uplo="L", diag="U", overwrite_b=1)
        y = e_full * y + k_f * rho[:, 0]
    return y
