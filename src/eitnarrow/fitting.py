"""Nonlinear least-squares lineshape fitting.

Damped Gauss-Newton with analytic Jacobians for the Gaussian and
Lorentzian models.  Initialization comes from the peak sample and the
interpolated half-max width unless an explicit initial guess is given.
"""

from __future__ import annotations

import numpy as np

from .errors import FitFailedError, InvalidParameterError
from .spectral import (
    FitResult,
    GAUSSIAN_FWHM_FACTOR,
    Spectrum,
    fwhm_estimate,
)

MAX_ITER = 200
STEP_TOL = 1e-10


def _gaussian_model(w, amp, center, width):
    u = (w - center) / width
    f = np.exp(-(u**2))
    y = amp * f
    # columns: d/d amp, d/d center, d/d width
    jac = np.column_stack((f, y * 2 * u / width, y * 2 * u**2 / width))
    return y, jac


def _lorentzian_model(w, amp, center, width):
    d2 = (w - center) ** 2
    denom = d2 + width**2
    f = width**2 / denom
    y = amp * f
    jac = np.column_stack(
        (
            f,
            y * 2 * (w - center) / denom,
            amp * 2 * width * d2 / denom**2,
        )
    )
    return y, jac


_MODELS = {"gaussian": _gaussian_model, "lorentzian": _lorentzian_model}


def _self_initialize(s: Spectrum, model: str) -> np.ndarray:
    y = s.density
    w = s.omegas
    imax = int(np.argmax(y))
    fwhm = fwhm_estimate(s)
    width = fwhm / GAUSSIAN_FWHM_FACTOR if model == "gaussian" else fwhm / 2.0
    return np.array([y[imax], w[imax], width])


def fit_lineshape(s: Spectrum, model: str, init: FitResult | None = None) -> FitResult:
    """Least-squares fit of a model lineshape to a sampled spectrum."""
    if model not in _MODELS:
        raise InvalidParameterError(f"unknown model {model!r}")
    w = s.omegas
    y = s.density
    peak = float(y.max())
    if peak <= 0:
        raise InvalidParameterError("cannot fit an all-zero spectrum")
    fun = _MODELS[model]

    if init is not None:
        p = np.array([init.amplitude, init.center, init.width], dtype=float)
    else:
        p = _self_initialize(s, model)

    # a width so small that its square (or the square of the model's
    # denominator) underflows makes the model or its Jacobian 0/0; report
    # that as a failed fit before LAPACK sees it
    with np.errstate(divide="ignore", invalid="ignore"):
        yfit, jac = fun(w, *p)
    resid = yfit - y
    cost = resid @ resid
    if not (np.isfinite(cost) and np.isfinite(jac).all()):
        raise FitFailedError(f"{model} fit failed: not finite at the initial guess")
    converged = False
    for _ in range(MAX_ITER):
        # column-scale the Jacobian: parameters mix O(1) amplitudes with
        # rad/s frequencies, so the raw normal equations are singular to
        # working precision
        col = np.linalg.norm(jac, axis=0)
        col[col == 0] = 1.0
        try:
            step, *_ = np.linalg.lstsq(jac / col, -resid, rcond=None)
        except np.linalg.LinAlgError as exc:
            # a non-finite model, e.g. a width so small against the grid
            # offsets that width**2 underflows and the model is 0/0
            raise FitFailedError(f"{model} fit failed: {exc}") from exc
        step = step / col
        if np.linalg.norm(step) <= STEP_TOL * max(np.linalg.norm(p), 1e-300):
            converged = True
            break
        # damping: halve the step until the cost decreases
        scale = 1.0
        for _ in range(30):
            p_try = p + scale * step
            if p_try[2] > 0:
                y_try, j_try = fun(w, *p_try)
                r_try = y_try - y
                c_try = r_try @ r_try
                if c_try <= cost:
                    break
            scale *= 0.5
        else:
            break
        rel_step = np.linalg.norm(scale * step) / max(np.linalg.norm(p_try), 1e-300)
        p, yfit, jac, resid, cost = p_try, y_try, j_try, r_try, c_try
        if rel_step < STEP_TOL:
            converged = True
            break

    result = FitResult(
        model=model,
        center=float(p[1]),
        width=float(abs(p[2])),
        amplitude=float(p[0]),
        rms_residual=float(np.sqrt(cost / y.size) / peak),
    )
    if not converged:
        raise FitFailedError(
            f"{model} fit did not converge within {MAX_ITER} iterations",
            best=result,
        )
    return result


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Ordinary least-squares line y = slope*x + intercept; returns
    (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InvalidParameterError("need at least two points for a line")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(resid @ resid) / float(ss_tot) if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
