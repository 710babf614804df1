"""Nonlinear least-squares lineshape fitting.

Damped Newton steps with analytic first and second derivatives of the
Gaussian and Lorentzian models, falling back to the Gauss-Newton step
where Newton's matrix is not positive definite.  A fit stops when the
gradient vanishes, when the step is negligible against the parameters,
or when the step's predicted decrease of the cost is below the cost's
rounding.  Initialization comes from the peak sample and the
interpolated half-max width of the contiguous region around it, so a
stray spike above half maximum elsewhere does not stop the fit, unless
an explicit initial guess is given.
"""

from __future__ import annotations

import numpy as np

from .errors import FitFailedError, InvalidParameterError
from .spectral import (
    FitResult,
    GAUSSIAN_FWHM_FACTOR,
    Spectrum,
    _half_max_width,
)

MAX_ITER = 200
STEP_TOL = 1e-10
GRAD_TOL = 1e-10

# the symmetric 3 x 3 matrix of a model's six second-derivative rows
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _gaussian_model(w, amp, center, width):
    u = (w - center) / width
    # rows: d/d amp, d/d center, d/d width
    jac = np.empty((3, u.size))
    # rows: amp-amp, amp-center, amp-width, center-center, center-width,
    # width-width
    hess = np.empty((6, u.size))
    f = np.exp(-(u**2), out=jac[0])
    y = amp * f
    t = 2 * u / width  # d log(f) / d center
    v = t * u  # d log(f) / d width
    np.multiply(y, t, out=jac[1])
    np.multiply(y, v, out=jac[2])
    hess[0] = 0.0
    np.multiply(f, t, out=hess[1])
    np.multiply(f, v, out=hess[2])
    np.divide(2 * y * (v - 1 / width), width, out=hess[3])
    np.multiply(y * t, v - 2 / width, out=hess[4])
    np.multiply(y * v, v - 3 / width, out=hess[5])
    return y, jac, hess


def _lorentzian_model(w, amp, center, width):
    dw = w - center
    d2 = dw**2
    width_sq = width**2
    denom = d2 + width_sq
    denom_sq = denom**2
    jac = np.empty((3, dw.size))
    hess = np.empty((6, dw.size))
    f = np.divide(width_sq, denom, out=jac[0])
    y = amp * f
    jac_c = np.divide(y * 2 * dw, denom, out=jac[1])
    jac_w = np.divide(amp * 2 * width * d2, denom_sq, out=jac[2])
    # no denominator beyond denom**2, which the Jacobian already has, so
    # the second derivatives underflow no sooner than the Jacobian does
    hess[0] = 0.0
    np.divide(2 * f * dw, denom, out=hess[1])
    np.divide(2 * width * d2, denom_sq, out=hess[2])
    np.divide(2 * y * (3 * d2 - width_sq), denom_sq, out=hess[3])
    width_denom = width * denom
    np.divide(jac_c * 2 * (d2 - width_sq), width_denom, out=hess[4])
    np.divide(jac_w * (d2 - 3 * width_sq), width_denom, out=hess[5])
    return y, jac, hess


_MODELS = {"gaussian": _gaussian_model, "lorentzian": _lorentzian_model}


def _self_initialize(s: Spectrum, model: str) -> np.ndarray:
    y = s.density
    w = s.omegas
    imax = int(np.argmax(y))
    fwhm = _half_max_width(w, y)
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
    # denominator) underflows makes the model or its derivatives 0/0;
    # report that as a failed fit before LAPACK sees it
    with np.errstate(divide="ignore", invalid="ignore"):
        yfit, jac, hess = fun(w, *p)
    resid = yfit - y
    cost = resid @ resid
    if not (np.isfinite(cost) and np.isfinite(jac).all() and np.isfinite(hess).all()):
        raise FitFailedError(f"{model} fit failed: not finite at the initial guess")
    converged = False
    for _ in range(MAX_ITER):
        # scale each parameter by its Jacobian row's norm: parameters mix
        # O(1) amplitudes with rad/s frequencies, so the unscaled 3 x 3
        # systems are singular to working precision
        jtj = jac @ jac.T
        norms = np.sqrt(np.diag(jtj))
        norms[norms == 0] = 1.0
        outer = np.outer(norms, norms)
        # each entry is |resid| times the cosine between the residual and
        # a Jacobian row; all vanish where the cost is stationary
        grad = (jac @ resid) / norms
        if np.abs(grad).max() <= GRAD_TOL * np.sqrt(cost):
            converged = True
            break
        # Newton's matrix keeps the residual-curvature term that
        # Gauss-Newton drops; the output line is not a Lorentzian, so
        # that term is large and Gauss-Newton converges only linearly
        gauss_newton = jtj / outer
        newton = gauss_newton + (hess @ resid)[_SYM] / outer
        try:
            np.linalg.cholesky(newton)
        except np.linalg.LinAlgError:
            newton = gauss_newton  # its step still goes downhill
        try:
            scaled = np.linalg.solve(newton, -grad)
        except np.linalg.LinAlgError as exc:
            # exactly singular, e.g. a parameter that does not move the model
            raise FitFailedError(f"{model} fit failed: {exc}") from exc
        # the quadratic model's decrease of the cost along the step is
        # -grad.scaled; below the cost's rounding no step can lower it
        # measurably, and halving would only spend model evaluations
        if -(grad @ scaled) <= np.finfo(float).eps * cost:
            converged = True
            break
        step = scaled / norms
        if np.linalg.norm(step) <= STEP_TOL * max(np.linalg.norm(p), 1e-300):
            converged = True
            break
        # damping: halve the step until the cost decreases
        scale = 1.0
        for _ in range(30):
            p_try = p + scale * step
            if p_try[2] > 0:
                y_try, j_try, h_try = fun(w, *p_try)
                r_try = y_try - y
                c_try = r_try @ r_try
                if c_try <= cost:
                    break
            scale *= 0.5
        else:
            break
        rel_step = np.linalg.norm(scale * step) / max(np.linalg.norm(p_try), 1e-300)
        p, jac, hess, resid, cost = p_try, j_try, h_try, r_try, c_try
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
