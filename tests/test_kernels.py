"""The recurrence kernels against plain-loop oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from eitnarrow.config import load_config
from eitnarrow.errors import InvalidParameterError
from eitnarrow.kernels import (
    CHUNK_EXPONENT,
    _phi,
    _power_table,
    g_sweep,
    g_sweep_coefficients,
    mc_batch,
)
from eitnarrow.mc import PROBE_FRACTION, mc_slab
from eitnarrow.medium import complex_rates, coupling_eta

TWO_PI = 2.0 * np.pi


def _g_sweep_loop(r_values, g0, decay, weights):
    """The lag recurrence step by step: the cubic source through
    R[k-1..k+2], or R[0..3] and R[n-4..n-1] on the first and last
    intervals, with the weight rows of those three stencils."""
    n = r_values.size
    out = np.empty(n, dtype=np.complex128)
    g = g0
    out[0] = g
    for k in range(n - 1):
        if k == 0:
            row, lo = weights[0], 0
        elif k == n - 2:
            row, lo = weights[2], n - 4
        else:
            row, lo = weights[1], k - 1
        src = 0j
        for i in range(4):
            src += row[i] * r_values[lo + i]
        g = decay * g + src
        out[k + 1] = g
    return out


def _mc_batch_loop(probe, drive, out, nsl, e_full, e_half, b_full, b_half,
                   fcoef, erho, alpha, beta, nfac, gtilde):
    nreal, nt = probe.shape
    for r in range(nreal):
        rho = np.zeros(nsl, dtype=np.complex128)
        s_prev = np.zeros(nsl, dtype=np.complex128)
        w = probe[r, 0]
        d0 = drive[r, 0]
        for j in range(nsl):
            s = w * np.conj(d0)
            rho[j] = nfac * s / gtilde
            s_prev[j] = s
            w = e_full * w + b_full * (fcoef * d0 * rho[j])
        for t in range(nt):
            w = probe[r, t]
            d = drive[r, t]
            for j in range(nsl):
                src = fcoef * d * rho[j]
                w_mid = e_half * w + b_half * src
                w_out = e_full * w + b_full * src
                s = w_mid * np.conj(d)
                rho[j] = erho * rho[j] + alpha * s + beta * s_prev[j]
                s_prev[j] = s
                w = w_out
            out[r, t] = w
    return out


def _random_r(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_phi12_small_argument_continuity():
    # series branch matches the direct quotients at the switch point
    for x in (0.99e-2 + 0j, 7e-3 + 7e-3j, -0.99e-2 + 0j):
        phi1, phi2, _, _ = _phi(x)
        assert abs(phi1 - (np.exp(x) - 1.0) / x) < 1e-10
        assert abs(phi2 - (np.exp(x) - 1.0 - x) / x**2) < 1e-10
    phi1, phi2, _, _ = _phi(0.0)
    assert phi1 == 1.0 and phi2 == 0.5
    # agreement with the exact quotients at a comfortable argument
    x = 0.3 - 0.2j
    phi1, phi2, _, _ = _phi(x)
    assert abs(phi1 - (np.exp(x) - 1.0) / x) < 1e-14
    assert abs(phi2 - (np.exp(x) - 1.0 - x) / x**2) < 1e-14


def _phi_long_double(x, k):
    """phi_k(x) = sum_j x^j/(j+k)! summed in long double, 60 terms."""
    re, im = np.longdouble(np.real(x)), np.longdouble(np.imag(x))
    term_re, term_im = np.longdouble(1.0), np.longdouble(0.0)
    out_re = out_im = np.longdouble(0.0)
    for j in range(60):
        fact = np.longdouble(math.factorial(j + k)) / np.longdouble(math.factorial(j))
        out_re += term_re / fact
        out_im += term_im / fact
        term_re, term_im = term_re * re - term_im * im, term_re * im + term_im * re
        term_re, term_im = term_re / (j + 1), term_im / (j + 1)
    return complex(float(out_re), float(out_im))


@pytest.mark.parametrize(
    "x", [0.0, 7e-3 - 7e-3j, 0.0099, 0.011, 0.3 - 0.2j, 0.999j, -1.001, 2.5 + 1j]
)
def test_phi3_phi4_agree_with_their_series(x):
    """phi3 and phi4 within 1e-13 of a long-double series on either side
    of their guard at |x| = 1 and of phi1 and phi2's at 1e-2."""
    for k, value in enumerate(_phi(complex(x))[2:], 3):
        exact = _phi_long_double(x, k)
        assert abs(value - exact) <= 1e-13 * abs(exact), (k, value, exact)


def _exponential_source_error(dtau, span=2.0):
    """Largest error of the sweep, relative to the solution, for
    G' = nfac*R - gtilde*G with R = exp(-lam tau) over [0, span], whose
    solution from the particular start is nfac R/(gtilde - lam)."""
    gtilde, nfac, lam = 3.0 + 0.7j, 0.4 - 0.2j, 1.1 + 0.3j
    taus = dtau * np.arange(int(round(span / dtau)) + 1)
    r = np.exp(-lam * taus)
    g0 = nfac / (gtilde - lam)
    g = g_sweep(r, g0, g_sweep_coefficients(gtilde, nfac, dtau, r.size), 1.0)
    exact = nfac * r / (gtilde - lam)
    return np.max(np.abs(g - exact)) / np.max(np.abs(exact))


def test_g_sweep_solves_the_lag_ode():
    """G' = nfac*R - gtilde*G with an exponential source has a closed
    form; the sweep reproduces it to 1.8e-14 over 2 001 lags."""
    assert _exponential_source_error(1e-3) < 5e-14


def test_g_sweep_is_fourth_order():
    """Halving dtau cuts the sweep's error about 16-fold, at least
    12-fold: 2.1e-8, 1.4e-9, 9.1e-11 and 5.7e-12 at dtau = 0.04 .. 0.005."""
    errors = [_exponential_source_error(dtau) for dtau in (0.04, 0.02, 0.01, 0.005)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse >= 12.0 * fine, errors


def _sweep_pair(r, g0, gtilde, nfac, dtau, scale=1.0):
    """The public sweep and ``scale`` times the loop oracle on the same
    coefficients."""
    sweep = g_sweep_coefficients(gtilde, nfac, dtau, r.size)
    decay = sweep.powers[0, 1]
    assert decay == np.exp(-gtilde * dtau)
    loop = _g_sweep_loop(r, g0, decay, sweep.weights)
    return g_sweep(r, g0, sweep, scale), scale * loop


def test_g_sweep_loop_and_filter_agree():
    r = _random_r()
    b, a = _sweep_pair(r, 0.5 + 0.1j, 2.0 + 1.0j, 0.3 - 0.1j, 0.01)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))


def test_g_sweep_crosses_chunks():
    """At gtilde*dtau = 5 one unchunked power-weighted sum over 20 000
    lags would overflow (|decay|^-j reaches e^100000); the chunked sum
    carries G across about 330 chunk boundaries."""
    r = _random_r(n=20_000, seed=7)
    gtilde, dtau = 5.0 + 2.0j, 1.0
    sweep = g_sweep_coefficients(gtilde, 0.3 - 0.1j, dtau, r.size)
    assert sweep.powers.shape[1] - 1 < r.size // 100
    b, a = _sweep_pair(r, 0.5 + 0.1j, gtilde, 0.3 - 0.1j, dtau)
    assert np.all(np.isfinite(b))
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_g_sweep_scale_rides_in_its_weights_and_start():
    """A complex scale, folded into the source weights and G[0],
    gives the scaled solution, also across chunk boundaries, where the
    carried G enters each chunk's cumulative sum as its first term."""
    r = _random_r(n=5_000, seed=10)
    b, a = _sweep_pair(r, 0.5 + 0.1j, 5.0 + 2.0j, 0.3 - 0.1j, 1.0, scale=-0.37 + 0.2j)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_g_sweep_with_decay_near_one():
    """|decay| -> 1 (gtilde*dtau = 1e-5): one chunk spans the grid and
    G sums all 20 000 lags of source with almost no decay."""
    r = _random_r(n=20_000, seed=8) + 3.0
    b, a = _sweep_pair(r, 0.5 + 0.1j, 1.0 + 0.4j, 0.3 - 0.1j, 1e-5)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_g_sweep_rejects_a_lag_step_beyond_one_chunk():
    """Past |Re gtilde|*dtau = CHUNK_EXPONENT a single lag would need a
    weight |decay|^-1 above e^300, so the sweep refuses the step."""
    sweep = g_sweep_coefficients(CHUNK_EXPONENT + 0j, 0.3, 1.0, 100)
    assert sweep.powers.shape == (2, 2)
    r = _random_r(n=100, seed=9) * 1e100
    b, a = _sweep_pair(r, 0.5, CHUNK_EXPONENT + 1j, 0.3, 1.0)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    with pytest.raises(InvalidParameterError):
        g_sweep_coefficients(1.01 * CHUNK_EXPONENT + 0j, 0.3, 1.0, 100)


def test_g_sweep_on_its_shortest_grid():
    """Four lags hold one cubic: the first, interior and last stencils
    all read R[0..3], and the sweep matches the loop.  Three lags hold
    none, and the coefficients are refused."""
    r = _random_r(n=4, seed=11)
    b, a = _sweep_pair(r, 0.5 + 0.1j, 2.0 + 1.0j, 0.3 - 0.1j, 0.01)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    with pytest.raises(InvalidParameterError, match="at least 4 lags"):
        g_sweep_coefficients(2.0 + 1.0j, 0.3, 0.01, 3)


def _slice_coefficients(m, f, dz, dt):
    """The coefficients of one slice's per-sample map, from the slice
    equations: the field advances as exp(a z), a = eta n_ab / Gamma_ab
    with eta half of ``coupling_eta``, under the source fcoef d rho with
    fcoef = -eta / Gamma_ab, and the ground coherence takes second-order
    exponential-integrator steps at the rate gtilde = Gamma_cb_eff."""
    rates = complex_rates(m, f)
    eta = 0.5 * coupling_eta(m)
    a = eta * f.n_ab / rates.gamma_ab
    e_full, e_half = np.exp(a * dz), np.exp(a * dz / 2.0)
    x = -rates.gamma_cb_eff * dt
    phi1, phi2, _, _ = _phi(complex(x))
    return dict(
        e_full=e_full,
        e_half=e_half,
        b_full=(e_full - 1.0) / a,
        b_half=(e_half - 1.0) / a,
        fcoef=-eta / rates.gamma_ab,
        erho=np.exp(x),
        alpha=dt * (phi1 + phi2) * rates.n_factor,
        beta=-dt * phi2 * rates.n_factor,
        nfac=rates.n_factor,
        gtilde=rates.gamma_cb_eff,
    )


def _mc_probe(seed, nreal=3, nt=256):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(nreal, nt)) + 1j * rng.normal(size=(nreal, nt))


def _mc_pair(probe, m, f, nsl, dt):
    """mc_batch on each realization through one slab of ``nsl`` slices
    of ``m``, and the loop oracle on the same constant drive."""
    dz = m.length / nsl
    slab = mc_slab(m, f, dz, dt, probe.shape[1])
    out = np.array([mc_batch(p, nsl, slab) for p in probe])
    ref = _mc_batch_loop(probe, np.full(probe.shape, f.omega_d, dtype=complex),
                         np.empty_like(probe), nsl, **_slice_coefficients(m, f, dz, dt))
    return out, ref


def _default_mc_slab(count):
    """The default configuration and the slab of the default ``mc``
    command over ``count`` samples: 8 slices, 0.1 us steps."""
    cfg = load_config()
    return cfg, mc_slab(cfg.medium, cfg.fields, cfg.medium.length / 8, 1e-7, count)


@pytest.mark.parametrize(
    "decay, count",
    [
        pytest.param(0.99 + 0.01j, 1000, id="one-chunk"),
        # |ln|decay||*2000 = 1385: the table spans one chunk of 433 steps
        pytest.param(0.5 + 0.02j, 2000, id="chunked"),
    ],
)
def test_power_table_is_a_running_product(decay, count):
    """The table is the running product of powers over one chunk."""
    rate = abs(np.log(abs(decay)))
    table = _power_table(decay, rate, count)
    chunk = min(count, int(CHUNK_EXPONENT / rate))
    up = np.full(chunk + 1, decay, dtype=complex)
    up[0] = 1.0
    up = np.cumprod(up)
    assert np.array_equal(table, np.stack([up, 1.0 / up]))


@pytest.mark.parametrize("nsl", [1, 8])
def test_slab_passes_a_settled_tone_by_its_transfer(nsl):
    """Once the slaved start has decayed, a tone exp(i w dt t) leaves
    ``nsl`` slices of the default ``mc`` slab multiplied by
    H(z)**nsl at z = exp(i w dt), where
    H(z) = e_full + k_f (a_src/z + b_src/z^2) / ((1 - s/z)(1 - f/z))
    with s the slow pole and f the fast one."""
    dt, n = 1e-7, 20_000
    _, slab = _default_mc_slab(n)
    s = slab.powers[0, 1]
    settled = slice(n // 2, None)  # |s|**(n/2) is about 1e-24
    for delta in (0.0, 0.5, 3.0, 10.0, -7.0):
        w = delta * slab.gtilde.real  # multiples of Re gamma_cb_eff
        z = np.exp(1j * w * dt)
        h = slab.e_full + slab.k_f * (slab.a_src / z + slab.b_src / z**2) / (
            (1.0 - s / z) * (1.0 - slab.fast / z)
        )
        tone = np.exp(1j * w * dt * np.arange(n))
        out = mc_batch(tone, nsl, slab)
        expected = h**nsl * tone
        err = np.max(np.abs(out[settled] - expected[settled]))
        assert err <= 1e-12 * np.max(np.abs(expected)), (delta, err)


@pytest.mark.parametrize(
    "drive, g_dt, nt",
    [
        pytest.param(1.0, 0.01, 256, id="constant"),
        pytest.param(np.exp(0.7j), 0.01, 256, id="complex"),
        pytest.param(0.0, 0.01, 256, id="zero"),
        # the first two rows of the recurrence carry the slaved start
        pytest.param(np.exp(0.7j), 0.01, 2, id="length-2"),
        pytest.param(np.exp(0.7j), 0.01, 3, id="length-3"),
        # s = 0.5910, f = 0.1452: |ln|s||*2000 = 1052, so the slow pole's
        # cumulative sum restarts across 4 chunks of 570 steps
        pytest.param(1.0, 0.7, 2000, id="chunks"),
        # s = 0.3679, f = 0.3056: the fast pole runs 6 doubling levels
        # before |f|^64 < 2^-60
        pytest.param(1.0, 1.0, 256, id="fast-pole"),
        pytest.param(np.exp(0.7j), 1.0, 256, id="fast-pole-complex"),
    ],
)
def test_mc_batch_matches_the_loop(drive, g_dt, nt):
    """Four slices of the default medium with a ground decay of 1 kHz,
    at ``drive`` times the default drive and a time step of ``g_dt``
    over Re Gamma_cb_eff."""
    cfg = load_config()
    m = replace(cfg.medium, gamma_cb=TWO_PI * 1e3)
    f = replace(cfg.fields, omega_d=drive * cfg.fields.omega_d)
    dt = g_dt / complex_rates(m, f).gamma_cb_eff.real
    out, ref = _mc_pair(_mc_probe(seed=1, nt=nt), m, f, 4, dt)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mc_batch_matches_the_loop_at_the_mc_scale():
    """At the length of the default ``mc`` run's one impulse run: 20 000
    samples (two records of 10 000) through 8 slices."""
    cfg = load_config()
    amplitude = PROBE_FRACTION * abs(cfg.fields.omega_d)
    probe = amplitude * _mc_probe(seed=4, nreal=1, nt=20_000)
    out, ref = _mc_pair(probe, cfg.medium, cfg.fields, 8, 1e-7)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_public_kernels_match_reference_paths():
    """At the physical coefficients of the default configuration (slab
    of 8 slices, 0.1 us steps, a drive with a complex phase) the public
    kernels agree with the reference loops."""
    r = _random_r(seed=2)
    a, b = _sweep_pair(r, 0.1 + 0.0j, 1.5 + 0.5j, 0.2 + 0.1j, 0.02)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))

    cfg = load_config()
    fields = replace(cfg.fields, omega_d=cfg.fields.omega_d * np.exp(0.7j))
    probe = PROBE_FRACTION * abs(fields.omega_d) * _mc_probe(seed=3, nt=2000)
    out, ref = _mc_pair(probe, cfg.medium, fields, 8, 1e-7)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
