"""The recurrence kernels against plain-loop oracles."""

from dataclasses import replace

import numpy as np
import pytest

from eitnarrow.config import load_config
from eitnarrow.errors import InvalidParameterError
from eitnarrow.kernels import (
    CHUNK_EXPONENT,
    _phi12,
    _power_table,
    g_sweep,
    g_sweep_coefficients,
    mc_batch,
)
from eitnarrow.mc import _slab_coefficients


def _g_sweep_loop(r_values, g0, decay, c_prev, c_curr):
    n = r_values.size
    out = np.empty(n, dtype=np.complex128)
    g = g0
    out[0] = g
    for k in range(n - 1):
        g = decay * g + c_prev * r_values[k] + c_curr * r_values[k + 1]
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
        phi1, phi2 = _phi12(x)
        assert abs(phi1 - (np.exp(x) - 1.0) / x) < 1e-10
        assert abs(phi2 - (np.exp(x) - 1.0 - x) / x**2) < 1e-10
    phi1, phi2 = _phi12(0.0)
    assert phi1 == 1.0 and phi2 == 0.5
    # agreement with the exact quotients at a comfortable argument
    x = 0.3 - 0.2j
    phi1, phi2 = _phi12(x)
    assert abs(phi1 - (np.exp(x) - 1.0) / x) < 1e-14
    assert abs(phi2 - (np.exp(x) - 1.0 - x) / x**2) < 1e-14


def test_g_sweep_solves_the_lag_ode():
    """G' = nfac*R - gtilde*G with an exponential source has a closed
    form; the sweep reproduces it."""
    gtilde = 3.0 + 0.7j
    nfac = 0.4 - 0.2j
    lam = 1.1 + 0.3j
    dtau = 1e-3
    taus = dtau * np.arange(2000)
    r = np.exp(-lam * taus)
    g0 = nfac / (gtilde - lam)  # particular solution at tau = 0
    g = g_sweep(r, g0, g_sweep_coefficients(gtilde, nfac, dtau, r.size))
    exact = nfac * np.exp(-lam * taus) / (gtilde - lam)
    assert np.max(np.abs(g - exact)) < 1e-6 * np.max(np.abs(exact))


def _sweep_pair(r, g0, gtilde, nfac, dtau):
    """The public sweep and the loop oracle on the same coefficients."""
    sweep = g_sweep_coefficients(gtilde, nfac, dtau, r.size)
    decay = sweep.powers[0, 1]
    assert decay == np.exp(-gtilde * dtau)
    return g_sweep(r, g0, sweep), _g_sweep_loop(r, g0, decay, sweep.c_prev, sweep.c_curr)


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


_MC_COEFFS = dict(
    e_full=0.93 - 0.01j,
    e_half=0.965 - 0.005j,
    b_full=0.07,
    b_half=0.035,
    fcoef=-0.02 + 0.001j,
    erho=0.95 + 0.02j,
    alpha=0.01 - 0.002j,
    beta=-0.001j,
    nfac=-0.3 + 0.05j,
    gtilde=5.0 + 1.0j,
)


def _mc_probe(seed, nreal=3, nt=256):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(nreal, nt)) + 1j * rng.normal(size=(nreal, nt))


def _mc_pair(probe, drive, nsl, *coeffs, **kw):
    """mc_batch on each realization and the loop oracle on the same
    constant drive."""
    out = np.array([mc_batch(p, drive, nsl, *coeffs, **kw) for p in probe])
    ref = _mc_batch_loop(probe, np.full(probe.shape, drive, dtype=complex),
                         np.empty_like(probe), nsl, *coeffs, **kw)
    return out, ref


def _default_mc_slab():
    """Fields and slab coefficients of the default ``mc`` command: probe
    at 0.05 of the drive, 8 slices, 0.1 us steps."""
    cfg = load_config()
    fields = replace(cfg.fields, omega_p=0.05 * abs(cfg.fields.omega_d))
    coeffs = _slab_coefficients(cfg.medium, fields, cfg.medium.length / 8, 1e-7)
    return fields, coeffs


@pytest.mark.parametrize(
    "decay, count",
    [
        pytest.param(0.99 + 0.01j, 1000, id="one-chunk"),
        # |ln|decay||*2000 = 1385: the table spans one chunk of 433 steps
        pytest.param(0.5 + 0.02j, 2000, id="chunked"),
    ],
)
def test_power_table_is_cached_read_only(decay, count):
    """The table is the running product of powers, kept read-only, and a
    second request for the same pole returns the same array."""
    rate = abs(np.log(abs(decay)))
    table = _power_table(decay, rate, count)
    chunk = min(count, int(CHUNK_EXPONENT / rate))
    up = np.full(chunk + 1, decay, dtype=complex)
    up[0] = 1.0
    up = np.cumprod(up)
    assert np.array_equal(table, np.stack([up, 1.0 / up]))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    assert _power_table(decay, rate, count) is table


def test_mc_batch_builds_its_power_table_once():
    """Realizations of one ensemble share the slow pole, so only the first
    ``mc_batch`` call builds its table, and every call gives the same
    output for the same probe."""
    fields, coeffs = _default_mc_slab()
    probe = abs(fields.omega_p) * _mc_probe(seed=5, nreal=1, nt=2000)[0]
    _power_table.cache_clear()
    first = mc_batch(probe, fields.omega_d, 8, *coeffs)
    second = mc_batch(probe, fields.omega_d, 8, *coeffs)
    info = _power_table.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 1, 1)
    assert np.array_equal(first, second)


# poles of the slab's rho-recurrence: slow s (larger modulus), fast f
_FAST_POLE = dict(alpha=-1.43, beta=1.3, erho=0.9 + 0.02j)


@pytest.mark.parametrize(
    "drive, nt, changed",
    [
        pytest.param(10.0 + 0.0j, 256, {}, id="constant"),
        pytest.param(10.0 * np.exp(0.7j), 256, {}, id="complex"),
        pytest.param(0.0j, 256, {}, id="zero"),
        # the first two rows of the recurrence carry the slaved start
        pytest.param(10.0 * np.exp(0.7j), 2, {}, id="length-2"),
        pytest.param(10.0 * np.exp(0.7j), 3, {}, id="length-3"),
        # s = 0.4993+0.0203j, f = -1.3e-5-1.4e-4j: |ln|s||*2000 = 1390, so the
        # slow pole's cumulative sum restarts across 5 chunks
        pytest.param(10.0 + 0.0j, 2000, dict(erho=0.5 + 0.02j), id="chunks"),
        # s = 0.8954+0.0371j, f = 0.4050-0.0371j (|f| = 0.41): the fast
        # pole runs 6 doubling levels before |f|^64 < 2^-60
        pytest.param(20.0 + 0.0j, 256, _FAST_POLE, id="fast-pole"),
        pytest.param(20.0 * np.exp(0.7j), 256, _FAST_POLE, id="fast-pole-complex"),
    ],
)
def test_mc_batch_matches_the_loop(drive, nt, changed):
    out, ref = _mc_pair(_mc_probe(seed=1, nt=nt), drive, 4, **dict(_MC_COEFFS, **changed))
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mc_batch_matches_the_loop_at_the_mc_scale():
    """One realization of the default ``mc`` run: 10 736 samples (10 000
    kept plus the burn-in) through 8 slices."""
    fields, coeffs = _default_mc_slab()
    probe = abs(fields.omega_p) * _mc_probe(seed=4, nreal=1, nt=10_736)
    out, ref = _mc_pair(probe, fields.omega_d, 8, *coeffs)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_public_kernels_match_reference_paths():
    """At the physical coefficients of the default configuration (slab
    of 8 slices, 0.1 us steps, a drive with a complex phase) the public
    kernels agree with the reference loops."""
    r = _random_r(seed=2)
    a, b = _sweep_pair(r, 0.1 + 0.0j, 1.5 + 0.5j, 0.2 + 0.1j, 0.02)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))

    fields, coeffs = _default_mc_slab()
    probe = abs(fields.omega_p) * _mc_probe(seed=3, nt=2000)
    out, ref = _mc_pair(probe, fields.omega_d * np.exp(0.7j), 8, *coeffs)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
