"""Time-domain Monte-Carlo oracle: slices, ensembles and statistics."""

from dataclasses import replace

import tracemalloc

import numpy as np
import pytest

import eitnarrow.mc as mc_module
from eitnarrow.checks import band_transfer_vs_reference
from eitnarrow.config import load_config
from eitnarrow.errors import InvalidParameterError
from eitnarrow.medium import (
    AtomicMedium,
    FieldConfig,
    complex_rates,
    coupling_eta,
    transmission,
)
from eitnarrow.kernels import mc_batch
from eitnarrow.mc import (
    MAX_TAIL,
    PROBE_FRACTION,
    McConfig,
    _fft_length,
    _implied_drive_depletion,
    _realization_passes,
    _slab_filter,
    band_average_transfer,
    ensemble_beat_spectrum,
    mc_slab,
)
from eitnarrow.noise import PhaseNoiseModel, _probe_synthesizer
from eitnarrow.spectral import (
    GAUSSIAN_FWHM_FACTOR,
    FrequencyGrid,
    gaussian_spectrum,
    periodogram,
)
from eitnarrow.spectral import _periodogram_writer as spectral_periodogram_writer

TWO_PI = 2.0 * np.pi


def reduced_medium(**overrides) -> AtomicMedium:
    """Gentle optical depth (about 2.2) for fast ensemble runs."""
    params = dict(
        number_density=1e17,
        gamma_ab=2e7,
        gamma_ac=2e7,
        gamma_cb=0.0,
        doppler_width=TWO_PI * 500e6,
        length=0.025,
    )
    params.update(overrides)
    return AtomicMedium(**params)


def reduced_fields() -> FieldConfig:
    return FieldConfig(omega_d=TWO_PI * 2.3e6)


def probe_amplitude(f: FieldConfig) -> float:
    """The amplitude at which an ensemble with drive ``f.omega_d`` draws
    its probe."""
    return PROBE_FRACTION * abs(f.omega_d)


def reduced_config(**overrides) -> McConfig:
    m = reduced_medium()
    f = reduced_fields()
    g = complex_rates(m, f).gamma_cb_eff.real
    dt = 0.02 / g
    shaping_grid = FrequencyGrid.spanning(min(40.0 * g, 0.9 * np.pi / dt), 257)
    shaping = gaussian_spectrum(10.0 * g / GAUSSIAN_FWHM_FACTOR, shaping_grid)
    params = dict(
        medium=m,
        fields=f,
        noise=PhaseNoiseModel(diffusion=0.0, shaping=shaping, seed=3),
        dt=dt,
        duration=40.0 / g,
        realizations=32,
        slices=8,
    )
    params.update(overrides)
    return McConfig(**params)


def slab(probe, m, f, dt, nsl):
    """``probe`` after the whole medium cut into ``nsl`` equal slices."""
    return mc_batch(probe, nsl, mc_slab(m, f, m.length / nsl, dt, np.size(probe)))


def test_config_invariants():
    cfg = reduced_config()
    with pytest.raises(InvalidParameterError):
        reduced_config(realizations=4)
    with pytest.raises(InvalidParameterError):
        reduced_config(slices=0)
    with pytest.raises(InvalidParameterError):
        reduced_config(dt=100.0 * cfg.dt)  # does not resolve the coherence
    with pytest.raises(InvalidParameterError):
        reduced_config(duration=cfg.dt * 10)  # shorter than the output line
    with pytest.raises(InvalidParameterError):
        reduced_config(fields=FieldConfig(omega_d=0.0))  # no drive, so no probe
    for key in ("dt", "duration"):
        with pytest.raises(InvalidParameterError, match="dt and duration"):
            reduced_config(**{key: float("nan")})


def test_zero_length_slab_is_the_identity():
    """A slab of zero length passes the probe unchanged."""
    f = reduced_fields()
    rng = np.random.default_rng(1)
    env = rng.normal(size=256) + 1j * rng.normal(size=256)
    probe = env * probe_amplitude(f)
    out = slab(probe, reduced_medium(length=0.0), f, 1e-7, 1)
    assert np.array_equal(out, probe)


def test_slice_without_inversion_is_the_limit_of_small_inversion():
    """At rho_aa = rho_bb the field advance rate a vanishes and the slice
    takes its a = 0 branch (dz for (e^{a dz} - 1)/a); that output is the
    limit of n_ab = +-1e-9, where the coupling still moves the probe
    through the ground coherence."""
    m = reduced_medium()
    f = reduced_fields()
    rng = np.random.default_rng(1)
    env = rng.normal(size=256) + 1j * rng.normal(size=256)
    probe = env * probe_amplitude(f)

    def out(n_ab):
        pops = FieldConfig(f.omega_d, rho_aa=0.5 + n_ab / 2)
        return slab(probe, m, pops, 1e-7, 1)

    level = out(0.0)
    peak = np.max(np.abs(level))
    assert np.max(np.abs(level - probe)) > 0.1 * peak
    for n_ab in (1e-9, -1e-9):
        assert np.max(np.abs(out(n_ab) - level)) < 1e-7 * peak


@pytest.mark.parametrize("probe_ratio", [1e-3, 0.05], ids=["probe-1e-3", "probe-0.05"])
def test_eit_transparency_for_constant_probe(probe_ratio):
    """A noiseless on-resonance probe (gamma_cb = 0) is transmitted with
    unit amplitude to 1e-9, at 1e-3 |Omega_d| and at the ensemble's
    ``PROBE_FRACTION`` (0.05 |Omega_d|): the slab is first order in the
    probe, so its amplitude does not enter the transfer."""
    m = reduced_medium(number_density=3e17)
    drive = TWO_PI * 2.3e6
    f = FieldConfig(omega_d=drive)
    g = complex_rates(m, f).gamma_cb_eff.real
    dt = 1e-6
    n = int(20.0 / (g * dt))
    amplitude = probe_ratio * drive
    probe = np.full(n, amplitude, dtype=complex)
    out = slab(probe, m, f, dt, 16)
    tail = slice(-n // 10, None)
    assert np.max(np.abs(out[tail] - probe[tail])) < 1e-9 * amplitude


def test_detuned_beat_matches_analytic_transfer():
    """A monochromatic beat component at offset delta is attenuated by
    exp(Re kappa(delta) L) of the medium the slab simulates, to 1e-3."""
    m = reduced_medium()
    f = reduced_fields()
    g = complex_rates(m, f).gamma_cb_eff.real
    delta = 10.0 * g
    dt = 0.05 / delta
    n = int(np.ceil(15.0 / (g * dt)))
    t = dt * np.arange(n)
    out = slab(probe_amplitude(f) * np.exp(-1j * delta * t), m, f, dt, 8)
    settled = np.abs(out[-n // 10 :]) ** 2 / probe_amplitude(f) ** 2
    expected = transmission(m, f, np.array([delta]))[0]
    assert np.max(np.abs(settled - expected)) < 1e-3


def _default_mc_config(**populations) -> McConfig:
    """The ``mc`` command's configuration at seed 42, with the given
    populations."""
    run = load_config(seed=42)
    cfg = run.mc_config(run.mc_realizations)
    return replace(cfg, fields=replace(cfg.fields, **populations))


def test_drive_transmission_is_its_own_absorption():
    """At the default config the drive gains no power from the probe,
    and with rho_cc != 0 it sees only its own linear absorption on a-c."""
    # Manley-Rowe: the drive gains at most the probe power the cell absorbs
    cfg = _default_mc_config()
    m, f = cfg.medium, cfg.fields
    t0 = transmission(m, f, np.array([0.0]))[0]
    gain = PROBE_FRACTION**2 * (1.0 - t0)
    assert _implied_drive_depletion(cfg) <= 1.0 + gain

    # with rho_cc != 0 the drive sees its own linear absorption on a-c
    cfg = _default_mc_config(rho_cc=0.3)
    gamma_ca = complex_rates(m, cfg.fields).gamma_ca
    own = np.exp(-coupling_eta(m) * cfg.fields.n_ca * (1.0 / gamma_ca).real * m.length)
    assert abs(_implied_drive_depletion(cfg) - own) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="with rho_cc != 0 the slab advances the field with eta*n_ab/Gamma_ab "
    "alone, but n_factor also carries -n_ca/Gamma_ca; at rho_cc = 0.3 the "
    "slab transmits about 7.1 times transmission()",
)
def test_slab_matches_the_medium_with_ground_state_population():
    """The default ``mc`` medium and drive, probe 0.05 |Omega_d|,
    rho_bb = 0.7 and rho_cc = 0.3, 8 slices of 0.1 us: a monochromatic
    probe settled over 40/Gamma passes the slab as ``transmission``
    says, to 1e-3, at delta = 0, 3 Gamma and 10 Gamma."""
    cfg = _default_mc_config(rho_cc=0.3)
    m, f, dt = cfg.medium, cfg.fields, cfg.dt
    g = complex_rates(m, f).gamma_cb_eff.real
    n = int(np.ceil(40.0 / (g * dt)))
    t = dt * np.arange(n)
    ratios = []
    for delta in (0.0, 3.0 * g, 10.0 * g):
        out = slab(probe_amplitude(f) * np.exp(-1j * delta * t), m, f, dt, cfg.slices)
        settled = np.mean(np.abs(out[-n // 10 :]) ** 2) / probe_amplitude(f) ** 2
        ratios.append(settled / transmission(m, f, np.array([delta]))[0])
    assert np.all(np.abs(np.array(ratios) - 1.0) <= 1e-3)


def test_noiseless_ensemble_is_a_single_line():
    cfg = reduced_config(
        noise=PhaseNoiseModel(diffusion=0.0, seed=3), realizations=8
    )
    result = ensemble_beat_spectrum(cfg)
    d = result.spectrum.density
    i0 = int(np.argmax(d))
    assert abs(result.spectrum.omegas[i0]) <= result.spectrum.grid.step
    # the Hann main lobe spans three bins; essentially all power is there
    assert d[i0 - 1 : i0 + 2].sum() > 0.999 * d.sum()
    assert 0.0 < result.drive_depletion


def _stacked_rows(cfg):
    """Every realization's input and output periodograms, as two
    ``realizations x bins`` tables."""
    rows = list(_realization_passes(cfg))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def settled(probe, m, f, dt, nsl):
    """The last period of the slab's output on three periods of
    ``probe``: the output of the probe repeated forever, once settled."""
    n = np.size(probe)
    return slab(np.tile(probe, 3), m, f, dt, nsl)[2 * n:]


@pytest.mark.parametrize("keep", [2000, 2001], ids=["even", "odd"])
@pytest.mark.parametrize("noise", ["shaped", "diffusion"])
def test_ensemble_matches_the_per_realization_chain(noise, keep):
    """Byte for byte, each pass is synthesize -> slab filter -> Hann
    periodogram run on its realization, and that periodogram is numpy's
    shifted FFT; at an odd kept length a slip between ``fftshift`` and
    ``ifftshift`` moves every bin.  The record is the ensemble's, 2 025
    samples at 2 001 kept, and the filter is the one it builds.  Each
    output row is within 1e-13 of its peak of the row the time-domain
    ``mc_batch`` chain gives on the settled output (1.6e-15 measured).
    The running sum gives the density bit for bit as ``mean(axis=0)`` of
    the stacked output rows, and Welford's standard error is
    ``std(axis=0, ddof=1) / sqrt(R)`` of the rows to 1e-12."""
    base = reduced_config(realizations=8)
    m, f, dt = base.medium, base.fields, base.dt
    g = complex_rates(m, f).gamma_cb_eff.real
    if noise == "diffusion":
        base = replace(base, noise=PhaseNoiseModel(diffusion=5.0 * g, seed=3))
    cfg = replace(base, duration=keep * dt)
    p_in, p_out = _stacked_rows(cfg)

    n = _fft_length(keep)
    assert n == (2000 if keep == 2000 else 2025)
    propagate = _slab_filter(cfg, n)
    synthesize = _probe_synthesizer(cfg.noise, probe_amplitude(f), dt, n)
    w = np.hanning(keep)
    w *= np.sqrt(dt / (2.0 * np.pi * np.sum(w**2)))
    for r in range(cfg.realizations):
        probe, spectrum = synthesize(r)
        out = propagate(spectrum)
        spec_in = periodogram(probe[:keep], dt)
        spec_out = periodogram(out, dt)
        direct = np.abs(np.fft.fftshift(np.fft.fft(out * w))) ** 2
        assert np.array_equal(spec_out.density, direct)
        assert np.array_equal(p_in[r], spec_in.density)
        assert np.array_equal(p_out[r], spec_out.density)
        chain = periodogram(settled(probe, m, f, dt, cfg.slices)[:keep], dt).density
        assert np.max(np.abs(p_out[r] - chain)) <= 1e-13 * np.max(chain)

    result = ensemble_beat_spectrum(cfg)
    freqs = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(keep, dt))
    assert result.spectrum.grid == spec_in.grid == cfg.grid
    assert result.spectrum.grid.count == keep
    assert result.spectrum.grid.start == freqs[0]
    assert result.spectrum.grid.step == freqs[1] - freqs[0]
    assert np.array_equal(result.spectrum.density, p_out.mean(axis=0))
    expected = p_out.std(axis=0, ddof=1) / np.sqrt(8)
    assert np.all(np.abs(result.stderr - expected) <= 1e-12 * expected)


@pytest.mark.parametrize(
    ("slices", "probe", "pad", "keep"),
    [
        (1, "shaped", 0, 2000),
        (8, "shaped", 0, 2000),
        (8, "diffusion", 0, 2000),
        (8, "constant", 0, 2000),
        (8, "shaped", 7, 2000),
        (8, "shaped", 0, 60_000),
    ],
    ids=["1-slice", "8-slices", "diffusion", "constant", "not-5-smooth", "chunked"],
)
def test_slab_filter_matches_mc_batch(slices, probe, pad, keep):
    """On the kept samples, the first ``keep`` of ``n``, the slab applied
    as one cyclic convolution gives the last period of ``mc_batch``'s
    output on three periods of the probe to 1e-13 of its largest modulus
    (1.3e-15 at most measured).  A Wiener-phase probe does not repeat, so
    its wrap starts a transient; the three periods repeat it too.  ``n``
    is the ensemble's record, 7 samples longer where it must not be
    2^a 3^b 5^c; at 60 000 kept samples the slow pole's table of powers
    is chunked (16 050 steps a chunk)."""
    cfg = reduced_config(slices=slices)
    m, f, dt = cfg.medium, cfg.fields, cfg.dt
    cfg = replace(cfg, duration=keep * dt)
    n = _fft_length(keep) + pad
    assert _is_5_smooth(n) == (pad == 0)
    if probe == "constant":
        x = np.full(n, probe_amplitude(f), dtype=complex)
        spectra = [np.fft.fft(x)]
    else:
        if probe == "diffusion":
            g = complex_rates(m, f).gamma_cb_eff.real
            cfg = replace(cfg, noise=PhaseNoiseModel(diffusion=5.0 * g, seed=3))
        x, own = _probe_synthesizer(cfg.noise, probe_amplitude(f), dt, n)(0)
        spectra = [own.copy(), np.fft.fft(x)]
    one_slice = mc_slab(m, f, m.length / slices, dt, 3 * n)
    assert (one_slice.powers.shape[1] - 1 < n) == (keep == 60_000)
    want = mc_batch(np.tile(x, 3), slices, one_slice)[2 * n:2 * n + keep]
    apply = _slab_filter(cfg, n)
    for spectrum in spectra:
        got = apply(spectrum)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_each_realization_runs_two_transforms(monkeypatch):
    """A shaped realization of ``ensemble_beat_spectrum`` runs two
    transforms of its record: the slab filter's inverse FFT (it starts
    from the probe's spectrum) and the output periodogram's FFT.  No
    consumer reads the probe, so its inverse FFT is not taken.  The
    filter's set-up adds one FFT, the transform of its impulse
    response."""
    calls = []
    for name in ("fft", "ifft"):

        def counted(*args, _name=name, _real=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    for realizations in (8, 9):
        calls.clear()
        ensemble_beat_spectrum(reduced_config(realizations=realizations))
        assert calls.count("fft") == realizations + 1
        assert calls.count("ifft") == realizations


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_record_length_is_the_next_5_smooth_number():
    """``_fft_length(n)`` is the smallest 2^a 3^b 5^c >= n; the default
    ``mc`` record of 10 000 kept samples is itself 2^4 * 5^4."""
    for n in [*range(1, 700), 10_737, 10_738, 10_904, 2**20 + 1]:
        length = _fft_length(n)
        assert length >= n and _is_5_smooth(length)
        assert not any(_is_5_smooth(k) for k in range(n, length))
    assert _fft_length(10_904) == 10_935
    assert _fft_length(10_000) == 10_000


def test_impulse_response_settles_within_the_default_record():
    """At the default ``mc`` config the slab's impulse response over two
    10 000-sample records keeps 2.6e-19 of its L1 mass in the second,
    far below ``MAX_TAIL``; so the record needs no padding and the
    filter needs no burn-in."""
    cfg = _default_mc_config()
    n = _fft_length(cfg.grid.count)
    assert cfg.grid.count == n == 10_000
    unit = np.zeros(2 * n, dtype=complex)
    unit[1] = 1.0
    mass = np.abs(slab(unit, cfg.medium, cfg.fields, cfg.dt, cfg.slices))
    tail = mass[n + 1:].sum() / mass.sum()
    assert tail <= 1e-18 and tail <= MAX_TAIL


def test_ensemble_takes_one_periodogram_per_realization(monkeypatch):
    """The ensemble's beat spectrum needs the output's periodogram only:
    one periodogram per realization, written into one row."""
    rows = []

    def writer(n, dt):
        write = spectral_periodogram_writer(n, dt)

        def counted(envelope, row):
            rows.append(row)
            return write(envelope, row)

        return counted

    monkeypatch.setattr(mc_module, "_periodogram_writer", writer)
    ensemble_beat_spectrum(reduced_config(realizations=8))
    assert len(rows) == 8
    assert all(r is rows[0] for r in rows)


def test_band_sums_match_the_stacked_rows():
    """For a fixed mask, the one-pass band reduction gives the mean and
    standard error of the band ratios of the stacked rows, each band sum
    taken row by row, and their mean input, bit for bit.  Summed over
    the band axis of the whole table instead, as numpy orders a 2-D
    reduction, the band sums differ at rounding only."""
    cfg = reduced_config(realizations=8)
    mask = np.abs(cfg.grid.omegas) < 0.3 * np.abs(cfg.grid.omegas).max()
    groups, values, errs, mean_in = band_average_transfer(cfg, mask, 5)
    p_in, p_out = _stacked_rows(cfg)
    assert np.array_equal(np.concatenate(groups), np.flatnonzero(mask))
    for i, g in enumerate(groups):
        q = np.array([p_out[r, g].sum() / p_in[r, g].sum() for r in range(8)])
        assert values[i] == q.mean()
        assert errs[i] == q.std(ddof=1) / np.sqrt(8)
        table = p_out[:, g].sum(axis=1) / p_in[:, g].sum(axis=1)
        assert np.all(np.abs(q - table) <= 1e-14 * table)
    assert np.array_equal(mean_in, p_in.mean(axis=0))


def _ensemble_peak_bytes(realizations):
    """Peak of the allocations traced while one reduced ensemble runs."""
    cfg = reduced_config(realizations=realizations)
    tracemalloc.start()
    try:
        ensemble_beat_spectrum(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_memory_does_not_grow_with_realizations():
    """The ensemble keeps running sums, not one row per realization: its
    traced peak at 64 realizations is within 1.25 times its peak at 8.
    Two 64 x 2000 tables of rows alone would take 2 MB, over four times
    the whole streamed peak.  A first ensemble runs untraced, so that
    one-time allocations (numpy's FFT plans) fall outside both peaks."""
    ensemble_beat_spectrum(reduced_config(realizations=8))
    assert _ensemble_peak_bytes(64) <= 1.25 * _ensemble_peak_bytes(8)


def test_ensemble_builds_its_slab_once(monkeypatch):
    """One ensemble builds one slab, its poles and table of powers
    included, and runs ``mc_batch`` on it exactly once, for the slab's
    impulse response, whatever its realization and slice counts."""
    built, runs = [], []

    def build(*args):
        built.append(mc_slab(*args))
        return built[-1]

    def run(probe, nsl, slab):
        runs.append((nsl, slab))
        return mc_batch(probe, nsl, slab)

    monkeypatch.setattr(mc_module, "mc_slab", build)
    monkeypatch.setattr(mc_module, "mc_batch", run)
    for realizations in (8, 64):
        for slices in (1, 64):
            built.clear()
            runs.clear()
            ensemble_beat_spectrum(reduced_config(realizations=realizations, slices=slices))
            assert len(built) == 1
            assert len(runs) == 1
            assert all(nsl == slices and s is built[0] for nsl, s in runs)


def test_center_transfer_is_unity_within_three_sigma():
    """With gamma_cb = 0 the line center is fully transmitted."""
    cfg = reduced_config()
    g = complex_rates(reduced_medium(), reduced_fields()).gamma_cb_eff.real
    mask = np.abs(cfg.grid.omegas) < 0.2 * g
    _, values, errs, _ = band_average_transfer(cfg, mask, 1)
    assert abs(values[0] - 1.0) <= 3.0 * errs[0]


def test_passivity_per_realization():
    p_in, p_out = _stacked_rows(reduced_config(realizations=16))
    power_in = p_in.sum(axis=1)
    power_out = p_out.sum(axis=1)
    assert np.all(power_out <= power_in * (1.0 + 1e-9))


def test_stderr_shrinks_with_realizations():
    r32 = ensemble_beat_spectrum(reduced_config(realizations=32))
    r64 = ensemble_beat_spectrum(reduced_config(realizations=64))
    ratio = np.mean(r64.stderr) / np.mean(r32.stderr)
    assert abs(ratio - 1.0 / np.sqrt(2.0)) < 0.3 / np.sqrt(2.0)


def test_transfer_vs_analytic_in_bands():
    """Band-averaged Monte-Carlo transfer tracks the window-convolved
    exp(Re kappa L) reference within a generous multiple of the
    realization scatter."""
    cfg = reduced_config(realizations=64)
    values, refs, errs = band_transfer_vs_reference(cfg, 0.05, 8)
    assert np.all(np.abs(values - refs) <= np.maximum(5.0 * errs, 0.01))
    # the bands come from the shaping, which a diffusion model lacks
    unshaped = replace(cfg, noise=PhaseNoiseModel(diffusion=0.0, seed=3))
    with pytest.raises(InvalidParameterError, match="shaped noise model"):
        band_transfer_vs_reference(unshaped, 0.05, 8)


@pytest.fixture(scope="module")
def shipped_bands():
    """The ``mc`` command's medium, auto drive, noise and time grid, 64
    realizations at seed 42: per band, the deviation of the Monte-Carlo
    transfer from the window-convolved ``transmission`` of the same
    medium, in sigma."""
    cfg = replace(_default_mc_config(), realizations=64)
    values, refs, errs = band_transfer_vs_reference(cfg, 0.02, 16)
    return (values - refs) / errs


def test_line_bands_match_the_medium_at_the_shipped_config(shipped_bands):
    """Bands 7 and 8 of the 16 hold the line centre."""
    assert np.all(np.abs(shipped_bands[7:9]) <= 3.0)


@pytest.mark.xfail(
    strict=True,
    reason="the 0.1 us time step biases the wing transfer (bare absorption "
    "exp(-6.5)) by far more than its tiny standard error: shoulder bands "
    "read +3.5 and +3.5 sigma and wing bands down to -828 sigma; the line "
    "bands pass",
)
def test_all_bands_match_the_medium_at_the_shipped_config(shipped_bands):
    assert np.all(np.abs(shipped_bands) <= 3.0)


def test_band_average_requires_enough_bins():
    cfg = reduced_config(realizations=8)
    mask = np.zeros(cfg.grid.count, dtype=bool)
    mask[:4] = True
    with pytest.raises(InvalidParameterError, match="fewer masked bins"):
        band_average_transfer(cfg, mask, 16)
    with pytest.raises(InvalidParameterError, match="one entry per periodogram bin"):
        band_average_transfer(cfg, mask[:-1], 1)
