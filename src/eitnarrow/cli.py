"""Configuration-driven command line front end.

Subcommands: ``figure2``, ``figure3``, ``figure4``, ``validate``,
``propagate``, ``mc``, ``fit``.  Global flags: ``--config PATH``,
``--out DIR``, ``--seed N``, ``--quick``.

Exit codes: 0 success, 1 failed acceptance/invariant, 2 usage or
configuration error, 3 numerical-resolution error.  Failures print a
single machine-parsable line ``error: <code>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .artifacts import (
    ensure_out_dir,
    write_sidecar,
    write_spectrum_csv,
    write_svg_plot,
    write_table_csv,
)
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    EitNarrowError,
    ResolutionError,
)
from .fitting import fit_lineshape, linear_fit
from .medium import (
    FieldConfig,
    closed_form_width,
    complex_rates,
    eit_transmission_scan,
    eit_width,
    optical_depth,
    thick_filter_hwhm,
)
from .mc import McConfig, ensemble_beat_spectrum
from .noise import PhaseNoiseModel
from .propagation import (
    PropagationProblem,
    adiabatic_rate_check,
    narrowing_factor,
    propagate_correlation,
    propagate_spectrum,
    thick_medium_spectrum,
)
from .spectral import (
    GAUSSIAN_FWHM_FACTOR,
    FrequencyGrid,
    Spectrum,
    correlation_to_spectrum,
    fwhm_estimate,
    gaussian_spectrum,
    lorentzian_spectrum,
    spectrum_to_correlation,
)

TWO_PI = 2.0 * np.pi


def _khz(omega: float) -> float:
    return omega / (TWO_PI * 1e3)


def _input_spectrum(cfg: RunConfig, grid: FrequencyGrid) -> Spectrum:
    if cfg.input_shape == "gaussian":
        return gaussian_spectrum(0.0, cfg.input_fwhm / GAUSSIAN_FWHM_FACTOR, grid)
    return lorentzian_spectrum(0.0, cfg.input_fwhm / 2.0, grid)


def _input_grid(cfg: RunConfig) -> FrequencyGrid:
    return FrequencyGrid.spanning(cfg.span_factor * cfg.input_fwhm, cfg.grid_points)


def _output_grid(cfg: RunConfig, fields: FieldConfig | None = None) -> FrequencyGrid:
    f = fields if fields is not None else cfg.fields
    hwhm = thick_filter_hwhm(cfg.medium, abs(f.omega_d) ** 2 + abs(f.omega_p) ** 2)
    return FrequencyGrid.spanning(2.0 * cfg.span_factor * hwhm, cfg.grid_points)


def _fit_curve(fit, grid: FrequencyGrid) -> np.ndarray:
    w = grid.omegas - fit.center
    if fit.model == "gaussian":
        return fit.amplitude * np.exp(-((w / fit.width) ** 2))
    return fit.amplitude * fit.width**2 / (w**2 + fit.width**2)


def cmd_figure2(cfg: RunConfig, out: str, quick: bool, off_resonance_only: bool) -> int:
    """Input (off-resonance) vs transmitted (on-resonance) beat spectra."""
    wide = _input_grid(cfg)
    s_in = _input_spectrum(cfg, wide)
    fit_in = fit_lineshape(s_in, "gaussian")
    files: list[tuple] = [("figure2_input.csv", s_in, None)]
    print(f"input fwhm: {_khz(fit_in.fwhm):.4f} kHz (gaussian fit)")

    if not off_resonance_only:
        fine = _output_grid(cfg)
        s_fine_in = _input_spectrum(cfg, fine)
        result = propagate_spectrum(
            PropagationProblem(
                cfg.medium, cfg.fields, s_fine_in,
                doppler=cfg.doppler, convention=cfg.convention, z_steps=cfg.z_steps,
            )
        )
        fit_out = fit_lineshape(result.spectrum, "lorentzian")
        target = closed_form_width(
            cfg.medium, abs(cfg.fields.omega_d) ** 2 + abs(cfg.fields.omega_p) ** 2
        )
        wide_out = propagate_spectrum(
            PropagationProblem(
                cfg.medium, cfg.fields, s_in,
                doppler=cfg.doppler, convention=cfg.convention, z_steps=cfg.z_steps,
            )
        ).spectrum
        files += [
            ("figure2_output.csv", result.spectrum, None),
            ("figure2_fit_input.csv", Spectrum(0.0, wide, _fit_curve(fit_in, wide)), None),
            ("figure2_fit_output.csv", Spectrum(0.0, fine, _fit_curve(fit_out, fine)), None),
        ]
        print(f"output fwhm: {_khz(fit_out.fwhm):.4f} kHz (lorentzian fit)")
        print(f"closed-form width prediction: {_khz(target):.4f} kHz")
        print(
            "fitted/closed-form deviation: "
            f"{100.0 * (fit_out.fwhm - target) / target:+.1f}%"
        )
        print(f"narrowing factor: {narrowing_factor(fit_in.fwhm, fit_out.fwhm):.1f}")

    ensure_out_dir(out)
    for name, spec, err in files:
        write_spectrum_csv(os.path.join(out, name), spec, cfg.digest, err)
    if not off_resonance_only:
        peak_in = s_in.density.max()
        peak_out = wide_out.density.max()
        write_svg_plot(
            os.path.join(out, "figure2.svg"),
            [
                ("input (normalized)", wide.omegas, s_in.density / peak_in),
                ("output (normalized)", wide.omegas, wide_out.density / peak_out),
            ],
            "Beat spectra before and after the cell",
            "offset from carrier [rad/s]",
            "normalized spectral density",
        )
    write_sidecar(os.path.join(out, "figure2.meta.txt"), cfg.resolved, cfg.digest)
    return 0


def cmd_figure3(cfg: RunConfig, out: str, quick: bool) -> int:
    """Monochromatic EIT scan against the normalized transmitted-noise
    spectrum on a shared frequency axis."""
    ensure_out_dir(out)
    if cfg.medium.length == 0:
        grid = FrequencyGrid.spanning(cfg.span_factor * cfg.input_fwhm, cfg.grid_points)
        scan = eit_transmission_scan(cfg.medium, cfg.fields, grid, cfg.doppler, cfg.convention)
        write_table_csv(
            os.path.join(out, "figure3_scan.csv"),
            ["delta_rad_s", "transmission"],
            zip(grid.omegas, scan.transmission),
            cfg.digest,
        )
        write_sidecar(os.path.join(out, "figure3.meta.txt"), cfg.resolved, cfg.digest)
        print("note: no-resonance (zero-length medium, scan is flat)")
        return 0

    grid = _output_grid(cfg)
    scan = eit_transmission_scan(cfg.medium, cfg.fields, grid, cfg.doppler, cfg.convention)
    width_eit = eit_width(scan)

    s_in = _input_spectrum(cfg, grid)
    result = propagate_spectrum(
        PropagationProblem(
            cfg.medium, cfg.fields, s_in,
            doppler=cfg.doppler, convention=cfg.convention, z_steps=cfg.z_steps,
        )
    )
    noise_norm = result.spectrum.density / result.spectrum.density.max()
    fit_noise = fit_lineshape(Spectrum(0.0, grid, noise_norm), "lorentzian")
    ratio = fit_noise.fwhm / width_eit

    write_table_csv(
        os.path.join(out, "figure3_scan.csv"),
        ["delta_rad_s", "transmission"],
        zip(grid.omegas, scan.transmission),
        cfg.digest,
    )
    write_spectrum_csv(
        os.path.join(out, "figure3_noise.csv"), Spectrum(0.0, grid, noise_norm), cfg.digest
    )
    feature = np.clip(scan.transmission - scan.wing, 0.0, None)
    write_svg_plot(
        os.path.join(out, "figure3.svg"),
        [
            ("EIT scan (normalized)", grid.omegas, feature / feature.max()),
            ("transmitted noise (normalized)", grid.omegas, noise_norm),
        ],
        "EIT resonance: monochromatic scan vs transmitted noise",
        "two-photon detuning / offset [rad/s]",
        "normalized response",
    )
    write_sidecar(os.path.join(out, "figure3.meta.txt"), cfg.resolved, cfg.digest)
    print(f"eit scan fwhm: {_khz(width_eit):.4f} kHz")
    print(f"transmitted-noise fwhm: {_khz(fit_noise.fwhm):.4f} kHz")
    print(f"width ratio (noise/scan): {ratio:.4f}")
    return 0


def cmd_figure4(cfg: RunConfig, out: str, quick: bool) -> int:
    """Fitted output width versus drive power |Omega_d|^2."""
    sweep = cfg.sweep_omega_d
    if sweep.size < 6:
        raise ConfigError("power sweep needs at least 6 points", code="sweep-too-small")
    powers = sweep**2
    if powers.max() < 10.0 * powers.min():
        raise ConfigError(
            "power sweep must span at least one decade in |Omega_d|^2",
            code="sweep-too-small",
        )

    rows = []
    for omega_d in sweep:
        f = replace(cfg.fields, omega_d=omega_d)
        problem = PropagationProblem(
            cfg.medium, f, _input_spectrum(cfg, _output_grid(cfg, f)),
            doppler=cfg.doppler, convention=cfg.convention, z_steps=cfg.z_steps,
        )
        report = adiabatic_rate_check(problem)
        if not report.valid:
            print(
                f"warning: point |Omega_d| = {_khz(omega_d) / 1e3:.4f} MHz excluded "
                f"(adiabatic validity ratio {report.validity_ratio:.2f} < 10)",
                file=sys.stderr,
            )
            continue
        fit = fit_lineshape(propagate_spectrum(problem).spectrum, "lorentzian")
        rows.append((abs(omega_d) ** 2, fit.fwhm))
    if len(rows) < 2:
        raise ConfigError("fewer than two valid sweep points", code="sweep-too-small")

    x = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    slope, intercept, r2 = linear_fit(x, y)
    ensure_out_dir(out)
    write_table_csv(
        os.path.join(out, "figure4.csv"), ["omega_d_sq_rad2_s2", "fwhm_rad_s"], rows, cfg.digest
    )
    write_svg_plot(
        os.path.join(out, "figure4.svg"),
        [
            ("fitted width", x, y),
            ("linear fit", x, slope * x + intercept),
        ],
        "Transmitted width vs drive power",
        "|Omega_d|^2 [rad^2/s^2]",
        "fitted FWHM [rad/s]",
    )
    write_sidecar(os.path.join(out, "figure4.meta.txt"), cfg.resolved, cfg.digest)
    print(f"points used: {len(rows)} of {sweep.size}")
    print(f"slope: {slope:.6e} 1/(rad/s)")
    print(f"intercept: {intercept:.6e} rad/s")
    print(f"r_squared: {r2:.8f}")
    return 0


def cmd_propagate(cfg: RunConfig, out: str, quick: bool) -> int:
    """Propagate the configured input spectrum and write the output."""
    grid = _output_grid(cfg)
    s_in = _input_spectrum(cfg, grid)
    result = propagate_spectrum(
        PropagationProblem(
            cfg.medium, cfg.fields, s_in,
            doppler=cfg.doppler, convention=cfg.convention, z_steps=cfg.z_steps,
        )
    )
    fit = fit_lineshape(result.spectrum, "lorentzian")
    ensure_out_dir(out)
    write_spectrum_csv(os.path.join(out, "propagate_input.csv"), s_in, cfg.digest)
    write_spectrum_csv(os.path.join(out, "propagate_output.csv"), result.spectrum, cfg.digest)
    write_sidecar(
        os.path.join(out, "propagate.meta.txt"),
        cfg.resolved,
        cfg.digest,
        extra={
            "optical_depth": repr(optical_depth(cfg.medium)),
            "fitted_fwhm_rad_s": repr(fit.fwhm),
        },
    )
    print(f"optical depth eta*L/Delta_W: {optical_depth(cfg.medium):.4f}")
    print(f"output fwhm: {_khz(fit.fwhm):.4f} kHz (lorentzian fit)")
    return 0


def _mc_fields(cfg: RunConfig) -> FieldConfig:
    f = cfg.fields
    if abs(f.omega_p) > 0:
        return f
    return replace(f, omega_p=0.05 * abs(f.omega_d))


def _mc_shaping(cfg: RunConfig) -> Spectrum:
    nyquist = np.pi / cfg.mc_dt
    half = min(cfg.span_factor * cfg.input_fwhm, 0.95 * nyquist)
    grid = FrequencyGrid.spanning(half, 513)
    return _input_spectrum(cfg, grid)


def cmd_mc(cfg: RunConfig, out: str, quick: bool, realizations: int | None) -> int:
    """Monte-Carlo ensemble beat spectrum of the transmitted probe."""
    if realizations is not None and realizations < 8:
        raise ConfigError("--realizations must be at least 8", code="bad-parameter")
    n_real = realizations if realizations is not None else cfg.mc_realizations
    if quick:
        n_real = min(n_real, 32)
    mc_cfg = McConfig(
        medium=cfg.medium,
        fields=_mc_fields(cfg),
        noise=PhaseNoiseModel(diffusion=0.0, shaping=_mc_shaping(cfg), seed=cfg.seed),
        dt=cfg.mc_dt,
        duration=cfg.mc_duration,
        realizations=n_real,
        slices=cfg.mc_slices,
        doppler=cfg.doppler,
        seed=cfg.seed,
        drive_diffusion=cfg.mc_drive_diffusion,
        full_integration=cfg.mc_full_integration,
    )
    result = ensemble_beat_spectrum(mc_cfg)
    ensure_out_dir(out)
    write_spectrum_csv(
        os.path.join(out, "mc_spectrum.csv"), result.spectrum, cfg.digest, result.stderr
    )
    write_sidecar(
        os.path.join(out, "mc.meta.txt"),
        cfg.resolved,
        cfg.digest,
        extra={
            "realizations": str(result.realizations),
            "implied_drive_power_transmission": repr(result.drive_depletion),
        },
    )
    print(f"realizations: {result.realizations}")
    print(f"implied drive power transmission: {result.drive_depletion:.4f}")
    try:
        fwhm = fwhm_estimate(result.spectrum)
        print(f"output fwhm (half-max estimate): {_khz(fwhm):.4f} kHz")
    except EitNarrowError as exc:
        print(f"output width not resolved on the periodogram grid ({exc})")
    return 0


def cmd_fit(cfg: RunConfig, out: str, path: str, model: str) -> int:
    """Fit a model lineshape to a spectrum CSV."""
    if not os.path.isfile(path):
        raise ConfigError(f"spectrum file not found: {path}", code="config-not-found")
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    try:
        rows = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[1:]]  # lines[0] is the header
        )
    except ValueError:
        rows = np.empty(0)
    if rows.ndim != 2 or rows.shape[0] < 8 or rows.shape[1] < 2:
        raise ConfigError(f"not a spectrum CSV: {path}", code="bad-parameter")
    omegas, density = rows[:, 0], rows[:, 1]
    step = float(omegas[1] - omegas[0])
    grid = FrequencyGrid(start=float(omegas[0]), step=step, count=omegas.size)
    spectrum = Spectrum(0.0, grid, density)
    models = [model] if model != "auto" else ["gaussian", "lorentzian"]
    fits = [fit_lineshape(spectrum, m) for m in models]
    best = min(fits, key=lambda f: f.rms_residual)
    ensure_out_dir(out)
    write_spectrum_csv(
        os.path.join(out, "fit_curve.csv"),
        Spectrum(0.0, grid, _fit_curve(best, grid)),
        cfg.digest,
    )
    print(f"model: {best.model}")
    print(f"center: {float(best.center)!r} rad/s")
    print(f"width parameter: {float(best.width)!r} rad/s")
    print(f"fwhm: {float(best.fwhm)!r} rad/s")
    print(f"rms residual / peak: {best.rms_residual:.3e}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_configs(cfg: RunConfig):
    """Three canonical configurations with a moderate scale separation so
    the (tau, z) route stays cheap."""
    m = cfg.medium
    base = replace(m, gamma_cb=0.0)
    drive = abs(cfg.fields.omega_d)
    on_res = FieldConfig(omega_d=drive)
    detuned = FieldConfig(omega_d=drive, delta_p=0.1 * m.doppler_width)
    rates = complex_rates(base, on_res, cfg.doppler)
    decaying = replace(m, gamma_cb=0.2 * rates.gamma_cb_eff.real)
    return [(base, on_res), (base, detuned), (decaying, on_res)]


def _route_deviation(cfg: RunConfig, medium, fields) -> float:
    rates = complex_rates(medium, fields, cfg.doppler)
    scale = rates.gamma_cb_eff.real
    grid = FrequencyGrid.spanning(120.0 * scale, 1201)
    s_in = gaussian_spectrum(0.0, 20.0 * scale / GAUSSIAN_FWHM_FACTOR, grid)
    p = PropagationProblem(
        medium, fields, s_in,
        doppler=cfg.doppler, convention=cfg.convention, z_steps=cfg.z_steps,
    )
    corr = propagate_correlation(p)
    fourier = propagate_spectrum(p).spectrum
    r_ref = spectrum_to_correlation(fourier, corr.beat.lag_step, corr.beat.values.size)
    r0 = abs(r_ref.values[0])
    return float(np.max(np.abs(corr.beat.values - r_ref.values)) / r0)


def cmd_validate(cfg: RunConfig, out: str, quick: bool) -> int:
    """Reduced-scale invariant suite; exit 0 iff every check passes."""
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str):
        checks.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    for i, (medium, fields) in enumerate(_validate_configs(cfg), 1):
        dev = _route_deviation(cfg, medium, fields)
        record(f"route-equivalence-{i}", dev < 1e-3, f"max deviation {dev:.3e}")

    # passivity + transfer bounded by 1
    grid = _output_grid(cfg)
    s_in = _input_spectrum(cfg, grid)
    p = PropagationProblem(
        cfg.medium, cfg.fields, s_in,
        doppler=cfg.doppler, convention=cfg.convention, z_steps=cfg.z_steps,
    )
    out_spec = propagate_spectrum(p).spectrum
    ok = bool(np.all(out_spec.density <= s_in.density * (1.0 + 1e-12)))
    record("passivity", ok, "output density <= input density pointwise")

    # transfer independent of the input shape
    alt = lorentzian_spectrum(0.0, cfg.input_fwhm / 2.0, grid)
    t1 = out_spec.density / s_in.density
    p_alt = PropagationProblem(
        cfg.medium, cfg.fields, alt,
        doppler=cfg.doppler, convention=cfg.convention, z_steps=cfg.z_steps,
    )
    t2 = propagate_spectrum(p_alt).spectrum.density / alt.density
    dev = float(np.max(np.abs(t1 - t2) / t2))
    record("shape-independence", dev < 1e-9, f"transfer ratio deviation {dev:.3e}")

    # closed-form filter identity (paper convention, gamma_cb = 0)
    med0 = replace(cfg.medium, gamma_cb=0.0)
    f0 = FieldConfig(omega_d=cfg.fields.omega_d)
    thick = thick_medium_spectrum(med0, abs(f0.omega_d) ** 2, s_in)
    full = propagate_spectrum(
        PropagationProblem(med0, f0, s_in, doppler=True, convention="paper")
    ).spectrum
    dev = float(np.max(np.abs(thick.density - full.density) / full.density.max()))
    record("closed-form-identity", dev < 1e-6, f"max deviation {dev:.3e}")

    # Wiener-Khinchin round trip
    wk_grid = FrequencyGrid.spanning(8.0 * cfg.input_fwhm, 1501)
    wk_in = gaussian_spectrum(0.0, cfg.input_fwhm / GAUSSIAN_FWHM_FACTOR, wk_grid)
    dtau = np.pi / (8.0 * abs(wk_grid.omegas[-1]))
    n_tau = int(np.ceil(30.0 / (cfg.input_fwhm * dtau)))
    corr = spectrum_to_correlation(wk_in, dtau, n_tau)
    back = correlation_to_spectrum(corr, wk_grid)
    dev = float(np.max(np.abs(back.density - wk_in.density)) / wk_in.density.max())
    record("wiener-khinchin-roundtrip", dev < 1e-6, f"max deviation {dev:.3e}")

    # fit exactness on synthetic lineshapes
    lor = lorentzian_spectrum(0.0, cfg.input_fwhm / 2.0, wk_grid)
    fit = fit_lineshape(lor, "lorentzian")
    dev = abs(fit.width - cfg.input_fwhm / 2.0) / (cfg.input_fwhm / 2.0)
    record("fit-exactness", dev < 1e-6, f"relative parameter error {dev:.3e}")

    if quick:
        print("quick mode: monte-carlo checks skipped")
    else:
        mc_cfg = _reduced_mc_config(cfg)
        result = ensemble_beat_spectrum(mc_cfg)
        dev, sig = _mc_vs_analytic(cfg, mc_cfg, result)
        record(
            "mc-vs-analytic",
            dev <= 3.0,
            f"worst band deviation {dev:.2f} sigma (limit 3), {sig} bands",
        )

    failed = [name for name, ok, _ in checks if not ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def _reduced_mc_config(cfg: RunConfig) -> McConfig:
    """Gentle optical depth and moderate rates so the Monte-Carlo check
    stays well inside the validate-time budget."""
    medium = replace(
        cfg.medium, number_density=cfg.medium.number_density / 10.0, gamma_cb=0.0
    )
    drive = abs(cfg.fields.omega_d)
    # a genuinely weak probe: the slaved coherence carries the probe's
    # own power broadening, which would bias the analytic comparison
    fields = FieldConfig(omega_d=drive, omega_p=1e-3 * drive)
    rates = complex_rates(medium, fields, cfg.doppler)
    g = rates.gamma_cb_eff.real
    dt = 0.005 / g
    shaping_grid = FrequencyGrid.spanning(min(40.0 * g, 0.9 * np.pi / dt), 257)
    shaping = gaussian_spectrum(0.0, 10.0 * g / GAUSSIAN_FWHM_FACTOR, shaping_grid)
    return McConfig(
        medium=medium,
        fields=fields,
        noise=PhaseNoiseModel(diffusion=0.0, shaping=shaping, seed=cfg.seed),
        dt=dt,
        duration=60.0 / g,
        realizations=64,
        slices=cfg.mc_slices,
        doppler=cfg.doppler,
        seed=cfg.seed,
    )


def _mc_vs_analytic(cfg: RunConfig, mc_cfg: McConfig, result) -> tuple[float, int]:
    from .mc import band_average_transfer, windowed_reference
    from .medium import transmission

    mask = result.input_density > 0.02 * result.input_density.max()
    n_bands = 16
    analytic_bins = transmission(
        mc_cfg.medium, mc_cfg.fields, result.spectrum.omegas, mc_cfg.doppler, "derived"
    )
    ref_bins = windowed_reference(result, analytic_bins)
    centers, values, errs = band_average_transfer(result, mask, n_bands)
    groups = np.array_split(np.flatnonzero(mask), n_bands)
    weights = result.input_density
    refs = np.array(
        [np.sum(ref_bins[g] * weights[g]) / np.sum(weights[g]) for g in groups]
    )
    sig = np.abs(values - refs) / np.maximum(errs, 1e-300)
    return float(sig.max()), n_bands


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the exit-code contract:
    they raise ``ConfigError`` (one ``error: usage:`` line, exit 2)
    instead of printing the usage block.  Subcommand parsers inherit it."""

    def error(self, message: str):
        raise ConfigError(" ".join(message.split()), code="usage")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eitnarrow",
        description="EIT spectral narrowing of noisy light: figures, sweeps and checks.",
    )
    parser.add_argument("--version", action="version", version=f"eitnarrow {__version__}")
    parser.add_argument("--config", metavar="PATH", default=None, help="configuration file")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--seed", metavar="N", type=int, default=None, help="override seed")
    parser.add_argument("--quick", action="store_true", help="reduced-scale run")
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("figure2", help="input vs transmitted beat spectra")
    p2.add_argument("--off-resonance-only", action="store_true")
    sub.add_parser("figure3", help="EIT scan vs transmitted-noise spectrum")
    sub.add_parser("figure4", help="output width vs drive power sweep")
    sub.add_parser("validate", help="run the invariant suite")
    sub.add_parser("propagate", help="propagate the configured input spectrum")
    pmc = sub.add_parser("mc", help="Monte-Carlo ensemble beat spectrum")
    pmc.add_argument("--realizations", type=int, default=None)
    pfit = sub.add_parser("fit", help="fit a lineshape to a spectrum CSV")
    pfit.add_argument("--input", required=True, metavar="CSV")
    pfit.add_argument(
        "--model", choices=("gaussian", "lorentzian", "auto"), default="auto"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config, seed=args.seed)
        if args.command == "figure2":
            return cmd_figure2(cfg, args.out, args.quick, args.off_resonance_only)
        if args.command == "figure3":
            return cmd_figure3(cfg, args.out, args.quick)
        if args.command == "figure4":
            return cmd_figure4(cfg, args.out, args.quick)
        if args.command == "validate":
            return cmd_validate(cfg, args.out, args.quick)
        if args.command == "propagate":
            return cmd_propagate(cfg, args.out, args.quick)
        if args.command == "mc":
            return cmd_mc(cfg, args.out, args.quick, args.realizations)
        if args.command == "fit":
            return cmd_fit(cfg, args.out, args.input, args.model)
        raise ConfigError(f"unknown command {args.command!r}", code="bad-command")
    except ConfigError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"error: resolution: {exc}", file=sys.stderr)
        return 3
    except EitNarrowError as exc:
        print(f"error: invariant: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
