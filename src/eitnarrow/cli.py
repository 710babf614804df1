"""Configuration-driven command line front end.

Subcommands: ``figure2``, ``figure3``, ``figure4``, ``validate``,
``propagate``, ``mc``, ``fit``.  Global flags: ``--config PATH``,
``--out DIR``, ``--seed N``, ``--quick``.

Exit codes: 0 success, 1 failed acceptance/invariant, 2 usage,
configuration or derived-parameter error, 3 numerical-resolution error
(including a width the grid does not resolve).  Failures print a single
machine-parsable line ``error: <code>: <detail>`` on stderr; warnings
print as ``warning: <message>`` lines.  A stdout closed by its reader
exits 1 with ``error: broken-pipe: ...`` (``eitnarrow validate | head -1``).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
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
from .checks import run_checks
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    EitNarrowError,
    InvalidParameterError,
    ResolutionError,
)
from .fitting import _MODELS, fit_lineshape, linear_fit
from .medium import (
    FieldConfig,
    closed_form_width,
    eit_width,
    optical_depth,
    transmission,
    wing_transmission,
)
from .mc import McConfig, ensemble_beat_spectrum
from .noise import PhaseNoiseModel
from .propagation import adiabatic_rate_check, narrowing_factor, propagate_spectrum
from .spectral import FrequencyGrid, Spectrum, fwhm_estimate

TWO_PI = 2.0 * np.pi


def _khz(omega: float) -> float:
    return omega / (TWO_PI * 1e3)


def _input_grid(cfg: RunConfig) -> FrequencyGrid:
    return FrequencyGrid.spanning(cfg.span_factor * cfg.input_fwhm, cfg.grid_points)


def cmd_figure2(cfg: RunConfig, out: str) -> int:
    """Input beat spectrum against the spectrum transmitted by the cell."""
    wide = _input_grid(cfg)
    s_in = cfg.input_spectrum(wide)
    fit_in = fit_lineshape(s_in, "gaussian")
    fine = cfg.output_grid()
    s_out = propagate_spectrum(cfg.medium, cfg.fields, cfg.input_spectrum(fine))
    fit_out = fit_lineshape(s_out, "lorentzian")
    target = closed_form_width(
        cfg.medium, abs(cfg.fields.omega_d) ** 2 + abs(cfg.fields.omega_p) ** 2
    )
    wide_out = propagate_spectrum(cfg.medium, cfg.fields, s_in)
    print(f"input fwhm: {_khz(fit_in.fwhm):.4f} kHz (gaussian fit)")
    print(f"output fwhm: {_khz(fit_out.fwhm):.4f} kHz (lorentzian fit)")
    print(f"closed-form width prediction: {_khz(target):.4f} kHz")
    print(
        "fitted/closed-form deviation: "
        f"{100.0 * (fit_out.fwhm - target) / target:+.1f}%"
    )
    print(f"narrowing factor: {narrowing_factor(fit_in.fwhm, fit_out.fwhm):.1f}")

    fit_in_curve, fit_out_curve = (
        Spectrum(g, _MODELS[fit.model](g.omegas, fit.amplitude, fit.center, fit.width)[0])
        for g, fit in ((wide, fit_in), (fine, fit_out))
    )
    ensure_out_dir(out)
    for name, spec in (
        ("figure2_input.csv", s_in),
        ("figure2_output.csv", s_out),
        ("figure2_fit_input.csv", fit_in_curve),
        ("figure2_fit_output.csv", fit_out_curve),
    ):
        write_spectrum_csv(os.path.join(out, name), spec, cfg.digest)
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


def cmd_figure3(cfg: RunConfig, out: str) -> int:
    """Monochromatic EIT scan against the normalized transmitted-noise
    spectrum on a shared frequency axis."""
    ensure_out_dir(out)
    if cfg.medium.length == 0:
        grid = _input_grid(cfg)
        write_table_csv(
            os.path.join(out, "figure3_scan.csv"),
            ["delta_rad_s", "transmission"],
            zip(grid.omegas, transmission(cfg.medium, cfg.fields, grid.omegas)),
            cfg.digest,
        )
        write_sidecar(os.path.join(out, "figure3.meta.txt"), cfg.resolved, cfg.digest)
        print("note: no-resonance (zero-length medium, scan is flat)")
        return 0

    grid = cfg.output_grid()
    width_eit = eit_width(cfg.medium, cfg.fields, grid)
    scan = transmission(cfg.medium, cfg.fields, grid.omegas)

    s_out = propagate_spectrum(cfg.medium, cfg.fields, cfg.input_spectrum(grid))
    noise_norm = s_out.density / s_out.density.max()
    fit_noise = fit_lineshape(Spectrum(grid, noise_norm), "lorentzian")
    ratio = fit_noise.fwhm / width_eit

    write_table_csv(
        os.path.join(out, "figure3_scan.csv"),
        ["delta_rad_s", "transmission"],
        zip(grid.omegas, scan),
        cfg.digest,
    )
    write_spectrum_csv(
        os.path.join(out, "figure3_noise.csv"), Spectrum(grid, noise_norm), cfg.digest
    )
    feature = np.clip(scan - wing_transmission(cfg.medium, cfg.fields), 0.0, None)
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


def cmd_figure4(cfg: RunConfig, out: str) -> int:
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
        s_in = cfg.input_spectrum(cfg.output_grid(f))
        report = adiabatic_rate_check(cfg.medium, f, s_in.omegas)
        if not report.valid:
            print(
                f"warning: point |Omega_d| = {_khz(omega_d) / 1e3:.4f} MHz excluded "
                f"(adiabatic validity ratio {report.validity_ratio:.2f} < 10)",
                file=sys.stderr,
            )
            continue
        fit = fit_lineshape(propagate_spectrum(cfg.medium, f, s_in), "lorentzian")
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


def cmd_propagate(cfg: RunConfig, out: str) -> int:
    """Propagate the configured input spectrum and write the output."""
    s_in = cfg.input_spectrum(cfg.output_grid())
    s_out = propagate_spectrum(cfg.medium, cfg.fields, s_in)
    fit = fit_lineshape(s_out, "lorentzian")
    ensure_out_dir(out)
    write_spectrum_csv(os.path.join(out, "propagate_input.csv"), s_in, cfg.digest)
    write_spectrum_csv(os.path.join(out, "propagate_output.csv"), s_out, cfg.digest)
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
    return cfg.input_spectrum(grid)


def cmd_mc(cfg: RunConfig, out: str, quick: bool) -> int:
    """Monte-Carlo ensemble beat spectrum of the transmitted probe."""
    n_real = min(cfg.mc_realizations, 32) if quick else cfg.mc_realizations
    mc_cfg = McConfig(
        medium=cfg.medium,
        fields=_mc_fields(cfg),
        noise=PhaseNoiseModel(diffusion=0.0, shaping=_mc_shaping(cfg), seed=cfg.seed),
        dt=cfg.mc_dt,
        duration=cfg.mc_duration,
        realizations=n_real,
        slices=cfg.mc_slices,
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
            "realizations": str(mc_cfg.realizations),
            "implied_drive_power_transmission": repr(result.drive_depletion),
        },
    )
    print(f"realizations: {mc_cfg.realizations}")
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
    try:  # a UnicodeDecodeError is a ValueError too
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
        rows = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[1:]]  # lines[0] is the header
        )
    except ValueError:
        rows = np.empty(0)
    if rows.ndim != 2 or rows.shape[0] < 8 or rows.shape[1] < 2:
        raise ConfigError(f"not a spectrum CSV: {path}", code="bad-parameter")
    omegas, density = rows[:, 0], rows[:, 1]
    steps = np.diff(omegas)
    step = float(steps[0])
    if not np.all(np.abs(steps - step) <= 1e-6 * abs(step)):
        raise ConfigError(
            f"the first column of {path} is not a uniform frequency grid", code="bad-parameter"
        )
    grid = FrequencyGrid(start=float(omegas[0]), step=step, count=omegas.size)
    spectrum = Spectrum(grid, density)
    models = [model] if model != "auto" else ["gaussian", "lorentzian"]
    fits = [fit_lineshape(spectrum, m) for m in models]
    best = min(fits, key=lambda f: f.rms_residual)
    curve = _MODELS[best.model](grid.omegas, best.amplitude, best.center, best.width)[0]
    ensure_out_dir(out)
    write_spectrum_csv(os.path.join(out, "fit_curve.csv"), Spectrum(grid, curve), cfg.digest)
    print(f"model: {best.model}")
    print(f"center: {float(best.center)!r} rad/s")
    print(f"width parameter: {float(best.width)!r} rad/s")
    print(f"fwhm: {float(best.fwhm)!r} rad/s")
    print(f"rms residual / peak: {best.rms_residual:.3e}")
    return 0


def cmd_validate(cfg: RunConfig, out: str, quick: bool) -> int:
    """Reduced-scale invariant suite; exit 0 iff every check passes."""
    records = []
    for record in run_checks(cfg, quick):
        print(record.line)
        records.append(record)
    if quick:
        print("quick mode: monte-carlo checks skipped")
    passed = sum(r.passed for r in records)
    print(f"{passed}/{len(records)} checks passed")
    return 0 if passed == len(records) else 1


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

    sub.add_parser("figure2", help="input vs transmitted beat spectra")
    sub.add_parser("figure3", help="EIT scan vs transmitted-noise spectrum")
    sub.add_parser("figure4", help="output width vs drive power sweep")
    sub.add_parser("validate", help="run the invariant suite")
    sub.add_parser("propagate", help="propagate the configured input spectrum")
    sub.add_parser("mc", help="Monte-Carlo ensemble beat spectrum")
    pfit = sub.add_parser("fit", help="fit a lineshape to a spectrum CSV")
    pfit.add_argument("--input", required=True, metavar="CSV")
    pfit.add_argument(
        "--model", choices=("gaussian", "lorentzian", "auto"), default="auto"
    )
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {' '.join(str(message).split())}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # every warning of the command, each time it is raised, as one
    # ``warning:`` line on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        try:
            try:
                return _run(argv)
            finally:
                sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        except BrokenPipeError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # silent exit flush
            print(f"error: broken-pipe: {exc}", file=sys.stderr)
            return 1


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config, seed=args.seed)
        if args.command == "figure2":
            return cmd_figure2(cfg, args.out)
        if args.command == "figure3":
            return cmd_figure3(cfg, args.out)
        if args.command == "figure4":
            return cmd_figure4(cfg, args.out)
        if args.command == "validate":
            return cmd_validate(cfg, args.out, args.quick)
        if args.command == "propagate":
            return cmd_propagate(cfg, args.out)
        if args.command == "mc":
            return cmd_mc(cfg, args.out, args.quick)
        return cmd_fit(cfg, args.out, args.input, args.model)  # argparse allows no other
    except ConfigError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"error: resolution: {exc}", file=sys.stderr)
        return 3
    except InvalidParameterError as exc:
        print(f"error: bad-parameter: {exc}", file=sys.stderr)
        return 2
    except EitNarrowError as exc:
        print(f"error: invariant: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
