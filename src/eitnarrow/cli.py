"""Configuration-driven command line front end.

Subcommands: ``figure2``, ``figure3``, ``figure4``, ``validate``,
``propagate``, ``mc``, ``fit``.  Global flags: ``--config PATH``,
``--out DIR``, ``--seed N``, ``--quick``.

Exit codes: 0 success; a package error prints a single machine-parsable
line ``error: <code>: <detail>`` on stderr and exits with the code its
class carries in ``errors.py``.  Warnings print as ``warning: <message>``
lines.  A stdout closed by its reader exits 1 with ``error: broken-pipe:
...`` (``eitnarrow validate | head -1``).
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
    read_spectrum_csv,
    write_sidecar,
    write_spectrum_csv,
    write_svg_plot,
    write_table_csv,
)
from .checks import run_checks
from .config import RunConfig, load_config
from .errors import ConfigError, EitNarrowError
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


def _output_line(cfg: RunConfig, f: FieldConfig, grid: FrequencyGrid):
    """The configured input on ``grid``, the spectrum the cell transmits
    with fields ``f`` and its Lorentzian fit."""
    s_in = cfg.input_spectrum(grid)
    s_out = propagate_spectrum(cfg.medium, f, s_in)
    return s_in, s_out, fit_lineshape(s_out, "lorentzian")


def cmd_figure2(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Input beat spectrum against the spectrum transmitted by the cell."""
    wide = _input_grid(cfg)
    s_in = cfg.input_spectrum(wide)
    fit_in = fit_lineshape(s_in, "gaussian")
    fine = cfg.output_grid()
    _, s_out, fit_out = _output_line(cfg, cfg.fields, fine)
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
    os.makedirs(args.out, exist_ok=True)
    for name, spec in (
        ("figure2_input.csv", s_in),
        ("figure2_output.csv", s_out),
        ("figure2_fit_input.csv", fit_in_curve),
        ("figure2_fit_output.csv", fit_out_curve),
    ):
        write_spectrum_csv(os.path.join(args.out, name), spec, cfg.digest)
    peak_in = s_in.density.max()
    peak_out = wide_out.density.max()
    write_svg_plot(
        os.path.join(args.out, "figure2.svg"),
        [
            ("input (normalized)", wide.omegas, s_in.density / peak_in),
            ("output (normalized)", wide.omegas, wide_out.density / peak_out),
        ],
        "Beat spectra before and after the cell",
        "offset from carrier [rad/s]",
        "normalized spectral density",
    )
    write_sidecar(os.path.join(args.out, "figure2.meta.txt"), cfg.resolved, cfg.digest)
    return 0


def cmd_figure3(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Monochromatic EIT scan against the normalized transmitted-noise
    spectrum on a shared frequency axis."""
    os.makedirs(args.out, exist_ok=True)
    if cfg.medium.length == 0:
        grid = _input_grid(cfg)
        write_table_csv(
            os.path.join(args.out, "figure3_scan.csv"),
            ["delta_rad_s", "transmission"],
            zip(grid.omegas, transmission(cfg.medium, cfg.fields, grid.omegas)),
            cfg.digest,
        )
        write_sidecar(os.path.join(args.out, "figure3.meta.txt"), cfg.resolved, cfg.digest)
        print("note: no-resonance (zero-length medium, scan is flat)")
        return 0

    grid = cfg.output_grid()
    width_eit = eit_width(cfg.medium, cfg.fields, grid)
    scan = transmission(cfg.medium, cfg.fields, grid.omegas)

    _, s_out, fit_noise = _output_line(cfg, cfg.fields, grid)
    noise_norm = s_out.density / s_out.density.max()
    ratio = fit_noise.fwhm / width_eit

    write_table_csv(
        os.path.join(args.out, "figure3_scan.csv"),
        ["delta_rad_s", "transmission"],
        zip(grid.omegas, scan),
        cfg.digest,
    )
    write_spectrum_csv(
        os.path.join(args.out, "figure3_noise.csv"), Spectrum(grid, noise_norm), cfg.digest
    )
    feature = np.clip(scan - wing_transmission(cfg.medium, cfg.fields), 0.0, None)
    write_svg_plot(
        os.path.join(args.out, "figure3.svg"),
        [
            ("EIT scan (normalized)", grid.omegas, feature / feature.max()),
            ("transmitted noise (normalized)", grid.omegas, noise_norm),
        ],
        "EIT resonance: monochromatic scan vs transmitted noise",
        "two-photon detuning / offset [rad/s]",
        "normalized response",
    )
    write_sidecar(os.path.join(args.out, "figure3.meta.txt"), cfg.resolved, cfg.digest)
    print(f"eit scan fwhm: {_khz(width_eit):.4f} kHz")
    print(f"transmitted-noise fwhm: {_khz(fit_noise.fwhm):.4f} kHz")
    print(f"width ratio (noise/scan): {ratio:.4f}")
    return 0


def cmd_figure4(cfg: RunConfig, args: argparse.Namespace) -> int:
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
        grid = cfg.output_grid(f)
        report = adiabatic_rate_check(cfg.medium, f, grid.omegas)
        if not report.valid:
            print(
                f"warning: point |Omega_d| = {_khz(omega_d) / 1e3:.4f} MHz excluded "
                f"(adiabatic validity ratio {report.validity_ratio:.2f} < 10)",
                file=sys.stderr,
            )
            continue
        rows.append((abs(omega_d) ** 2, _output_line(cfg, f, grid)[2].fwhm))
    if len(rows) < 2:
        raise ConfigError("fewer than two valid sweep points", code="sweep-too-small")

    x = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    slope, intercept, r2 = linear_fit(x, y)
    os.makedirs(args.out, exist_ok=True)
    write_table_csv(
        os.path.join(args.out, "figure4.csv"),
        ["omega_d_sq_rad2_s2", "fwhm_rad_s"],
        rows,
        cfg.digest,
    )
    write_svg_plot(
        os.path.join(args.out, "figure4.svg"),
        [
            ("fitted width", x, y),
            ("linear fit", x, slope * x + intercept),
        ],
        "Transmitted width vs drive power",
        "|Omega_d|^2 [rad^2/s^2]",
        "fitted FWHM [rad/s]",
    )
    write_sidecar(os.path.join(args.out, "figure4.meta.txt"), cfg.resolved, cfg.digest)
    print(f"points used: {len(rows)} of {sweep.size}")
    print(f"slope: {slope:.6e} 1/(rad/s)")
    print(f"intercept: {intercept:.6e} rad/s")
    print(f"r_squared: {r2:.8f}")
    return 0


def cmd_propagate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Propagate the configured input spectrum and write the output."""
    s_in, s_out, fit = _output_line(cfg, cfg.fields, cfg.output_grid())
    os.makedirs(args.out, exist_ok=True)
    write_spectrum_csv(os.path.join(args.out, "propagate_input.csv"), s_in, cfg.digest)
    write_spectrum_csv(os.path.join(args.out, "propagate_output.csv"), s_out, cfg.digest)
    write_sidecar(
        os.path.join(args.out, "propagate.meta.txt"),
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


def cmd_mc(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Monte-Carlo ensemble beat spectrum of the transmitted probe."""
    n_real = min(cfg.mc_realizations, 32) if args.quick else cfg.mc_realizations
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
    os.makedirs(args.out, exist_ok=True)
    write_spectrum_csv(
        os.path.join(args.out, "mc_spectrum.csv"), result.spectrum, cfg.digest, result.stderr
    )
    write_sidecar(
        os.path.join(args.out, "mc.meta.txt"),
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


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Fit a model lineshape to a spectrum CSV."""
    spectrum = read_spectrum_csv(args.input)
    models = [args.model] if args.model != "auto" else ["gaussian", "lorentzian"]
    fits = [fit_lineshape(spectrum, m) for m in models]
    best = min(fits, key=lambda f: f.rms_residual)
    curve = _MODELS[best.model](spectrum.omegas, best.amplitude, best.center, best.width)[0]
    os.makedirs(args.out, exist_ok=True)
    write_spectrum_csv(
        os.path.join(args.out, "fit_curve.csv"), Spectrum(spectrum.grid, curve), cfg.digest
    )
    print(f"model: {best.model}")
    print(f"center: {float(best.center)!r} rad/s")
    print(f"width parameter: {float(best.width)!r} rad/s")
    print(f"fwhm: {float(best.fwhm)!r} rad/s")
    print(f"rms residual / peak: {best.rms_residual:.3e}")
    return 0


def cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Reduced-scale invariant suite; exit 0 iff every check passes."""
    records = []
    for record in run_checks(cfg, args.quick):
        print(record.line)
        records.append(record)
    if args.quick:
        print("quick mode: monte-carlo checks skipped")
    passed = sum(r.passed for r in records)
    print(f"{passed}/{len(records)} checks passed")
    return 0 if passed == len(records) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises its usage errors as ``ConfigError``
    with the code ``usage``; subcommand parsers inherit it."""

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

    for name, run, text in (
        ("figure2", cmd_figure2, "input vs transmitted beat spectra"),
        ("figure3", cmd_figure3, "EIT scan vs transmitted-noise spectrum"),
        ("figure4", cmd_figure4, "output width vs drive power sweep"),
        ("validate", cmd_validate, "run the invariant suite"),
        ("propagate", cmd_propagate, "propagate the configured input spectrum"),
        ("mc", cmd_mc, "Monte-Carlo ensemble beat spectrum"),
    ):
        sub.add_parser(name, help=text).set_defaults(run=run)
    pfit = sub.add_parser("fit", help="fit a lineshape to a spectrum CSV")
    pfit.set_defaults(run=cmd_fit)
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
        return args.run(load_config(args.config, seed=args.seed), args)
    except EitNarrowError as exc:  # errors.py holds the exit table
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
