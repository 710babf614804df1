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
from .config import TWO_PI, RunConfig, load_config
from .errors import ConfigError, EitNarrowError
from .fitting import fit_lineshape, linear_fit
from .medium import (
    closed_form_width,
    eit_width,
    optical_depth,
    transmission,
    wing_transmission,
)
from .mc import ensemble_beat_spectrum
from .propagation import narrowing_factor, propagate_spectrum
from .spectral import FitResult, Spectrum, fwhm_estimate


def _khz(omega: float) -> float:
    return omega / (TWO_PI * 1e3)


def _fit_lines(prefix: str, fit: FitResult) -> dict[str, str]:
    """Sidecar lines of a fit: its model and full-``repr`` parameters.
    ``fitting._MODELS[model](omegas, amplitude, center, width)[0]``
    rebuilds the fitted curve from them."""
    return {
        f"{prefix}_model": fit.model,
        f"{prefix}_amplitude": repr(fit.amplitude),
        f"{prefix}_center": repr(fit.center),
        f"{prefix}_width": repr(fit.width),
        f"{prefix}_fwhm": repr(fit.fwhm),
    }


def cmd_figure2(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Input beat spectrum against the spectrum transmitted by the cell."""
    # the guarded output line before the input fit: an unresolved grid exits 3
    fine = cfg.output_grid()
    _, s_out, fit_out = cfg.output_line(cfg.fields, fine)
    wide = cfg.input_grid()
    s_in = cfg.input_spectrum(wide)
    fit_in = fit_lineshape(s_in, cfg.input_shape)
    target = closed_form_width(cfg.medium, abs(cfg.fields.omega_d) ** 2)
    wide_out = propagate_spectrum(cfg.medium, cfg.fields, s_in)
    print(f"input fwhm: {_khz(fit_in.fwhm):.4f} kHz ({fit_in.model} fit)")
    print(f"output fwhm: {_khz(fit_out.fwhm):.4f} kHz (lorentzian fit)")
    print(f"closed-form width prediction: {_khz(target):.4f} kHz")
    print(
        "fitted/closed-form deviation: "
        f"{100.0 * (fit_out.fwhm - target) / target:+.1f}%"
    )
    print(f"narrowing factor: {narrowing_factor(fit_in.fwhm, fit_out.fwhm):.1f}")

    write_spectrum_csv(os.path.join(args.out, "figure2_input.csv"), s_in, cfg.digest)
    write_spectrum_csv(os.path.join(args.out, "figure2_output.csv"), s_out, cfg.digest)
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
    write_sidecar(
        os.path.join(args.out, "figure2.meta.txt"),
        cfg.resolved,
        cfg.digest,
        extra={**_fit_lines("fit_input", fit_in), **_fit_lines("fit_output", fit_out)},
    )
    return 0


def cmd_figure3(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Monochromatic EIT scan against the normalized transmitted-noise
    spectrum on a shared frequency axis."""
    grid = cfg.output_grid()
    width_eit = eit_width(cfg.medium, cfg.fields, grid)
    scan = transmission(cfg.medium, cfg.fields, grid.omegas)

    _, s_out, fit_noise = cfg.output_line(cfg.fields, grid)
    noise_norm = s_out.density / s_out.density.max()
    ratio = fit_noise.fwhm / width_eit

    write_table_csv(
        os.path.join(args.out, "figure3_scan.csv"),
        ["delta_rad_s", "transmission"],
        [grid, scan],
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
    """Fitted output width versus drive power over ``RunConfig.power_sweep``."""
    x, y, _ = cfg.power_sweep()
    slope, intercept, r2 = linear_fit(x, y)
    write_table_csv(
        os.path.join(args.out, "figure4.csv"),
        ["omega_d_sq_rad2_s2", "fwhm_rad_s"],
        [x, y],
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
    print(f"points used: {x.size} of {cfg.sweep_omega_d.size}")
    print(f"slope: {slope:.6e} 1/(rad/s)")
    print(f"intercept: {intercept:.6e} rad/s")
    print(f"r_squared: {r2:.8f}")
    return 0


def cmd_propagate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Propagate the configured input spectrum and write the output."""
    s_in, s_out, fit = cfg.output_line(cfg.fields, cfg.output_grid())
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


def cmd_mc(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Monte-Carlo ensemble beat spectrum of the transmitted probe."""
    n_real = min(cfg.mc_realizations, 32) if args.quick else cfg.mc_realizations
    mc_cfg = cfg.mc_config(n_real)
    result = ensemble_beat_spectrum(mc_cfg)
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
    """Fit a model lineshape to a spectrum CSV; the fit's parameters go
    to the ``fit.meta.txt`` sidecar."""
    spectrum = read_spectrum_csv(args.input)
    models = [args.model] if args.model != "auto" else ["gaussian", "lorentzian"]
    fits = [fit_lineshape(spectrum, m) for m in models]
    best = min(fits, key=lambda f: f.rms_residual)
    write_sidecar(
        os.path.join(args.out, "fit.meta.txt"), cfg.resolved, cfg.digest, _fit_lines("fit", best)
    )
    print(f"model: {best.model}")
    print(f"center: {best.center!r} rad/s")
    print(f"width parameter: {best.width!r} rad/s")
    print(f"fwhm: {best.fwhm!r} rad/s")
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
