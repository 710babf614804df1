"""CSV/sidecar/SVG output helpers and the spectrum CSV reader.

CSV is the normative format: a ``#`` comment header carrying the config
digest and code version, then a plain header row and decimal floating
text with LF line endings, all written by ``_write_csv``.  SVG plots
are best-effort, written directly with no plotting dependency.
"""

from __future__ import annotations

import os

import numpy as np

from . import __version__
from .errors import ConfigError
from .spectral import FrequencyGrid, Spectrum


def _header_lines(digest: str) -> str:
    return f"# eitnarrow {__version__} config {digest}\n"


def _write_csv(path: str, header: list[str], columns, digest: str) -> None:
    """The one CSV layout: the ``#`` header, the column names, then one
    line per row of the columns' ``repr`` floats."""
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(_header_lines(digest))
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_spectrum_csv(
    path: str, s: Spectrum, digest: str, stderr: np.ndarray | None = None
) -> None:
    """Spectrum CSV: ``omega_rad_s,density`` plus an optional ``stderr``
    column for ensemble estimates."""
    header, columns = ["omega_rad_s", "density"], [s.omegas, s.density]
    if stderr is not None:
        header, columns = header + ["stderr"], columns + [stderr]
    _write_csv(path, header, columns, digest)


def write_table_csv(path: str, header: list[str], rows, digest: str) -> None:
    """Generic numeric table CSV."""
    _write_csv(path, header, zip(*rows), digest)


def read_spectrum_csv(path: str) -> Spectrum:
    """The spectrum in the first two columns of a CSV whose first column
    is a uniform frequency grid; ``#`` lines and the header row are
    skipped."""
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
    return Spectrum(FrequencyGrid(start=float(omegas[0]), step=step, count=omegas.size), density)


def write_sidecar(path: str, resolved: dict, digest: str, extra: dict | None = None) -> None:
    """Run-metadata sidecar: flat key/value text with every resolved
    configuration entry plus any run-specific extras."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_header_lines(digest))
        fh.write(f"code_version={__version__}\n")
        fh.write(f"config_digest={digest}\n")
        for sec in sorted(resolved):
            for key in sorted(resolved[sec]):
                fh.write(f"{sec}.{key}={resolved[sec][key]}\n")
        for key in sorted(extra or {}):
            fh.write(f"{key}={extra[key]}\n")


# ---------------------------------------------------------------------------
# minimal hand-rolled SVG line plots
# ---------------------------------------------------------------------------

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H, _PAD = 720, 480, 60


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / span


def write_svg_plot(
    path: str,
    curves: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Polyline overlay plot of (label, x, y) curves."""
    xs = np.concatenate([c[1] for c in curves])
    ys = np.concatenate([c[2] for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(min(ys.min(), 0.0)), float(ys.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
        'fill="none" stroke="#333"/>',
    ]
    for i, (label, x, y) in enumerate(curves):
        px = _scale(x, x_lo, x_hi, _PAD, _W - _PAD)
        py = _scale(y, y_lo, y_hi, _H - _PAD, _PAD)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _PAD - 8}" y="{_PAD + 18 + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


__all__ = [
    "read_spectrum_csv",
    "write_sidecar",
    "write_spectrum_csv",
    "write_svg_plot",
    "write_table_csv",
]
