"""CSV/sidecar/SVG output helpers.

CSV is the normative format: a ``#`` comment header carrying the config
digest and code version, then a plain header row and decimal floating
text with LF line endings.  SVG plots are best-effort, written directly
with no plotting dependency.
"""

from __future__ import annotations

import os

import numpy as np

from . import __version__
from .spectral import Spectrum


def _header_lines(digest: str) -> str:
    return f"# eitnarrow {__version__} config {digest}\n"


def write_spectrum_csv(
    path: str, s: Spectrum, digest: str, stderr: np.ndarray | None = None
) -> None:
    """Spectrum CSV: ``omega_rad_s,density`` plus an optional ``stderr``
    column for ensemble estimates."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_header_lines(digest))
        if stderr is None:
            fh.write("omega_rad_s,density\n")
            for w, d in zip(s.omegas, s.density):
                fh.write(f"{float(w)!r},{float(d)!r}\n")
        else:
            fh.write("omega_rad_s,density,stderr\n")
            for w, d, e in zip(s.omegas, s.density, stderr):
                fh.write(f"{float(w)!r},{float(d)!r},{float(e)!r}\n")


def write_table_csv(path: str, header: list[str], rows, digest: str) -> None:
    """Generic numeric table CSV."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_header_lines(digest))
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


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


def ensure_out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


__all__ = [
    "ensure_out_dir",
    "write_sidecar",
    "write_spectrum_csv",
    "write_svg_plot",
    "write_table_csv",
]
