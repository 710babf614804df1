"""CSV/sidecar/SVG output helpers and the spectrum CSV reader.

CSV is the normative format: a ``#`` header with the config digest and
code version, a header row and ``repr`` floats with LF line endings,
each file one string from ``_write_csv``, each grid's ω text formatted
once per ``FrequencyGrid`` object.  SVG plots are best-effort, hand-written.

Every file is created anew, its directory made first (``_create``):
writing over one stalled on ext4.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from . import __version__
from .config import _key_lines
from .errors import ConfigError
from .spectral import FrequencyGrid, Spectrum


def _header_lines(digest: str) -> str:
    return f"# eitnarrow {__version__} config {digest}\n"


def _create(path: str):
    """``path`` opened for LF text as a new file, its directory made and
    an existing file removed first; a crash mid-write leaves no file
    rather than a truncated one.  A path that cannot be created (its
    directory a file, itself a directory, an empty directory name) is a
    ``ConfigError`` with the code ``bad-output``."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        return open(path, "w", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot create {path}: {exc}", code="bad-output") from exc


def _write_csv(path: str, header: list[str], columns, digest: str) -> None:
    """The one CSV layout, one string in one write: ``#`` header, column names, then a
    line per row of ``repr`` floats (a ``FrequencyGrid`` prints its ``omega_text``)."""
    cells = [
        c.omega_text if isinstance(c, FrequencyGrid) else map(repr, np.asarray(c, float).tolist())
        for c in columns
    ]
    lines = [_header_lines(digest) + ",".join(header), *map(",".join, zip(*cells)), ""]
    with _create(path) as fh:
        fh.write("\n".join(lines))


def write_spectrum_csv(
    path: str, s: Spectrum, digest: str, stderr: np.ndarray | None = None
) -> None:
    """Spectrum CSV: ``omega_rad_s,density`` plus an optional ``stderr``
    column for ensemble estimates."""
    header, columns = ["omega_rad_s", "density"], [s.grid, s.density]
    if stderr is not None:
        header, columns = header + ["stderr"], columns + [stderr]
    _write_csv(path, header, columns, digest)


def write_table_csv(path: str, header: list[str], columns, digest: str) -> None:
    """Generic numeric table CSV of ``columns``: arrays or ``FrequencyGrid``s."""
    _write_csv(path, header, columns, digest)


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
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}", code="bad-parameter") from exc
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
    with _create(path) as fh:
        fh.write(_header_lines(digest))
        fh.write(f"code_version={__version__}\n")
        fh.write(f"config_digest={digest}\n")
        fh.writelines(line + "\n" for line in _key_lines(resolved))
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
        # Python floats: formatting numpy scalars one by one is twice as slow
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _PAD - 8}" y="{_PAD + 18 + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with _create(path) as fh:
        fh.write("\n".join(parts) + "\n")


__all__ = [
    "read_spectrum_csv",
    "write_sidecar",
    "write_spectrum_csv",
    "write_svg_plot",
    "write_table_csv",
]
