"""The CSV writer: byte layout against a row-by-row reference, the
per-grid ω text, and the round trip through the spectrum reader."""

import ast
import os

import numpy as np
import pytest

from eitnarrow import __version__, artifacts, spectral
from eitnarrow.artifacts import read_spectrum_csv, write_spectrum_csv, write_table_csv
from eitnarrow.spectral import FrequencyGrid, Spectrum

DIGEST = "0123abcd"


def reference_csv(header, columns):
    """The CSV layout written one row at a time, as the writer did
    before it built each file as one string."""
    values = [(c.omegas if isinstance(c, FrequencyGrid) else np.asarray(c, float)).tolist()
              for c in columns]
    lines = [f"# eitnarrow {__version__} config {DIGEST}\n", ",".join(header) + "\n"]
    lines += [",".join(map(repr, row)) + "\n" for row in zip(*values)]
    return "".join(lines).encode()


def awkward_values(n, seed):
    """Floats whose ``repr`` takes every form: exponents, many digits,
    exact zeros and negatives."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v[::7] = 0.0
    return v


@pytest.fixture
def grid():
    return FrequencyGrid.spanning(2.0 * np.pi * 4.3e5, 301)


def written(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_spectrum_matches_the_row_reference(tmp_path, grid):
    s = Spectrum(grid, np.abs(awkward_values(grid.count, 1)))
    path = tmp_path / "s.csv"
    write_spectrum_csv(str(path), s, DIGEST)
    assert written(path) == reference_csv(["omega_rad_s", "density"], [grid, s.density])


def test_spectrum_with_stderr_matches_the_row_reference(tmp_path, grid):
    s = Spectrum(grid, np.abs(awkward_values(grid.count, 2)))
    stderr = np.abs(awkward_values(grid.count, 3))
    path = tmp_path / "s.csv"
    write_spectrum_csv(str(path), s, DIGEST, stderr)
    assert written(path) == reference_csv(
        ["omega_rad_s", "density", "stderr"], [grid, s.density, stderr]
    )


def test_table_on_a_grid_matches_the_row_reference(tmp_path, grid):
    scan = awkward_values(grid.count, 4)
    path = tmp_path / "t.csv"
    write_table_csv(str(path), ["delta_rad_s", "transmission"], [grid, scan], DIGEST)
    assert written(path) == reference_csv(["delta_rad_s", "transmission"], [grid, scan])


def test_two_array_table_matches_the_row_reference(tmp_path):
    x, y = awkward_values(9, 5), awkward_values(9, 6)
    path = tmp_path / "t.csv"
    write_table_csv(str(path), ["omega_d_sq_rad2_s2", "fwhm_rad_s"], [x, y], DIGEST)
    assert written(path) == reference_csv(["omega_d_sq_rad2_s2", "fwhm_rad_s"], [x, y])


def test_zero_row_table_is_the_header_alone(tmp_path):
    path = tmp_path / "t.csv"
    write_table_csv(str(path), ["a", "b"], [np.empty(0), np.empty(0)], DIGEST)
    assert written(path) == reference_csv(["a", "b"], [np.empty(0), np.empty(0)])
    assert written(path) == f"# eitnarrow {__version__} config {DIGEST}\na,b\n".encode()


def test_spectra_on_one_grid_format_its_omegas_once(tmp_path, monkeypatch, grid):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    # module globals shadow the builtin for the writer's and the grid's lookups
    monkeypatch.setattr(artifacts, "repr", counting_repr, raising=False)
    monkeypatch.setattr(spectral, "repr", counting_repr, raising=False)
    for name, seed in (("a.csv", 7), ("b.csv", 8)):
        s = Spectrum(grid, np.abs(awkward_values(grid.count, seed)))
        write_spectrum_csv(str(tmp_path / name), s, DIGEST)
    assert len(calls) == 3 * grid.count  # one ω column, two density columns
    assert vars(grid)["omega_text"] == tuple(repr(w) for w in grid.omegas.tolist())


def test_reader_recovers_the_written_density_bit_for_bit(tmp_path, grid):
    s = Spectrum(grid, np.abs(awkward_values(grid.count, 9)))
    path = tmp_path / "s.csv"
    write_spectrum_csv(str(path), s, DIGEST)
    back = read_spectrum_csv(str(path))
    assert back.grid.count == grid.count
    assert back.density.tobytes() == s.density.tobytes()


def test_no_public_writer_calls_another():
    """Each ``write_*`` export does its own writing; a nested call would
    count one file's write time twice in a per-function timing."""
    with open(os.path.join(os.path.dirname(artifacts.__file__), "artifacts.py")) as fh:
        tree = ast.parse(fh.read())
    public = {n for n in artifacts.__all__ if n.startswith("write_")}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            called = {c.func.id for c in ast.walk(node)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
            assert not called & public, node.name
