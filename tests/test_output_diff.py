"""The CSV, acceptance-line and library-surface comparisons of
``tools/output_diff.py``."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import eitnarrow

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"
_spec = importlib.util.spec_from_file_location("output_diff", TOOL)
output_diff = sys.modules["output_diff"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)


def _csv(tmp_path, name, header, rows):
    path = tmp_path / name
    path.write_text(header + "omega_rad_s,density\n" + "".join(f"{w!r},{d!r}\n" for w, d in rows))
    return str(path)


def test_compare_csv_separates_headers_from_the_body(tmp_path):
    rows = [(-1.0, 0.5), (0.0, 4.0), (1.0, 0.5)]
    a = _csv(tmp_path, "a.csv", "# eitnarrow 0.1.0 config aaaa\n", rows)
    b = _csv(tmp_path, "b.csv", "# eitnarrow 0.1.0 config bbbb\n", rows)
    diff = output_diff.compare_csv(a, b)
    assert diff.headers == [("# eitnarrow 0.1.0 config aaaa", "# eitnarrow 0.1.0 config bbbb")]
    assert diff.max_relative == 0.0
    assert output_diff.compare_csv(a, a) == output_diff.CsvDiff([], 0.0)


def test_compare_csv_scales_by_the_column_peak(tmp_path):
    header = "# eitnarrow 0.1.0 config aaaa\n"
    a = _csv(tmp_path, "a.csv", header, [(-1.0, 0.5), (0.0, 4.0), (1.0, 0.5)])
    b = _csv(tmp_path, "b.csv", header, [(-1.0, 0.5), (0.0, 4.0), (1.0, 1.5)])
    diff = output_diff.compare_csv(a, b)
    assert diff.headers == []
    assert diff.max_relative == 0.25  # 1.0 against the density peak 4.0
    # a changed grid counts against the omega column's peak
    c = _csv(tmp_path, "c.csv", header, [(-1.0, 0.5), (0.5, 4.0), (1.0, 0.5)])
    assert output_diff.compare_csv(a, c).max_relative == 0.5


def test_compare_csv_flags_a_changed_shape(tmp_path):
    header = "# eitnarrow 0.1.0 config aaaa\n"
    a = _csv(tmp_path, "a.csv", header, [(-1.0, 0.5), (0.0, 4.0), (1.0, 0.5)])
    b = _csv(tmp_path, "b.csv", header, [(-1.0, 0.5), (0.0, 4.0)])
    assert math.isinf(output_diff.compare_csv(a, b).max_relative)


def test_compare_csv_lists_each_differing_column(tmp_path):
    """Each differing column gives its largest difference over the column
    peak and over each element's own magnitude, counting only elements
    that are nonzero in the old file; identical columns are not listed."""
    header = "# eitnarrow 0.1.0 config aaaa\n"
    a = _csv(tmp_path, "a.csv", header, [(-1.0, 0.0), (0.0, 4.0), (1.0, 0.5)])
    b = _csv(tmp_path, "b.csv", header, [(-1.0, 0.1), (0.0, 4.0), (1.0, 0.6)])
    (column,) = output_diff.compare_csv(a, b).columns
    assert column.name == "density"
    assert column.peak_relative == 0.1 / 4.0  # the 0 -> 0.1 bin against the peak
    assert abs(column.own_relative - 0.2) <= 1e-15  # 0.5 -> 0.6; the zero bin is left out
    # a change at a zero element alone shows only against the column peak
    c = _csv(tmp_path, "c.csv", header, [(-1.0, 0.2), (0.0, 4.0), (1.0, 0.5)])
    (column,) = output_diff.compare_csv(a, c).columns
    assert column.peak_relative == 0.2 / 4.0 and column.own_relative == 0.0
    zeros = _csv(tmp_path, "z.csv", header, [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    (column,) = output_diff.compare_csv(zeros, a).columns
    assert column.peak_relative == 4.0 and math.isnan(column.own_relative)


def test_compare_csv_scores_the_density_difference_in_standard_errors(tmp_path):
    """With a ``stderr`` column, each bin's density difference is scored
    against the two standard errors in quadrature, and the report prints
    the largest score and the share above 3 over the bins whose old
    density exceeds ``Z_FLOOR`` of its peak, here three of four; an
    unchanged bin scores 0, even where its standard errors are 0.  A
    file without the column gets no score."""
    header = "# eitnarrow 0.1.0 config aaaa\nomega_rad_s,density,stderr\n"
    sides = {}
    for side, rows in (
        ("old", [(-1.0, 1.0, 0.1), (0.0, 4.0, 0.3), (1.0, 1.0, 0.1), (2.0, 0.0, 0.0)]),
        ("new", [(-1.0, 1.0, 0.1), (0.0, 4.5, 0.4), (1.0, 1.5, 0.1), (2.0, 0.0, 0.0)]),
    ):
        (tmp_path / side).mkdir()
        path = tmp_path / side / "mc_spectrum.csv"
        path.write_text(header + "".join(",".join(map(repr, r)) + "\n" for r in rows))
        sides[side] = (0, "", "", str(tmp_path / side))
    a, b = (os.path.join(sides[side][3], "mc_spectrum.csv") for side in ("old", "new"))
    diff = output_diff.compare_csv(a, b)
    assert abs(diff.z_max - 0.5 / np.hypot(0.1, 0.1)) <= 1e-12  # 3.54, the third bin
    assert diff.z_share == 1.0 / 3.0  # the second bin scores 0.5 / 0.5 = 1; the fourth is 0
    assert output_diff.compare_csv(a, a).z_max == 0.0
    lines, _, differ = output_diff.report({"mc": sides["old"]}, {"mc": sides["new"]})
    assert differ == 1
    assert lines[-1] == (
        "    density z-score |d_old - d_new| / sqrt(se_old^2 + se_new^2): "
        "max 3.54, 0.3333 of bins above 3 (bins above 1e-12 of the old density peak)"
    )
    plain = _csv(tmp_path, "p.csv", "# eitnarrow 0.1.0 config aaaa\n", [(0.0, 1.0)])
    other = _csv(tmp_path, "q.csv", "# eitnarrow 0.1.0 config aaaa\n", [(0.0, 2.0)])
    assert output_diff.compare_csv(plain, other).z_max is None


def test_compare_csv_scores_no_bin_below_the_floor(tmp_path):
    """Bins beyond a shaped band hold Hann leakage and rounding, far below
    the peak; a change of that leakage moves them by many of their tiny
    standard errors.  Six such bins at 1e-20 of the peak, each 10 standard
    errors off, would make the share above 3 six of eight; scored over the
    two bins above ``Z_FLOOR`` of the peak, it is 0.5 and the maximum is
    that of the band."""
    header = "# eitnarrow 0.1.0 config aaaa\nomega_rad_s,density,stderr\n"
    band_old, band_new = [(0.0, 4.0, 0.5), (1.0, 2.0, 0.5)], [(0.0, 4.5, 0.5), (1.0, 5.0, 0.5)]
    leak_old = [(2.0 + k, 4e-20, 1e-22) for k in range(6)]
    leak_new = [(2.0 + k, float(4e-20 + 10.0 * np.hypot(1e-22, 1e-22)), 1e-22) for k in range(6)]
    paths = []
    for name, rows in (("old.csv", band_old + leak_old), ("new.csv", band_new + leak_new)):
        path = tmp_path / name
        path.write_text(header + "".join(",".join(map(repr, r)) + "\n" for r in rows))
        paths.append(str(path))
    diff = output_diff.compare_csv(*paths)
    assert diff.z_share == 0.5  # the second bin, 3.0 / hypot(0.5, 0.5) = 4.24
    assert abs(diff.z_max - 3.0 / np.hypot(0.5, 0.5)) <= 1e-12
    assert output_diff.Z_FLOOR * 4.0 > 4e-20


def test_differing_lines_lists_a_deleted_line_once():
    """A deleted line shows as one removed line, not as a change of every
    line after it; a changed line shows as one removed and one added."""
    old = "digest=aaaa\nfields.a=1\nfields.b=2\nfields.c=3\nmedium.d=4\n"
    new = "digest=bbbb\nfields.a=1\nfields.c=3\nmedium.d=4\n"
    assert output_diff._differing_lines(old, new) == [
        "    - line 1: 'digest=aaaa'",
        "    + line 1: 'digest=bbbb'",
        "    - line 3: 'fields.b=2'",
    ]
    assert output_diff._differing_lines(old, old) == []
    many = "".join(f"{i}\n" for i in range(10))
    assert output_diff._differing_lines(many, "")[-1] == "    ... 4 more"


def test_criterion_lines_mask_runtimes_and_drop_other_output():
    stdout = (
        "..\n"
        "criterion 1a PASS lorentzian rms residual 0.0266 of peak (limit 0.05), "
        "runtime 0.005 s (limit 1)\n"
        "criterion 2 PASS narrowing factor 154.6 (floor 100)\n"
        "9 passed, 3 xfailed in 6.55s\n"
    )
    assert output_diff.criterion_lines(stdout) == (
        "criterion 1a PASS lorentzian rms residual 0.0266 of peak (limit 0.05), "
        "runtime … s (limit 1)\n"
        "criterion 2 PASS narrowing factor 154.6 (floor 100)\n"
    )


def test_report_compares_criterion_lines_apart_from_runtimes(tmp_path):
    """Two acceptance runs that differ only in their runtimes compare
    identical; a changed value shows as one removed and one added line."""
    def run(factor, runtime):
        stdout = (
            f"criterion 2 PASS narrowing factor {factor} (floor 100)\n"
            f"criterion 3 PASS R^2 0.99999820, runtime {runtime} s (limit 10)\n"
        )
        return {"acceptance": (0, output_diff.criterion_lines(stdout), "", str(tmp_path))}

    lines, total, differ = output_diff.report(run(154.6, "0.02"), run(154.6, "0.31"))
    assert (total, differ) == (3, 0)
    lines, total, differ = output_diff.report(run(154.6, "0.02"), run(154.7, "0.02"))
    assert (total, differ) == (3, 1)
    assert lines[2:] == [
        "    - line 1: 'criterion 2 PASS narrowing factor 154.6 (floor 100)'",
        "    + line 1: 'criterion 2 PASS narrowing factor 154.7 (floor 100)'",
        "  stderr: identical",
    ]


def test_old_config_goes_to_the_rev_tree_and_config_to_the_checkout(tmp_path, monkeypatch):
    """``--old-config`` reaches the commands of the ``REV`` tree alone;
    without it both trees run with ``--config``."""
    calls = []
    monkeypatch.setattr(output_diff, "extract", lambda rev, dest: None)
    monkeypatch.setattr(
        output_diff, "run_commands", lambda tree, out, config: calls.append((tree, config)) or {}
    )
    old, new = str(tmp_path / "old.ini"), str(tmp_path / "new.ini")
    assert output_diff.main(["HEAD", "--config", new, "--old-config", old]) == 0
    (old_tree, old_config), (new_tree, new_config) = calls
    assert old_tree != output_diff.ROOT and new_tree == output_diff.ROOT
    assert (old_config, new_config) == (old, new)
    calls.clear()
    assert output_diff.main(["HEAD", "--config", new]) == 0
    assert [config for _, config in calls] == [new, new]


def test_library_prints_each_export_with_its_module_and_type():
    """``LIBRARY`` prints one line per name of ``eitnarrow.__all__``, in
    order, with its object's module and type."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eitnarrow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", output_diff.LIBRARY], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert [ln.split()[0] for ln in lines] == eitnarrow.__all__
    assert "AtomicMedium eitnarrow.medium type" in lines
    assert "narrowing_factor eitnarrow.propagation function" in lines
    assert lines[-1] == "__version__ - str"
