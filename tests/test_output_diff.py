"""The CSV comparison of ``tools/output_diff.py``."""

import importlib.util
import math
import sys
from pathlib import Path

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
