"""Which parts of scipy each command loads.

Importing ``scipy.signal`` pulls in ``scipy.stats``, ``scipy.interpolate``
and ``scipy.optimize`` and took well over a second, against 15-40 ms of
work in a figure command.  The package needs none of it: the lag
transform runs on ``numpy.fft`` and only the Monte-Carlo slab loads
``scipy.linalg``, on first use.  A child interpreter keeps the modules
of this test session out of the count.
"""

import json
import os
import subprocess
import sys

import eitnarrow

CHILD = r"""
import contextlib, io, json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import eitnarrow.cli
seen["import"] = scipy_modules()
out = sys.argv[1]
commands = [
    ["--quick", "validate"], ["figure2"], ["figure3"], ["figure4"], ["propagate"],
    ["fit", "--input", os.path.join(out, "figure2_output.csv")],
]
for argv in commands + [["--quick", "mc"]]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = eitnarrow.cli.main(["--seed", "42", "--out", out] + argv)
    seen[" ".join(argv[:2])] = [code, scipy_modules()]
print(json.dumps(seen))
"""


def test_commands_load_only_the_scipy_they_need(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(eitnarrow.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])

    heavy = {"scipy.signal", "scipy.stats", "scipy.linalg"}
    assert not heavy & set(seen.pop("import"))
    code, mc_modules = seen.pop("--quick mc")
    assert code == 0
    assert "scipy.signal" not in mc_modules
    assert len(seen) == 6
    for command, (code, modules) in seen.items():
        assert code == 0, command
        assert modules == [], command
