"""Every command runs on numpy alone.

Importing ``scipy.signal`` took well over a second, and ``scipy.linalg``
about 0.3 s and 28 MB, against 15-40 ms of work in a figure command.
The package needs neither: the lag transform runs on ``numpy.fft`` and
the Monte-Carlo slab factors its recurrence into two first-order poles.
A child interpreter blocks ``scipy`` before importing the package, so
any import of it fails, and keeps the modules of this test session out
of the count.
"""

import json
import os
import subprocess
import sys

import eitnarrow

CHILD = r"""
import contextlib, io, json, os, sys

sys.modules["scipy"] = None  # any "import scipy..." now raises ImportError

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m.startswith("scipy") and sys.modules[m] is not None)

seen = {}
import eitnarrow.cli
seen["import"] = scipy_modules()
out = sys.argv[1]
commands = [
    ["--quick", "validate"], ["figure2"], ["figure3"], ["figure4"], ["propagate"],
    ["fit", "--input", os.path.join(out, "figure2_output.csv")], ["--quick", "mc"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = eitnarrow.cli.main(["--seed", "42", "--out", out] + argv)
    seen[" ".join(argv[:2])] = [code, scipy_modules()]
print(json.dumps(seen))
"""


def test_commands_run_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(eitnarrow.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])

    assert seen.pop("import") == []
    assert len(seen) == 7
    for command, (code, modules) in seen.items():
        assert code == 0, command
        assert modules == [], command
