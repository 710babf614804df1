"""Compare the CLI outputs of a git revision with those of this checkout.

    python3 tools/output_diff.py REV [--config PATH]

Run from the root of a source checkout.  ``REV`` is extracted with
``git archive`` into a temporary directory (the extraction of
``tools/bench_pairs.py``); the other side is the checkout itself,
committed or not.  In each tree every entry of ``COMMANDS`` runs in a
fresh interpreter with that tree's ``src`` on ``PYTHONPATH``, at
``--seed 42`` and with ``--config`` when given, each command writing
into its own output directory.  ``fit`` reads the ``figure2`` output of
its own tree.  Failing invocations are entries too.

For every command the report gives the exit codes and whether stdout
and stderr are identical, then one line per file either side wrote.  A
file is ``identical`` when its bytes are.  For a differing CSV it gives
the largest difference of the numeric body relative to each column's
peak magnitude, and lists the ``#`` header lines that differ on their
own.  For any other differing file, and for differing stdout or stderr,
it lists the differing lines.  The exit status is 0 when everything is
identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, extract  # noqa: E402

# (name, arguments after the global flags); ``{figure2}`` is the
# figure2 output directory of the same tree.  The last three fail, so
# their exit codes and ``error:`` lines are compared too; the absent
# input is a relative path, which reads the same from either tree.
COMMANDS = (
    ("figure2", ["figure2"]),
    ("figure3", ["figure3"]),
    ("figure4", ["figure4"]),
    ("propagate", ["propagate"]),
    ("fit", ["fit", "--input", os.path.join("{figure2}", "figure2_output.csv")]),
    ("quick-validate", ["--quick", "validate"]),
    ("validate", ["validate"]),
    ("quick-mc", ["--quick", "mc"]),
    ("unknown-command", ["figure9"]),
    ("no-command", []),
    ("fit-absent-input", ["fit", "--input", "absent.csv"]),
)
SEED = 42
MAX_LINES = 6  # differing lines listed per stream or file


@dataclass(frozen=True)
class CsvDiff:
    headers: list[tuple[str, str]]  # differing ``#`` lines, (old, new)
    max_relative: float  # largest body difference over the column peak; inf if the shapes differ


def _read_csv(path: str) -> tuple[list[str], list[str], np.ndarray | None]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]], dtype=float)
    except ValueError:
        rows = None
    return comments, body[:1], rows


def compare_csv(old: str, new: str) -> CsvDiff:
    """``#`` header differences and the largest body difference of two
    CSV files, relative to the peak magnitude of each column of ``old``."""
    old_comments, old_names, a = _read_csv(old)
    new_comments, new_names, b = _read_csv(new)
    headers = [(x, y) for x, y in zip_longest(old_comments, new_comments, fillvalue="") if x != y]
    if old_names != new_names or a is None or b is None or a.shape != b.shape:
        return CsvDiff(headers, float("inf"))
    if a.size == 0:
        return CsvDiff(headers, 0.0)
    peak = np.max(np.abs(a), axis=0)
    peak[peak == 0] = 1.0
    return CsvDiff(headers, float(np.max(np.abs(a - b) / peak)))


def _differing_lines(old: str, new: str) -> list[str]:
    pairs = [
        (i, x, y)
        for i, (x, y) in enumerate(zip_longest(old.splitlines(), new.splitlines()), 1)
        if x != y
    ]
    out = [f"    line {i}: {x!r} -> {y!r}" for i, x, y in pairs[:MAX_LINES]]
    if len(pairs) > MAX_LINES:
        out.append(f"    ... {len(pairs) - MAX_LINES} more")
    return out


def run_commands(tree: str, out: str, config: str | None) -> dict:
    """Run every command in ``tree``; returns name -> (exit code, stdout,
    stderr, output directory)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    flags = ["--seed", str(SEED)] + (["--config", config] if config else [])
    results = {}
    for name, args in COMMANDS:
        out_dir = os.path.join(out, name)
        args = [a.format(figure2=os.path.join(out, "figure2")) for a in args]
        proc = subprocess.run(
            [sys.executable, "-m", "eitnarrow.cli", *flags, "--out", out_dir, *args],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        results[name] = (proc.returncode, proc.stdout, proc.stderr, out_dir)
    return results


def report(old: dict, new: dict) -> tuple[list[str], int, int]:
    """Report lines, the number of outputs compared and how many differ."""
    lines, total, differ = [], 0, 0
    for name, _ in COMMANDS:
        (rc_a, out_a, err_a, dir_a), (rc_b, out_b, err_b, dir_b) = old[name], new[name]
        lines.append(f"{name}: exit {rc_a} -> {rc_b}")
        total += 1
        differ += rc_a != rc_b
        for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            total += 1
            if a == b:
                lines.append(f"  {stream}: identical")
                continue
            differ += 1
            lines.append(f"  {stream}: different")
            lines += _differing_lines(a, b)
        names = sorted(
            set(os.listdir(dir_a) if os.path.isdir(dir_a) else [])
            | set(os.listdir(dir_b) if os.path.isdir(dir_b) else [])
        )
        for file in names:
            total += 1
            path_a, path_b = os.path.join(dir_a, file), os.path.join(dir_b, file)
            if not (os.path.isfile(path_a) and os.path.isfile(path_b)):
                differ += 1
                lines.append(f"  {file}: only in {'new' if os.path.isfile(path_b) else 'old'}")
                continue
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                if fa.read() == fb.read():
                    lines.append(f"  {file}: identical")
                    continue
            differ += 1
            if file.endswith(".csv"):
                diff = compare_csv(path_a, path_b)
                lines.append(
                    f"  {file}: different, body max {diff.max_relative:.3e} of column peak, "
                    f"{len(diff.headers)} header line(s) differ"
                )
                lines += [f"    header: {x!r} -> {y!r}" for x, y in diff.headers]
            else:
                lines.append(f"  {file}: different")
                with open(path_a) as fa, open(path_b) as fb:
                    lines += _differing_lines(fa.read(), fb.read())
    return lines, total, differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--config", default=None, help="configuration file for both trees")
    args = parser.parse_args(argv)
    config = os.path.abspath(args.config) if args.config else None
    with tempfile.TemporaryDirectory(prefix="output_diff_") as tmp:
        old_tree = os.path.join(tmp, "tree")
        extract(args.rev, old_tree)
        old = run_commands(old_tree, os.path.join(tmp, "old"), config)
        new = run_commands(ROOT, os.path.join(tmp, "new"), config)
        lines, total, differ = report(old, new)
    print(f"old {args.rev}, new {ROOT}, seed {SEED}, config {config or 'defaults'}")
    print("\n".join(lines))
    print(f"{total - differ} of {total} outputs identical")
    return 0 if differ == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
