"""Compare the CLI outputs of a git revision with those of this checkout.

    python3 tools/output_diff.py REV [--config PATH] [--old-config PATH]

Run from the root of a source checkout.  ``REV`` is extracted with
``git archive`` into a temporary directory (the extraction of
``tools/bench_pairs.py``); the other side is the checkout itself,
committed or not.  In each tree every entry of ``COMMANDS`` runs in a
fresh interpreter with that tree's ``src`` on ``PYTHONPATH``, at
``--seed 42`` and with ``--config`` when given, each command writing
into its own output directory.  ``--old-config`` is the configuration
file of the ``REV`` tree alone, ``--config``'s by default: a key
spelled differently in the two trees needs one file per tree.  ``fit``
reads the ``figure2`` output of its own tree.  Failing invocations are entries too.  The
``library`` entry runs ``LIBRARY`` in a fresh interpreter of each tree:
it prints one line per name of ``eitnarrow.__all__``, the name, its
object's ``__module__`` (``-`` when it has none) and type, so an export
dropped, added or moved to another module shows as a differing stdout
line.  The last entry, ``acceptance``, runs ``pytest -q -s
tests/test_acceptance.py`` in each tree, at the suite's own default
configuration whatever ``--config`` says, and compares, as its stdout,
the ``criterion N`` lines the suite prints, with each ``runtime
<seconds> s`` field masked as ``runtime … s``; its stderr is not
compared.

For every command the report gives the exit codes and whether stdout
and stderr are identical, then one line per file either side wrote.  A
file is ``identical`` when its bytes are.  For a differing CSV it gives
the largest difference of the numeric body relative to each column's
peak magnitude, and lists the ``#`` header lines that differ on their
own; then, for each column whose values differ, its largest difference
relative to the column peak and relative to each element's own
magnitude (nonzero elements only), so a per-bin tolerance can be read
off.  A CSV with a ``stderr`` column, a Monte-Carlo spectrum, also gets
the per-bin z-score of its density difference, |d_old - d_new| /
sqrt(se_old^2 + se_new^2): its maximum and the share of bins above
``Z_LIMIT``, so a change that moves the ensemble by its sampling error
alone reads as such.  Both are taken over the bins whose old density
exceeds ``Z_FLOOR`` times its peak: below that a bin holds Hann leakage
and transform rounding, where a deterministic change of the leakage
would read as many standard errors and swamp the share.  For any other differing file, and for differing stdout or stderr,
it lists the lines only the old side has (``-``) and those only the new
side has (``+``).  The exit status is 0 when everything is identical
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
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
    ("mc", ["mc"]),
    ("unknown-command", ["figure9"]),
    ("no-command", []),
    ("fit-absent-input", ["fit", "--input", "absent.csv"]),
)
SEED = 42
MAX_LINES = 6  # differing lines listed per stream or file
Z_LIMIT = 3.0  # a density difference beyond this many standard errors counts
Z_FLOOR = 1e-12  # the z-scores cover bins whose old density exceeds this share of its peak
ACCEPTANCE = ["-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "tests/test_acceptance.py"]
_RUNTIME = re.compile(r"runtime [0-9.]+ s")
# the package surface: each export, its object's module and its type
LIBRARY = """
import eitnarrow
for name in eitnarrow.__all__:
    obj = getattr(eitnarrow, name)
    print(name, getattr(obj, "__module__", "-"), type(obj).__name__)
"""


@dataclass(frozen=True)
class ColumnDiff:
    name: str
    peak_relative: float  # largest difference over the column's peak magnitude
    own_relative: float  # largest difference over the element's own magnitude, old != 0 only


@dataclass(frozen=True)
class CsvDiff:
    headers: list[tuple[str, str]]  # differing ``#`` lines, (old, new)
    max_relative: float  # largest body difference over the column peak; inf if the shapes differ
    columns: tuple[ColumnDiff, ...] = ()  # one per column whose values differ
    # largest per-bin |density difference| / sqrt(se_old^2 + se_new^2) and
    # the share of bins above Z_LIMIT, over the bins whose old density
    # exceeds Z_FLOOR of its peak; None without a stderr column
    z_max: float | None = None
    z_share: float | None = None


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
    CSV files, relative to the peak magnitude of each column of ``old``;
    for each column whose values differ, also the largest difference
    relative to each element's own magnitude in ``old``, over its
    nonzero elements (nan when all are zero).  With ``density`` and
    ``stderr`` columns, also the per-bin z-scores of the density
    difference over the bins whose old density exceeds ``Z_FLOOR`` times
    its peak, their maximum and the share above ``Z_LIMIT`` (0 and 0 with
    no such bin); a bin whose density is unchanged scores 0."""
    old_comments, old_names, a = _read_csv(old)
    new_comments, new_names, b = _read_csv(new)
    headers = [(x, y) for x, y in zip_longest(old_comments, new_comments, fillvalue="") if x != y]
    if old_names != new_names or a is None or b is None or a.shape != b.shape:
        return CsvDiff(headers, float("inf"))
    if a.size == 0:
        return CsvDiff(headers, 0.0)
    diff = np.abs(a - b)
    own = np.abs(a)
    peak = np.max(own, axis=0)
    peak[peak == 0] = 1.0
    names = old_names[0].split(",")
    columns = []
    for j, name in enumerate(names):
        if np.array_equal(a[:, j], b[:, j]):
            continue
        nonzero = own[:, j] > 0
        rel = diff[nonzero, j] / own[nonzero, j]
        columns.append(ColumnDiff(
            name, float(np.max(diff[:, j]) / peak[j]), float(rel.max()) if rel.size else np.nan
        ))
    z_max = z_share = None
    if "density" in names and "stderr" in names:
        d, e = names.index("density"), names.index("stderr")
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(diff[:, d] == 0, 0.0, diff[:, d] / np.hypot(a[:, e], b[:, e]))
        z = z[a[:, d] > Z_FLOOR * np.max(a[:, d])]
        z_max = float(z.max(initial=0.0))
        z_share = float(np.mean(z > Z_LIMIT)) if z.size else 0.0
    return CsvDiff(headers, float(np.max(diff / peak)), tuple(columns), z_max, z_share)


def _differing_lines(old: str, new: str) -> list[str]:
    """The lines only ``old`` has (``-``) and only ``new`` has (``+``),
    each with its line number in its own text.  ``difflib`` matches the
    rest, so one deleted or inserted line shows as one line and not as
    a change of every line after it."""
    a, b = old.splitlines(), new.splitlines()
    changes = []
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            changes += [f"    - line {i + 1}: {a[i]!r}" for i in range(i1, i2)]
            changes += [f"    + line {j + 1}: {b[j]!r}" for j in range(j1, j2)]
    out = changes[:MAX_LINES]
    if len(changes) > MAX_LINES:
        out.append(f"    ... {len(changes) - MAX_LINES} more")
    return out


def criterion_lines(stdout: str) -> str:
    """The ``criterion N`` lines of an acceptance run's stdout, one per
    line, each ``runtime <seconds> s`` field masked as ``runtime … s``."""
    return "".join(
        _RUNTIME.sub("runtime … s", ln) + "\n"
        for ln in stdout.splitlines() if ln.startswith("criterion ")
    )


def run_commands(tree: str, out: str, config: str | None) -> dict:
    """Run every command, ``LIBRARY`` and the acceptance suite in
    ``tree``; returns name -> (exit code, stdout, stderr, output
    directory), the suite's stdout reduced to its ``criterion_lines``
    and its stderr empty."""
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
    proc = subprocess.run(
        [sys.executable, "-c", LIBRARY], cwd=tree, env=env, capture_output=True, text=True
    )
    results["library"] = (proc.returncode, proc.stdout, proc.stderr, os.path.join(out, "library"))
    proc = subprocess.run(
        [sys.executable, *ACCEPTANCE], cwd=tree, env=env, capture_output=True, text=True
    )
    results["acceptance"] = (
        proc.returncode, criterion_lines(proc.stdout), "", os.path.join(out, "acceptance")
    )
    return results


def report(old: dict, new: dict) -> tuple[list[str], int, int]:
    """Report lines, the number of outputs compared and how many differ."""
    lines, total, differ = [], 0, 0
    for name in old:
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
                lines += [
                    f"    column {c.name}: max {c.peak_relative:.3e} of column peak, "
                    f"{c.own_relative:.3e} of own magnitude"
                    for c in diff.columns
                ]
                if diff.z_max is not None:
                    lines.append(
                        f"    density z-score |d_old - d_new| / sqrt(se_old^2 + se_new^2): "
                        f"max {diff.z_max:.2f}, {diff.z_share:.4f} of bins above {Z_LIMIT:g} "
                        f"(bins above {Z_FLOOR:g} of the old density peak)"
                    )
            else:
                lines.append(f"  {file}: different")
                with open(path_a) as fa, open(path_b) as fb:
                    lines += _differing_lines(fa.read(), fb.read())
    return lines, total, differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument(
        "--config", default=None, help="configuration file of the checkout, and of REV by default"
    )
    parser.add_argument(
        "--old-config", default=None, help="configuration file for the REV tree (default --config)"
    )
    args = parser.parse_args(argv)
    config = os.path.abspath(args.config) if args.config else None
    old_config = os.path.abspath(args.old_config) if args.old_config else config
    with tempfile.TemporaryDirectory(prefix="output_diff_") as tmp:
        old_tree = os.path.join(tmp, "tree")
        extract(args.rev, old_tree)
        old = run_commands(old_tree, os.path.join(tmp, "old"), old_config)
        new = run_commands(ROOT, os.path.join(tmp, "new"), config)
        lines, total, differ = report(old, new)
    print(
        f"old {args.rev}, new {ROOT}, seed {SEED}, "
        f"config {old_config or 'defaults'} -> {config or 'defaults'}"
    )
    print("\n".join(lines))
    print(f"{total - differ} of {total} outputs identical")
    return 0 if differ == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
