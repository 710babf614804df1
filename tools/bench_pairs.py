"""Paired benchmark runs of a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--pairs mc_ensemble=10 --pairs figures=3 ...]

Run from the root of a source checkout.  The parent revision is
extracted with ``git archive`` into a temporary directory; the change is
the checkout itself, committed or not (the file records its revision and
whether its tree was clean).  For each workload, pair ``i`` runs
``perfbench/run.py --workload W --seed SEED+i`` once in each tree, each
tree with its own copy of the harness.  The parent runs first on even
pairs and the change on odd ones, so a drift of the host's speed during
a session does not favour one side.  Without ``--pairs`` every workload
of ``BENCHMARK.json`` runs ``DEFAULT_PAIRS`` pairs, the fewest at which
a gain can be claimed.

The output holds, for each workload and each end-to-end metric of
``BENCHMARK.json``, every pair's parent and change values, each side's
median and quartiles, the pairs the change won (ties count for neither)
and whether the gap between the medians exceeds the parent's
interquartile range.  It also holds each run's failed-operation ratio
and the environment the harness reported.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
DEFAULT_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """Write the files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One harness run; its environment line and its metrics line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=seconds + 300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric: dict, runs: dict[str, list[dict]]) -> dict:
    """Both sides' values of one end-to-end metric over the pairs."""
    name = metric["name"]
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    for side in SIDES:
        q1, q3 = quartiles(values[side])
        out[side] = values[side]
        out[f"{side}_median"] = statistics.median(values[side])
        out[f"{side}_quartiles"] = [q1, q3]
    parent_iqr = out["parent_quartiles"][1] - out["parent_quartiles"][0]
    out["change_wins"] = wins
    out["pairs"] = len(values["parent"])
    out["median_gap_exceeds_parent_iqr"] = (
        abs(out["change_median"] - out["parent_median"]) > parent_iqr
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_10.json")
    parser.add_argument("--pairs", action="append", metavar="WORKLOAD=N",
                        help="pairs to run on a workload; repeat for each workload "
                             f"(default: {DEFAULT_PAIRS} on every workload)")
    parser.add_argument("--seed", type=int, default=501, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="length of each run (BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    end_to_end = benchmark["end_to_end"]
    items = args.pairs or [f"{w['name']}={DEFAULT_PAIRS}" for w in benchmark["workloads"]]
    plan = []
    for item in items:
        workload, _, count = item.partition("=")
        plan.append((workload, int(count)))

    result = {
        "harness": f"perfbench/run.py --seconds {args.seconds:g} --trace 0",
        "order": "parent first on even pairs, change first on odd pairs",
        "parent": {"rev": git("rev-parse", args.parent)},
        "change": {"rev": git("rev-parse", "HEAD"),
                   "clean": git("status", "--porcelain", "--untracked-files=no") == ""},
        "environment": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        extract(result["parent"]["rev"], tmp)
        trees = {"parent": tmp, "change": ROOT}
        for workload, count in plan:
            seeds = [args.seed + i for i in range(count)]
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_once(trees[side], workload, seed, args.seconds))
                print(f"{workload} pair {i + 1}/{count} (seed {seed}) done", file=sys.stderr)
            result["environment"] = result["environment"] or runs["change"][0]["environment"]
            result["workloads"][workload] = {
                "seeds": seeds,
                "ops_failed_ratio": {s: [r["ops_failed_ratio"] for r in runs[s]] for s in SIDES},
                "ops_attempted": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
                "metrics": {m["name"]: summarize(m, runs) for m in end_to_end},
            }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
