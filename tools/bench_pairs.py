"""Paired benchmark runs of a parent revision against this checkout,
with an A/A control arm.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--pairs mc_ensemble=10 --pairs figures=3 ...]

Run from the root of a source checkout.  Both sides are extracted the
same way, with ``git archive``, into sibling directories of one
temporary directory, so that they share one layout: the parent from
``REV``, the change from ``git stash create`` (the checkout's tracked
files with their staged and unstaged edits; untracked files are left
out, so stage a new file first) or from ``HEAD`` when the tree is clean.
Each side is extracted twice, the parent into ``parent_a`` and
``parent_b``, the change into ``change_a`` and ``change_b``, and each
pair of extractions takes turns: pair ``i`` runs ``parent_a`` as the
parent and ``parent_b`` as the control on even ``i``, the other way
round on odd ``i``, and runs ``change_a`` as the change when
``(i // 2) % 2`` is 0, ``change_b`` when it is 1, so every four pairs
meet each parent extraction with each change extraction once.  An
offset that follows one directory (its path, or where it sits on the
disk) then lands on its side's values in only half the pairs: it
widens that side's interquartile range, and on the parent's side shows
in the control arm, where the two extractions meet in both roles,
rather than wholly in the claimed gap.  The file records the change's
revision, the tree it ran, whether the checkout was clean and, per
pair, which extraction played the parent and which the change.

For each workload, pair ``i`` runs ``perfbench/run.py --workload W
--seed SEED+i`` once in the parent tree and once in the change tree,
each tree with its own copy of the harness.  The parent runs first on
even pairs and the change on odd ones, so a drift of the host's speed
during a session does not favour one side.  Without ``--pairs`` every
workload of ``BENCHMARK.json`` runs ``DEFAULT_PAIRS`` pairs, the fewest
at which a gain can be claimed.  The control arm runs
``CONTROL_PAIRS`` pairs per workload (all of them, if a workload has
fewer) of the parent against the control, interleaved with the real
pairs: with P real pairs and C control pairs, control pair ``j`` runs
after real pair ``j * P // C``, at that pair's seed, the parent first
on even control pairs.  Two trees of one revision differ only in where
they sit and when they run, so the control's gap measures what the
session and the extraction alone do to a metric (Kalibera & Jones,
"Rigorous benchmarking in reasonable time", ISMM 2013, treat the
session as a random effect).  A 10-pair run of three workloads takes
about 25-30 minutes; 4 control pairs per workload add about 40 %.

The output holds, for each workload and each end-to-end metric of
``BENCHMARK.json``, every pair's parent and change values, each side's
median and quartiles, the pairs the change won (ties count for
neither), the gap between the medians (change minus parent) and
whether it exceeds the parent's interquartile range; the same for the
control arm, with the control in the change's place; and each run's
failed-operation ratio and the environment the harness reported.
Beside each run of either arm it records the host's one-minute load
average, read just before the run, and the CPU seconds the run's child
process used, so a slowdown of the host that hits both sides of some
pairs shows in the file.

Claim rule: a change may claim a gain on a metric of a workload only
when ``gain_claimable`` is true there, that is when all of these hold:
the change wins at least nine tenths of the pairs; its median gap
points the better way; the gap exceeds the parent's interquartile
range; and the gap exceeds the control arm's gap in magnitude.
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
CONTROL_SIDES = ("parent", "control")
DEFAULT_PAIRS = 10
CONTROL_PAIRS = 4
EXTRACTIONS = ("parent_a", "parent_b")  # pair i: parent EXTRACTIONS[i % 2], control the other
CHANGE_EXTRACTIONS = ("change_a", "change_b")  # pair i: change CHANGE_EXTRACTIONS[(i // 2) % 2]
CLAIM_WINS = 0.9  # the share of pairs the change must win


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


def measured_run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """``run_once`` with the host's one-minute load average read just
    before it and its child's CPU seconds, the ``os.times`` delta."""
    load = os.getloadavg()[0]
    before = os.times()
    run = run_once(tree, workload, seed, seconds)
    after = os.times()
    cpu = (after.children_user - before.children_user
           + after.children_system - before.children_system)
    return {**run, "host_load": load, "child_cpu_s": cpu}


def host_record(runs: dict[str, list[dict]]) -> dict:
    """Each side's load averages and child CPU seconds, run by run."""
    return {key: {side: [r[key] for r in side_runs] for side, side_runs in runs.items()}
            for key in ("host_load", "child_cpu_s")}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric: dict, runs: dict[str, list[dict]], sides: tuple[str, str]) -> dict:
    """Both sides' values of one end-to-end metric over the pairs; the
    first side is the base the second is compared with."""
    name = metric["name"]
    base, other = sides
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values[base], values[other]))
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    for side in sides:
        q1, q3 = quartiles(values[side])
        out[side] = values[side]
        out[f"{side}_median"] = statistics.median(values[side])
        out[f"{side}_quartiles"] = [q1, q3]
    parent_iqr = out[f"{base}_quartiles"][1] - out[f"{base}_quartiles"][0]
    out[f"{other}_wins"] = wins
    out["pairs"] = len(values[base])
    out["median_gap"] = out[f"{other}_median"] - out[f"{base}_median"]
    out["median_gap_exceeds_parent_iqr"] = abs(out["median_gap"]) > parent_iqr
    return out


def claim(real: dict, control: dict) -> dict:
    """The real arm's summary of one metric with the claim rule read
    against the control arm's summary of the same metric."""
    gap = real["median_gap"]
    better = gap < 0 if real["better"] == "lower" else gap > 0
    out = dict(real)
    out["control_gap"] = control["median_gap"]
    out["median_gap_exceeds_control_gap"] = abs(gap) > abs(control["median_gap"])
    out["gain_claimable"] = (
        real["change_wins"] >= CLAIM_WINS * real["pairs"]
        and better
        and real["median_gap_exceeds_parent_iqr"]
        and out["median_gap_exceeds_control_gap"]
    )
    return out


def change_tree() -> str:
    """The revision holding the checkout's tracked files: a stash commit
    of its edits, or ``HEAD`` when it has none."""
    return git("stash", "create") or git("rev-parse", "HEAD")


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

    clean = git("status", "--porcelain", "--untracked-files=no") == ""
    result = {
        "harness": f"perfbench/run.py --seconds {args.seconds:g} --trace 0",
        "order": "parent first on even pairs, change first on odd pairs; of C control "
                 "pairs among P pairs, control pair j after pair j*P//C, parent first on "
                 "even control pairs; pair i runs parent_a as the parent and parent_b as "
                 "the control on even i, the other way round on odd i, and change_a as "
                 "the change when (i // 2) % 2 is 0, change_b when it is 1",
        "claim_rule": f"change wins >= {CLAIM_WINS:g} of the pairs, its median gap points "
                      "the better way and exceeds both the parent's IQR and the control "
                      "arm's gap",
        "parent": {"rev": git("rev-parse", args.parent)},
        "change": {"rev": git("rev-parse", "HEAD"), "tree": change_tree(), "clean": clean},
        "environment": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        revs = {**dict.fromkeys(CHANGE_EXTRACTIONS, result["change"]["tree"]),
                **dict.fromkeys(EXTRACTIONS, result["parent"]["rev"])}
        trees = {name: os.path.join(tmp, name) for name in revs}
        for name, tree in trees.items():
            extract(revs[name], tree)
        for workload, count in plan:
            seeds = [args.seed + i for i in range(count)]
            controls = min(CONTROL_PAIRS, count)
            slots = {j * count // controls: j for j in range(controls)}
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            checks: dict[str, list[dict]] = {side: [] for side in CONTROL_SIDES}
            for i, seed in enumerate(seeds):
                parent, control = EXTRACTIONS if i % 2 == 0 else EXTRACTIONS[::-1]
                change = CHANGE_EXTRACTIONS[(i // 2) % 2]
                roles = {"parent": parent, "change": change, "control": control}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(measured_run(trees[roles[side]], workload, seed,
                                                   args.seconds))
                if i in slots:
                    j = slots[i]
                    for side in CONTROL_SIDES if j % 2 == 0 else CONTROL_SIDES[::-1]:
                        checks[side].append(measured_run(trees[roles[side]], workload, seed,
                                                         args.seconds))
                print(f"{workload} pair {i + 1}/{count} (seed {seed}) done", file=sys.stderr)
            result["environment"] = result["environment"] or runs["change"][0]["environment"]
            control = {
                "seeds": [seeds[i] for i in slots],
                "parent_extraction": [EXTRACTIONS[i % 2] for i in slots],
                "ops_failed_ratio": {s: [r["ops_failed_ratio"] for r in checks[s]]
                                     for s in CONTROL_SIDES},
                "metrics": {m["name"]: summarize(m, checks, CONTROL_SIDES)
                            for m in end_to_end},
                **host_record(checks),
            }
            result["workloads"][workload] = {
                "seeds": seeds,
                "parent_extraction": [EXTRACTIONS[i % 2] for i in range(count)],
                "change_extraction": [CHANGE_EXTRACTIONS[(i // 2) % 2] for i in range(count)],
                "ops_failed_ratio": {s: [r["ops_failed_ratio"] for r in runs[s]] for s in SIDES},
                "ops_attempted": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
                "metrics": {m["name"]: claim(summarize(m, runs, SIDES),
                                             control["metrics"][m["name"]])
                            for m in end_to_end},
                **host_record(runs),
                "control": control,
            }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
