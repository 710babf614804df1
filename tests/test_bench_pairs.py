"""The pairing, rotation and claim rule of ``tools/bench_pairs.py``, run
on synthetic metrics: ``extract``, ``run_once`` and ``git`` are replaced,
so no tree is extracted and no harness runs."""

import importlib.util
import json
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = sys.modules["bench_pairs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SEED = 501
METRIC = {"name": "cmd_cost_ref", "unit": "ref", "better": "lower", "bound": 0.25}


def _run(monkeypatch, tmp_path, value, pairs=10):
    """Run the tool on one workload of ``pairs`` pairs.  ``value(role,
    seed)`` gives each run's metric, ``role`` being ``parent``,
    ``change`` or ``control``: the real pair's parent is the first parent
    extraction to run at a seed, and another one later at that seed is
    the control.  Returns the written file and the runs in order, each
    as (extraction, role, seed)."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [METRIC]}))
    calls = []

    def run_once(tree, workload, seed, seconds):
        name = os.path.basename(tree)
        parents = [n for n, _, s in calls if s == seed and n.startswith("parent")]
        if name.startswith("change"):
            role = "change"
        elif not parents or name == parents[0]:
            role = "parent"
        else:
            role = "control"
        calls.append((name, role, seed))
        return {
            "environment": {"host": "synthetic"},
            "ops_failed_ratio": 0.0,
            "attempted": 1,
            "metrics": {METRIC["name"]: {"value": value(role, seed)}},
        }

    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc")
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", "abc", "--out", str(out), "--pairs", f"w={pairs}",
                      "--seed", str(SEED)])
    return json.loads(out.read_text())["workloads"]["w"], calls


def _real_pairs(calls):
    """Per seed, the real pair's two runs in the order they ran."""
    pairs = {}
    for name, role, seed in calls:
        if role != "control" and len(pairs.setdefault(seed, [])) < 2:
            pairs[seed].append((name, role))
    return [pairs[seed] for seed in sorted(pairs)]


def test_the_side_that_runs_first_alternates(monkeypatch, tmp_path):
    _, calls = _run(monkeypatch, tmp_path, lambda role, seed: 100.0)
    firsts = [pair[0][1] for pair in _real_pairs(calls)]
    assert firsts == ["parent", "change"] * 5


def test_ten_pairs_meet_every_parent_extraction_with_every_change_extraction(
        monkeypatch, tmp_path):
    out, calls = _run(monkeypatch, tmp_path, lambda role, seed: 100.0)
    met = [tuple(dict((r, n) for n, r in pair)[r] for r in ("parent", "change"))
           for pair in _real_pairs(calls)]
    assert set(met) == {(p, c) for p in ("parent_a", "parent_b")
                        for c in ("change_a", "change_b")}
    assert out["parent_extraction"] == [p for p, _ in met]
    assert out["change_extraction"] == [c for _, c in met]


def test_each_control_pair_runs_the_other_parent_extraction(monkeypatch, tmp_path):
    out, calls = _run(monkeypatch, tmp_path, lambda role, seed: 100.0)
    controls = [(n, s) for n, r, s in calls if r == "control"]
    assert [s for _, s in controls] == out["control"]["seeds"]
    assert len(controls) == bench_pairs.CONTROL_PAIRS
    real_parent = dict(zip(out["seeds"], out["parent_extraction"]))
    for name, seed in controls:
        assert name.startswith("parent") and name != real_parent[seed]
    assert out["control"]["parent_extraction"] == [real_parent[s] for _, s in controls]


def test_a_clear_gain_is_claimable(monkeypatch, tmp_path):
    out, _ = _run(monkeypatch, tmp_path, lambda role, seed: 90.0 if role == "change" else 100.0)
    metric = out["metrics"]["cmd_cost_ref"]
    assert metric["change_wins"] == 10 and metric["control_gap"] == 0.0
    assert metric["gain_claimable"]


def test_eight_wins_of_ten_claim_no_gain(monkeypatch, tmp_path):
    def value(role, seed):
        if role == "change":
            return 110.0 if seed - SEED in (3, 6) else 90.0
        return 100.0

    metric = _run(monkeypatch, tmp_path, value)[0]["metrics"]["cmd_cost_ref"]
    assert metric["change_wins"] == 8
    assert metric["median_gap"] == -10.0 and metric["median_gap_exceeds_parent_iqr"]
    assert not metric["gain_claimable"]


def test_a_control_gap_as_large_as_the_real_gap_claims_no_gain(monkeypatch, tmp_path):
    costs = {"parent": 100.0, "change": 90.0, "control": 90.0}
    metric = _run(monkeypatch, tmp_path, lambda role, seed: costs[role])[0]
    metric = metric["metrics"]["cmd_cost_ref"]
    assert metric["change_wins"] == 10 and metric["median_gap_exceeds_parent_iqr"]
    assert metric["control_gap"] == metric["median_gap"] == -10.0
    assert not metric["gain_claimable"]


def test_each_run_records_the_load_before_it_and_its_child_cpu(monkeypatch, tmp_path):
    """Beside every run of both arms the file records the one-minute load
    average read just before the run and the CPU seconds of the run's
    child, the ``os.times`` delta.  Here the load reads the count of
    runs so far and each run's child uses 1.5 s user and 0.5 s system."""
    done = []
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: (float(len(done)), 0.0, 0.0))
    monkeypatch.setattr(bench_pairs.os, "times", lambda: os.times_result(
        (0.0, 0.0, 1.5 * len(done), 0.5 * len(done), 0.0)))
    out, calls = _run(monkeypatch, tmp_path, lambda role, seed: done.append(role) or 100.0)
    control = out["control"]
    loads = [*out["host_load"]["parent"], *out["host_load"]["change"],
             *control["host_load"]["parent"], *control["host_load"]["control"]]
    assert sorted(loads) == list(range(len(calls)))
    assert out["host_load"]["change"] == [i for i, c in enumerate(calls) if c[1] == "change"]
    assert control["host_load"]["control"] == [
        i for i, c in enumerate(calls) if c[1] == "control"]
    for arm, sides in ((out, bench_pairs.SIDES), (control, bench_pairs.CONTROL_SIDES)):
        for side in sides:
            assert arm["child_cpu_s"][side] == [2.0] * len(arm["host_load"][side])
