"""Reduced-size smoke test of the benchmark: short runs checked against
BENCHMARK.json, and the output checks fed wrong or missing output.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("figures", 0), ("figures", 1), ("mc_ensemble", 0), ("mc_ensemble", 1),
     ("correlation_route", 1)],
)
def test_result_line_matches_the_spec(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = bench_spec()["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values())
    elif workload == "correlation_route":
        assert values["kernels.g_sweep.calls"] > 0
        assert values["propagation.propagate_correlation.self_s"] > 0
    elif workload == "mc_ensemble":
        assert values["kernels.mc_batch.ns_per_elem"] > 0
        assert values["mc.samples_per_s"] > 0
    else:
        assert values["fitting.fit_lineshape.calls"] > 0
        assert values["artifacts.bytes_written"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("figures", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workload_inputs_follow_the_seed():
    a = workloads.cycle("figures", 3, 5, "out")
    b = workloads.cycle("figures", 3, 5, "out")
    c = workloads.cycle("figures", 4, 5, "out")
    assert [(op.config, op.seed) for op in a] == [(op.config, op.seed) for op in b]
    assert a[0].config != c[0].config


def test_checks_reject_wrong_output():
    good = (
        "PASS route-equivalence-1: max deviation 1.0e-06\n"
        "PASS route-equivalence-2: max deviation 2.0e-06\n"
        "PASS route-equivalence-3: max deviation 3.0e-06\n"
        "3/3 checks passed\n"
    )
    assert workloads.check_validate(good, "", {}) == []
    assert workloads.check_validate(good.replace("3.0e-06", "3.0e-03"), "", {})
    assert workloads.check_validate(good.replace("PASS route-equivalence-3", "FAIL route-equivalence-3"), "", {})
    fig2 = "output fwhm: {:.4f} kHz (lorentzian fit)\nclosed-form width prediction: 4.6000 kHz\n"
    assert workloads.check_figure2(4.6, fig2.format(1.378 * 4.6), "", {}) == []
    assert workloads.check_figure2(4.6, fig2.format(2.0 * 4.6), "", {})
    assert workloads.check_figure2(4.7, fig2.format(1.378 * 4.7), "", {})


class SilentCli:
    """Stands in for ``eitnarrow.cli``: exits 0 and prints the mc summary
    line, but writes no file."""

    @staticmethod
    def main(argv):
        print(f"realizations: {workloads.MC_REALIZATIONS}")
        return 0


def test_missing_output_fails_even_with_stale_files(tmp_path):
    runner = run.Runner("mc_ensemble", 7, str(tmp_path))
    out_dir = tmp_path / "out" / "mc"
    out_dir.mkdir(parents=True)
    rows = "".join("0.0,1.0,0.1\n" for _ in range(workloads.MC_SAMPLES))
    (out_dir / "mc_spectrum.csv").write_text("omega_rad_s,density,stderr\n" + rows)
    (out_dir / "mc.meta.txt").write_text("implied_drive_power_transmission=0.5\n")
    # the stale files left by an earlier operation would pass the check
    assert workloads.check_mc(f"realizations: {workloads.MC_REALIZATIONS}\n", str(out_dir), {}) == []
    runner.run(SilentCli, 0, warmup=True)
    assert runner.failed == 1
    assert "mc_spectrum.csv" in runner.problems[0]


def test_probe_cost_cancels_host_speed():
    # one second of work at full speed, where the probe takes 1 ms; on a
    # host at half speed for half the time the work takes 4/3 s, and the
    # probe, sampled evenly in time, takes 1 ms and 2 ms equally often
    probe = run.HostProbe()
    probe.samples = [1e-3] * 50
    assert probe.cost([1.0]) == pytest.approx(1000.0)
    probe.samples = [1e-3, 2e-3] * 25
    assert probe.cost([4.0 / 3.0]) == pytest.approx(1000.0)
    # the same set-up, read as seconds at full speed
    probe.samples = [probe.FULL_SPEED_S, 2 * probe.FULL_SPEED_S] * 25
    assert probe.full_speed_seconds(4.0 / 3.0) == pytest.approx(1.0)


def test_probe_samples_until_stopped():
    probe = run.HostProbe()
    probe.start()
    time.sleep(0.3)
    probe.stop()
    taken = len(probe.samples)
    time.sleep(0.1)
    assert taken >= 3 and len(probe.samples) == taken
