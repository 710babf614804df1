"""Closed-loop benchmark of the eitnarrow command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  One client runs the workload's CLI operations back to back
through ``eitnarrow.cli.main`` in this process for ``--seconds`` seconds
and checks the output of every operation.  The last line of standard
output is a JSON object with the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  Scratch files, a report and the
span dump go to ``.perfbench/`` in the checkout.

Set-up is import, ``load_config`` and one warm-up cycle.  With
``--trace 0`` it is measured here and in two fresh child processes, and
``setup_s`` is the median of the three.  A host probe (``HostProbe``)
runs beside the set-up and the operations: ``cmd_cost_ref`` is an
operation's cost in units of its reference computation, and ``setup_s``
is the set-up's cost read as seconds at the host's full speed.  With ``--trace 1`` even operations run
traced and odd ones untraced; the difference of their medians is the
tracing overhead.
"""

from __future__ import annotations

import sys

# every run compiles the package from source alike and leaves no
# __pycache__ in the checkout
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# one client and no extra threads: BLAS runs single-threaded
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3  # this process and two fresh children
CHILD_TIMEOUT_S = 60


class HostProbe:
    """Times a fixed reference computation every PERIOD_S wall seconds
    while the workload runs, from a timer signal in this process.

    The shared host the bounds were set on runs a process at full or at
    about half speed, switching every few seconds, so wall times of the
    same code spread by up to 2x between runs.  The probe samples that
    speed during the operations themselves, not only between them,
    because a `correlation_route` operation lasts several switches.
    ``cost`` multiplies the mean operation time by the mean probe speed
    (the inverse of the harmonic mean of its times): reference
    computations the host ran per operation, which keeps the program's
    cost and cancels the host's speed.  The probe takes about 1 % of the
    wall time, inside the operations too.
    """

    PERIOD_S = 0.05
    STEPS = 300
    # one sample at full speed on the 2-vCPU 2.1 GHz Xeon the bounds were
    # set on; it turns a cost in reference computations into seconds
    FULL_SPEED_S = 3.0e-4

    def __init__(self):
        import numpy as np

        # small arrays stepped from the interpreter, as in mc_batch
        self._x0 = np.zeros(32, dtype=complex)
        self._y = np.full(32, 0.999 + 0.001j)
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        x = self._x0
        for _ in range(self.STEPS):
            x = x * self._y + 1.0
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples = []
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def cost(self, op_seconds: list[float]) -> float:
        return statistics.mean(op_seconds) / statistics.harmonic_mean(self.samples)

    def full_speed_seconds(self, seconds: float) -> float:
        """``seconds`` of wall time since ``start``, read at full speed."""
        return self.cost([seconds]) * self.FULL_SPEED_S


class Runner:
    """Runs the operations of one workload and keeps their outcomes."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.out_root = os.path.join(work, "out")
        self.config_path = os.path.join(work, "op.ini")
        self.cycle_len = len(workloads.cycle(workload, seed, 0, self.out_root))
        self.snapshots: dict[int, dict] = {}  # op index -> warm-up output bytes
        self.problems: list[str] = []
        self.seen: dict[str, set] = {}  # distinct values the checks kept
        self.attempted = 0
        self.failed = 0

    def op_at(self, index: int) -> workloads.Op:
        ops = workloads.cycle(self.workload, self.seed, index // self.cycle_len, self.out_root)
        return ops[index % self.cycle_len]

    def run(self, cli, index: int, tracer=None, warmup: bool = False) -> tuple[float, float]:
        """Run operation ``index``, check it and return its wall and
        process CPU seconds."""
        op = self.op_at(index)
        out_dir = os.path.join(self.out_root, op.command)
        # files of an earlier operation must not pass for this one's output
        shutil.rmtree(out_dir, ignore_errors=True)
        with open(self.config_path, "w") as fh:
            fh.write(op.config)
        argv = ["--config", self.config_path, "--out", out_dir, "--seed", str(op.seed),
                *op.args]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.install(index)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a crash
            code = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if tracer is not None:
                tracer.uninstall()

        detail = stderr.getvalue().strip() or stdout.getvalue().strip()[-200:]
        problems = [] if code == 0 else [f"exit {code!r}: {detail}"]
        if not problems:
            seen = {}
            try:
                problems = op.check(stdout.getvalue(), out_dir, seen)
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"output unreadable: {exc}"]
            for key, value in seen.items():
                self.seen.setdefault(key, set()).add(value)
        if index < self.cycle_len:
            # the first cycle runs twice with the same seed: once to warm
            # up and once measured, and must write the same bytes both times
            snapshot = {"stdout": stdout.getvalue().encode()}
            if os.path.isdir(out_dir):
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name), "rb") as fh:
                        snapshot[name] = fh.read()
            if warmup:
                self.snapshots[index] = snapshot
            elif snapshot != self.snapshots[index]:
                differ = sorted(k for k in snapshot.keys() | self.snapshots[index].keys()
                                if snapshot.get(k) != self.snapshots[index].get(k))
                problems.append(f"same seed, different output: {differ}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"op {index} ({op.command}): {p}" for p in problems]
        return elapsed, cpu


def set_up(workload: str, seed: int, work: str, probe: HostProbe):
    """Import, ``load_config`` and one warm-up cycle, with the probe
    running; returns the runner, the cli module and the set-up's wall
    seconds and full-speed seconds."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    probe.start()
    start = time.perf_counter()
    try:
        from eitnarrow import cli, config

        runner = Runner(workload, seed, work)
        first = runner.op_at(0)
        with open(runner.config_path, "w") as fh:
            fh.write(first.config)
        config.load_config(runner.config_path, seed=first.seed)
        for index in range(runner.cycle_len):
            runner.run(cli, index, warmup=True)
    finally:
        wall_s = time.perf_counter() - start
        probe.stop()
    return runner, cli, wall_s, probe.full_speed_seconds(wall_s)


def child_setup_seconds(args) -> list[tuple[float, float]]:
    """Set-up wall and full-speed seconds of fresh processes, run one
    after another, one fewer than SETUP_RUNS."""
    seconds = []
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.splitlines()[-1])
        seconds.append((child["wall_s"], child["setup_s"]))
    return seconds


def environment() -> dict:
    import numpy
    import scipy
    from eitnarrow import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "use_numba": getattr(kernels, "USE_NUMBA", None),
    }


def layer_metrics(tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per-operation figures for each layer from the spans of the traced
    operations, and the tracing overhead against the untraced ones."""
    inclusive, calls, own, layer_own = tracer.totals()
    counts = tracer.counts
    ops = len(traced)

    def per_op(table, name):
        return table.get(name, 0) / ops

    # an element is one realization x sample x slice product of mc_batch,
    # burn-in samples included
    mc_elements = counts.get("kernels.mc_batch.elements", 0)
    ns_per_elem = 1e9 * inclusive.get("kernels.mc_batch", 0.0) / mc_elements if mc_elements else 0.0
    traced_p50 = statistics.median(traced)
    untraced_p50 = statistics.median(untraced) if untraced else traced_p50
    write_s = sum(t for name, t in inclusive.items() if name.startswith("artifacts.write_"))
    metrics = {
        "kernels.mc_batch.s": (per_op(inclusive, "kernels.mc_batch"), "s/op"),
        "kernels.mc_batch.ns_per_elem": (ns_per_elem, "ns"),
        "kernels.g_sweep.s": (per_op(inclusive, "kernels.g_sweep"), "s/op"),
        "kernels.g_sweep.calls": (per_op(calls, "kernels.g_sweep"), "count/op"),
        "propagation.propagate_correlation.self_s":
            (per_op(own, "propagation.propagate_correlation"), "s/op"),
        "spectral.spectrum_to_correlation.s":
            (per_op(inclusive, "spectral.spectrum_to_correlation"), "s/op"),
        "spectral.correlation_to_spectrum.s":
            (per_op(inclusive, "spectral.correlation_to_spectrum"), "s/op"),
        "propagation.propagate_spectrum.s":
            (per_op(inclusive, "propagation.propagate_spectrum"), "s/op"),
        "medium.transfer_exponent.s": (per_op(inclusive, "medium.transfer_exponent"), "s/op"),
        "fitting.fit_lineshape.s": (per_op(inclusive, "fitting.fit_lineshape"), "s/op"),
        "fitting.fit_lineshape.calls": (per_op(calls, "fitting.fit_lineshape"), "count/op"),
        "artifacts.write_s": (write_s / ops, "s/op"),
        "artifacts.bytes_written": (per_op(counts, "artifacts.bytes_written"), "B/op"),
        "config.load_config.s": (per_op(inclusive, "config.load_config"), "s/op"),
        "noise.synthesize_probe_field.s":
            (per_op(inclusive, "noise.synthesize_probe_field"), "s/op"),
        "spectral.periodogram.s": (per_op(inclusive, "spectral.periodogram"), "s/op"),
        "mc.ensemble_beat_spectrum.self_s": (per_op(own, "mc.ensemble_beat_spectrum"), "s/op"),
        "mc.samples_per_s": (per_op(counts, "kernels.mc_batch.elements") / untraced_p50, "1/s"),
        "trace.traced_cmd_s_p50": (traced_p50, "s"),
        "trace.untraced_cmd_s_p50": (untraced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_op(layer_own, layer), "s/op")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up once and print it (used for the set-up children)")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "eitnarrow", "cli.py")):
        print(f"error: no eitnarrow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # built before set-up, so numpy's import is not part of it
    probe = HostProbe()
    if args.setup_only:
        # failed operations are counted by the parent, which ran the same ones
        _, _, wall_s, setup_s = set_up(args.workload, args.seed,
                                       os.path.join(WORK, f"{args.workload}-setup"), probe)
        print(json.dumps({"wall_s": wall_s, "setup_s": setup_s}))
        return 0

    work = os.path.join(WORK, args.workload)
    runner, cli, wall_s, setup_s = set_up(args.workload, args.seed, work, probe)
    # the traced run reports layers only; the probe would add to their spans
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        probe = None

    traced, untraced = [], []
    cpu = {"traced": [], "untraced": []}
    index = 0
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < args.seconds:
            trace_this = tracer is not None and index % 2 == 0
            elapsed, cpu_s = runner.run(cli, index, tracer if trace_this else None)
            (traced if trace_this else untraced).append(elapsed)
            cpu["traced" if trace_this else "untraced"].append(cpu_s)
            index += 1
    finally:
        if probe is not None:
            probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment()

    if tracer is None:
        setups = [(wall_s, setup_s)] + child_setup_seconds(args)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "cmd_cost_ref": (probe.cost(untraced), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        setups = [(wall_s, setup_s)]
        metrics = layer_metrics(tracer, traced, untraced)
        tracer.dump(os.path.join(work, "spans.jsonl"))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        # wall and full-speed seconds of each set-up
        "setup_s_samples": setups,
        "op_s": {"traced": traced, "untraced": untraced},
        # process CPU seconds beside the wall seconds: a wall time that
        # moves while the CPU time holds points at the host, not the program
        "op_cpu_s": cpu,
        "cmd_s_p50": statistics.median(untraced or traced),
        "cmd_cpu_s_p50": statistics.median(cpu["untraced"] or cpu["traced"]),
        "probe_s": None if probe is None else {
            "samples": len(probe.samples),
            "harmonic_mean": statistics.harmonic_mean(probe.samples),
            "min": min(probe.samples),
        },
        "seen": {key: sorted(values, key=repr) for key, values in runner.seen.items()},
        "ops_failed_ratio": runner.failed / runner.attempted,
        "problems": runner.problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for problem in runner.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"environment": env, "ops_failed_ratio": report["ops_failed_ratio"]}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
