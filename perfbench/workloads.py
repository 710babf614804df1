"""The benchmark's workloads: the CLI operations each one runs, the
config file each operation reads, and the checks its output must pass.

A workload is an endless sequence of cycles.  Cycle ``c`` of a run with
seed ``s`` draws its inputs from ``random.Random(f"{s}:{c}")``, so the
same seed gives the same operations however long the run lasts.  Why
each workload was chosen is written down in WORKLOADS.md.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

KHZ = 2.0 * math.pi * 1e3  # rad/s per kHz

# Fitted output FWHM over closed_form_width.  The closed form is the
# width of the thick-medium filter alone; the transmitted line also
# carries the finite input width and the fitted model's shape.  At the
# default medium the ratio is 1.378 for the Lorentzian fit and 1.750
# for the Gaussian fit that `fit --model auto` picks, independent of
# target_width_khz; the bands hold those values with about 10 % margin.
WIDTH_BANDS = {"lorentzian": (1.25, 1.50), "gaussian": (1.60, 1.90)}

# `mc_ensemble` holds the Monte-Carlo grid fixed so every operation does
# the same work: dt 0.1 us over 1 ms gives 10 000 kept samples.
MC_REALIZATIONS = 32
MC_SLICES = 8
MC_SAMPLES = 10_000


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the checks on what it printed and wrote."""

    command: str  # CLI subcommand; also names the operation's output directory
    args: list[str]  # CLI arguments after the subcommand
    config: str  # text of the config file passed with --config
    seed: int  # value of --seed
    # (stdout, out_dir, seen) -> problems; a check may keep values worth
    # reporting in ``seen``
    check: Callable[[str, str, dict], list[str]]


def _value(stdout: str, pattern: str) -> float | None:
    match = re.search(pattern, stdout, re.MULTILINE)
    return float(match.group(1)) if match else None


def _within(name: str, value: float | None, lo: float, hi: float) -> list[str]:
    if value is None:
        return [f"{name}: not printed"]
    if not lo <= value <= hi:
        return [f"{name} = {value!r} outside [{lo}, {hi}]"]
    return []


# ---------------------------------------------------------------------------
# correlation_route: `--quick validate`
# ---------------------------------------------------------------------------


def check_validate(stdout: str, out_dir: str, seen: dict) -> list[str]:
    problems = []
    lines = re.findall(r"^(PASS|FAIL) ([\w-]+): (.*)$", stdout, re.MULTILINE)
    problems += [f"{name}: FAIL ({detail})" for verdict, name, detail in lines if verdict != "PASS"]
    routes = [(name, detail) for _, name, detail in lines if name.startswith("route-equivalence")]
    if len(routes) != 3:
        problems.append(f"expected 3 route-equivalence checks, found {len(routes)}")
    for name, detail in routes:
        dev = _value(detail, r"max deviation (\S+)")
        problems += _within(f"{name} deviation", dev, 0.0, 1e-3)
    summary = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.MULTILINE)
    if summary is None or summary.group(1) != summary.group(2) or len(lines) != int(summary.group(2)):
        problems.append("summary line missing or not all checks passed")
    return problems


def correlation_route(rng: random.Random, out_root: str) -> list[Op]:
    # the route check scales its lag grid with the width, so the work per
    # operation is the same for every draw
    width = rng.uniform(4.4, 4.8)
    config = f"[fields]\ntarget_width_khz = {width!r}\n"
    seed = rng.randrange(1, 2**31)
    return [Op("validate", ["--quick", "validate"], config, seed, check_validate)]


# ---------------------------------------------------------------------------
# mc_ensemble: `mc` at the default time grid
# ---------------------------------------------------------------------------


def check_mc(stdout: str, out_dir: str, seen: dict) -> list[str]:
    problems = []
    if _value(stdout, r"^realizations: (\d+)$") != MC_REALIZATIONS:
        problems.append(f"realizations line is not {MC_REALIZATIONS}")
    path = os.path.join(out_dir, "mc_spectrum.csv")
    with open(path) as fh:
        rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if rows[0] != "omega_rad_s,density,stderr":
        problems.append(f"unexpected header {rows[0]!r}")
    values = [[float(v) for v in row.split(",")] for row in rows[1:]]
    if len(values) != MC_SAMPLES or any(len(v) != 3 for v in values):
        problems.append(f"expected {MC_SAMPLES} rows of 3 columns")
    if not all(math.isfinite(x) for row in values for x in row):
        problems.append("spectrum or stderr not finite")
    if any(row[1] < 0 or row[2] < 0 for row in values):
        problems.append("negative density or stderr")
    with open(os.path.join(out_dir, "mc.meta.txt")) as fh:
        drive = _value(fh.read(), r"^implied_drive_power_transmission=(\S+)$")
    seen["implied_drive_power_transmission"] = drive
    # finite and positive; the upper bound of 1 is not enforced, see WORKLOADS.md
    problems += _within("implied drive power transmission", drive, 1e-300, math.inf)
    return problems


def mc_ensemble(rng: random.Random, out_root: str) -> list[Op]:
    config = (
        f"[mc]\nrealizations = {MC_REALIZATIONS}\nslices = {MC_SLICES}\n"
        "dt_us = 0.1\nduration_ms = 1.0\n"
    )
    seed = rng.randrange(1, 2**31)
    return [Op("mc", ["mc"], config, seed, check_mc)]


# ---------------------------------------------------------------------------
# figures: figure2, figure3, figure4, propagate, fit at paper scale
# ---------------------------------------------------------------------------


def _width_ratio(fwhm_khz: float | None, target_khz: float, model: str) -> list[str]:
    ratio = None if fwhm_khz is None else fwhm_khz / target_khz
    return _within(f"{model} fwhm / closed-form width", ratio, *WIDTH_BANDS[model])


def check_figure2(target: float, stdout: str, out_dir: str, seen: dict) -> list[str]:
    closed = _value(stdout, r"^closed-form width prediction: (\S+) kHz$")
    problems = _within("closed-form width (kHz)", closed, target - 1e-4, target + 1e-4)
    problems += _width_ratio(_value(stdout, r"^output fwhm: (\S+) kHz"), target, "lorentzian")
    return problems


def check_figure3(target: float, stdout: str, out_dir: str, seen: dict) -> list[str]:
    problems = _width_ratio(
        _value(stdout, r"^transmitted-noise fwhm: (\S+) kHz$"), target, "lorentzian"
    )
    ratio = _value(stdout, r"^width ratio \(noise/scan\): (\S+)$")
    return problems + _within("noise/scan width ratio", ratio, 0.95, 1.05)


def check_figure4(stdout: str, out_dir: str, seen: dict) -> list[str]:
    used = re.search(r"^points used: (\d+) of (\d+)$", stdout, re.MULTILINE)
    problems = [] if used and used.group(1) == used.group(2) else ["sweep points dropped"]
    return problems + _within("r_squared", _value(stdout, r"^r_squared: (\S+)$"), 0.999, 1.0)


def check_propagate(target: float, stdout: str, out_dir: str, seen: dict) -> list[str]:
    return _width_ratio(_value(stdout, r"^output fwhm: (\S+) kHz"), target, "lorentzian")


def check_fit(target: float, stdout: str, out_dir: str, seen: dict) -> list[str]:
    match = re.search(r"^model: (\w+)$", stdout, re.MULTILINE)
    if match is None or match.group(1) not in WIDTH_BANDS:
        return ["fitted model not printed"]
    fwhm = _value(stdout, r"^fwhm: (\S+) rad/s$")
    return _width_ratio(None if fwhm is None else fwhm / KHZ, target, match.group(1))


def figures(rng: random.Random, out_root: str) -> list[Op]:
    width = rng.uniform(4.4, 4.8)
    fwhm = rng.uniform(950.0, 1010.0)
    config = f"[fields]\ntarget_width_khz = {width!r}\n[input]\nfwhm_khz = {fwhm!r}\n"
    seed = rng.randrange(1, 2**31)
    fig2_csv = os.path.join(out_root, "figure2", "figure2_output.csv")

    def op(command, args, check):
        return Op(command, args, config, seed, check)

    return [
        op("figure2", ["figure2"], partial(check_figure2, width)),
        op("figure3", ["figure3"], partial(check_figure3, width)),
        op("figure4", ["figure4"], check_figure4),
        op("propagate", ["propagate"], partial(check_propagate, width)),
        op("fit", ["fit", "--input", fig2_csv], partial(check_fit, width)),
    ]


WORKLOADS = {
    "correlation_route": correlation_route,
    "mc_ensemble": mc_ensemble,
    "figures": figures,
}


def cycle(workload: str, seed: int, index: int, out_root: str) -> list[Op]:
    """The operations of cycle ``index`` of a run with ``seed``."""
    return WORKLOADS[workload](random.Random(f"{seed}:{index}"), out_root)
