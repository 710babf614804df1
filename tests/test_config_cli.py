"""Configuration loading, CLI exit codes, artifacts and determinism."""

import contextlib
import filecmp
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitnarrow
from eitnarrow import checks, cli, errors
from eitnarrow import config as config_module
from eitnarrow import propagation
from eitnarrow.cli import main
from eitnarrow.config import (
    _ENUMS,
    _INTS,
    DEFAULTS,
    SIZE_RANGES,
    config_digest,
    load_config,
)
from eitnarrow.errors import ConfigError

TWO_PI = 2.0 * np.pi


def write_config(tmp_path, text, name="run.ini"):
    """Write ``text`` (``str``, or ``bytes`` as they are) to ``name``."""
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------


def test_defaults_resolve_to_paper_scale():
    cfg = load_config()
    assert cfg.medium.number_density == pytest.approx(3e17)
    assert cfg.medium.doppler_width == pytest.approx(TWO_PI * 500e6)
    assert cfg.medium.length == pytest.approx(0.025)
    assert cfg.input_fwhm == pytest.approx(TWO_PI * 980e3)
    assert cfg.seed == 12345
    # the auto drive hits the 4.6 kHz closed-form target
    assert abs(cfg.fields.omega_d) / (TWO_PI * 1e6) == pytest.approx(2.3227, rel=1e-3)
    # the resolved text records the auto value, so the digest is stable
    assert float(cfg.resolved["fields"]["omega_d_mhz"]) > 0
    assert cfg.digest == config_digest(cfg.resolved)
    assert len(cfg.digest) == 12


def test_seed_override_changes_digest_only_in_run_section():
    a = load_config()
    b = load_config(seed=999)
    assert b.seed == 999
    assert a.digest != b.digest
    assert a.resolved["medium"] == b.resolved["medium"]


def test_config_file_merges_over_defaults(tmp_path):
    path = write_config(tmp_path, "[medium]\nlength_cm = 5.0\n")
    cfg = load_config(path)
    assert cfg.medium.length == pytest.approx(0.05)
    assert cfg.medium.number_density == pytest.approx(3e17)  # untouched default


def test_missing_file_rejected():
    with pytest.raises(ConfigError) as err:
        load_config("/nonexistent/run.ini")
    assert err.value.code == "config-not-found"


def test_unknown_key_and_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "[medium]\ncolour = blue\n"))
    assert err.value.code == "unknown-key"
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "[cavity]\nfinesse = 100\n"))
    assert err.value.code == "unknown-key"


def test_bad_enum_and_bad_number(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "[input]\nshape = voigt\n"))
    assert err.value.code == "bad-enum"
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "[medium]\nlength_cm = long\n"))
    assert err.value.code == "bad-number"


def test_integer_key_in_float_notation_is_named_an_integer(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "[input]\ngrid_points = 1e20\n"))
    assert err.value.code == "bad-number"
    assert "'grid_points' in [input] must be an integer, got '1e20'" in str(err.value)


def test_size_keys_are_bounded_above(tmp_path):
    # 500 samples per realization keep the largest ensemble in bounds
    extra = {"mc": "duration_ms = 0.05\n"}
    for (sec, key), (_, high) in SIZE_RANGES.items():
        text = f"[{sec}]\n{extra.get(sec, '')}{key} = "
        cfg = load_config(write_config(tmp_path, f"{text}{high}\n"))
        assert cfg.resolved[sec][key] == str(high)
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, f"{text}{high + 1}\n"))
        assert err.value.code == "bad-parameter"


def test_bad_physical_parameter(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "[medium]\ndensity_cm3 = -1\n"))
    assert err.value.code == "bad-parameter"


def test_defaults_table_is_complete():
    cfg = load_config()
    assert set(cfg.resolved) == set(DEFAULTS)
    for sec in DEFAULTS:
        assert set(cfg.resolved[sec]) == set(DEFAULTS[sec])


def test_module_docstring_lists_exactly_the_default_keys():
    """The key table in the ``config`` docstring names every key of
    ``DEFAULTS`` under its section, and no other."""
    documented: dict[str, set[str]] = {}
    section = None
    for line in config_module.__doc__.splitlines():
        heading = re.fullmatch(r"\[(\w+)\]", line)
        entry = re.match(r" {4}(\w+(?:, \w+)*)", line)
        if heading:
            section = documented.setdefault(heading.group(1), set())
        elif entry and section is not None:
            section.update(entry.group(1).split(", "))
    assert documented == {sec: set(keys) for sec, keys in DEFAULTS.items()}


# ---------------------------------------------------------------------------
# CLI behaviour and exit codes
# ---------------------------------------------------------------------------


def test_cli_missing_config_exits_2(tmp_path, capsys):
    rc = main(["--config", "/nope.ini", "--out", str(tmp_path), "figure2"])
    assert rc == 2
    assert "error: config-not-found:" in capsys.readouterr().err


def test_cli_bad_enum_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "[propagation]\nexponent_convention = guess\n")
    rc = main(["--config", path, "--out", str(tmp_path / "o"), "validate"])
    assert rc == 2
    assert "error: bad-enum:" in capsys.readouterr().err


def test_cli_sweep_too_small_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "[sweep]\npoints = 3\n")
    rc = main(["--config", path, "--out", str(tmp_path / "o"), "figure4"])
    assert rc == 2
    assert "error: sweep-too-small:" in capsys.readouterr().err
    # a sweep spanning less than a decade in power is also rejected
    path = write_config(
        tmp_path, "[sweep]\nomega_d_min_mhz = 4.0\nomega_d_max_mhz = 6.0\n"
    )
    rc = main(["--config", path, "--out", str(tmp_path / "o"), "figure4"])
    assert rc == 2
    assert "error: sweep-too-small:" in capsys.readouterr().err


def _bad_spectrum_csv(tmp_path):
    rows = [f"{float(i)!r},1.0" for i in range(10)]
    rows[4] = "4.0,n/a"
    return write_config(tmp_path, "omega_rad_s,density\n" + "\n".join(rows) + "\n", "bad.csv")


def _non_utf8_spectrum_csv(tmp_path):
    """A valid spectrum CSV followed by the bytes ff fe."""
    rows = "".join(f"{float(i)!r},1.0\n" for i in range(10))
    return write_config(tmp_path, b"omega_rad_s,density\n" + rows.encode() + b"\xff\xfe", "b.csv")


def _uneven_spectrum_csv(tmp_path):
    """A Lorentzian of FWHM 40 000 rad/s on a grid whose step grows."""
    omegas = np.cumsum(np.linspace(1e3, 3e3, 81)).tolist()
    rows = [f"{w - 8e4!r},{1.0 / (1.0 + ((w - 8e4) / 2e4) ** 2)!r}" for w in omegas]
    return write_config(tmp_path, "omega_rad_s,density\n" + "\n".join(rows) + "\n", "uneven.csv")


@pytest.mark.parametrize(
    "config, argv",
    [
        pytest.param(None, ["--seed", "-1", "--quick", "mc"], id="negative-seed"),
        pytest.param(None, ["--seed", str(2**64), "--quick", "mc"], id="seed-too-large"),
        pytest.param(None, ["mc", "--realizations", "32"], id="removed-realizations-flag"),
        pytest.param(None, ["figure2", "--off-resonance-only"], id="removed-off-resonance-flag"),
        pytest.param("[mc]\nrealizations = 0\n", ["--quick", "mc"], id="realizations"),
        pytest.param("[mc]\nslices = 0\n", ["--quick", "mc"], id="slices"),
        pytest.param("[input]\nspan_factor = -1\n", ["figure2"], id="negative-span"),
        pytest.param("[input]\nspan_factor = 0\n", ["propagate"], id="zero-span"),
        pytest.param("[input]\nfwhm_khz = 0\n", ["figure2"], id="zero-input-width"),
        pytest.param("[fields]\nomega_d_mhz = 1e300\n", ["figure2"], id="huge-drive"),
        pytest.param("[fields]\nomega_d_mhz = 1e-200\n", ["figure2"], id="vanishing-drive"),
        pytest.param("[medium]\nlength_cm = nan\n", ["figure2"], id="nan-length"),
        pytest.param("[mc]\ndt_us = inf\n", ["--quick", "mc"], id="infinite-dt"),
        pytest.param("[mc]\ndt_us = 0\n", ["--quick", "mc"], id="zero-dt"),
        pytest.param(None, ["fit", "--input", "BAD_CSV"], id="unparsable-fit-row"),
        pytest.param(None, ["--seed", "abc", "mc"], id="non-integer-seed"),
        pytest.param(None, [], id="missing-subcommand"),
        pytest.param(None, ["figure9"], id="unknown-subcommand"),
        pytest.param("[mc]\nrealizations = x\n", ["--quick", "mc"], id="non-integer-realizations"),
        pytest.param(None, ["fit"], id="fit-without-input"),
        pytest.param("[input]\ngrid_points = 1000000000000000\n", ["figure2"], id="huge-grid"),
        pytest.param("[input]\ngrid_points = 1e20\n", ["figure2"], id="float-grid-points"),
        pytest.param("[propagation]\nz_steps = 64\n", ["figure2"], id="removed-z-steps-key"),
        pytest.param("[mc]\nrealizations = 100001\n", ["--quick", "mc"], id="huge-realizations"),
        pytest.param("[mc]\nslices = 10001\n", ["--quick", "mc"], id="huge-slices"),
        pytest.param("[sweep]\npoints = 10001\n", ["figure4"], id="huge-sweep"),
        pytest.param("[mc]\ndt_us = 1e-6\n", ["figure2"], id="huge-sample-count"),
        pytest.param("[mc]\nrealizations = 20000\n", ["--quick", "mc"], id="huge-ensemble"),
        pytest.param("[mc]\nfull_integration = on\n", ["propagate"], id="removed-key"),
        pytest.param(
            "[mc]\ndrive_diffusion_khz = 1\n", ["propagate"], id="removed-drive-noise-key"
        ),
        pytest.param(None, ["fit", "--input", "UNEVEN_CSV"], id="non-uniform-fit-input"),
        pytest.param(b"\xff\xfe[mc]\nslices = 8\n", ["--quick", "mc"], id="non-utf8-config"),
        pytest.param(None, ["fit", "--input", "NON_UTF8_CSV"], id="non-utf8-fit-input"),
        *(
            pytest.param(
                "[medium]\nlength_cm = 0\n[fields]\nomega_d_mhz = 5\n",
                argv,
                id=f"thin-medium-{name}",
            )
            for name, argv in (
                ("propagate", ["propagate"]),
                ("figure2", ["figure2"]),
                ("figure4", ["figure4"]),
                ("validate", ["--quick", "validate"]),
            )
        ),
    ],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, config, argv):
    """Invalid values are rejected at the configuration boundary: exit 2,
    a single ``error:`` line, no traceback and nothing on stdout."""
    csvs = {
        "BAD_CSV": _bad_spectrum_csv,
        "UNEVEN_CSV": _uneven_spectrum_csv,
        "NON_UTF8_CSV": _non_utf8_spectrum_csv,
    }
    argv = [csvs[a](tmp_path) if a in csvs else a for a in argv]
    if config is not None:
        argv = ["--config", write_config(tmp_path, config)] + argv
    rc = main(["--out", str(tmp_path / "o")] + argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert out == ""


def test_underflowing_fit_exits_1_with_one_error_line(tmp_path, capsys):
    """A drive so weak that the fitted width squared (4e-155 MHz) or the
    Jacobian's squared denominator (3.9e-59 MHz) underflows: the fit
    fails before the least-squares step, with no warning and no
    traceback."""
    for drive in ("4e-155", "3.9e-59"):
        path = write_config(tmp_path, f"[fields]\nomega_d_mhz = {drive}\n")
        rc = main(["--config", path, "--out", str(tmp_path / "o"), "figure2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.strip().splitlines() == [
            "error: invariant: lorentzian fit failed: not finite at the initial guess"
        ]


def test_unresolved_width_exits_3_with_one_error_line(tmp_path, capsys):
    """A grid too narrow for the input line is a resolution error."""
    path = write_config(tmp_path, "[input]\nspan_factor = 0.1\n")
    rc = main(["--config", path, "--out", str(tmp_path / "o"), "figure2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.strip().splitlines() == [
        "error: resolution: density never falls below half maximum"
    ]
    # a one-photon detuning moves the transmitted line to the edge of the
    # grid sized for the resonant width: unresolved, not a failed invariant
    detuned = write_config(
        tmp_path, "[fields]\ndelta_p_mhz = 2000\ndelta_ac_mhz = -2000\n", name="detuned.ini"
    )
    for command in ("figure2", "figure3", "propagate"):
        assert main(["--config", detuned, "--out", str(tmp_path / "d"), command]) == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: resolution: density never falls below half maximum"
        ]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_with_one_error_line(tmp_path, unbuffered):
    """A reader that closes the pipe before the command prints gets one
    ``error: broken-pipe:`` line and exit 1, with no traceback and no
    exception ignored in the interpreter's exit flush.  A buffered
    stdout fails at the flush, an unbuffered one at the first print."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eitnarrow.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "eitnarrow.cli", "--out", str(tmp_path / "o"),
         "--quick", "validate"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: broken-pipe: ")


def test_warnings_print_as_one_line_on_every_run(tmp_path, capsys):
    path = write_config(tmp_path, "[fields]\nomega_p_mhz = 1\n")
    for _ in range(2):
        rc = main(["--config", path, "--out", str(tmp_path / "o"), "figure2"])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 0
        assert len(lines) == 1
        assert lines[0].startswith("warning: probe Rabi frequency is not small")


_FUZZED_KEYS = [
    (sec, key)
    for sec in ("mc", "input", "fields")
    for key in DEFAULTS[sec]
    if (sec, key) not in _ENUMS
]
_ODD_TOKENS = st.sampled_from(["", "x", "1e", "0x10", "1_000", "--", "1,5"])
# accepted integer sizes stay small so every example is cheap to run;
# sizes above every bound are rejected before any work starts
_ABOVE_SIZE_BOUNDS = max(high for _, high in SIZE_RANGES.values()) + 1
_INT_VALUES = st.one_of(
    st.integers(-50, 4000).map(str),
    st.integers(_ABOVE_SIZE_BOUNDS, 10**30).map(str),
    _ODD_TOKENS,
)
_FLOAT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e4, 1e4).map(repr),
    st.integers(-5, 5).map(str),
    _ODD_TOKENS,
)


@st.composite
def _config_text(draw):
    chosen = draw(st.sets(st.sampled_from(_FUZZED_KEYS), max_size=4))
    sections: dict[str, list[str]] = {}
    for sec, key in sorted(chosen):
        value = draw(_INT_VALUES if (sec, key) in _INTS else _FLOAT_VALUES)
        sections.setdefault(sec, []).append(f"{key} = {value}")
    return "".join(f"[{sec}]\n" + "\n".join(lines) + "\n" for sec, lines in sections.items())


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    seed=st.one_of(st.none(), st.integers(-(2**66), 2**66).map(str), st.text(max_size=6)),
    config=_config_text(),
    command=st.sampled_from(["figure2", "figure3", "propagate"]),
)
def test_exit_contract_holds_for_fuzzed_inputs(seed, config, command):
    """Any seed token and any numeric [mc]/[input]/[fields] value ends in
    exit 0-3, at most one ``error:`` line and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["--out", os.path.join(tmp, "o"), "--quick"]
        if seed is not None:
            argv += ["--seed", seed]
        if config:
            argv += ["--config", write_config(Path(tmp), config)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv + [command])
    err = stderr.getvalue()
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == (0 if rc == 0 else 1)
    assert all(ln.startswith(("error:", "warning:")) for ln in err.splitlines())


def test_figure2_artifacts_and_numbers(tmp_path, capsys):
    out = str(tmp_path / "f2")
    rc = main(["--out", out, "figure2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "input fwhm: 980.0000 kHz" in text
    assert "narrowing factor:" in text
    narrowing = float(text.split("narrowing factor:")[1].split()[0])
    assert narrowing > 100.0
    for name in (
        "figure2_input.csv",
        "figure2_output.csv",
        "figure2_fit_input.csv",
        "figure2_fit_output.csv",
        "figure2.svg",
        "figure2.meta.txt",
    ):
        assert os.path.isfile(os.path.join(out, name))
    cfg_digest = load_config().digest
    with open(os.path.join(out, "figure2_output.csv")) as fh:
        header = fh.readline()
    assert header.startswith("#") and cfg_digest in header


def test_figure3_width_ratio(tmp_path, capsys):
    out = str(tmp_path / "f3")
    rc = main(["--out", out, "figure3"])
    assert rc == 0
    text = capsys.readouterr().out
    ratio = float(text.split("width ratio (noise/scan):")[1].split()[0])
    assert 0.9 <= ratio <= 1.1


def test_figure3_zero_length_notes_no_resonance(tmp_path, capsys):
    path = write_config(
        tmp_path, "[medium]\nlength_cm = 0\n\n[fields]\nomega_d_mhz = 2.3\n"
    )
    out = str(tmp_path / "f3z")
    rc = main(["--config", path, "--out", out, "figure3"])
    assert rc == 0
    assert "no-resonance" in capsys.readouterr().out
    assert os.path.isfile(os.path.join(out, "figure3_scan.csv"))


def test_figure4_linearity(tmp_path, capsys):
    out = str(tmp_path / "f4")
    rc = main(["--out", out, "figure4"])
    assert rc == 0
    text = capsys.readouterr().out
    r2 = float(text.split("r_squared:")[1].split()[0])
    assert r2 > 0.999
    assert os.path.isfile(os.path.join(out, "figure4.csv"))


def test_figure4_slope_halves_with_doubled_doppler_width(tmp_path, capsys):
    out1 = str(tmp_path / "a")
    main(["--out", out1, "figure4"])
    slope1 = float(capsys.readouterr().out.split("slope:")[1].split()[0])
    # slope = 1/(Delta_W sqrt(d-1)); rescale length to keep d fixed while
    # doubling Delta_W, so the slope halves exactly
    path = write_config(
        tmp_path, "[medium]\ndoppler_fwhm_mhz = 1000\nlength_cm = 5.0\n"
    )
    out2 = str(tmp_path / "b")
    main(["--config", path, "--out", out2, "figure4"])
    slope2 = float(capsys.readouterr().out.split("slope:")[1].split()[0])
    assert slope2 == pytest.approx(0.5 * slope1, rel=0.02)


def test_propagate_command(tmp_path, capsys):
    out = str(tmp_path / "p")
    rc = main(["--out", out, "propagate"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "optical depth eta*L/Delta_W: 6.5015" in text
    assert os.path.isfile(os.path.join(out, "propagate_output.csv"))


def test_model_switches_are_properties_of_the_medium(tmp_path):
    m = load_config().medium
    assert (m.exponent_factor, m.doppler) == (1.0, True)
    path = write_config(
        tmp_path, "[medium]\ndoppler_mode = off\n[propagation]\nexponent_convention = derived\n"
    )
    m = load_config(path).medium
    assert (m.exponent_factor, m.doppler) == (2.0, False)


def _stdout_and_csv_bodies(tmp_path, capsys, name, config_text, command):
    out = tmp_path / name
    path = write_config(tmp_path, config_text, name=f"{name}.ini")
    assert main(["--config", path, "--out", str(out), command]) == 0
    bodies = {
        csv.name: [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
        for csv in sorted(out.glob("*.csv"))
    }
    return capsys.readouterr().out, bodies


@pytest.mark.parametrize("command", ["figure2", "propagate"])
def test_derived_convention_equals_paper_at_double_density(tmp_path, capsys, command):
    """eta is linear in the density and doubling it is exact, so the
    derived convention (2 eta) at the default density prints and writes
    the same numbers as the paper convention (eta) at twice the density,
    auto drive and closed-form width included.  Only the config digest
    in the ``#`` headers differs."""
    derived = _stdout_and_csv_bodies(
        tmp_path, capsys, "derived", "[propagation]\nexponent_convention = derived\n", command
    )
    doubled = _stdout_and_csv_bodies(
        tmp_path, capsys, "doubled", "[medium]\ndensity_cm3 = 6e11\n", command
    )
    assert derived[1]
    assert derived == doubled


def test_closed_form_identity_holds_under_the_derived_convention(tmp_path):
    path = write_config(tmp_path, "[propagation]\nexponent_convention = derived\n")
    record = next(
        r for r in checks.run_checks(load_config(path), quick=True)
        if r.name == "closed-form-identity"
    )
    assert record.passed
    assert record.value <= 1e-6


@pytest.mark.parametrize("convention", ["paper", "derived"])
def test_closed_form_identity_holds_without_doppler(tmp_path, monkeypatch, convention):
    """The closed forms read gamma_ab when the Doppler substitution is
    off, as the exponent does.  The route check is stubbed out: it runs
    at a depth of about 1000 here and is not what this test is about."""
    monkeypatch.setattr(checks, "route_deviations", lambda medium, drive: [])
    path = write_config(
        tmp_path,
        f"[medium]\ndoppler_mode = off\n[propagation]\nexponent_convention = {convention}\n",
    )
    record = next(
        r for r in checks.run_checks(load_config(path), quick=True)
        if r.name == "closed-form-identity"
    )
    assert record.passed
    assert record.value <= 1e-6


def test_figure2_without_doppler_matches_the_closed_form(tmp_path, capsys):
    """With Doppler off the fitted width sits in the same Lorentzian band
    over the closed form as with it on (+25 % to +50 %)."""
    path = write_config(tmp_path, "[medium]\ndoppler_mode = off\n")
    assert main(["--config", path, "--out", str(tmp_path / "f2"), "figure2"]) == 0
    text = capsys.readouterr().out
    deviation = float(text.split("fitted/closed-form deviation:")[1].split("%")[0])
    assert 25.0 <= deviation <= 50.0


def test_too_deep_medium_exits_3_before_marching(tmp_path, capsys, monkeypatch):
    """At 1e15 cm^-3 the correlation route's max |kappa| L exceeds
    ``MAX_REACH``: one ``error: resolution:`` line, exit 3, and no lag
    sweep is run."""
    calls = []
    monkeypatch.setattr(propagation, "g_sweep", lambda *args: calls.append(args))
    path = write_config(tmp_path, "[medium]\ndensity_cm3 = 1e15\n")
    rc = main(["--config", path, "--out", str(tmp_path / "v"), "--quick", "validate"])
    err = capsys.readouterr().err
    assert rc == 3
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: resolution: ")
    assert calls == []


# the names `--quick validate` prints, in order; perfbench parses them
QUICK_CHECKS = ["route-equivalence-1", "route-equivalence-2", "route-equivalence-3", "passivity",
                "shape-independence", "closed-form-identity", "wiener-khinchin-roundtrip",
                "fit-exactness"]


def test_validate_quick(tmp_path, capsys):
    rc = main(["--quick", "--out", str(tmp_path / "v"), "validate"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert "monte-carlo checks skipped" in text
    assert re.findall(r"^PASS ([\w-]+): ", text, re.MULTILINE) == QUICK_CHECKS


def test_validate_reports_a_failed_check(tmp_path, capsys, monkeypatch):
    """The helper is looked up at run time, so a failing value reaches
    the printed record, the summary and the exit code."""
    monkeypatch.setattr(checks, "wiener_khinchin_error", lambda fwhm: 1.0)
    rc = main(["--quick", "--out", str(tmp_path / "v"), "validate"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert [ln for ln in lines if ln.startswith("FAIL")] == [
        "FAIL wiener-khinchin-roundtrip: max deviation 1.000e+00"
    ]
    assert lines[-1] == "7/8 checks passed"


def test_fit_command_round_trip(tmp_path, capsys):
    out = str(tmp_path / "fit")
    main(["--out", out, "figure2"])
    capsys.readouterr()
    rc = main(
        [
            "--out", out,
            "fit", "--input", os.path.join(out, "figure2_input.csv"),
            "--model", "auto",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "model: gaussian" in text
    fwhm = float(text.split("fwhm:")[1].split()[0])
    assert fwhm == pytest.approx(TWO_PI * 980e3, rel=1e-6)
    assert os.path.isfile(os.path.join(out, "fit_curve.csv"))


def test_fit_command_missing_file_exits_2(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "fit", "--input", "/nope.csv"])
    assert rc == 2
    assert "config-not-found" in capsys.readouterr().err


def test_mc_quick_writes_spectrum(tmp_path, capsys):
    out = str(tmp_path / "mc")
    rc = main(["--quick", "--seed", "7", "--out", out, "mc"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "realizations: 32" in text
    path = os.path.join(out, "mc_spectrum.csv")
    with open(path) as fh:
        fh.readline()
        assert fh.readline().strip() == "omega_rad_s,density,stderr"


def test_csv_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    """Fixed seed -> byte-identical CSVs for every artifact command."""
    runs = []
    for tag in ("x", "y"):
        base = tmp_path / tag
        main(["--seed", "42", "--out", str(base / "f2"), "figure2"])
        main(["--seed", "42", "--out", str(base / "f3"), "figure3"])
        main(["--seed", "42", "--out", str(base / "f4"), "figure4"])
        main(["--quick", "--seed", "42", "--out", str(base / "mc"), "mc"])
        runs.append(base)
    capsys.readouterr()
    for sub in ("f2", "f3", "f4", "mc"):
        a_dir = runs[0] / sub
        b_dir = runs[1] / sub
        for name in sorted(os.listdir(a_dir)):
            if not name.endswith(".csv"):
                continue
            a, b = os.path.join(a_dir, name), os.path.join(b_dir, name)
            assert filecmp.cmp(a, b, shallow=False), f"{sub}/{name} differs"


def test_help_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: eitnarrow" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "eitnarrow" in capsys.readouterr().out


def test_thin_medium_and_removed_flag_carry_their_error_codes(tmp_path, capsys):
    """An optically thin medium is a derived parameter the physics
    rejects (``bad-parameter``); ``mc --realizations`` is gone, so the
    parser rejects it (``usage``).  Both exit 2."""
    path = write_config(tmp_path, "[medium]\nlength_cm = 0\n[fields]\nomega_d_mhz = 5\n")
    out = str(tmp_path / "o")
    assert main(["--config", path, "--out", out, "propagate"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: bad-parameter: filter never drops to half maximum (eta*L/Delta_W <= ln 2)"
    ]
    assert main(["--out", out, "mc", "--realizations", "32"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: usage: unrecognized arguments: --realizations 32"
    ]
    assert main(["figure9"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: usage: argument command: invalid choice: 'figure9' (choose from 'figure2', "
        "'figure3', 'figure4', 'validate', 'propagate', 'mc', 'fit')"
    ]
    assert main([]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: usage: the following arguments are required: command"
    ]


EXIT_TABLE = [
    (errors.EitNarrowError("x"), 1, "invariant"),
    (errors.MultimodalSpectrumError("x"), 1, "invariant"),
    (errors.FitFailedError("x"), 1, "invariant"),
    (errors.SingularRateError("x"), 1, "invariant"),
    (errors.InvalidParameterError("x"), 2, "bad-parameter"),
    (errors.OpticallyThinError("x"), 2, "bad-parameter"),
    (errors.ConfigError("x"), 2, "config-error"),
    (errors.ConfigError("x", code="sweep-too-small"), 2, "sweep-too-small"),
    (errors.ResolutionError("x"), 3, "resolution"),
    (errors.UnresolvedWidthError("x"), 3, "resolution"),
]


def test_exit_table_lists_every_package_error():
    defined = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.EitNarrowError)
    }
    assert {type(exc) for exc, _, _ in EXIT_TABLE} == defined


@pytest.mark.parametrize(
    "exc, exit_code, code", EXIT_TABLE, ids=[f"{type(e).__name__}-{c}" for e, _, c in EXIT_TABLE]
)
def test_every_package_error_exits_with_its_code(
    tmp_path, capsys, monkeypatch, exc, exit_code, code
):
    """A command that raises a package error exits with the code its class
    carries and prints one ``error: <code>: <detail>`` line."""

    def fail(cfg, args):
        raise exc

    monkeypatch.setattr(cli, "cmd_propagate", fail)
    assert main(["--out", str(tmp_path / "o"), "propagate"]) == exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {code}: x"]
