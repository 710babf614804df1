"""Configuration loading, CLI exit codes, artifacts and determinism."""

import builtins
import contextlib
import filecmp
import io
import os
import re
import subprocess
import sys
import tempfile
import types
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitnarrow
from eitnarrow import checks, cli, errors
from eitnarrow import config as config_module
from eitnarrow import fitting, mc, noise, propagation
from eitnarrow.artifacts import write_sidecar
from eitnarrow.cli import main
from eitnarrow.config import DEFAULTS, KEYS, RunConfig, config_digest, load_config
from eitnarrow.errors import ConfigError, ResolutionError
from eitnarrow.fitting import linear_fit
from eitnarrow.medium import AtomicMedium, FieldConfig, complex_rates, coupling_eta
from eitnarrow.medium import drive_for_target_width
from paper_params import paper_medium

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


def test_defaults_are_the_acceptance_parameters():
    """The acceptance criteria run at ``load_config()``: its medium, auto
    drive, input line, output grid and power sweep are the paper's
    parameters, to rounding, so a drifting default fails here."""
    cfg = load_config()
    medium = paper_medium()
    assert asdict(cfg.medium) == pytest.approx(asdict(medium), rel=1e-15)
    drive = drive_for_target_width(medium, TWO_PI * 4.6e3)
    assert cfg.fields == FieldConfig(omega_d=cfg.fields.omega_d)
    assert cfg.fields.omega_d == pytest.approx(drive, rel=1e-15)
    assert cfg.input_shape == "gaussian"
    assert cfg.input_fwhm == pytest.approx(TWO_PI * 980e3, rel=1e-15)
    assert (cfg.span_factor, cfg.grid_points) == (6.0, 3001)
    sweep = TWO_PI * 1e6 * np.linspace(2.0, 6.5, 8)
    assert cfg.sweep_omega_d == pytest.approx(sweep, rel=1e-15)


def test_default_coupling_is_the_d1_line_value():
    """eta at the default density, bit for bit: the D1 wavelength is
    794.98 nm times 1e-9, one ulp from the literal 794.98e-9."""
    assert coupling_eta(load_config().medium) == 817000377878.9202


def test_seed_override_changes_digest_only_in_run_section():
    a = load_config()
    b = load_config(seed=999)
    assert b.seed == 999
    assert a.digest != b.digest
    assert a.resolved["medium"] == b.resolved["medium"]


@pytest.mark.parametrize("key, words", [
    ("shape", ("gaussian", "GAUSSIAN", "Gaussian")),
])
def test_a_word_key_is_recorded_as_the_word_that_runs(tmp_path, key, words):
    """A word is read in any case and recorded in lower case: each
    spelling gives one digest and byte-identical sidecars, and the
    defaults keep their digest."""
    assert load_config().digest == "608cebb4c16f"
    section = next(row.section for row in KEYS if row.name == key)
    sidecars, digests = [], set()
    for i, word in enumerate(words):
        cfg = load_config(write_config(tmp_path, f"[{section}]\n{key} = {word}\n"))
        assert cfg.resolved[section][key] == words[0]
        path = tmp_path / f"{i}.meta.txt"
        write_sidecar(str(path), cfg.resolved, cfg.digest)
        sidecars.append(path.read_bytes())
        digests.add(cfg.digest)
    assert digests == {load_config().digest} and sidecars[1:] == sidecars[:-1]


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
    """Each size key accepts its bounds and rejects one step beyond
    either of them."""
    # 500 samples per realization keep the largest ensemble in bounds
    extra = {"mc": "duration_ms = 0.05\n"}
    sized = [row for row in KEYS if row.bounds]
    assert len(sized) == 4
    for row in sized:
        low, high = row.bounds
        text = f"[{row.section}]\n{extra.get(row.section, '')}{row.name} = "
        for value in (low, high):
            cfg = load_config(write_config(tmp_path, f"{text}{value}\n"))
            assert cfg.resolved[row.section][row.name] == str(value)
        for value in (low - 1, high + 1):
            with pytest.raises(ConfigError) as err:
                load_config(write_config(tmp_path, f"{text}{value}\n"))
            assert err.value.code == "bad-parameter"
            assert str(err.value) == f"{row.name} must lie in [{low}, {high}], got {value}"


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


def test_module_docstring_states_the_default_of_each_row():
    """Each default in parentheses in the ``config`` docstring is its
    row's ``default``: ``omega_d_mhz (0 = auto)`` states 0, and the
    ``rho_aa, rho_cc`` line states one default per key."""
    documented = {}
    entries = re.findall(r"^ {4}(\w+(?:, \w+)*) .*?\(([^)]*)\)", config_module.__doc__, re.M)
    for names, defaults in entries:
        values = defaults.split(" = ")[0].split(", ")
        documented.update(zip(names.split(", "), values, strict=True))
    assert documented == {row.name: row.default for row in KEYS}


# the class whose fields each section's keys fill; [sweep] keys fill none
_FILLED_BY = {
    "medium": AtomicMedium,
    "fields": FieldConfig,
    "input": RunConfig,
    "mc": RunConfig,
    "run": RunConfig,
}
# the fields of RunConfig that load_config derives rather than reads from a row
_DERIVED_RUN_FIELDS = {"medium", "fields", "sweep_omega_d", "resolved", "digest"}


def test_every_named_field_belongs_to_its_section_class():
    for row in KEYS:
        if row.field:
            assert row.field in _FILLED_BY[row.section].__dataclass_fields__, row


def test_every_field_is_filled_by_exactly_one_row():
    for cls in dict.fromkeys(_FILLED_BY.values()):
        expected = set(cls.__dataclass_fields__)
        if cls is RunConfig:
            expected -= _DERIVED_RUN_FIELDS
        filled = [row.field for row in KEYS if row.field and _FILLED_BY.get(row.section) is cls]
        assert sorted(filled) == sorted(expected), cls.__name__


def test_target_width_and_sweep_keys_fill_no_field():
    empty = {row.name for row in KEYS if not row.field}
    sweep = {row.name for row in KEYS if row.section == "sweep"}
    assert empty == {"target_width_khz"} | sweep
    assert sweep == {"omega_d_min_mhz", "omega_d_max_mhz", "points"}


@pytest.mark.parametrize("row", KEYS, ids=lambda row: row.name)
def test_every_key_rejects_a_malformed_value(tmp_path, row):
    """Every key is checked against its row, whether or not the run reads
    it: with an explicit drive, ``target_width_khz`` is not used, yet
    ``x`` there is still an error naming the key."""
    sections = {row.section: f"{row.name} = x\n"}
    if row.name != "omega_d_mhz":
        sections["fields"] = sections.get("fields", "") + "omega_d_mhz = 2.3\n"
    text = "".join(f"[{sec}]\n{body}" for sec, body in sections.items())
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, text))
    assert err.value.code in ("bad-number", "bad-enum")
    assert repr(row.name) in str(err.value)


# ---------------------------------------------------------------------------
# CLI behaviour and exit codes
# ---------------------------------------------------------------------------


def test_cli_missing_config_exits_2(tmp_path, capsys):
    rc = main(["--config", "/nope.ini", "--out", str(tmp_path), "figure2"])
    assert rc == 2
    assert "error: config-not-found:" in capsys.readouterr().err


def test_cli_bad_enum_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "[input]\nshape = guess\n")
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


@pytest.mark.parametrize("text", [
    "[sweep]\npoints = 3\n",
    "[sweep]\nomega_d_min_mhz = 4.0\nomega_d_max_mhz = 6.0\n",
], ids=["three-points", "under-a-decade"])
def test_figure4_and_criterion_3_refuse_the_same_sweep(tmp_path, capsys, text):
    """Three points, or eight spanning 2.25 in |Omega_d|^2: ``figure4``
    exits 2 and the acceptance criteria raise, with one code."""
    path = write_config(tmp_path, text)
    assert main(["--config", path, "--out", str(tmp_path / "o"), "figure4"]) == 2
    assert capsys.readouterr().err.startswith("error: sweep-too-small: ")
    with pytest.raises(ConfigError) as err:
        list(checks.run_criteria(load_config(path)))
    assert err.value.code == "sweep-too-small"


@pytest.mark.parametrize("low", ["0", "-6.5"])
def test_figure4_and_criterion_3_refuse_a_non_positive_drive_by_key(tmp_path, capsys, low):
    """A zero drive (which reached the grid builder) or a negative one
    (whose |Omega_d|^2 repeat the positive points) is refused with
    ``bad-parameter`` by ``figure4`` and by the acceptance criteria,
    naming the sweep key."""
    path = write_config(tmp_path, f"[sweep]\nomega_d_min_mhz = {low}\n")
    assert main(["--config", path, "--out", str(tmp_path / "o"), "figure4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: bad-parameter: [sweep] omega_d_min_mhz = {low} ")
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError) as err:
        list(checks.run_criteria(load_config(path)))
    assert err.value.code == "bad-parameter"
    assert "[sweep] omega_d_min_mhz" in str(err.value)


def test_criterion_3_judges_the_points_figure4_writes(tmp_path, capsys):
    """With gamma_cb = 2 pi * 20 Hz the 0.2 MHz point has validity ratio 4:
    ``figure4`` warns and leaves it out of its CSV, and criterion 3 fits
    exactly the CSV's rows and fails for the excluded point alone (its R^2
    and intercept pass)."""
    path = write_config(
        tmp_path, "[medium]\ngamma_cb_hz = 20\n[sweep]\nomega_d_min_mhz = 0.2\n"
    )
    out = tmp_path / "f4"
    assert main(["--config", path, "--out", str(out), "figure4"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: point |Omega_d| = 0.2000 MHz excluded (adiabatic validity ratio 4.00 < 10)"
    ]
    x, y = np.loadtxt(out / "figure4.csv", delimiter=",", skiprows=2).T
    assert x.size == 7
    with pytest.warns(UserWarning, match="0.2000 MHz excluded"):
        record = next(r for r in checks.run_criteria(load_config(path)) if r.name == "criterion 3")
    assert not record.passed
    assert record.value == linear_fit(x, y)[2] > 0.999
    assert record.detail.endswith(", 1 of 8 points fail the adiabatic check")


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
        pytest.param("[fields]\nomega_p_mhz = 1\n", ["--quick", "mc"], id="removed-probe-key"),
        pytest.param(
            "[propagation]\nexponent_convention = derived\n",
            ["figure2"],
            id="removed-convention-key",
        ),
        pytest.param("[mc]\nrealizations = 100001\n", ["--quick", "mc"], id="huge-realizations"),
        pytest.param("[mc]\nslices = 10001\n", ["--quick", "mc"], id="huge-slices"),
        pytest.param("[sweep]\npoints = 10001\n", ["figure4"], id="huge-sweep"),
        pytest.param("[mc]\ndt_us = 1e-6\n", ["figure2"], id="huge-sample-count"),
        pytest.param("[mc]\nrealizations = 20000\n", ["--quick", "mc"], id="huge-ensemble"),
        pytest.param("[mc]\nfull_integration = on\n", ["propagate"], id="removed-key"),
        pytest.param(
            "[medium]\nwavelength_nm = 794.98\n", ["propagate"], id="removed-wavelength-key"
        ),
        pytest.param(
            "[medium]\ngamma_r_per_s = 3.61e7\n", ["propagate"], id="removed-gamma-r-key"
        ),
        pytest.param(
            "[mc]\ndrive_diffusion_khz = 1\n", ["propagate"], id="removed-drive-noise-key"
        ),
        pytest.param(
            "[medium]\ndoppler_mode = off\n", ["propagate"], id="removed-doppler-mode-key"
        ),
        pytest.param("[fields]\nrho_bb = 1\n", ["propagate"], id="removed-rho-bb-key"),
        pytest.param(None, ["fit", "--input", "UNEVEN_CSV"], id="non-uniform-fit-input"),
        pytest.param(b"\xff\xfe[mc]\nslices = 8\n", ["--quick", "mc"], id="non-utf8-config"),
        pytest.param(None, ["fit", "--input", "NON_UTF8_CSV"], id="non-utf8-fit-input"),
        pytest.param(
            "[fields]\nomega_d_mhz = 2.3\ntarget_width_khz = abc\n",
            ["figure2"],
            id="unused-bad-target-width",
        ),
        pytest.param("[DEFAULT]\nlength_cm = 5.0\n", ["propagate"], id="default-section"),
        pytest.param(
            "[DEFAULT]\nlength_cm = 5.0\n[medium]\n", ["propagate"], id="default-section-merged"
        ),
        pytest.param("[DEFAULT]\nseed = 3\n[medium]\n", ["propagate"], id="default-section-seed"),
        *(
            pytest.param(
                "[medium]\nlength_cm = 0\n[fields]\nomega_d_mhz = 5\n",
                argv,
                id=f"thin-medium-{name}",
            )
            for name, argv in (
                ("propagate", ["propagate"]),
                ("figure2", ["figure2"]),
                ("figure3", ["figure3"]),
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
    # a key that no row of KEYS names, a removed one included, is unknown
    first = re.match(r"\[(\w+)\]\n(\w+) =", config) if isinstance(config, str) else None
    if first and (first[1], first[2]) not in {(k.section, k.name) for k in KEYS}:
        assert lines[0].startswith("error: unknown-key: ")
    # a thin medium is refused before any output directory is made
    if isinstance(config, str) and "length_cm = 0" in config:
        assert not os.path.exists(tmp_path / "o")
    # configparser would merge [DEFAULT] into every section
    if isinstance(config, str) and config.startswith("[DEFAULT]"):
        assert lines == ["error: unknown-key: unknown section [DEFAULT]"]


def test_a_malformed_key_is_reported_before_a_physical_fault(tmp_path, capsys):
    """Every key is checked against its row before the medium is built."""
    path = write_config(tmp_path, "[medium]\ndensity_cm3 = -1\n[mc]\nslices = x\n")
    assert main(["--config", path, "--out", str(tmp_path / "o"), "propagate"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bad-number: key 'slices' in [mc] must be an integer, got 'x'"
    ]


@pytest.mark.parametrize(
    "command, code",
    [("figure2", "config-parse-error"), ("fit", "bad-parameter")],
    ids=["config", "fit-input"],
)
def test_unreadable_file_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, command, code):
    """A config file or fit input that exists but cannot be opened exits
    2 with one ``error:`` line: the config is not replaced by the
    defaults, and the fit input raises no traceback.  ``open`` is patched
    to refuse the file, because a root user can open any file."""
    if command == "fit":
        path = _bad_spectrum_csv(tmp_path)
        argv = ["fit", "--input", path]
    else:
        path = write_config(tmp_path, "[medium]\nlength_cm = 5.0\n")
        argv = ["--config", path, command]
    real_open = builtins.open

    def refusing_open(file, *args, **kwargs):
        if file == path:
            raise PermissionError(13, "Permission denied", path)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refusing_open)
    rc = main(["--out", str(tmp_path / "o")] + argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.strip().splitlines() == [
        f"error: {code}: cannot read {path}: [Errno 13] Permission denied: {path!r}"
    ]


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


def test_an_unresolved_output_line_exits_3_with_one_error_line(tmp_path, capsys):
    """On 9 grid points the fitted output FWHM spans 0.37 steps: figure2
    and the acceptance criteria refuse it instead of reporting a
    narrowing factor.  At span_factor 1e4 (0.10 steps) figure2 refuses
    the line before it fits the input on a grid too coarse for that fit."""
    for text, steps in (("grid_points = 9", "0.37"), ("span_factor = 1e4", "0.10")):
        path = write_config(tmp_path, f"[input]\n{text}\n")
        rc = main(["--config", path, "--out", str(tmp_path / "o"), "figure2"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert err.strip().splitlines() == [
            f"error: resolution: output fwhm spans {steps} grid steps, fewer than 4; "
            "raise [input] grid_points"
        ]
    cfg = load_config(write_config(tmp_path, "[input]\ngrid_points = 9\n"))
    with pytest.raises(ResolutionError, match="spans 0.37 grid steps"):
        next(checks.run_criteria(cfg))


@pytest.mark.parametrize("points", range(9, 21))
def test_every_unresolved_output_grid_exits_3(tmp_path, capsys, points):
    """From 9 to 20 grid points the predicted output FWHM spans (points -
    1) / 12 < 4 steps.  Whether the Lorentzian fit converges (9, 11, 13,
    15, 17 to 20) or not (10, 12, 14, 16), figure2 exits 3 with one
    ``error: resolution:`` line and writes nothing to stdout."""
    path = write_config(tmp_path, f"[input]\ngrid_points = {points}\n")
    rc = main(["--config", path, "--out", str(tmp_path / "o"), "figure2"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: resolution: ")
    assert lines[0].endswith("; raise [input] grid_points")


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


def test_warnings_print_as_one_line_on_every_run(tmp_path, capsys, monkeypatch):
    """A warning raised inside a command prints as one ``warning:`` line,
    its message joined onto that line, each time the command runs."""

    def warns(cfg, args):
        warnings.warn("probe Rabi frequency is not small\nagainst the drive", UserWarning)
        return 0

    monkeypatch.setattr(cli, "cmd_figure2", warns)
    for _ in range(2):
        rc = main(["--out", str(tmp_path / "o"), "figure2"])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 0
        assert len(lines) == 1
        assert lines[0].startswith("warning: probe Rabi frequency is not small")


# every numeric key: all but the enumerated ones
_FUZZED_KEYS = [row for row in KEYS if row.kind in (int, float)]
_ODD_TOKENS = st.sampled_from(["", "x", "1e", "0x10", "1_000", "--", "1,5"])
# accepted integer sizes stay small so every example is cheap to run;
# sizes above every bound are rejected before any work starts
_ABOVE_SIZE_BOUNDS = max(row.bounds[1] for row in KEYS if row.bounds) + 1
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
    for row in sorted(chosen):
        value = draw(_INT_VALUES if row.kind is int else _FLOAT_VALUES)
        sections.setdefault(row.section, []).append(f"{row.name} = {value}")
    return "".join(f"[{sec}]\n" + "\n".join(lines) + "\n" for sec, lines in sections.items())


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    seed=st.one_of(st.none(), st.integers(-(2**66), 2**66).map(str), st.text(max_size=6)),
    config=_config_text(),
    command=st.sampled_from(["figure2", "figure3", "figure4", "propagate"]),
)
def test_exit_contract_holds_for_fuzzed_inputs(seed, config, command):
    """Any seed token and any value of up to four numeric keys of the key
    table ends in exit 0-3, at most one ``error:`` line and no
    traceback."""
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
        "figure2.svg",
        "figure2.meta.txt",
    ):
        assert os.path.isfile(os.path.join(out, name))
    for name in ("figure2_fit_input.csv", "figure2_fit_output.csv"):
        assert not os.path.exists(os.path.join(out, name))
    cfg_digest = load_config().digest
    with open(os.path.join(out, "figure2_output.csv")) as fh:
        header = fh.readline()
    assert header.startswith("#") and cfg_digest in header


def test_rerun_creates_each_output_anew(tmp_path, capsys):
    """Re-running figure2 into its own directory with another drive
    removes each old output before writing it: a hard link to an old
    file keeps the old bytes and is no longer the output."""
    out = tmp_path / "f2"
    assert main(["--out", str(out), "figure2"]) == 0
    names = ("figure2_input.csv", "figure2_output.csv", "figure2.svg", "figure2.meta.txt")
    old = {}
    for name in names:
        os.link(out / name, tmp_path / name)
        old[name] = (tmp_path / name).read_bytes()
    path = write_config(tmp_path, "[fields]\ntarget_width_khz = 4.4\n")
    assert main(["--config", path, "--out", str(out), "figure2"]) == 0
    capsys.readouterr()
    for name in names:
        assert (tmp_path / name).read_bytes() == old[name], name
        assert not os.path.samefile(tmp_path / name, out / name), name
        assert (out / name).read_bytes() != old[name], name


@pytest.mark.parametrize(
    "case, command",
    [
        ("out-is-a-file", "figure2"),
        ("out-is-empty", "propagate"),
        ("output-is-a-directory", "propagate"),
    ],
)
def test_an_output_that_cannot_be_created_exits_2(tmp_path, capsys, monkeypatch, case, command):
    """An ``--out`` that names a file, an empty ``--out`` and an output
    file name that is a directory each exit 2 with one ``bad-output``
    line naming the path, and no traceback; ``figure2`` prints its
    widths before it writes."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "o"
    if case == "out-is-a-file":
        out.write_text("")
    elif case == "output-is-a-directory":
        (out / "propagate_input.csv").mkdir(parents=True)
    before = sorted(os.listdir(tmp_path))
    rc = main(["--out", "" if case == "out-is-empty" else str(out), command])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad-output: cannot create ")
    assert f"{command}_input.csv" in lines[0]
    assert sorted(os.listdir(tmp_path)) == before


def _sidecar_values(path):
    with open(path) as fh:
        return dict(ln.rstrip("\n").split("=", 1) for ln in fh if not ln.startswith("#"))


def test_figure2_sidecar_rebuilds_the_output_fit(tmp_path, capsys):
    """The ``fit_output_*`` lines of ``figure2.meta.txt`` read back, bit for
    bit, as the output line's ``FitResult``, and the model rebuilds its
    curve from them."""
    out = tmp_path / "f2"
    assert main(["--out", str(out), "figure2"]) == 0
    capsys.readouterr()
    cfg = load_config()
    grid = cfg.output_grid()
    fit = cfg.output_line(cfg.fields, grid)[2]
    values = _sidecar_values(out / "figure2.meta.txt")
    assert values["fit_output_model"] == fit.model == "lorentzian"
    params = [float(values[f"fit_output_{k}"]) for k in ("amplitude", "center", "width")]
    assert [v.hex() for v in params] == [v.hex() for v in (fit.amplitude, fit.center, fit.width)]
    assert float(values["fit_output_fwhm"]).hex() == fit.fwhm.hex()
    model = fitting._MODELS[values["fit_output_model"]]
    rebuilt = model(grid.omegas, *params)[0]
    expected = model(grid.omegas, fit.amplitude, fit.center, fit.width)[0]
    assert rebuilt.tobytes() == expected.tobytes()
    assert values["fit_input_model"] == "gaussian"
    assert float(values["fit_input_fwhm"]) == pytest.approx(TWO_PI * 980e3, rel=1e-12)


def test_figure2_fits_the_input_with_its_configured_shape(tmp_path, capsys):
    """A Lorentzian input line is fitted as a Lorentzian: its 980 kHz
    FWHM is recovered and the narrowing factor rests on it."""
    path = write_config(tmp_path, "[input]\nshape = lorentzian\n")
    assert main(["--config", path, "--out", str(tmp_path / "f2"), "figure2"]) == 0
    text = capsys.readouterr().out
    assert "input fwhm: 980.0000 kHz (lorentzian fit)" in text
    assert "narrowing factor: 154.6" in text


def test_figure3_width_ratio(tmp_path, capsys):
    out = str(tmp_path / "f3")
    rc = main(["--out", out, "figure3"])
    assert rc == 0
    text = capsys.readouterr().out
    ratio = float(text.split("width ratio (noise/scan):")[1].split()[0])
    assert 0.9 <= ratio <= 1.1


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
    """The Doppler width is the one model switch, and the medium holds it."""
    assert load_config().medium.doppler is True
    path = write_config(tmp_path, "[medium]\ndoppler_fwhm_mhz = 0\n")
    assert load_config(path).medium.doppler is False


def test_zero_doppler_width_runs_the_homogeneous_medium(tmp_path, capsys):
    """``doppler_fwhm_mhz = 0`` is the homogeneous medium: the rates are
    gamma_ab and gamma_ac, and figure2 runs on them."""
    path = write_config(tmp_path, "[medium]\ndoppler_fwhm_mhz = 0\n")
    cfg = load_config(path)
    rates = complex_rates(cfg.medium, cfg.fields)
    assert rates.gamma_ab == cfg.medium.gamma_ab == 2e7
    assert rates.gamma_ca == cfg.medium.gamma_ac
    assert main(["--config", path, "--out", str(tmp_path / "f2"), "figure2"]) == 0
    assert "narrowing factor: 162.7" in capsys.readouterr().out


def test_rho_bb_is_derived_from_the_other_populations(tmp_path):
    cfg = load_config(write_config(tmp_path, "[fields]\nrho_cc = 0.3\n"))
    assert (cfg.fields.n_ab, cfg.fields.n_ca) == (-0.7, 0.3)


def test_populations_above_one_are_refused_by_key(tmp_path, capsys):
    """rho_aa + rho_cc > 1 leaves rho_bb negative: exit 2, one line
    naming both keys and their values."""
    path = write_config(tmp_path, "[fields]\nrho_aa = 0.6\nrho_cc = 0.6\n")
    rc = main(["--config", path, "--out", str(tmp_path / "p"), "propagate"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error: bad-parameter: ")
    assert "rho_aa = 0.6" in lines[0] and "rho_cc = 0.6" in lines[0]


def test_closed_form_identity_holds_under_the_derived_convention(tmp_path):
    """The Bloch reduction's coupling 2 eta at the default density N is
    eta at 2N."""
    path = write_config(tmp_path, "[medium]\ndensity_cm3 = 6e11\n")
    record = next(
        r for r in checks.run_checks(load_config(path), quick=True)
        if r.name == "closed-form-identity"
    )
    assert record.passed
    assert record.value <= 1e-6


# density N, and 2N: the coupling 2 eta of the Bloch reduction at N
@pytest.mark.parametrize("density", ["3e11", "6e11"], ids=["paper", "derived"])
def test_closed_form_identity_holds_without_doppler(tmp_path, monkeypatch, density):
    """The closed forms read gamma_ab when the Doppler substitution is
    off, as the exponent does.  The route check is stubbed out: it runs
    at a depth of about 1000 here and is not what this test is about."""
    monkeypatch.setattr(checks, "route_deviations", lambda medium, drive: [])
    path = write_config(
        tmp_path, f"[medium]\ndoppler_fwhm_mhz = 0\ndensity_cm3 = {density}\n"
    )
    record = next(
        r for r in checks.run_checks(load_config(path), quick=True)
        if r.name == "closed-form-identity"
    )
    assert record.passed
    assert record.value <= 1e-6


def test_figure2_without_doppler_matches_the_closed_form(tmp_path, capsys):
    """At Doppler width 0 the fitted width sits in the same Lorentzian
    band over the closed form as in the Doppler-broadened medium (+25 %
    to +50 %)."""
    path = write_config(tmp_path, "[medium]\ndoppler_fwhm_mhz = 0\n")
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


def test_route_problem_with_no_output_exits_3_before_marching(tmp_path, capsys, monkeypatch):
    """At Doppler width 0.5 MHz (depth 6 501) the third route problem's
    Fourier output underflows to 0 at every frequency: validate refuses
    with one ``error: resolution:`` line naming the problem, exit 3,
    before any problem is marched."""
    marched = []
    monkeypatch.setattr(propagation, "_integrate_correlation", lambda *a: marched.append(a))
    path = write_config(tmp_path, "[medium]\ndoppler_fwhm_mhz = 0.5\n")
    rc = main(["--config", path, "--out", str(tmp_path / "v"), "--quick", "validate"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert err.splitlines() == [
        "error: resolution: route problem 3: the Fourier output density underflows to 0"
    ]
    assert "route-equivalence" not in out
    assert marched == []


def test_doppler_off_quick_validate_passes_every_route_problem(tmp_path, capsys):
    """At Doppler width 0 (depth 4 300) each route problem is sized from
    its own output line, h/Re Gamma_cb_eff 0.026 to 0.029: all eight
    checks pass, and each route deviation stays within 1e-5 of R(0)
    (7.0e-7 at most measured)."""
    path = write_config(tmp_path, "[medium]\ndoppler_fwhm_mhz = 0\n")
    rc = main(["--config", path, "--out", str(tmp_path / "v"), "--quick", "validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out and out.splitlines()[-1] == "8/8 checks passed"
    devs = [float(v) for v in re.findall(r"^PASS route-equivalence-\d: max deviation (\S+)$",
                                         out, re.MULTILINE)]
    assert len(devs) == 3 and max(devs) <= 1e-5


@pytest.mark.parametrize(
    "density, limit", [(2.4e12, 1e-6), (5e10, 1e-6)], ids=["8x", "thin"]
)
def test_route_deviations_follow_the_output_line(tmp_path, density, limit):
    """Sized from its own output line, each route problem matches the
    Fourier route within 1e-6 of R(0) at 8 times the default density
    (depth 52; 3.9e-8 measured, where sizing from Re Gamma_cb_eff read
    8.5e-4) and in a thin medium at 1/6 of it (depth 1.1), where h
    exceeds Re Gamma_cb_eff / 2 and that cap sizes the problem (1.3e-7
    measured)."""
    cfg = load_config(write_config(tmp_path, f"[medium]\ndensity_cm3 = {density:g}\n"))
    devs = checks.route_deviations(cfg.medium, abs(cfg.fields.omega_d))
    assert len(devs) == 3 and max(devs) <= limit


@pytest.mark.parametrize("points, match", [(401, "steps per fwhm"), (801, "period")])
def test_an_unresolved_route_problem_exits_3_before_marching(
    tmp_path, capsys, monkeypatch, points, match
):
    """Route problems built on ``points`` grid points over their +-120 h
    in place of 1201: on 401 each resolves its transfer by about 3.4
    grid steps per FWHM, fewer than ``MIN_STEPS_PER_FWHM``; on 801 by
    6.7, but the grid's period 2 pi/domega is shorter than the two-sided
    lag range.  Either exits 3 with one ``error: resolution:`` line, no
    verdict and no lag sweep."""
    grid = checks.FrequencyGrid
    monkeypatch.setattr(checks, "FrequencyGrid", types.SimpleNamespace(
        spanning=lambda half, count: grid.spanning(half, points if count == 1201 else count)
    ))
    calls = []
    monkeypatch.setattr(propagation, "g_sweep", lambda *args: calls.append(args))
    rc = main(["--out", str(tmp_path / "v"), "--quick", "validate"])
    out, err = capsys.readouterr()
    assert rc == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: resolution: ") and match in lines[0]
    assert "route-equivalence" not in out and "FAIL" not in out
    assert calls == []


def test_an_uncomputable_check_exits_3_and_prints_no_verdict(tmp_path, capsys):
    """At a 1e9 MHz drive the output density underflows to 0/0 in the
    transfer ratio: passivity's value is NaN, so validate refuses with
    one ``error: resolution:`` line naming the check, not a PASS or FAIL
    resting on NaN, and the division prints no warning before it."""
    path = write_config(tmp_path, "[fields]\nomega_d_mhz = 1e9\n")
    rc = main(["--config", path, "--out", str(tmp_path / "v"), "--quick", "validate"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert err.splitlines() == [
        "error: resolution: check passivity: its value is NaN and decides nothing"
    ]
    assert "passivity" not in out and "FAIL" not in out and "checks passed" not in out
    with pytest.raises(ResolutionError, match="check shape-independence"):
        checks.CheckRecord("shape-independence", False, float("nan"), "")


@pytest.mark.parametrize("quick", [False, True], ids=["mc", "quick-mc"])
def test_unsettled_slab_exits_3_before_any_buffer(tmp_path, capsys, monkeypatch, quick):
    """At Doppler width 0 the slab's impulse response does not settle
    within the 10 000-sample record: over two records it keeps 0.996 of
    its L1 mass in the second with 8 slices, and 1.00 with 64, whose
    response peaks 36 848 samples after its unit sample.  ``mc`` refuses with one ``error:
    resolution:`` line naming ``[mc] slices``, ``dt_us`` and
    ``duration_ms``, exit 3, before any synthesizer is built or any
    realization drawn."""
    built = []
    monkeypatch.setattr(mc, "_probe_synthesizer", lambda *args: built.append(args))
    monkeypatch.setattr(noise, "realization_rng", lambda *args: built.append(args))
    for slices, share in ((8, "0.996"), (64, "1")):
        path = write_config(
            tmp_path, f"[medium]\ndoppler_fwhm_mhz = 0\n[mc]\nslices = {slices}\n"
        )
        argv = ["--config", path, "--out", str(tmp_path / "mc")]
        rc = main(argv + (["--quick", "mc"] if quick else ["mc"]))
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("error: resolution: ")
        assert f"keeps {share} of its L1 mass" in lines[0]
        assert (
            f"[mc] duration_ms = 1 at [mc] slices = {slices} and dt_us = 0.1" in lines[0]
        )
    assert built == []


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


def test_criteria_5_and_8_are_validates_records(monkeypatch):
    """Criteria 5 and 8 take their verdicts and values from the records of
    ``--quick validate``, so a failing round trip fails both together."""
    cfg = load_config()

    def records():
        quick = {r.name: r for r in checks.run_checks(cfg, quick=True)}
        crit = {r.name: r for r in checks.run_criteria(cfg)}
        return quick, crit["criterion 5"], crit["criterion 8"]

    quick, c5, c8 = records()
    routes = [quick[f"route-equivalence-{i}"] for i in (1, 2, 3)]
    assert c5.passed and c5.value == max(r.value for r in routes)
    detail = ", ".join(f"{r.value:.2e}" for r in routes)
    assert c5.detail == f"route deviations [{detail}] (limit 1e-3)"
    fit, wk = quick["fit-exactness"], quick["wiener-khinchin-roundtrip"]
    assert c8.passed and c8.value == max(fit.value, wk.value)
    assert c8.detail.startswith(fit.detail + ", Wiener-Khinchin round trip ")

    monkeypatch.setattr(checks, "wiener_khinchin_error", lambda fwhm: 1.0)
    quick, c5, c8 = records()
    assert not quick["wiener-khinchin-roundtrip"].passed and not c8.passed
    assert c8.value == 1.0 and c5.passed


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
    assert os.path.isfile(os.path.join(out, "fit.meta.txt"))
    assert not os.path.exists(os.path.join(out, "fit_curve.csv"))


def test_fit_sidecar_holds_the_printed_parameters(tmp_path, capsys):
    """``fit.meta.txt`` records the model and the exact ``repr``s of the
    centre, width and FWHM that ``fit`` prints."""
    out = tmp_path / "fit"
    assert main(["--out", str(out), "figure2"]) == 0
    capsys.readouterr()
    assert main(["--out", str(out), "fit", "--input", str(out / "figure2_output.csv")]) == 0
    printed = dict(ln.split(": ", 1) for ln in capsys.readouterr().out.splitlines())
    values = _sidecar_values(out / "fit.meta.txt")
    assert values["fit_model"] == printed["model"]
    assert f"{values['fit_center']} rad/s" == printed["center"]
    assert f"{values['fit_width']} rad/s" == printed["width parameter"]
    assert f"{values['fit_fwhm']} rad/s" == printed["fwhm"]
    assert float(values["fit_amplitude"]) > 0
    assert values["config_digest"] == load_config().digest


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
