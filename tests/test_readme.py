"""The README's library example runs against the current API, and its
size table states the bounds of the key table."""

import contextlib
import io
import os
import re

import pytest

from eitnarrow.config import KEYS, MAX_MC_ELEMENTS, MAX_MC_SAMPLES

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_library_example_prints_the_output_width():
    """The python block under "## Library" runs and prints the fitted
    Lorentzian FWHM of the transmitted line, 6.34 kHz within 1 %."""
    text = _readme()
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    assert float(out.getvalue()) == pytest.approx(6.34, rel=0.01)


_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _count(text):
    """``8`` or ``10⁶`` as an int."""
    if text.startswith("10") and len(text) > 2:
        return 10 ** int(text[2:].translate(_SUPERSCRIPTS))
    return int(text)


def test_size_table_states_the_key_bounds():
    """Each row ``| `[section] key` | low … high |`` of the size table is
    the bounds of that key's row in ``config.KEYS``, every bounded key
    has one, and the two Monte-Carlo rows state ``MAX_MC_SAMPLES`` and
    ``MAX_MC_ELEMENTS``."""
    table = _readme().split("| key | allowed |\n", 1)[1].split("\n- ", 1)[0]
    ranges = re.findall(r"\| `\[(\w+)\] (\w+)` \| (\S+) … (\S+) \|", table)
    assert {(sec, key): (_count(low), _count(high)) for sec, key, low, high in ranges} == {
        (row.section, row.name): row.bounds for row in KEYS if row.bounds
    }
    limits = re.findall(r"\| ≤ (\S+) \|", table)
    assert [_count(v) for v in limits] == [MAX_MC_SAMPLES, MAX_MC_ELEMENTS]
