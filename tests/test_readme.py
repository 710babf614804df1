"""The README's library example runs against the current API."""

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_example_prints_the_output_width():
    """The python block under "## Library" runs and prints the fitted
    Lorentzian FWHM of the transmitted line, 6.34 kHz within 1 %."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    assert float(out.getvalue()) == pytest.approx(6.34, rel=0.01)
