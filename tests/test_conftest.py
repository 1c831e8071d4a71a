"""The suite's warning filters, from conftest.py, as a run meets them: a
failing property test reports its falsifying example and the run goes on."""

from __future__ import annotations

import shutil
from pathlib import Path

from support import run_python

PROBE = """\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_own_deprecation_still_fails():
    warnings.warn("deprecated here", DeprecationWarning)


def test_passes():
    pass
"""


def test_failing_property_test_shows_its_example_and_the_run_goes_on(tmp_path):
    # on failure hypothesis imports libcst, whose import warns; as an error,
    # that warning ended the run with INTERNALERROR and no example
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    result = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example: test_fails(" in result.stdout
    assert "FAILED test_probe.py::test_own_deprecation_still_fails - DeprecationWarning" in result.stdout
    assert "2 failed, 1 passed" in result.stdout
