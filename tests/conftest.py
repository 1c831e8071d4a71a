"""Every test under tests/ runs with warnings as errors.

The mark is added here rather than in pyproject.toml, which the benchmark
suite under perfbench/tests shares.  One warning is exempt: when a
hypothesis test fails, its report hook imports libcst, whose import warns
that mypy_extensions.TypedDict is deprecated; as an error, that warning
aborts the whole run and hides the falsifying example.
"""

from __future__ import annotations

from pathlib import Path

import pytest

HERE = Path(__file__).parent

LIBCST_IMPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error"))
            item.add_marker(pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING))
