"""Every test under tests/ runs with warnings as errors.

The mark is added here rather than in pyproject.toml, which the benchmark
suite under perfbench/tests shares.
"""

from __future__ import annotations

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error"))
