"""Checks on the library's source text."""

from __future__ import annotations

import ast

from support import REPO_ROOT


def _library_nodes(kind) -> list[str]:
    """`file:line` of every `kind` node in the library's modules."""
    sources = sorted((REPO_ROOT / "src" / "charnet").glob("*.py"))
    assert sources
    return [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, kind)
    ]


def test_no_module_state_is_rebound_from_functions():
    # a `global` statement lets a call rebind module state, which makes
    # calls depend on each other and unsafe to run from several threads
    assert _library_nodes(ast.Global) == []


def test_no_assert_statements():
    # `python -O` strips asserts, so a check in the library has to raise
    assert _library_nodes(ast.Assert) == []
