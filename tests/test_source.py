"""Checks on the library's source text."""

from __future__ import annotations

import ast

from support import REPO_ROOT


def _library_nodes(kind, keep=lambda path, node: True) -> list[str]:
    """`file:line` of every `kind` node in the library's modules that
    keep(path, node) accepts."""
    sources = sorted((REPO_ROOT / "src" / "charnet").glob("*.py"))
    assert sources
    return [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, kind) and keep(path, node)
    ]


def test_no_module_state_is_rebound_from_functions():
    # a `global` statement lets a call rebind module state, which makes
    # calls depend on each other and unsafe to run from several threads
    assert _library_nodes(ast.Global) == []


def test_no_assert_statements():
    # `python -O` strips asserts, so a check in the library has to raise
    assert _library_nodes(ast.Assert) == []


def _catches_charnet_error(path, handler: ast.ExceptHandler) -> bool:
    caught = ast.walk(handler.type) if handler.type is not None else ()
    return path.name != "cli.py" and any(
        getattr(node, "id", getattr(node, "attr", None)) == "CharnetError" for node in caught
    )


def test_only_the_cli_catches_charnet_error():
    # a library caller sees every CharnetError; only the CLI turns the base
    # class into an exit code, and a module that lives with one failure
    # names the subclass it expects
    assert _library_nodes(ast.ExceptHandler, _catches_charnet_error) == []
