"""Checks on the library's source text."""

from __future__ import annotations

import ast

from charnet import errors

from support import REPO_ROOT


def _library_trees() -> list[tuple]:
    """(path, parsed module) of each of the library's modules."""
    sources = sorted((REPO_ROOT / "src" / "charnet").glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in sources]


def _library_nodes(kind, keep=lambda path, node: True) -> list[str]:
    """`file:line` of every `kind` node in the library's modules that
    keep(path, node) accepts."""
    return [
        f"{path.name}:{node.lineno}"
        for path, tree in _library_trees()
        for node in ast.walk(tree)
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


def _raised_classes() -> list[tuple[str, str]]:
    """(`file:line`, class name) for each class a raise statement in the
    library can raise.  `raise type(exc)(...)` inside `except (A, B) as
    exc` raises A or B; any other form is given as its source text."""
    raised = []
    for path, tree in _library_trees():
        handler_of = {}  # ast.walk is breadth-first, so an inner handler wins
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler):
                handler_of.update((node, handler) for node in ast.walk(handler) if isinstance(node, ast.Raise))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            where = f"{path.name}:{node.lineno}"
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            handler = handler_of.get(node)
            if isinstance(target, ast.Name):
                raised.append((where, target.id))
            elif handler and isinstance(target, ast.Call) and ast.unparse(target) == f"type({handler.name})":
                caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                raised.extend((where, ast.unparse(name)) for name in caught)
            else:
                raised.append((where, ast.unparse(node)))
    return raised


CHARNET_ERRORS = {
    name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, errors.CharnetError)
}


def test_every_raise_is_a_charnet_error():
    # the CLI turns a CharnetError into exit code 2 and anything else into
    # exit code 3, a bug; EpisodeMetrics copies Python's own TypeError for
    # an unknown keyword
    assert [
        (where, name)
        for where, name in _raised_classes()
        if name not in CHARNET_ERRORS and not (where.startswith("metrics.py:") and name == "TypeError")
    ] == []


def test_every_error_class_is_raised():
    # a class nothing raises is a name no caller can tell apart; the base
    # class is only caught
    assert CHARNET_ERRORS - {name for _, name in _raised_classes()} == {"CharnetError"}


# each rule's message text -> the one module that states the rule
RULE_TEXTS = {
    "self-loop on": "graph.py",
    "needs a positive finite weight": "graph.py",
    "must be a finite number > 0": "metrics.py",
    "must be at least 1": "metrics.py",
    "permutation test needs": "stats.py",
    "unknown table format": "report.py",
}


def test_rule_texts_live_in_their_owning_module():
    # graph._check_edge states the edge rule once, metrics.check_eigen the
    # power-iteration rule, and so on; a module that restated one of their
    # messages would be a second copy that could drift
    assert [
        (path.name, text)
        for path, tree in _library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for text, owner in RULE_TEXTS.items()
        if text in node.value and path.name != owner
    ] == []
