"""Checks on the library's source text."""

from __future__ import annotations

import argparse
import ast
import inspect
import re

import charnet
from charnet import cli, errors, report

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
    # exit code 3, a bug
    assert [(where, name) for where, name in _raised_classes() if name not in CHARNET_ERRORS] == []


def test_every_error_class_is_raised():
    # a class nothing raises is a name no caller can tell apart; the base
    # class is only caught
    assert CHARNET_ERRORS - {name for _, name in _raised_classes()} == {"CharnetError"}


# each rule's message text -> the one module that states the rule
RULE_TEXTS = {
    "self-loop on": "graph.py",
    "needs a positive finite weight": "graph.py",
    "UTF-8 bytes": "ingest.py",
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


def _names_read(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_library_has_no_unused_imports_or_private_defs():
    # no linter runs on this code, so an import that nothing reads, or a
    # private helper that nothing calls, would stay unseen; __init__.py
    # imports to re-export, and its __all__ names what it re-exports
    trees = _library_trees()
    dead = []
    for path, tree in trees:
        read = _names_read(tree) | (set(charnet.__all__) if path.name == "__init__.py" else set())
        dead += [
            f"{path.name}:{node.lineno}: import {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for bound in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if bound not in read
        ]
    for path, tree in trees:
        imported_elsewhere = {
            alias.name
            for other, other_tree in trees
            if other != path
            for node in ast.walk(other_tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == path.stem
            for alias in node.names
        }
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)) or not definition.name.startswith("_"):
                continue
            outside = [node for node in tree.body if node is not definition]
            if not any(definition.name in _names_read(node) for node in outside) and (
                definition.name not in imported_elsewhere
            ):
                dead.append(f"{path.name}:{definition.lineno}: def {definition.name}")
    assert dead == []


def _readme_call_forms() -> list[tuple[int, str, str]]:
    """(line, name, parameter text) of each README code span that is
    exactly a call form `name(p1, p2=default, ...)` of a public function:
    one in charnet.__all__ or a charnet.report.render_*.  Spans that are
    expressions, with literal arguments or anything around the call,
    are not call forms."""
    forms = []
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for number, line in enumerate(readme.splitlines(), 1):
        for name, params in re.findall(r"`(\w+)\(([^()`]*)\)`", line):
            if name not in charnet.__all__ and not (name.startswith("render_") and hasattr(report, name)):
                continue
            if all(re.fullmatch(r"[A-Za-z_]\w*(=\S+)?", p) for p in params.split(", ")):
                forms.append((number, name, params))
    return forms


def test_readme_call_forms_match_the_signatures():
    forms = _readme_call_forms()
    assert {name for _, name, _ in forms} >= {"correlate_all", "permutation_pvalue", "render_metrics"}
    stale = []
    for number, name, params in forms:
        function = getattr(charnet if name in charnet.__all__ else report, name)
        actual = ", ".join(
            p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in inspect.signature(function).parameters.values()
        )
        if params != actual:
            stale.append(f"README.md:{number}: {name}({params}) is {name}({actual})")
    assert stale == []


def _readme_section(title: str) -> str:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_synopsis_names_each_subcommands_options():
    # a synopsis line `charnet <a|b> ...` or `charnet a ...` documents the
    # options it names for each subcommand it names
    synopsis = _readme_section("CLI").split("```\n", 2)[1]
    documented: dict[str, set[str]] = {}
    for line in re.split(r"^(?=charnet )", synopsis, flags=re.M)[1:]:
        for name in re.match(r"charnet <?([\w|]+)", line)[1].split("|"):
            documented.setdefault(name, set()).update(re.findall(r"--[\w-]+", line))
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {option for action in parser._actions for option in action.option_strings} - {"-h", "--help"}
        for name, parser in commands.choices.items()
    }
    assert documented == defined


def _names_a_test(node_id: str) -> bool:
    """Whether node_id, `tests/file.py::[TestClass::]test_function`, names a
    test function that the file defines."""
    path, *names = node_id.split("::")
    file = REPO_ROOT / path
    if not (names and file.is_file() and names[-1].startswith("test_")):
        return False
    scope = ast.parse(file.read_text(encoding="utf-8")).body
    for name, kind in zip(names, [ast.ClassDef] * (len(names) - 1) + [ast.FunctionDef]):
        node = next((n for n in scope if isinstance(n, kind) and n.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_readme_promises_name_existing_tests():
    # every row below the header and its rule; the last cell is `node id`
    rows = [line for line in _readme_section("Promises").splitlines() if line.startswith("|")][2:]
    node_ids = [row.rsplit("|", 2)[1].strip().strip("`") for row in rows]
    assert len(node_ids) >= 10
    assert [node_id for node_id in node_ids if not _names_a_test(node_id)] == []
