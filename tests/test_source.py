import ast
from pathlib import Path

import eggbox

SOURCES = sorted(Path(eggbox.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # checks must survive `python -O`, which strips assert statements
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_errors_raised_in_the_package():
    # a failed check raises a real error type, not an assert in disguise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert found == []
