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
