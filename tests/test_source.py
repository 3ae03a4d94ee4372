import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spatialvote"


def test_package_source_has_no_assert():
    # checks in the package raise exceptions, which `python -O` keeps and an
    # `assert` statement would lose
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
