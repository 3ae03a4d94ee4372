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


def _package_imports(path: Path) -> set[str]:
    """The package modules that one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spatialvote."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("spatialvote."))
    return found


def test_oracle_stays_at_the_top_of_the_import_graph():
    # the oracle is the ground truth for the winner routes and the scheduler,
    # so it must not depend on them, and only the entry points may reach it
    graph = {path.stem: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert "oracle" in graph and "oracle" in graph["winners"]
    assert sorted(name for name, deps in graph.items() if "oracle" in deps) == ["__init__", "cli", "winners"]
    assert graph["oracle"].isdisjoint({"winners", "scheduling", "cli"})
