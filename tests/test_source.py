import ast
from pathlib import Path

import spatialvote

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


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10, so no file may use later
    # syntax such as `except*` or PEP 695 type parameters
    root = SRC.parent.parent
    files = sorted(path for folder in ("src", "tests", "perfbench") for path in (root / folder).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _package_imports(path: Path, in_functions: bool = True) -> set[str]:
    """The package modules that one source file imports, leaving out the
    imports inside functions when `in_functions` is false."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    skipped = set() if in_functions else {id(node) for f in functions for node in ast.walk(f)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
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
    # so it must not depend on them, and only the entry points may reach it;
    # the package's `__init__` loads it by name on first use, with no import
    # statement, and imports no submodule
    graph = {path.stem: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert "oracle" in graph and "oracle" in graph["winners"] and graph["__init__"] == set()
    assert sorted(name for name, deps in graph.items() if "oracle" in deps) == ["cli", "winners"]
    assert graph["oracle"].isdisjoint({"winners", "scheduling", "cli"})


def test_the_solver_and_the_generators_load_only_where_they_run():
    # a query loads `lfp` on its first LFP call and `gen` under the `gen`
    # command (README, "Start-up and exit"), so the modules every query
    # loads import `lfp` only inside functions, and only `cli` imports
    # `gen`, inside `cmd_gen`; `gen` never imports `cli`, which under
    # `python -m spatialvote.cli` would run the command line's module a
    # second time; and the solver imports neither the geometry that calls
    # it nor `cli`
    paths = sorted(SRC.glob("*.py"))
    graph = {path.stem: _package_imports(path) for path in paths}
    top = {path.stem: _package_imports(path, in_functions=False) for path in paths}
    assert "lfp" in graph["geometry"] and "model" in top["lfp"]
    assert [name for name in ("geometry", "model", "cli") if "lfp" in top[name]] == []
    assert sorted(name for name, deps in graph.items() if "gen" in deps) == ["cli"] and "gen" not in top["cli"]
    assert "cli" not in graph["gen"]
    assert graph["lfp"].isdisjoint({"geometry", "cli"})


TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def _referenced_names(node: ast.AST) -> set[str]:
    """The names, attribute names and imported names used under `node`;
    docstrings and other strings do not count."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
    return found


def _traced_names() -> set[str]:
    """The package attributes `perfbench/tracer.py` replaces: its attribute
    assignments and the name tuples it loops `setattr` over."""
    found = set()
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            found.update(e.value for e in node.iter.elts if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return found


def test_every_definition_is_used():
    # a module-level function or class must be used by another top-level
    # statement of the package, be public API, be a layer the benchmark
    # tracer wraps, or be the module hook that the interpreter calls (PEP 562's
    # `__getattr__`); a helper kept alive only by the tests fails here
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))}
    statements = [(name, stmt) for name, tree in trees.items() for stmt in tree.body]
    kept = set(spatialvote.__all__) | _traced_names() | {"__getattr__"}
    assert {"enumerate_rankings_1d", "feasible_equal_length", "necessary_winner"} <= kept
    uses = [_referenced_names(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and stmt.name not in kept:
            if not any(stmt.name in names for j, names in enumerate(uses) if j != i):
                unused.append(f"{module}:{stmt.name}")
    assert unused == []
