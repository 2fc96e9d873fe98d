import ast
from pathlib import Path

import blockqkd

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_resolve():
    names = blockqkd.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(blockqkd, name), name
    namespace = {}
    exec("from blockqkd import *", namespace)
    assert set(names) <= set(namespace)


def _used_names(tree: ast.AST) -> set[str]:
    """Every name that `tree` reads, reads as an attribute or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_package_defines_only_what_it_calls():
    """The package keeps only what sessions, the CLI and `verify` call:
    every top-level function and class of a `src/blockqkd` module must be
    used as a name, attribute or import somewhere in the package's modules,
    in `scripts/` or in `benchmark/`. `__init__.py` is not read as a user,
    since a re-export calls nothing, and neither are the tests: what only
    tests use belongs in `tests/`. Methods are not checked."""
    modules = sorted(p for p in (ROOT / "src" / "blockqkd").glob("*.py") if p.name != "__init__.py")
    users = modules + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))
    used = set().union(*(_used_names(ast.parse(p.read_text(encoding="utf-8"))) for p in users))
    unused = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not unused, f"defined in src/ but called only by tests or nothing: {unused}"
