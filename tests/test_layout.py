"""Module layout: each module of the package reaches another only through
its public names."""

import ast
import pathlib

import paramfuzz

PACKAGE = pathlib.Path(paramfuzz.__file__).parent


def _private_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("paramfuzz")):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{path.relative_to(PACKAGE.parent)}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    found = [line for path in sorted(PACKAGE.rglob("*.py")) for line in _private_imports(path)]
    assert found == []


# Public names that no code in the package uses, each with the reason it stays.
UNREFERENCED_PUBLIC_NAMES = {
    "canonical_args_hash": "perfbench traces it by name until ROADMAP direction 6 drops it",
    "serialize_corpus": "the documented corpus round trip, the inverse of parse_corpus",
}


def test_every_public_function_and_class_is_used_in_the_package():
    """A public module-level function or class is named somewhere in the
    package other than its own definition, so no public API is reached only
    by tests. Imports and __all__ entries do not count as uses."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name: where for name, where in defined.items() if name not in used}
    assert sorted(unused) == sorted(UNREFERENCED_PUBLIC_NAMES), unused
