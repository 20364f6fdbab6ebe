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
