"""Each module of the package uses only the public names of the others."""

import ast
from pathlib import Path

import pointmatch

SRC = Path(pointmatch.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """'file:line name' for each underscore-prefixed name path imports from a
    sibling module (a relative import or one from the pointmatch package)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("pointmatch"):
            continue
        found += [f"{path.name}:{node.lineno} {alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_modules_import_no_private_names_from_siblings():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in _private_imports(path)] == []
