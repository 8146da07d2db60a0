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


def _imports_attention(path: Path) -> list[str]:
    """'file:line' for each import of the attention module in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "pointmatch" if node.level else ""
            module = ".".join(filter(None, (package, node.module)))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if "pointmatch.attention" in names:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_package_init_imports_attention():
    # the temporal module is a leaf: its parameters live in memory only
    # (fit_denoiser returns them), so no other module reads or writes them
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert [hit for path in modules for hit in _imports_attention(path)] == []
