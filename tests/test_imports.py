"""Every module of the package uses each name it imports.  The package __init__
re-exports its imports and is left out; a module may import a name only the
benchmark's tracer reads when perfbench/tracer.py wraps that name there."""

import ast
from pathlib import Path

import pytest
from test_span_targets import _span_targets

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tdvarma"


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    wrapped = {attr for module, cls, attr, _ in _span_targets() if module == f"tdvarma.{path.stem}" and cls is None}
    assert _unused_imports(path) - wrapped == set()
