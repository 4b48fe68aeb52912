"""Every module of the package uses each name it imports, and every function,
class and method is referenced outside its own definition: a private one by the
package, a public one by the package, its tests, scripts or benchmark.  The
package __init__ re-exports its imports and is left out of the first check; a
module may import a name, or define a private one, that only the benchmark's
tracer reads when perfbench/tracer.py wraps that name.  The tracer's string
targets do not count as references of a public name, except for the model's,
whose public names the tests alone do not keep.  Σ_t has one singularity rule: no
module calls a determinant, and only `model._check_scale` raises
SingularCovarianceError.  The package imports the standard library, itself and the
dependencies pyproject.toml declares, nothing else."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from test_span_targets import _span_targets

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "tdvarma"


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


def _definitions(tree: ast.Module) -> list:
    """Module-level functions and classes, and methods of module-level classes, other
    than dunder methods."""
    nodes = list(tree.body)
    nodes += [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("__")]


def _references(tree: ast.AST) -> list:
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_definitions_are_referenced(path):
    # a private helper no code of the package reaches, outside its own body, is dead
    trees = {p: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    everywhere = Counter(name for tree in trees.values() for name in _references(tree))
    wrapped = {attr for _, _, attr, _ in _span_targets()}
    dead = [node.name for node in _definitions(trees[path]) if node.name.startswith("_")
            and node.name not in wrapped and everywhere[node.name] == _references(node).count(node.name)]
    assert dead == []


def _unreferenced_public(path: Path, dirs: tuple, extra: tuple = ()) -> list:
    """The public definitions of path that no file under the repository's dirs
    references outside the definition itself; each name in extra counts once."""
    readers = [p for d in dirs for p in (REPO / d).rglob("*.py")]
    everywhere = Counter(name for p in readers for name in _references(ast.parse(p.read_text())))
    everywhere.update(extra)
    return [node.name for node in _definitions(ast.parse(path.read_text())) if not node.name.startswith("_")
            and everywhere[node.name] == _references(node).count(node.name)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_public_definitions_are_referenced(path):
    # a public name that no code of the project calls, tests or runs is dead
    assert _unreferenced_public(path, ("src", "tests", "scripts", "perfbench")) == []


def test_model_public_definitions_have_a_reader_besides_the_tests():
    # a Sigma_t reader that only tests call is a second engine beside the one the
    # package reads; a name the benchmark's tracer wraps is read when it runs
    wrapped = tuple(attr for _, _, attr, _ in _span_targets())
    assert _unreferenced_public(PACKAGE / "model.py", ("src", "scripts", "perfbench"), wrapped) == []


def test_the_cli_imports_no_private_name():
    # the CLI writes the records the package decides; a private helper it imports
    # would make it a second place that decides them
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("tdvarma"))
               for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]
    assert private == []



def _calls(tree: ast.AST) -> list:
    """(callee source, name of the innermost enclosing function) of every call in tree."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            out.append((ast.unparse(node.func), scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return out


def test_one_singularity_rule():
    # a Sigma_t is usable when scale_factor finds it finite and non-singular; a
    # determinant threshold or a second place that raises would be a second rule
    calls = [(p.name, callee, scope) for p in sorted(PACKAGE.glob("*.py"))
             for callee, scope in _calls(ast.parse(p.read_text()))]
    assert [c for c in calls if c[1].endswith("linalg.det")] == []
    raising = {(path, scope) for path, callee, scope in calls if callee.split(".")[-1] == "SingularCovarianceError"}
    assert raising == {("model.py", "_check_scale")}


def test_the_package_imports_only_its_declared_dependencies():
    # pyproject.toml declares numpy alone; another import, even one that is installed
    # (SciPy's banded LAPACK solve, say), adds its load time and memory to every run
    declared = re.search(r"^dependencies = \[(.*)\]", (REPO / "pyproject.toml").read_text(), re.M).group(1)
    allowed = set(sys.stdlib_module_names) | {"tdvarma"} | set(re.findall(r'"([A-Za-z0-9_]+)', declared))
    imported = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.append((path.name, node.module))
    assert allowed >= {"numpy", "math"}
    assert [(name, module) for name, module in imported if module.split(".")[0] not in allowed] == []
