"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "metriflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path) == []


# numpy functions with a Python-level wrapper around an array method; on
# the per-step path, at desk-scale sizes, the wrapper costs more than the
# arithmetic, so the package calls the methods instead
NUMPY_WRAPPERS = {"sum", "any", "all", "mean", "trace", "swapaxes", "split"}


def numpy_wrapper_calls(path: Path) -> list[str]:
    """Calls np.<name>(...) of a name in NUMPY_WRAPPERS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: np.{node.func.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and node.func.attr in NUMPY_WRAPPERS]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_calls_array_methods_not_numpy_wrappers(path):
    assert numpy_wrapper_calls(path) == []


# derived fields live on Derived objects; the one place that writes a
# state's __dict__ is State.derived, which keeps the state's Derived
DICT_ACCESS_ALLOWED = {"functionals.py": {"State.derived"}}


def dict_accesses(path: Path) -> list[str]:
    """``__dict__`` accesses, each with its enclosing class/function path."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    allowed = DICT_ACCESS_ALLOWED.get(path.name, set())
    return [f"{path.name}:{line}: __dict__ in {scope or '<module>'}"
            for scope, line in found if scope not in allowed]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dict_access_only_in_state_derived(path):
    assert dict_accesses(path) == []
