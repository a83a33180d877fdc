"""Source hygiene checks that need only the standard library."""

import ast
from collections import Counter
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


# numpy functions with a Python-level wrapper around an array method, and
# np.isscalar, a Python-level type test that isinstance makes faster; on
# the per-step path, at desk-scale sizes, the wrapper costs more than the
# arithmetic, so the package calls the methods instead
NUMPY_WRAPPERS = {"sum", "any", "all", "mean", "trace", "swapaxes", "split", "isscalar"}


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


def scoped_nodes(path: Path, match) -> list[tuple[str, ast.AST]]:
    """The nodes for which match holds, each with its enclosing class/function path."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if match(node):
            found.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def dict_accesses(path: Path) -> list[str]:
    """``__dict__`` accesses, each with its enclosing class/function path."""
    found = scoped_nodes(path, lambda node: isinstance(node, ast.Attribute)
                         and node.attr == "__dict__")
    allowed = DICT_ACCESS_ALLOWED.get(path.name, set())
    return [f"{path.name}:{node.lineno}: __dict__ in {scope or '<module>'}"
            for scope, node in found if scope not in allowed]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dict_access_only_in_state_derived(path):
    assert dict_accesses(path) == []


# module-level functions and classes that nothing in src, demos or
# benchmarks calls, kept on purpose
UNREFERENCED_ALLOWED = {
    # checks the paper's homogeneity identities of Gamma (degree 1 and
    # Euler's relation for xi), the property the surface terms rest on
    "homogeneity_residuals",
}
ROOT = SRC.parents[1]
USER_FILES = MODULES + sorted((ROOT / "demos").rglob("*.py")) \
    + sorted((ROOT / "benchmarks").rglob("*.py"))


def name_counts(node: ast.AST) -> Counter:
    """How often each name is read, as a bare name or an attribute, in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_definitions() -> list[str]:
    """Module-level functions and classes of src/metriflow that no file of
    src (but __init__.py), demos or benchmarks refers to outside their own
    definition."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in USER_FILES]
    total = sum((name_counts(tree) for tree in trees), Counter())
    return [f"{path.name}:{node.lineno}: {node.name}"
            for path, tree in zip(MODULES, trees) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in UNREFERENCED_ALLOWED
            and total[node.name] == name_counts(node)[node.name]]


def test_every_module_level_definition_is_used_outside_tests():
    assert unreferenced_definitions() == []


# the sigma^a change of variables is the one place that knows the surface
# entropy coefficient, the density weight rho^a, the family's a and (Gamma,
# xi); thermo's lambda_f reads lambda_s too.  Every other module goes
# through transform_gradients, sigma_total and their kin.
SIGMA_A_ATTRS = {"lambda_s", "weight", "a", "gamma_xi"}
SIGMA_A_MODULES = {"functionals.py", "thermo.py"}


def sigma_a_reads(path: Path) -> list[str]:
    """Attribute reads of a name in SIGMA_A_ATTRS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in SIGMA_A_ATTRS]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in SIGMA_A_MODULES],
                         ids=lambda p: p.name)
def test_only_functionals_knows_the_sigma_a_variables(path):
    assert sigma_a_reads(path) == []


# a callable kappa or dcoef is called once per state, by Derived.kappa and
# Derived.dcoef; every other module reads those fields
COEFFICIENT_RESOLVERS = {"kappa_of", "dcoef_of"}


def coefficient_resolutions(path: Path) -> list[str]:
    """Attribute reads of kappa_of or dcoef_of."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in COEFFICIENT_RESOLVERS]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "functionals.py"],
                         ids=lambda p: p.name)
def test_only_derived_resolves_the_transport_coefficients(path):
    assert coefficient_resolutions(path) == []


# which family dissipates and which carries a diffuse interface is stated once,
# in the family tables of functionals.py; every other module reads them
def family_names() -> set[str]:
    """The names in functionals.FAMILIES, read from its source."""
    for node in ast.parse((SRC / "functionals.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "FAMILIES":
            return set(ast.literal_eval(node.value))
    raise AssertionError("functionals.py defines no FAMILIES")


def family_literals(path: Path) -> list[str]:
    """String constants that spell a model family."""
    names = family_names()
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and node.value in names]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "functionals.py"),
                         ids=lambda p: p.name)
def test_family_names_are_spelled_only_in_functionals(path):
    assert family_literals(path) == []


def test_only_dynamics_steps_the_state():
    """One stepping loop: every run advances through dynamics.integrate."""
    callers = [f"{path.name}:{node.lineno}"
               for path in SRC.glob("*.py") if path.name != "dynamics.py"
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "step_rk4"]
    assert callers == []


# run's snapshot writer and verify's worker are the only other processes:
# only the CLI may fork, and no module starts a process or a thread any
# other way
PROCESS_MODULES = {"multiprocessing", "subprocess", "threading"}


def process_machinery(path: Path) -> list[str]:
    """Imports of a module in PROCESS_MODULES, and uses of os.fork."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name.split(".")[0] in PROCESS_MODULES or name == "os.fork"]
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_only_the_cli_starts_a_process(path):
    assert process_machinery(path) == []


def test_the_cli_forks_and_exits_in_one_place():
    """One fork helper serves run's writer and verify's worker, so the
    pipe, the pickled answer, os._exit and the reaping are written once."""
    calls = scoped_nodes(SRC / "cli.py", lambda node: isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name) and node.value.id == "os"
                         and node.attr in ("fork", "_exit"))
    assert sorted((node.attr, scope) for scope, node in calls) == [
        ("_exit", "Forked.__init__"), ("fork", "Forked.__init__")]
