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
# arithmetic, so the package calls the methods (or, on the stepping path,
# the ufunc's reduce) instead
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


# the fill's s^a recovery and state_from_sigma_a, in functionals, are the
# one place that knows the surface entropy coefficient, the density weight
# rho^a, the family's a and (Gamma, xi); thermo's lambda_f reads lambda_s
# too.  Every other module reads the state's sigma and Derived.s.
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


# a callable kappa or dcoef is called once per fill, at the end of the
# kernel pass, on the fill's own fields; every other reader reads the
# Derived's kappa and dcoef fields
def transport_calls(path: Path) -> list[tuple[str, str]]:
    """(name, scope) of every call of an attribute kappa or dcoef in path."""
    return sorted((node.func.attr, scope) for scope, node in scoped_nodes(
        path, lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("kappa", "dcoef")))


def test_a_transport_callable_is_called_only_in_the_kernel_pass():
    assert transport_calls(SRC / "functionals.py") == [("dcoef", "_kernel"), ("kappa", "_kernel")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "functionals.py"],
                         ids=lambda p: p.name)
def test_only_derived_resolves_the_transport_coefficients(path):
    assert transport_calls(path) == []


# a Derived is a plain record, filled whole by the fill call: no method
# computes a field later, and nothing refers back to the state it is of
def weakref_imports(path: Path) -> list[str]:
    """Imports of weakref or of names from it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "weakref"
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "weakref"]


def test_a_derived_is_a_plain_record_with_no_back_reference():
    (_, derived), = scoped_nodes(SRC / "functionals.py", lambda node: isinstance(
        node, ast.ClassDef) and node.name == "Derived")
    assert ast.get_docstring(derived) and len(derived.body) == 1  # no method, no attribute
    assert [line for path in sorted(SRC.glob("*.py")) for line in weakref_imports(path)] == []


# a Derived is filled by one call, functionals._thermo, the thermo pass,
# which ends with the kernel pass: one is built for a state in
# State.derived and for an RK4 stage in dynamics.step_rk4, and only the
# fill call runs the kernel pass
FILL_SITES = [("Derived", "dynamics.py", "step_rk4"),
              ("Derived", "functionals.py", "State.derived"),
              ("_kernel", "functionals.py", "_thermo")]


def fill_sites() -> list[tuple[str, str, str]]:
    """(name, module, scope) of every call of Derived or _kernel."""
    def called(node):
        return getattr(node.func, "id", getattr(node.func, "attr", None))

    return sorted((called(node), path.name, scope) for path in MODULES
                  for scope, node in scoped_nodes(path, lambda node: isinstance(node, ast.Call)
                                                  and called(node) in ("Derived", "_kernel")))


def test_a_derived_is_built_and_filled_in_one_place_each():
    assert fill_sites() == FILL_SITES


# the 4-bracket's slot table (Lambda, kappa, D) is applied in one place,
# metriplectic._coefficients; the rows of Derived.grads are laid out by
# functionals and read by metriplectic, whose _dissipative_fluxes hands the
# kernel's gradients and fluxes to every other reader
SLOT_TABLE_APPLIERS = {"_stress", "_apply_tensor"}
GRADS_MODULES = {"functionals.py", "metriplectic.py"}


def slot_table_calls(path: Path) -> list[str]:
    """Calls of a name in SLOT_TABLE_APPLIERS outside metriplectic._coefficients."""
    found = scoped_nodes(path, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) in SLOT_TABLE_APPLIERS)
    return [f"{path.name}:{node.lineno}: {ast.unparse(node.func)} in {scope or '<module>'}"
            for scope, node in found if (path.name, scope) != ("metriplectic.py", "_coefficients")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_coefficients_applies_the_slot_table(path):
    assert slot_table_calls(path) == []


def grads_reads(path: Path) -> list[str]:
    """Attribute reads of .grads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: .grads" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr == "grads"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in GRADS_MODULES],
                         ids=lambda p: p.name)
def test_only_functionals_and_metriplectic_read_derived_grads(path):
    assert grads_reads(path) == []


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


# run's malloc thresholds are glibc settings of the whole process: only the
# CLI loads the C library, and only run calls mallopt
def c_library_uses(path: Path) -> list[str]:
    """Imports of ctypes, and reads of a name or attribute mallopt."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "ctypes" or name == "mallopt"]
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_only_the_cli_touches_the_c_library(path):
    assert c_library_uses(path) == []


def test_the_cli_sets_the_malloc_thresholds_in_run_only():
    uses = scoped_nodes(SRC / "cli.py", lambda node: isinstance(node, ast.Name)
                        and node.id == "mallopt")
    assert uses and {scope for scope, _ in uses} == {"cmd_run"}


# verify's random fields come from the counter-based stream of fields.py; it
# builds no numpy generator, nor an emulation that would need one to check it
def numpy_random_uses(path: Path) -> list[str]:
    """Reads of np.random or numpy.random, and imports of numpy.random."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name.split(".")[:2] in (["np", "random"], ["numpy", "random"])]
    return found


def test_the_field_draws_use_nothing_of_numpy_random():
    assert numpy_random_uses(SRC / "fields.py") == []


# the general formulas of the surface terms reduce exactly at lambda_u = 0
# or lambda_s = 0, so only ModelConfig, which rejects surface terms on a
# sharp family, compares a surface coefficient with a number
def surface_coefficient_tests(path: Path) -> list[str]:
    """Comparisons of a lambda_u or lambda_s attribute with a number,
    outside ModelConfig.__post_init__."""
    def coefficient(node):
        return isinstance(node, ast.Attribute) and node.attr in ("lambda_u", "lambda_s")

    def number(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))

    found = scoped_nodes(path, lambda node: isinstance(node, ast.Compare) and any(
        coefficient(a) and number(b) or number(a) and coefficient(b)
        for a, b in zip([node.left] + node.comparators[:-1], node.comparators)))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)} in {scope or '<module>'}"
            for scope, node in found if scope != "ModelConfig.__post_init__"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_model_config_compares_a_surface_coefficient_with_a_number(path):
    assert surface_coefficient_tests(path) == []


# the package evolves the total entropy density and its brackets are the
# sharp ones: the sigma^a change of variables on gradients and tendencies,
# and a separate total entropy field, live only in the tests (the reference
# map of conftest)
RETIRED_NAMES = {"transform_gradients", "untransform_gradients", "_change_variables",
                 "_tendency_to_sigma_a", "sigma_total"}


def retired_names(path: Path, retired: set) -> list[str]:
    """Names, attributes, definitions, imports and strings in retired, each
    matched as a whole."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = [getattr(node, key) for key in ("id", "attr", "name", "asname", "value")
                 if isinstance(getattr(node, key, None), str)]
        found += [f"{path.name}:{node.lineno}: {name}" for name in names if name in retired]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_the_sigma_a_change_of_variables(path):
    assert retired_names(path, RETIRED_NAMES) == []


# the Onsager matrix is one (..., 15, 15) array, built by _onsager_matrix
# and applied to the affinities by one matmul in the onsager suite: no
# record of its blocks, no assembly of them and no blockwise contraction
RETIRED_ONSAGER_NAMES = {"OnsagerBlocks", "onsager_fluxes", "_onsager_blocks", "_matvec",
                         "assemble"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_the_onsager_blocks(path):
    assert retired_names(path, RETIRED_ONSAGER_NAMES) == []


# lazy attributes are functools.cached_property: the package writes no
# descriptor of its own
def test_no_class_defines_get():
    defined = [f"{path.name}: {scope}" for path in sorted(SRC.glob("*.py"))
               for scope, _ in scoped_nodes(path, lambda node: isinstance(
                   node, ast.FunctionDef) and node.name == "__get__")]
    assert defined == []
