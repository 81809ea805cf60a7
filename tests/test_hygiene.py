"""Source hygiene of the package, checked with the standard library's ast:
no module imports a name it never reads, no module reaches into another
package module's private names, no module writes the frozen fields of an
object from outside its class, no module imports scipy, only qp.py
factorizes (another module may take a numpy.linalg norm, nothing else) and
inverts only in prepare_weight, _solve_raw and _WorkingSet, a
singular matrix reaches the caller by one path only (qp._solve_raw's except
clause, which turns a LinAlgError into a status), and the package's __all__
is exactly what __init__ imports."""

import ast
from pathlib import Path

import pytest

import robustcbf

PACKAGE = Path(robustcbf.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

# Imported but never read, because perfbench/workloads.py install_hooks
# patches these module attributes by name to time a layer.
HOOK_TARGETS = {
    "sim.py": {
        "sample_hull": "install_hooks wraps sim.sample_hull as disturbance.plant",
        "support_min": "install_hooks wraps sim.support_min as disturbance.plant",
        "step_dynamics": "install_hooks wraps sim.step_dynamics as dynamics.step_dynamics",
    },
}


def imported_names(tree: ast.Module) -> list:
    """Every name an import statement binds, in source order, __future__
    imports left out."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def all_names(tree: ast.Module) -> list:
    """The string entries of a module-level __all__ list, or []."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def read_names(tree: ast.Module) -> set:
    """Names the module loads anywhere, plus those it exports in __all__."""
    loads = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return loads | set(all_names(tree))


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(tree: ast.Module) -> list:
    """Private names of other package modules that a module imports
    (from .qp import _x) or reads as a module attribute (qp._x)."""
    stems = {p.stem for p in MODULES}
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "robustcbf"
            for alias in node.names if inside else ():
                if node.module in (None, "robustcbf") and alias.name in stems:
                    modules.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("robustcbf."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def foreign_setattrs(tree: ast.Module) -> list:
    """object.__setattr__ calls on anything other than self: writes to the
    frozen fields of an object from outside its class."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"):
            target = node.args[0] if node.args else None
            if not (isinstance(target, ast.Name) and target.id == "self"):
                found.append(ast.unparse(node))
    return found


def scipy_imports(tree: ast.Module) -> list:
    """Import statements anywhere in a module, inside functions too, that
    load scipy or one of its submodules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in modules):
            found.append(ast.unparse(node))
    return found


def linalg_uses(tree: ast.Module) -> list:
    """Each numpy.linalg name a module reads, as "linalg.f": imported from
    numpy.linalg, or an attribute of numpy.linalg under whatever name the
    module binds numpy or numpy.linalg to."""
    numpy_names, linalg_names, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.linalg" and alias.asname:
                    linalg_names.add(alias.asname)
                elif alias.name in ("numpy", "numpy.linalg"):
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy":
                linalg_names.update(a.asname or a.name for a in node.names if a.name == "linalg")
            elif node.module == "numpy.linalg":
                found += [f"linalg.{alias.name}" for alias in node.names]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if (isinstance(base, ast.Name) and base.id in linalg_names
                or isinstance(base, ast.Attribute) and base.attr == "linalg"
                and isinstance(base.value, ast.Name) and base.value.id in numpy_names):
            found.append(f"linalg.{node.attr}")
    return found


def linalg_uses_by_definition(tree: ast.Module) -> dict:
    """{top-level function, method as "Class.method", class body outside
    its methods as "Class", or "<module>": the numpy.linalg names it reads},
    read by linalg_uses under the module's top-level imports."""
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    definitions = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [n for n in node.body
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            definitions += [(f"{node.name}.{n.name}", n) for n in methods]
            rest = [n for n in node.body if n not in methods]
            definitions += [(node.name, n) for n in rest]
        elif node not in imports:
            definitions.append((getattr(node, "name", "<module>"), node))
    found = {}
    for name, node in definitions:
        uses = linalg_uses(ast.Module(body=imports + [node], type_ignores=[]))
        if uses:
            found.setdefault(name, []).extend(uses)
    return found


def names_linalg_error(node) -> bool:
    """Whether an expression mentions LinAlgError, bare or as an attribute."""
    return node is not None and any(
        isinstance(n, ast.Name) and n.id == "LinAlgError"
        or isinstance(n, ast.Attribute) and n.attr == "LinAlgError"
        for n in ast.walk(node)
    )


def linalg_error_paths(tree: ast.Module) -> list:
    """Each raise of LinAlgError and each except clause that names it, as
    "raise in f" or "except in f", f the enclosing function or <module>.  A
    bare raise inside such a clause raises it again, so it counts too.  A
    clause that catches it under another name (ValueError, Exception) is
    not seen."""
    found = []

    def visit(node, function, handling):
        for child in ast.iter_child_nodes(node):
            inner, catches = function, handling
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner, catches = child.name, False
            elif isinstance(child, ast.ExceptHandler):
                catches = names_linalg_error(child.type)
                if catches:
                    found.append(f"except in {function}")
            elif isinstance(child, ast.Raise) and (
                names_linalg_error(child.exc) or child.exc is None and handling
            ):
                found.append(f"raise in {function}")
            visit(child, inner, catches)

    visit(tree, "<module>", False)
    return found


def test_the_package_has_modules():
    assert {"__init__.py", "barrier.py", "qp.py", "sim.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = set(imported_names(tree)) - read_names(tree)
    # Equality, not a subset: a hook target that is gone is a stale entry.
    assert unused == set(HOOK_TARGETS.get(path.name, {}))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_private_reads_are_found():
    source = "from . import qp\nfrom .qp import _warm_rows, solve\nqp._prune(qp.solve)\n"
    assert private_reads(ast.parse(source)) == ["from .qp import _warm_rows", "qp._prune"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_sets_the_fields_of_another_object(path):
    assert foreign_setattrs(ast.parse(path.read_text(), filename=str(path))) == []


def test_foreign_setattrs_are_found():
    source = (
        "class A:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "def solve(args):\n"
        "    sol = A()\n"
        "    object.__setattr__(sol, '_rows', 2)\n"
        "    object.__setattr__(*args)\n"
        "    setattr(sol, 'y', 3)\n"
    )
    assert foreign_setattrs(ast.parse(source)) == [
        "object.__setattr__(sol, '_rows', 2)", "object.__setattr__(*args)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # scipy.optimize alone adds about 47 MB of resident memory to a process.
    assert scipy_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_scipy_imports_are_found():
    source = (
        "import numpy, scipy.linalg as sl\n"
        "from scipy import optimize\n"
        "from .scipy import x\n"
        "import scipyx\n"
        "def f():\n"
        "    from scipy.optimize import nnls\n"
    )
    assert scipy_imports(ast.parse(source)) == [
        "import numpy, scipy.linalg as sl", "from scipy import optimize",
        "from scipy.optimize import nnls",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "qp.py"], ids=lambda p: p.name)
def test_only_the_solver_factorizes(path):
    # Which LAPACK routine factorizes, and on how many threads, is qp.py's
    # decision alone; the other modules take norms.
    uses = linalg_uses(ast.parse(path.read_text(), filename=str(path)))
    assert set(uses) <= {"linalg.norm"}


def test_linalg_uses_are_found():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg\n"
        "from numpy.linalg import solve\n"
        "def f(a, b):\n"
        "    np.linalg.norm(a)\n"
        "    np.linalg.cholesky(a)\n"
        "    la.lstsq(a, b)\n"
        "    linalg.inv(a)\n"
        "    np.linalg_extra.x(a)\n"
        "    a.linalg.solve(b)\n"
    )
    assert sorted(linalg_uses(ast.parse(source))) == [
        "linalg.cholesky", "linalg.inv", "linalg.lstsq", "linalg.norm", "linalg.solve"
    ]


def test_only_the_weight_and_the_cold_loop_invert():
    # prepare_weight inverts the Hessian once per weight, and a cold solve
    # its crash set's B through _WorkingSet.invert; a warm step solves by LU
    # and inverts nothing.
    tree = ast.parse((PACKAGE / "qp.py").read_text(), filename="qp.py")
    inverting = {name for name, uses in linalg_uses_by_definition(tree).items()
                 if "linalg.inv" in uses}
    assert inverting <= {"prepare_weight", "_WorkingSet.invert"}


def test_linalg_uses_by_definition_are_found():
    source = (
        "import numpy as np\n"
        "INV = np.linalg.inv\n"
        "def f(a):\n"
        "    return np.linalg.solve(a, a)\n"
        "class W:\n"
        "    PINV = np.linalg.pinv\n"
        "    def g(self, a):\n"
        "        return np.linalg.inv(a)\n"
        "    def k(self, a):\n"
        "        return a\n"
        "def h(a):\n"
        "    return a\n"
    )
    assert linalg_uses_by_definition(ast.parse(source)) == {
        "<module>": ["linalg.inv"], "f": ["linalg.solve"], "W.g": ["linalg.inv"],
        "W": ["linalg.pinv"],
    }


def test_a_singular_matrix_has_one_path_to_a_status():
    found = {path.name: linalg_error_paths(ast.parse(path.read_text(), filename=str(path)))
             for path in MODULES}
    assert {name: paths for name, paths in found.items() if paths} == {
        "qp.py": ["except in _solve_raw"]
    }


def test_linalg_error_paths_are_found():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import LinAlgError\n"
        "def load(rows):\n"
        "    raise np.linalg.LinAlgError('more rows than variables')\n"
        "def solve():\n"
        "    try:\n"
        "        load(())\n"
        "    except (ValueError, LinAlgError):\n"
        "        raise\n"
        "    except KeyError:\n"
        "        raise\n"
        "raise LinAlgError\n"
    )
    assert linalg_error_paths(ast.parse(source)) == [
        "raise in load", "except in solve", "raise in solve", "raise in <module>"
    ]


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = all_names(tree)
    assert len(exported) == len(set(exported))
    assert set(exported) == set(imported_names(tree))
    assert exported == robustcbf.__all__
