"""Every name the library defines is used by the library, and the
coefficient pair of the IFE space is read from its cut set.

A public top-level function, a class or a method of `src/ppife` that only
tests call is a test oracle or a dead path, and belongs in `tests/` or
nowhere. The scan reads the modules' syntax trees, so a name mentioned in a
string or a docstring does not count as a use; neither do imports, nor a
definition's references to itself.

Each scheme coefficient enters the library once. `build_bases` records
(beta-, beta+) on the CutSet it returns; a later stage that took the pair
beside the cut set could pair a matrix with bases built for another beta.
`assemble_edge_terms` records the penalty exponent alpha on the EdgeTraces it
returns; a norm that took alpha again could weigh the jumps unlike P_unit.
Symmetry is checked once, where `apply_dirichlet` makes A_vol and P_unit,
and the solvers take it as given.

The Cartesian mesh is index arithmetic on its two grid-line arrays: it
stores no per-node or per-element array, so that its nodes, elements and
frames are computed only for the ids a stage asks for.
"""
import ast
from pathlib import Path

import numpy as np

from ppife.geometry import DomainSpec, build_mesh

SRC = Path(__file__).resolve().parents[1] / "src" / "ppife"

# the console entry point, called from outside the package
ENTRY_POINTS = {("cli", "main")}
# where the beta pair enters: the IFE space, its stacked solve, the exact solution
BETA_ENTRY = {("local_basis", "build_bases"), ("local_basis", "ife_coefficients"),
              ("postprocess", "radial_interface_solution")}
# where the penalty exponent enters: P_unit, recorded as EdgeTraces.alpha
ALPHA_ENTRY = {("assembly", "assemble_edge_terms")}
# where symmetry is checked: A_vol and P_unit, once per context's split
SYMMETRY_ENTRY = {("assembly", "apply_dirichlet")}


def _definitions(tree):
    """(name, node) of the public top-level functions, the classes and the
    methods of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _uses(tree):
    """(name, line) of every name loaded and every attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_library_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for qualname, node in _definitions(tree):
            if (module, qualname) in ENTRY_POINTS:
                continue
            name = qualname.rpartition(".")[2]
            own = range(node.lineno, node.end_lineno + 1)
            if all(m == module and line in own for m, line in uses.get(name, ())):
                unused.append(f"{module}.{qualname}")
    return unused


def test_every_library_name_has_a_library_caller():
    assert unused_library_names() == []


def _takers(names, entry):
    """The library functions and methods, but for those in `entry`, that take
    a parameter named in `names`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            if params & names and (path.stem, node.name) not in entry:
                found.append(f"{path.stem}.{node.name}")
    return found


def beta_beside_cuts():
    """The library functions and methods that take `beta_minus` or
    `beta_plus` but do not build the IFE space or the exact solution."""
    return _takers({"beta_minus", "beta_plus"}, BETA_ENTRY)


def alpha_beside_edge_terms():
    """The library functions and methods, but for the edge-term assembly,
    that take the penalty exponent `alpha`."""
    return _takers({"alpha"}, ALPHA_ENTRY)


def _callers(name):
    """The library functions and methods that call `name`, as (module,
    function)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(call, ast.Call) and name in (getattr(call.func, "id", None),
                                                           getattr(call.func, "attr", None))
                    for call in ast.walk(node)):
                found.add((path.stem, node.name))
    return found


def _refers_to(module, names):
    """The names of `names` that a library module loads, reads as an
    attribute or imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return sorted(names & ({name for name, _ in _uses(tree)} | imported))


def test_beta_pair_lives_on_the_cut_set():
    assert beta_beside_cuts() == []


def test_penalty_exponent_enters_at_the_edge_terms():
    assert alpha_beside_edge_terms() == []


def test_symmetry_is_checked_where_the_split_is_made():
    assert _callers("_is_symmetric") == SYMMETRY_ENTRY
    assert _refers_to("linsolve", {"_is_symmetric", "SYMMETRY_RTOL", "AsymmetricInput"}) == []


def test_mesh_stores_no_per_node_or_per_element_array():
    n = 7
    for kind in ("rect", "tri"):
        mesh = build_mesh(DomainSpec(-1, 1, -1, 1, n, kind))
        big = {name: value.size for name, value in vars(mesh).items()
               if isinstance(value, np.ndarray) and value.size > n + 1}
        assert big == {}, kind
