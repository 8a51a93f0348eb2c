"""Every name the library defines is used by the library, and the
coefficient pair of the IFE space is read from its cut set.

A public top-level function, a class or a method of `src/ppife` that only
tests call is a test oracle or a dead path, and belongs in `tests/` or
nowhere. The scan reads the modules' syntax trees, so a name mentioned in a
string or a docstring does not count as a use; neither do imports, nor a
definition's references to itself. `build_bases` records (beta-, beta+) on
the CutSet it returns; a later stage that took the pair beside the cut set
could pair a matrix with bases built for another beta.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ppife"

# the console entry point, called from outside the package
ENTRY_POINTS = {("cli", "main")}
# where the beta pair enters the IFE space
BETA_ENTRY = {("local_basis", "build_bases")}


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


def beta_beside_cuts():
    """The library functions and methods, but for BETA_ENTRY, that take a
    `cuts` parameter and a `beta_minus` or `beta_plus` one as well."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            if ("cuts" in params and params & {"beta_minus", "beta_plus"}
                    and (path.stem, node.name) not in BETA_ENTRY):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_beta_pair_lives_on_the_cut_set():
    assert beta_beside_cuts() == []
