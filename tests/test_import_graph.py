"""The package's own imports run one way.

Every import of a package module sits at module level, or under
`if TYPE_CHECKING:` where only annotations read it, and the module-level
imports form no cycle. So no module has to dodge a cycle with an import
inside a function, and each module can be read after the ones it imports.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import chemostab

PACKAGE = Path(chemostab.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# (module, function, imported module) of the one import inside a function:
# core.init_state solves for the initial signal with helmholtz, which
# imports core.
FUNCTION_LEVEL = {("core", "init_state", "helmholtz")}


def package_targets(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The package modules that an import statement loads ("__init__" for
    the package itself); [] for an import from outside the package."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [name[1] if len(name) > 1 else "__init__"
                for name in names if name[0] == "chemostab"]
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "chemostab":
            return []
        parts = parts[1:]
    else:
        parts = node.module.split(".") if node.module else []
    if parts:
        return [parts[0]]
    # `from . import name`: a module where one is named, else the package.
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def imports(module: str) -> list[tuple[str, str | None, bool]]:
    """(target, enclosing function or None, under TYPE_CHECKING) of each
    package import in `module`."""
    found = []

    def visit(nodes, function, type_only):
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.extend((target, function, type_only) for target in package_targets(node))
            elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                visit(node.body, function, True)
                visit(node.orelse, function, type_only)
            else:
                inner = function
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = function or node.name
                visit(ast.iter_child_nodes(node), inner, type_only)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()).body, None, False)
    return found


def runtime_graph() -> dict[str, set[str]]:
    """Each module's module-level imports of package modules, type-only
    imports left out."""
    return {module: {target for target, function, type_only in imports(module)
                     if function is None and not type_only}
            for module in MODULES}


@pytest.mark.parametrize("module", MODULES)
def test_package_imports_are_at_module_level(module):
    inside = {(module, function, target) for target, function, _ in imports(module)
              if function is not None}
    assert inside <= FUNCTION_LEVEL


def test_module_level_imports_are_acyclic():
    try:
        order = list(TopologicalSorter(runtime_graph()).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    # core imports no package module and every other module imports one, so
    # core leads; with no edges found the order would be MODULES' own.
    assert order[0] == "core"


def test_stability_imports_only_core():
    # The closed forms of the dispersion relation need the coefficient
    # records and nothing that steps or solves.
    assert runtime_graph()["stability"] == {"core"}

