"""Only exactalg turns polynomials into integers, and only cli.main prints.

Integer models (``_integer_model``), their exact division (``_divide``)
and the deflation that repeats it (``_deflate``) are defined in exactalg
and used there alone.  Every other module reaches them through
polynomials: ``deflate_at``, ``coefficient_bits``, ``poly_factor`` and
``factor_over``, which divides known irreducibles out before the factor
search.  A change to how a polynomial is stored then touches one module.
The factor search (``_factor_model``) has one way in, ``factor_over``:
``poly_factor`` is ``factor_over`` with no known irreducibles.

Likewise every other module reaches places through funcfield's public
names (``valuation``, ``residue``, ``places_of_support``), never through
an underscore name of funcfield.

The package calls ``print`` in one place: each CLI command returns its
lines and exit code, and ``cli.main`` prints them, or for an error the
line of its exit table.  No command (``cli._cmd_*``) holds a ``try`` or
``with`` statement, so a new error reaches its exit code by a new row of
that table, never by a command catching it.  No command names
``EXIT_FAIL`` or ``EXIT_UNDETERMINED`` either: a verdict reaches its exit
code through the verdict table, never by a command branching on it.

A private slot (``_name``) is written only by the module whose class
declares it in ``__slots__``: what a curve or polynomial keeps about
itself is computed where its type is defined.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellbrauer"
MODEL_NAMES = {"_integer_model", "_divide", "_deflate"}
# Exit codes a command reaches only through cli's verdict table.
VERDICT_EXITS = {"EXIT_FAIL", "EXIT_UNDETERMINED"}
# Statements that can catch an error; TryStar exists from Python 3.11 on.
CATCHING = tuple(
    getattr(ast, name) for name in ("Try", "TryStar", "With") if hasattr(ast, name)
)


def _defined(tree: ast.AST) -> set[str]:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _names(node: ast.AST) -> set[str]:
    """The names one node imports, reads or looks up as an attribute."""
    if isinstance(node, ast.alias):
        return {node.name.rsplit(".", 1)[-1], node.asname or node.name}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _referenced(tree: ast.AST) -> set[str]:
    """Names imported, read or looked up as attributes anywhere in the module."""
    return {name for node in ast.walk(tree) for name in _names(node)}


def test_integer_models_stay_in_exactalg():
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert "exactalg" in modules and "funcfield" in modules
    assert MODEL_NAMES <= _defined(modules.pop("exactalg"))
    leaks = {
        name: sorted(MODEL_NAMES & (_defined(tree) | _referenced(tree)))
        for name, tree in modules.items()
    }
    assert {name: found for name, found in leaks.items() if found} == {}


def _scopes_referencing(tree: ast.AST, name: str) -> set[str]:
    """Qualified names of the functions that reference name; "" for module level."""
    scopes = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if name in _names(child):
                scopes.add(scope)
            visit(child, scope)

    visit(tree, "")
    return scopes


def test_factor_search_has_one_way_in():
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert "_factor_model" in _defined(modules["exactalg"])
    scopes = {
        f"{module}.{scope}"
        for module, tree in modules.items()
        for scope in _scopes_referencing(tree, "_factor_model")
    }
    assert scopes == {"exactalg.factor_over"}


def _private_funcfield_names(tree: ast.AST) -> set[str]:
    """Underscore names imported from funcfield or looked up on it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("funcfield"):
            names.update(a.name for a in node.names if a.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "funcfield"
            and node.attr.startswith("_")
        ):
            names.add(node.attr)
    return names


def test_no_module_reaches_into_funcfield():
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert "funcfield" in modules
    del modules["funcfield"]
    leaks = {name: sorted(_private_funcfield_names(tree)) for name, tree in modules.items()}
    assert {name: found for name, found in leaks.items() if found} == {}


def test_only_cli_main_prints():
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    callers = {
        f"{name}.{scope}"
        for name, tree in modules.items()
        for scope in _scopes_referencing(tree, "print")
    }
    assert callers == {"cli.main"}


def _cli_commands() -> list[ast.FunctionDef]:
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    commands = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(commands) >= 8
    return commands


def test_no_cli_command_catches():
    catching = sorted(
        command.name
        for command in _cli_commands()
        for node in ast.walk(command)
        if isinstance(node, CATCHING)
    )
    assert catching == []


def test_no_cli_command_chooses_a_verdict_exit():
    choosing = sorted(
        command.name
        for command in _cli_commands()
        for node in ast.walk(command)
        if isinstance(node, ast.Name) and node.id in VERDICT_EXITS
    )
    assert choosing == []


def _declared_slots(tree: ast.AST) -> set[str]:
    """The names listed in any literal ``__slots__`` of the module."""
    return {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }


def _private_writes(tree: ast.AST) -> set[str]:
    """Each ``_name`` (one leading underscore) stored as ``obj._name``, obj not self."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    }


def test_no_module_writes_another_modules_private_slot():
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {"elliptic", "exactalg", "brauer"} <= set(modules)
    leaks = {
        name: sorted(_private_writes(tree) - _declared_slots(tree))
        for name, tree in modules.items()
    }
    assert {name: found for name, found in leaks.items() if found} == {}
