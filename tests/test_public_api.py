"""Every public module-level function, class, table and constant of the
package is used in the package itself: none survives only because its own
test reads it.
Every name a module imports is used in that module. And a value is checked
when it is built, never again where it is used."""

import ast
from pathlib import Path

import mtcate

SRC = Path(mtcate.__file__).resolve().parent

# Used from outside the package on purpose: the trend workload definition
# that the benchmark, the trend script and the acceptance tests import.
USED_OUTSIDE = {("trend", "trend_config")}


def public_definitions(tree):
    """The public functions, classes and assigned names (tables, constants)
    at the top level of `tree`."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names if not name.startswith("_")}


def references(tree, module):
    """(module, name) pairs `tree` refers to: a bare name is looked up in
    `module` itself, a relative import names its module, and an attribute of
    a relative-imported module names that module."""
    refs, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module:
                    refs.add((node.module, alias.name))
                else:  # from . import harness
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((module, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            refs.add((modules[node.value.id], node.attr))
    return refs


def parse_package():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}


def test_every_public_definition_is_used_in_the_package():
    trees = parse_package()
    assert {"mtrnet", "nn", "trend"} <= set(trees)
    used = set().union(*(references(tree, module) for module, tree in trees.items()))
    unused = sorted(f"{module}.{name}" for module, tree in trees.items()
                    for name in public_definitions(tree)
                    if (module, name) not in used | USED_OUTSIDE)
    assert unused == []


def imported_names(tree):
    """The names `tree`'s import statements bind (`import a.b` binds `a`),
    except `from __future__` features."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_imported_name_is_used():
    trees = parse_package()
    assert {"mtrnet", "nn", "trend"} <= set(trees)
    unused = sorted(f"{module}.{name}" for module, tree in trees.items()
                    for name in imported_names(tree) - {
                        node.id for node in ast.walk(tree)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)})
    assert unused == []


def validate_calls(node, inside=False):
    """(line, inside) for each `.validate()` call under `node`; `inside` is
    true within the body of a `validate` or `__post_init__`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside or node.name in ("validate", "__post_init__")
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "validate"):
        yield node.lineno, inside
    for child in ast.iter_child_nodes(node):
        yield from validate_calls(child, inside)


def test_validate_is_called_only_while_a_value_is_built():
    trees = parse_package()
    calls = [(f"{module}:{line}", inside) for module, tree in trees.items()
             for line, inside in validate_calls(tree)]
    assert [where for where, inside in calls if not inside] == []
    assert {where.split(":")[0] for where, inside in calls if inside} >= {"errors", "data"}
