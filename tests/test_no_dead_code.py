"""Every module-level function and class in src/symsos, every public
method and property of a public class, and every private method of any
class has a caller.

A name counts as used when it appears as an AST Name or Attribute in some
module of the package other than inside its own definition (for a method,
its own body).  __init__.py only re-exports, so it does not count;
comments and docstrings never do.  Library API with no caller inside the
package is listed in ALLOWED, each with the reason it stays.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symsos"

ALLOWED = {
    "order_unit_certificate": "acceptance criterion 6 builds order-unit certificates",
    "reynolds_gram": "acceptance criteria 2 and 4 average Gram matrices",
    "point_pseudoexpectation": "acceptance criterion 7 builds exact point functionals",
    "boolean_basis": "acceptance criterion 5 reduces modulo the Boolean cube",
    "serialize_problem": "library API: writes the problem format parse_problem reads",
    "Polynomial.coefficient": "test oracle: dense_match_columns reads it",
    "GroupSpec.symmetric": "library API: the symmetric group S(n)",
    "GroupSpec.trivial": "library API: the group with no symmetry",
}


def _modules():
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _uses(node, where=()):
    """(where, name) for each AST Name and Attribute under node, where
    being the top-level definition and the method or nested definition
    the use sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield where, child.id
        elif isinstance(child, ast.Attribute):
            yield where, child.attr
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and len(where) < 2:
            inner = where + (child.name,)
        yield from _uses(child, inner)


def _unused(selected):
    """The selected definitions that nothing in the package uses outside
    their own definition: module-level functions and classes as
    'module.name', methods as 'module.Class.name'.  selected takes the key
    (name,) or (class, method)."""
    defined = {}  # (name,) or (class, method) -> module
    uses = {}  # name -> [(module, where)]
    for path in _modules():
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, name in _uses(tree):
            uses.setdefault(name, []).append((module, where))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            keys = [(stmt.name,)]
            if isinstance(stmt, ast.ClassDef):
                keys += [(stmt.name, method.name) for method in stmt.body
                         if isinstance(method, ast.FunctionDef)]
            for key in filter(selected, keys):
                defined[key] = module
    return sorted(".".join((module,) + key) for key, module in defined.items()
                  if all((mod, where[:len(key)]) == (module, key)
                         for mod, where in uses.get(key[-1], ())))


def unused_public_names():
    """Public module-level functions and classes that nothing in the
    package uses outside their own definition, and public methods and
    properties of public classes that nothing uses outside their own body."""
    return _unused(lambda key: not any(part.startswith("_") for part in key))


def unused_private_names():
    """Private module-level functions and classes, and private methods of
    any class (dunder methods aside), that nothing in the package uses
    outside their own definition."""
    return _unused(lambda key: key[-1].startswith("_") and not key[-1].endswith("__"))


def test_every_public_name_has_a_caller():
    unused = [qual for qual in unused_public_names()
              if qual.split(".", 1)[1] not in ALLOWED]
    assert unused == []


def test_every_private_name_has_a_caller():
    assert unused_private_names() == []


def test_allow_list_is_still_needed():
    unused = {qual.split(".", 1)[1] for qual in unused_public_names()}
    assert sorted(set(ALLOWED) - unused) == []


def test_allow_list_criteria_still_import_their_names():
    """An entry kept for an acceptance criterion names something the
    acceptance battery imports, so it goes when the criterion stops using it."""
    battery = Path(__file__).parent / "test_acceptance.py"
    tree = ast.parse(battery.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    cited = [name for name, reason in ALLOWED.items()
             if re.search(r"acceptance criteri(on|a) [0-9]", reason)]
    assert cited
    assert [name for name in cited if name.split(".")[-1] not in imported] == []


def test_the_package_never_walks_the_group():
    """The group acts by adjacent swaps only: no module lists the
    permutations of a block."""
    walks = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "permutations"
                    and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
                walks.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "itertools" \
                    and any(alias.name == "permutations" for alias in node.names):
                walks.append(f"{path.name}:{node.lineno}")
    assert walks == []
