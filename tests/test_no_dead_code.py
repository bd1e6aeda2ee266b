"""Every public module-level function and class in src/symsos has a caller.

A name counts as used when it appears as an AST Name or Attribute in some
module of the package other than inside its own definition.  __init__.py
only re-exports, so it does not count; comments and docstrings never do.
Library API with no caller inside the package is listed in ALLOWED, each
with the reason it stays.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symsos"

ALLOWED = {
    "order_unit_certificate": "acceptance criterion 6 builds order-unit certificates",
    "reduce_identity": "acceptance criterion 5 checks the reduction round trip",
    "reynolds_gram": "acceptance criteria 2 and 4 average Gram matrices",
    "point_pseudoexpectation": "acceptance criterion 7 builds exact point functionals",
    "boolean_basis": "acceptance criterion 5 reduces modulo the Boolean cube",
    "serialize_problem": "library API: writes the problem format parse_problem reads",
    "expand": "library API: the polynomial a certificate claims to equal",
}


def _modules():
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _used_names(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_public_names():
    """Public module-level functions and classes that nothing in the
    package uses outside their own definition, as 'module.name'."""
    defined = {}  # name -> module
    uses = []  # (module, top-level definition name or None, names used)
    for path in _modules():
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined[owner] = module
            uses.append((module, owner, _used_names(stmt)))
    return sorted(f"{module}.{name}" for name, module in defined.items()
                  if not any(name in names and (mod, owner) != (module, name)
                             for mod, owner, names in uses))


def test_every_public_name_has_a_caller():
    unused = [qual for qual in unused_public_names()
              if qual.split(".")[1] not in ALLOWED]
    assert unused == []


def test_allow_list_is_still_needed():
    unused = {qual.split(".")[1] for qual in unused_public_names()}
    assert sorted(set(ALLOWED) - unused) == []
