"""Guard against public API that nothing in the package uses.

A public top-level function or class of ``src/confinement_lab`` must be
referenced somewhere in the package (as a name, an attribute or an import),
and a public method of such a class as an attribute.  The exceptions are
oracles kept for the tests on purpose; a new one needs a deliberate entry in
``ALLOWED`` or ``ALLOWED_METHODS``.
"""

import ast
from pathlib import Path

import confinement_lab

# Paper and self-test oracles that only the tests call.
ALLOWED = {"lipschitz_check", "plaquette_phases", "ground_state_deficit", "solver_selftest"}
# Closed-form values of the example fields that only the tests call.
ALLOWED_METHODS = {"PolytopeField.exact_b12", "DiskCounterexampleField.margin_exact",
                   "MonopoleField.flux_through_sphere"}


def _package_names():
    """(top-level definitions, "Class.method" names, names referenced, and
    the attribute names among them)."""
    defined, methods, used, attrs = set(), set(), set(), set()
    for path in Path(confinement_lab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
                if isinstance(node, ast.ClassDef):
                    methods |= {f"{node.name}.{m.name}" for m in node.body
                                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, methods, used, attrs


def test_every_public_definition_is_used_in_the_package():
    defined, _, used, _ = _package_names()
    assert defined - used == ALLOWED


def test_every_public_method_is_used_in_the_package():
    # A method is called as an attribute; a local variable of the same name
    # (``row``, ``ground``) does not count as a use.
    _, methods, _, attrs = _package_names()
    assert {m for m in methods if m.split(".")[1] not in attrs} == ALLOWED_METHODS
