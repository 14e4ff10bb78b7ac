"""Guard against public API that nothing in the package uses.

A public top-level function or class of ``src/confinement_lab`` must be
referenced somewhere in the package (as a name, an attribute or an import).
The exceptions are oracles kept for the tests on purpose; a new one needs a
deliberate entry in ``ALLOWED``.
"""

import ast
from pathlib import Path

import confinement_lab

# Paper and self-test oracles that only the tests call.
ALLOWED = {"lipschitz_check", "plaquette_phases", "ground_state_deficit", "solver_selftest"}


def test_every_public_definition_is_used_in_the_package():
    defined, used = set(), set()
    for path in Path(confinement_lab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined - used == ALLOWED
