"""Guard against public API and options that nothing in the package uses.

Tests are not callers.  A public top-level function or class of
``src/confinement_lab`` must be referenced somewhere in the package (as a
name, an attribute or an import), and a public method of such a class as an
attribute.  The exceptions are oracles kept for the tests on purpose; a new
one needs a deliberate entry in ``ALLOWED`` or ``ALLOWED_METHODS``.  These
exempt definitions only, never a parameter.

An optional parameter must be set by some call in the package or the
benchmark: a default that only tests override is a constant, and a test
changes it by monkeypatching the module constant.  A module-level constant (an
upper-case name) must be read somewhere in the package.  The package reads no
environment variable, so a removed option cannot return as one.
"""

import ast
import re
from pathlib import Path

import confinement_lab

PACKAGE = Path(confinement_lab.__file__).parent
CHECKOUT = Path(__file__).resolve().parents[1]

# Paper and self-test oracles that only the tests call.
ALLOWED = {"lipschitz_check", "plaquette_phases", "ground_state_deficit", "solver_selftest"}
# Closed-form values of the example fields that only the tests call.
ALLOWED_METHODS = {"PolytopeField.exact_b12", "DiskCounterexampleField.margin_exact",
                   "MonopoleField.flux_through_sphere"}
# The ways to read (or set) the process environment.
ENVIRONMENT = {"environ", "getenv", "putenv"}


def _package_names():
    """(top-level definitions, "Class.method" names, names referenced, and
    the attribute names among them)."""
    defined, methods, used, attrs = set(), set(), set(), set()
    for path in PACKAGE.glob("*.py"):
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


def test_every_module_constant_is_read_in_the_package():
    constants, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                constants |= {f"{path.stem}.{t.id}" for target in node.targets
                              for t in ast.walk(target) if isinstance(t, ast.Name)
                              and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)}
        read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                 if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    assert sorted(c for c in constants if c.split(".")[1] not in read) == []


def _trees(folder):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(folder.rglob("*.py"))]


def _optional_parameters(trees):
    """(callee name, label, parameter, positional index or None, json_keys) for
    every parameter with a default of a top-level function or a method.  A
    method's index skips ``self``; a constructor is called by its class name."""
    found = []
    for tree in trees:
        owners = [(None, tree.body)] + [(c, c.body) for c in ast.walk(tree)
                                        if isinstance(c, ast.ClassDef)]
        for cls, body in owners:
            json_keys = ()
            for node in body:
                if isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "json_keys" for t in node.targets):
                    json_keys = ast.literal_eval(node.value)
            for fn in body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                shift = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                callee = cls.name if fn.name == "__init__" else fn.name
                label = f"{cls.name}.{fn.name}" if cls is not None else fn.name
                keys = json_keys if fn.name == "__init__" else ()
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((callee, label, arg.arg, i - shift, keys))
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        found.append((callee, label, arg.arg, None, keys))
    return found


def test_every_optional_parameter_is_set_by_some_call():
    # A constructor's json_keys count as set: ``_decode`` passes them by name.
    # Calls in the tests do not count.
    calls = {}
    for tree in _trees(PACKAGE) + _trees(CHECKOUT / "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def is_set(callee, arg, index):
        for call in calls.get(callee, []):
            positional = [a for a in call.args if not isinstance(a, ast.Starred)]
            if any(k.arg == arg for k in call.keywords) or (
                    index is not None and len(positional) > index):
                return True
        return False

    unset = [f"{label}({arg})" for callee, label, arg, index, keys
             in _optional_parameters(_trees(PACKAGE))
             if arg not in keys and not is_set(callee, arg, index)]
    assert unset == []


def test_src_reads_no_environment_variables():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                    and getattr(node.value, "id", None) == "os"):
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in ENVIRONMENT]
    assert reads == []
