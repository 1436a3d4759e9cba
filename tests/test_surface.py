"""Guard against code that only the tests reach.

Every function, method and property defined in ``src/nhtrap`` must be
referenced somewhere in ``src/nhtrap`` outside its own definition.  The
check is by name: a call ``obj.name(...)``, an attribute read or a bare
name anywhere in the package counts for every definition called ``name``.
A few names are used from outside the package and are listed in
``ALLOWED`` with the reason; each of them must still be defined and
otherwise unreferenced, so the list cannot go stale.
"""

import ast
from pathlib import Path

import nhtrap

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nhtrap"
TRACER = ROOT / "perfbench" / "tracer.py"

# names used only from outside src/nhtrap, with the reason each stays
ALLOWED = {
    "variational_matrix": "wrapped by the benchmark tracer (perfbench/tracer.py)",
    "conserved": "wrapped by the benchmark tracer (perfbench/tracer.py)",
}


def _definitions(tree):
    """(name, first line, last line) of every function and method."""
    return [
        (node.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _references(tree):
    """(name, line) of every bare name and attribute the module reads."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def _unreferenced():
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    refs = {name: _references(tree) for name, tree in modules.items()}
    missing = set()
    for module, tree in modules.items():
        for name, first, last in _definitions(tree):
            used = any(
                ref == name and not (other == module and first <= line <= last)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            )
            if not used:
                missing.add(name)
    return missing


def _exempt(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")  # called by Python itself
    return dunder or name in nhtrap.__all__  # the package's public exports


def test_every_definition_is_referenced_in_the_package():
    missing = {name for name in _unreferenced() if not _exempt(name)}
    assert missing == set(ALLOWED)


def test_allowlisted_names_are_wrapped_by_the_tracer():
    tracer = TRACER.read_text()
    for name in ALLOWED:
        assert f'"{name}"' in tracer or f".{name}" in tracer, name
