"""Guard against code and knobs that only the tests reach.

Every function, method and property defined in ``src/nhtrap`` must be
referenced somewhere in ``src/nhtrap`` outside its own definition.  The
check is by name: a call ``obj.name(...)``, an attribute read or a bare
name anywhere in the package counts for every definition called ``name``.
A few names are used from outside the package and are listed in
``ALLOWED`` with the reason; each of them must still be defined and
otherwise unreferenced, so the list cannot go stale.

Every settable value, a parameter or dataclass field with a default, must
be passed by some call in ``src/nhtrap``.  Calls resolve by name as above:
``name(...)``, ``obj.name(...)`` and ``functools.partial(name, ...)`` all
call every function, method or class called ``name``, and a value counts
as passed by keyword or by position (a ``*args`` fills every position
from its own on).  A ``**mapping`` passes nothing the guard can see.  The
values set only from outside the package are in ``ALLOWED_SETTABLE``,
which is held to the same rule as ``ALLOWED``.

Every dataclass field defined in ``src/nhtrap`` must be read as an
attribute, ``obj.field``, somewhere in ``src/nhtrap``; by name again, so a
read counts for every field of that name.  A field that is only stored
carries data no one uses.  The fields read only from outside the package
are in ``ALLOWED_UNREAD``, held to the same rule.

Matching by name has a blind spot: a field no one reads passes when a
field or attribute of the same name is read elsewhere.  It let four
unread fields through, since deleted: ``FlowResult.nfev``, passed by the
reads ``sol.nfev`` and ``stepper.nfev``; ``SpectrumReport.kind`` and
``SpectrumReport.window``, passed by ``problem.kind`` and
``problem.window``; and ``CapProblem.kind``, whose one read,
``problem.kind``, only filled ``SpectrumReport.kind``.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import nhtrap
from nhtrap.config import KNOWN_KEYS, RunConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nhtrap"
TRACER = ROOT / "perfbench" / "tracer.py"

# names used only from outside src/nhtrap, with the reason each stays
ALLOWED = {
    "variational_matrix": "wrapped by the benchmark tracer (perfbench/tracer.py)",
    "conserved": "wrapped by the benchmark tracer (perfbench/tracer.py)",
    "grad_hess_raw": "wrapped by the benchmark tracer (perfbench/tracer.py)",
}

# "owner.value" set only from outside src/nhtrap, with the reason each stays
ALLOWED_SETTABLE = {
    "resolvent_norm.max_iter": "the benchmark tracer reads its default (perfbench/tracer.py)",
    "main.argv": "the console entry point calls main() with none",
    **{
        f"Outcome.{name}": "an accumulator each handler appends to"
        for name in ("summaries", "csvs", "jsons", "failures")
    },
    **{
        f"RunConfig.{field}": "parse_config passes the config keys the text sets as **fields"
        for field in {key.replace(".", "_") for key in KNOWN_KEYS}
        & {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
    },
}


# "Class.field" read only from outside src/nhtrap, with the reason each stays
ALLOWED_UNREAD = {
    "ConservedTriple.p": "kerr.conserved builds it, and only the benchmark tracer "
    "wraps conserved (perfbench/tracer.py)",
}


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


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
    modules = _modules()
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


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"
        for deco in node.decorator_list
    )


def _signature(func, is_method: bool):
    """(parameter names in call order, names of those with a default)."""
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    with_default = set(positional[len(positional) - len(args.defaults):])
    with_default |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    static = any(_name(deco) == "staticmethod" for deco in func.decorator_list)
    if is_method and not static:
        positional = positional[1:]  # self
    return positional, with_default


def _settable(tree):
    """{"owner.value": (owner, value, position or None)} of every parameter and
    dataclass field with a default; the owner of a field or of an
    ``__init__`` parameter is its class."""
    found = {}

    def add(owner, positional, with_default):
        for name in with_default:
            index = positional.index(name) if name in positional else None
            found[f"{owner}.{name}"] = (owner, name, index)

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)]
                    add(
                        child.name,
                        [f.target.id for f in fields],
                        {f.target.id for f in fields if f.value is not None},
                    )
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional, with_default = _signature(child, cls is not None)
                owner = cls.name if cls is not None and child.name == "__init__" else child.name
                add(owner, positional, with_default)
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return found


def _calls(tree):
    """(callee name, positional argument nodes, keyword names) of every call."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee, args = _name(node.func), node.args
        if callee == "partial" and args:
            callee, args = _name(args[0]), args[1:]
        calls.append((callee, args, {kw.arg for kw in node.keywords if kw.arg is not None}))
    return calls


def _passes(call, name: str, index) -> bool:
    _, args, keywords = call
    if name in keywords:
        return True
    if index is None:
        return False
    starred = [i for i, arg in enumerate(args) if isinstance(arg, ast.Starred)]
    return index < len(args) or (bool(starred) and index >= starred[0])


def _unset():
    modules = _modules()
    settable = {}
    for tree in modules.values():
        settable.update(_settable(tree))
    calls = [call for tree in modules.values() for call in _calls(tree)]
    return {
        key
        for key, (owner, name, index) in settable.items()
        if not any(call[0] == owner and _passes(call, name, index) for call in calls)
    }


def _unread_fields():
    """"Class.field" of every dataclass field no attribute read names."""
    trees = _modules().values()
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        f"{node.name}.{stmt.target.id}"
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
    }


def test_every_definition_is_referenced_in_the_package():
    missing = {name for name in _unreferenced() if not _exempt(name)}
    assert missing == set(ALLOWED)


def test_allowlisted_names_are_wrapped_by_the_tracer():
    tracer = TRACER.read_text()
    for name in ALLOWED:
        assert f'"{name}"' in tracer or f".{name}" in tracer, name


def test_tracer_installs():
    # the tracer rebinds package names (flow.solve_ivp, trapping.solve_ivp,
    # capspec.sla, resolvent_norm's max_iter default); deleting one breaks
    # the benchmark's traced pass, so install it in a fresh interpreter
    probe = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "tracer.Tracer().install()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr


def test_every_settable_value_is_set_in_the_package():
    assert _unset() == set(ALLOWED_SETTABLE)


def test_every_dataclass_field_is_read_in_the_package():
    assert _unread_fields() == set(ALLOWED_UNREAD)
