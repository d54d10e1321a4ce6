"""Every name in ``src/momrank`` has a caller in the library or its benchmark.

The library is what the CLI, ``fit`` and ``perfbench`` call. A function,
class, method or constant that only tests use belongs in ``tests/oracles.py``
or in the test that needs it. This holds for public names and for private
module-level functions, classes and constants alike. A name counts as used when code in ``src/`` or
``perfbench/`` outside the name's own definition loads it, reads it as an
attribute, imports it, or spells it in a string constant, because
``perfbench/tracer.py`` binds the functions it wraps by name. Names are
matched without their module or class, so an unused method passes while
another attribute of the same name is in use.

A parameter default is an option too: each defaulted parameter of a
module-level function or method needs a call in ``src/`` or ``perfbench/``
that sets it, or it becomes a constant, and a call there that omits it, or
it becomes required.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "momrank").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def references(tree: ast.AST) -> Counter:
    """How often each name is used under ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.update(parts)
    return found


def public_definitions(tree: ast.Module):
    """(qualified name, bare name, defining node) of each public top-level
    function, class, method and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, name.id, node


def private_definitions(tree: ast.Module):
    """(name, name, defining node) of each private top-level function, class and
    constant; dunder names such as ``__all__`` are protocol, not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, name, node


def names_without_caller(definitions) -> list[str]:
    used = Counter()
    for path in CALLERS:
        used += references(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, bare, node in definitions(tree):
            if used[bare] - references(node)[bare] <= 0:
                unused.append(f"{path.name}: {qualified}")
    return unused


def test_every_public_name_has_a_library_or_benchmark_caller():
    unused = names_without_caller(public_definitions)
    assert not unused, "no caller in src/ or perfbench/: " + ", ".join(unused)


def test_every_private_module_level_name_has_a_library_or_benchmark_caller():
    unused = names_without_caller(private_definitions)
    assert not unused, "no caller in src/ or perfbench/: " + ", ".join(unused)


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is public, in the module that owns it
    imported = [f"{path.name}: {alias.name}" for path in LIBRARY
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").startswith("momrank"))
                for alias in node.names if alias.name.startswith("_")]
    assert not imported, "private names imported from another module: " + ", ".join(imported)


def defaulted_parameters(tree: ast.Module):
    """(qualified name, callee name, parameter, position) of each defaulted parameter
    of a module-level function or method. A method is called without its first
    parameter, and ``__init__`` is called by its class's name; a keyword-only
    parameter has no position."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaulted(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    yield from _defaulted(f"{node.name}.{item.name}", callee, item,
                                          0 if static else 1)


def _defaulted(qualified: str, callee: str, fn: ast.FunctionDef, skipped: int):
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield qualified, callee, arg.arg, i - skipped
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield qualified, callee, arg.arg, None


def sets(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` passes ``parameter`` by keyword, by position or through
    ``*args`` or ``**kwargs``."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    return position is not None and (
        position < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args))


def defaulted_parameters_and_calls():
    """(``module: function(parameter)``, the calls of its function in ``src/`` and
    ``perfbench/``, parameter, position) of each defaulted parameter."""
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    for path in LIBRARY:
        for qualified, callee, parameter, position in defaulted_parameters(
                ast.parse(path.read_text(encoding="utf-8"))):
            yield (f"{path.name}: {qualified}({parameter})", calls.get(callee, []), parameter,
                   position)


def test_every_defaulted_parameter_is_set_by_a_library_or_benchmark_caller():
    never_set = [name for name, calls, parameter, position in defaulted_parameters_and_calls()
                 if not any(sets(call, parameter, position) for call in calls)]
    assert not never_set, "no call in src/ or perfbench/ sets: " + ", ".join(never_set)


def test_every_defaulted_parameter_is_omitted_by_a_library_or_benchmark_caller():
    # the converse: a default that every call overrides serves only tests
    always_set = [name for name, calls, parameter, position in defaulted_parameters_and_calls()
                  if all(sets(call, parameter, position) for call in calls)]
    assert not always_set, "every call in src/ or perfbench/ sets: " + ", ".join(always_set)
