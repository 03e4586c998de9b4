"""Every public name has a caller, every import is used, and the benchmark
tracer's targets resolve."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import lexmine

TRACER = Path(__file__).resolve().parents[1] / "lexbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("lexbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # the tracer skips a name the library no longer defines, and its
    # per-layer metric then reads 0 instead of failing
    tracer = load_tracer()
    missing = []
    for span, (module_name, attr) in tracer.SPANS.items():
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(span)
    for counter, (module_name, cls_name, attr) in tracer.COUNTED.items():
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if not callable(getattr(cls, attr, None)):
            missing.append(counter)
    assert missing == []


def test_tracer_argument_reads_name_the_parameter():
    # a hook reads a wrapped call's argument as `_arg(args, kwargs, N, "name")`:
    # by position N, else by keyword; a parameter renamed or moved would make
    # the hook read another argument, or fail only when called by keyword
    tracer = load_tracer()
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    hooked = {hook.__name__: span for span, hook in tracer.HOOKS.items()}
    reads, params = [], []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name not in hooked:
            continue
        module_name, attr = tracer.SPANS[hooked[node.name]]
        names = list(inspect.signature(
            getattr(importlib.import_module(module_name), attr)).parameters)
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                position, name = (arg.value for arg in call.args[2:])
                reads.append((attr, position, name))
                params.append((attr, position, names[position] if position < len(names) else None))
    assert reads
    assert params == reads


def public_names(tree) -> list[str]:
    """Module-level defs, classes and assignment targets without a leading _."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_caller():
    # a name is called when some module loads it as a name or an attribute;
    # an import alone does not count, and neither do strings
    source = Path(lexmine.__file__).resolve().parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in source.rglob("*.py")}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    uncalled = [f"{path.relative_to(source)}:{name}"
                for path, tree in trees.items() for name in public_names(tree)
                if name not in loaded]
    assert uncalled == []


def test_every_defaulted_parameter_is_passed():
    # a parameter with a default that no call in the package passes is a
    # knob nobody turns; a call passes it by position or by keyword
    source = Path(lexmine.__file__).resolve().parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in source.rglob("*.py")}
    passed = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                passed.update((name, i) for i in range(len(node.args)))
                passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    unpassed = []
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            unpassed += [f"{node.name}({arg})" for i, arg in defaulted
                         if (node.name, i) not in passed and (node.name, arg) not in passed]
    assert unpassed == []


def test_every_import_is_used():
    # every name an import binds, at module level or in a function, is
    # loaded somewhere in its module; `from __future__` binds nothing
    source = Path(lexmine.__file__).resolve().parent
    unused = []
    for path in source.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.relative_to(source)}:{node.lineno}:{name}"
                           for name in bound if name not in loaded]
    assert unused == []
