"""The spike audits stay free of numpy, whose import alone costs ~60 ms,
``cyclos.coincide`` loads no module beyond those its sources name, no
``cyclos`` source imports a name it does not use or keeps a private helper
or an UPPER_CASE constant that nothing reads, every parameter default is
overridden by some call, and every error class is named outside
``errors.py``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the standard-library modules that cyclos.coincide and the modules it imports name
COINCIDE_STDLIB = ("__future__", "bisect", "collections", "contextlib", "dataclasses",
                   "fractions", "functools", "math", "numbers", "operator", "typing")
COINCIDE_OWN = {"cyclos", "cyclos.chaincore", "cyclos.coincide", "cyclos.errors",
                "cyclos.persist", "cyclos.phasecode", "cyclos.ratlin"}


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports from ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_spike_modules_do_not_import_numpy():
    run_fresh(
        "import sys\n"
        "import cyclos.coincide, cyclos.persist, cyclos.chaincore, cyclos.phasecode\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert 'numpy' not in sys.modules, loaded\n"
    )


def test_coincide_loads_nothing_beyond_its_named_imports():
    # on CPython 3.11 the import loads 24 modules in all: the seven above, the
    # named ones that start-up has not loaded, and what fractions and
    # dataclasses load; an import added to any of the seven shows up here
    loaded = run_fresh(
        "import sys\n"
        f"for name in {COINCIDE_STDLIB!r}:\n"
        "    __import__(name)\n"
        "before = set(sys.modules)\n"
        "import cyclos.coincide\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    assert set(loaded.split()) == COINCIDE_OWN


def loaded_names(node: ast.AST) -> set[str]:
    """The names `node` reads, string annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        annotation = getattr(sub, "annotation", None) or getattr(sub, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= loaded_names(ast.parse(annotation.value, mode="eval"))
    return names


def source_trees() -> dict[str, ast.Module]:
    """The parsed ``cyclos`` sources by file name."""
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted((SRC / "cyclos").glob("*.py"))}


def test_sources_hold_no_unused_import_or_private_helper():
    modules = source_trees()
    # per top-level statement: the names and attributes it reads
    reads = {(name, index): loaded_names(stmt) | {sub.attr for sub in ast.walk(stmt)
                                                  if isinstance(sub, ast.Attribute)}
             for name, tree in modules.items() for index, stmt in enumerate(tree.body)}
    problems = []
    for name, tree in modules.items():
        used = loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        problems.append(f"{name}:{node.lineno} imports {bound}, never used")
        for index, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for helper in defined:
                private = helper.startswith("_") and not helper.startswith("__")
                # a reference anywhere in the package but the helper's own definition
                if (private or helper.isupper()) and not any(
                        helper in names for key, names in reads.items() if key != (name, index)):
                    problems.append(f"{name}:{stmt.lineno} defines {helper}, never referenced")
    assert problems == []


def parameter_defaults(tree: ast.Module):
    """(names a call may use, parameter, position in a call's arguments or None)
    for each parameter default in ``tree``. A method's position leaves out
    ``self`` or ``cls``, and an ``__init__`` is called by its class's name too."""
    owners = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(id(node))
        names = {node.name} | ({owner.name} if owner and node.name == "__init__" else set())
        bound = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield names, arg.arg, index - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield names, arg.arg, None


def test_every_parameter_default_is_overridden_by_some_call():
    # a default that every call leaves in place is a constant under a parameter's name;
    # calls match by name, and one with *args or **kwargs passes every parameter
    calls: dict[str, list[ast.Call]] = {}
    for folder in ("src", "tests", "benchmarks"):
        for path in sorted((SRC.parent / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    problems = []
    for module, tree in source_trees().items():
        for names, parameter, position in parameter_defaults(tree):
            if not any(any(isinstance(arg, ast.Starred) for arg in call.args)
                       or any(k.arg in (None, parameter) for k in call.keywords)
                       or position is not None and position < len(call.args)
                       for name in names for call in calls.get(name, [])):
                problems.append(f"{module}: no call passes {'/'.join(sorted(names))}({parameter})")
    assert problems == []


def test_every_error_class_is_named_by_another_module():
    # a failure mode whose raise is deleted must take its class along
    modules = source_trees()
    subclasses = set()
    for stmt in modules.pop("errors.py").body:
        if isinstance(stmt, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in subclasses | {"CyclosError"}
                for base in stmt.bases):
            subclasses.add(stmt.name)
    named = set().union(*map(loaded_names, modules.values()))
    assert subclasses and sorted(subclasses - named) == []
