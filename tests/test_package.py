import ast
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import types

import pytest

import cyclosum
from test_cli_golden import GOLDEN

SRC = pathlib.Path(cyclosum.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent

# Exported for the second exact route of the oracle, which does not call
# it yet; the exception goes once cross_check does.
NOT_YET_CALLED = {"exact_newton_powersums"}


def test_all_entries_resolve_and_are_not_modules():
    assert cyclosum.__all__
    assert len(set(cyclosum.__all__)) == len(cyclosum.__all__)
    for name in cyclosum.__all__:
        value = getattr(cyclosum, name)
        assert not isinstance(value, types.ModuleType), name


def _uses(nodes):
    """(names read, attribute names read, relative imports) inside nodes."""
    walked = [n for node in nodes for n in ast.walk(node)]
    reads = {n.id for n in walked if isinstance(n, ast.Name)}
    attrs = {n.attr for n in walked if isinstance(n, ast.Attribute)}
    inner = {(n.module, a.name) for n in walked
             if isinstance(n, ast.ImportFrom) and n.level == 1 for a in n.names}
    return reads, attrs, inner


def _module_graph():
    """Per module of the package: its definitions, as name -> (names the
    definition reads, attribute names it reads, relative imports inside
    it), and its top-level relative imports, as local name -> (module,
    name).  The definitions are the top-level ones and, as
    "Class.method", each method of a class whose name is not a dunder;
    the class itself reads what the rest of its body reads."""
    graph = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs, imports = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (node.module, alias.name)
                continue
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not (m.name.startswith("__") and m.name.endswith("__"))]
                for method in methods:
                    defs[f"{node.name}.{method.name}"] = _uses([method])
                rest = [*node.bases, *node.keywords, *node.decorator_list,
                        *(m for m in node.body if m not in methods)]
                defs[node.name] = _uses(rest)
                continue
            if isinstance(node, ast.FunctionDef):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            for target in targets:
                defs[target] = _uses([node])
        graph[path.stem] = (defs, imports)
    return graph


def _reached_from_cli_main():
    """(module, name) of every definition that cli.main reaches through
    names it reads, following imports between the modules.  A method is
    reached when its class is and a reached definition reads its name as
    an attribute; dunders go with their class, since operators and
    protocols call them without naming them."""
    graph = _module_graph()
    reached, attrs, todo = set(), set(), [("cli", "main")]
    while todo:
        while todo:
            module, name = todo.pop()
            defs, imports = graph[module]
            if name in imports:
                todo.append(imports[name])
                continue
            if name not in defs or (module, name) in reached:
                continue
            reached.add((module, name))
            reads, read_attrs, inner = defs[name]
            todo.extend((module, read) for read in reads)
            todo.extend(inner)
            attrs |= read_attrs
        todo = [(module, name) for module, (defs, _imports) in graph.items()
                for name in defs if (module, name) not in reached
                and name.partition(".")[2] in attrs
                and (module, name.partition(".")[0]) in reached]
    return reached


def test_every_export_has_a_caller_in_the_cli():
    reached = _reached_from_cli_main()
    unreached = [
        name for name in cyclosum.__all__
        if (getattr(cyclosum, name).__module__.rpartition(".")[2], name) not in reached
    ]
    assert sorted(unreached) == sorted(NOT_YET_CALLED)


def test_every_top_level_definition_has_a_caller_in_the_cli():
    """Exported or not, each function, class and assignment at the top
    level of a module is reached from cli.main, so a routine that lost its
    last caller fails here.  __init__.py's __version__ and __all__ are
    package metadata, read by no module."""
    reached = _reached_from_cli_main()
    unreached = [
        name for module, (defs, _imports) in _module_graph().items() for name in defs
        if "." not in name and (module, name) not in reached
        and not (module == "__init__" and name in ("__version__", "__all__"))
    ]
    assert sorted(unreached) == sorted(NOT_YET_CALLED)


def test_every_method_has_a_caller_in_the_cli():
    """Each method of a class, dunders aside, is read as an attribute by
    a definition that cli.main reaches, so a method that lost its last
    caller fails here."""
    reached = _reached_from_cli_main()
    unreached = [
        f"{module}.{name}" for module, (defs, _imports) in _module_graph().items()
        for name in defs if "." in name and (module, name) not in reached
    ]
    assert unreached == []


def test_method_names_shared_between_classes_are_pinned():
    """The walk above matches a method by its attribute name alone, so a
    method whose only caller reads a same-named method of another class
    looks reached.  A new name defined on two or more classes must be
    added here after checking that each of them has a caller."""
    classes_defining = {}
    for defs, _imports in _module_graph().values():
        for name in defs:
            cls, _, method = name.partition(".")
            if method:
                classes_defining.setdefault(method, set()).add(cls)
    shared = {m for m, classes in classes_defining.items() if len(classes) > 1}
    assert shared == {"_coerce"}


# The text forms of exact values, all defined in exactcore.py.
PRINTERS = {"rat_str", "dyadic_str", "decimal_str", "poly_str"}


def _names_read(tree):
    """Every name a module reads, as a Name or as an attribute, with the
    node that reads it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_only_the_cli_prints():
    callers = sorted(
        path.name for path in SRC.glob("*.py")
        for name, node in _names_read(ast.parse(path.read_text(encoding="utf-8")))
        if name == "print"
    )
    assert set(callers) == {"cli.py"}


def test_only_the_cli_turns_values_into_text():
    """The library returns exact values and cli.py alone prints them.
    The one exception is oracle's refusal of a negative tolerance, whose
    message prints the tolerance by rat_str, past str()'s digit limit."""
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cli.py", "exactcore.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_raise = {id(n) for r in ast.walk(tree) if isinstance(r, ast.Raise)
                    for n in ast.walk(r)}
        reads += [(path.name, name, id(node) in in_raise)
                  for name, node in _names_read(tree) if name in PRINTERS]
    assert reads == [("oracle.py", "rat_str", True)]


def test_every_top_level_import_is_read():
    """Each name a module imports at top level is read in that module.
    __init__.py imports to re-export, and __future__ imports are
    directives, so both are left out."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += [f"{path.name}: {name}" for name in names if name not in reads]
    assert unread == []


def test_cli_imports_no_third_party_module():
    """The package runs on the standard library: a fresh interpreter that
    imports the CLI loads no mpmath, the tests' reference for the oracle."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, cyclosum.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# Runs the calls read from stdin (a JSON list of argv) through cli.main
# and prints [exit code, sha256 of stdout, sha256 of stderr] for each as
# JSON.
GOLDEN_CHILD = """
import contextlib, hashlib, io, json, sys
from cyclosum import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    results.append([rc] + [hashlib.sha256(t.getvalue().encode("utf-8")).hexdigest()
                           for t in (out, err)])
print(json.dumps(results))
"""


def _oldest_python() -> str:
    """python3.<minor> for the lowest version in requires-python; read by
    a regex, since tomllib is new in 3.11."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text).groups()
    return f"python{major}.{minor}"


def _starts(exe: str) -> bool:
    try:
        return subprocess.run([exe, "-c", "pass"], capture_output=True,
                              timeout=60).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def _pyenv_pythons(name: str) -> list:
    """The interpreters called name that pyenv has installed, newest
    first: pyenv's shim for name fails to start while another version
    is selected, though the interpreter itself is there."""
    if not shutil.which("pyenv"):
        return []
    try:
        root = subprocess.run(["pyenv", "root"], capture_output=True, text=True,
                              timeout=60).stdout.strip()
        versions = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True,
                                  text=True, timeout=60).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return []
    prefix = re.escape(name[len("python"):])
    found = [v for v in versions if re.fullmatch(prefix + r"(\.\d+)*", v)]
    found.sort(key=lambda v: [int(x) for x in v.split(".")], reverse=True)
    return [os.path.join(root, "versions", v, "bin", name) for v in found]


def test_oldest_supported_python_prints_the_same():
    """Every pinned CLI golden, replayed under the oldest Python that
    pyproject.toml admits, prints the pinned bytes."""
    name = _oldest_python()
    exe = name if _starts(name) else next(filter(_starts, _pyenv_pythons(name)), None)
    if exe is None:
        pytest.skip(f"{name} does not start")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), COLUMNS="80")
    res = subprocess.run([exe, "-c", GOLDEN_CHILD], env=env, capture_output=True, text=True,
                         input=json.dumps([argv for argv, *_ in GOLDEN]), timeout=300)
    assert res.returncode == 0, res.stderr
    results = json.loads(res.stdout)
    assert len(results) == len(GOLDEN)
    for (argv, *pinned), result in zip(GOLDEN, results):
        assert result == pinned, argv
