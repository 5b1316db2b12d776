"""Every name a ``trafficlab`` module imports is used in that module,
every member it defines is reached from ``src/`` or ``benchmarks/``, and
importing the package's modules stays cheap.

A name a module imports for others to read (say, a name the benchmark
looks up there) is marked ``# noqa: F401`` on its import line and is
exempt.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "trafficlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                exempt = {alias.lineno, node.lineno}
                if any("# noqa: F401" in lines[n - 1] for n in exempt):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_plain_from_and_exempt_imports():
    source = ("import math\nimport os.path\nfrom json import dumps, loads\n"
              "from re import sub  # noqa: F401 (re-exported)\n"
              "print(os.path.sep, loads)\n")
    assert unused_imports(source) == ["dumps (line 3)", "math (line 1)"]


def _mentions(tree, names: bool = True) -> list[str]:
    """Every attribute and string constant in ``tree``, and every bare
    name too unless ``names`` is false."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and names:
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append(node.value)
    return found


def unreached_members(package_sources: dict[str, str],
                      reader_sources: list[str]) -> list[str]:
    """``module:name`` of each function, method, property or class that
    the package defines and whose name appears nowhere in the package or
    the readers outside its own definition. A method or property is
    reached only through an attribute or a string, never through a bare
    name (a local variable that shares its name, say). Dunders are
    exempt."""
    trees = {module: ast.parse(text) for module, text in package_sources.items()}
    readers = [*trees.values(), *map(ast.parse, reader_sources)]
    # mentions by name, with and without bare names
    mentions = {names: Counter(m for tree in readers
                               for m in _mentions(tree, names))
                for names in (True, False)}
    methods = {id(member) for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for member in node.body}
    unreached = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            names = id(node) not in methods
            if mentions[names][name] == _mentions(node, names).count(name):
                unreached.append(f"{module}:{name}")
    return sorted(unreached)


def test_every_member_is_reached_from_src_or_benchmarks():
    """A member that no module of the package and no benchmark file names
    serves only the tests, and belongs with them. The check matches names
    only, so it cannot flag a member that shares its name with a used one
    (a ``flatten`` method beside another class's ``flatten`` that the
    benchmark calls, say)."""
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "benchmarks").rglob("*.py"))]
    assert unreached_members(package, readers) == []


def test_reachability_check_sees_methods_properties_and_strings():
    package = {"m.py": (
        "class A:\n"
        "    def __init__(self): self.go()\n"
        "    def go(self): return self.spare\n"
        "    @property\n"
        "    def spare(self): return 1\n"
        "    def loop(self): return self.loop()\n"
        "    @property\n"
        "    def m(self): return 2\n"
        "def named(): pass\n"
        "def lone(): pass\n"
        "def walk(rows): return [m for m in rows]\n")}
    # a bare name reaches a function or a class, never a method or a
    # property: the loop variable m does not reach A.m
    readers = ["TABLE = {'named': 1}\nA()\nwalk([])\n"]
    assert unreached_members(package, readers) == [
        "m.py:lone", "m.py:loop", "m.py:m"]


def test_importing_the_harness_loads_no_process_pool():
    # the pool is imported by the multi-worker run that uses it, so a
    # single-worker command does not pay for multiprocessing at start-up
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = ("import sys, trafficlab.harness; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
