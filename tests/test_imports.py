"""Every name a ``trafficlab`` module imports is used in that module, and
importing the package's modules stays cheap.

A name a module imports for others to read (say, a name the benchmark
looks up there) is marked ``# noqa: F401`` on its import line and is
exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
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
