"""Every name a ``trafficlab`` module imports is used in that module.

``__init__.py`` only re-exports and is not checked. A name a module
imports for others to read (say, a name the benchmark looks up there)
is marked ``# noqa: F401`` on its import line and is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trafficlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
