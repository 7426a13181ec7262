"""Every import in a package module is used, and every private function.

Each module under src/chebcm except __init__.py is parsed with ast; a name
bound by an import must appear as a name somewhere in the module, unless
its line carries `# noqa: F401`.  A private top-level function or private
method (one underscore or two, not a dunder) must be referenced, as a name
or an attribute, somewhere in the package.  Importing the CLI loads no
rational arithmetic.  Standard library only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chebcm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import gcd, lcm\nprint(gcd)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = []
    for name, tree in trees.items():
        defs = [node for node in tree.body if isinstance(node, functions)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [node for node in cls.body if isinstance(node, functions)]
        for node in defs:
            private = node.name.startswith("_") and not node.name.endswith("__")
            if private and node.name not in used:
                unused.append(f"{name} line {node.lineno}: {node.name}")
    return unused


def test_checker_flags_an_unreferenced_private_function():
    sources = {
        "a.py": "def _kept():\n    pass\n\ndef _dead():\n    pass\n",
        "b.py": (
            "from a import _kept\n"
            "_kept()\n"
            "class C:\n"
            "    def __len__(self):\n        return self._used()\n"
            "    def _used(self):\n        return 0\n"
            "    def _unused(self):\n        return 1\n"
        ),
    }
    assert unreferenced_privates(sources) == ["a.py line 4: _dead", "b.py line 8: _unused"]


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_runtime_imports_no_rational_arithmetic():
    # the package computes in integers only; fractions (which pulls in
    # decimal) is not loaded by any module the CLI imports
    code = "import sys, chebcm.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
