"""Every import in a package module is used.

Each module under src/chebcm except __init__.py is parsed with ast; a name
bound by an import must appear as a name somewhere in the module, unless
its line carries `# noqa: F401`.  Importing the CLI loads no rational
arithmetic.  Standard library only.
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


def test_runtime_imports_no_rational_arithmetic():
    # the package computes in integers only; fractions (which pulls in
    # decimal) is not loaded by any module the CLI imports
    code = "import sys, chebcm.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
