"""Every import in a package module is used, and every private function.

Each module under src/chebcm except __init__.py is parsed with ast; a name
bound by an import must appear as a name somewhere in the module, unless
its line carries `# noqa: F401`.  A private top-level function or private
method (one underscore or two, not a dunder) must be referenced, as a name
or an attribute, somewhere in the package.  A public one must be reached
from chebcm.cli or chebcm.report: named there, or named in the body of a
function that is reached, where a name reaches every function or method
of that name in the package; or it must be in PUBLIC_UNREACHED, with the
reason it stays.  Importing the CLI loads no rational arithmetic.
Standard library only.
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


# public functions and methods that neither the CLI nor the report reaches
PUBLIC_UNREACHED = {
    "cm_trace_pattern_c2": "the C_2 trace-pattern check; perfbench's trace-c2 workload runs it",
    "field_tower": "the moduli of oracles.count_points_naive; perfbench reads its cache_info()",
}


def unreached_publics(sources: dict[str, str], roots=("cli.py", "report.py")) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def names(node):
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
        return out

    defs = []  # (module, function or method)
    bodies = {}  # name -> the nodes that reaching it runs
    for name, tree in trees.items():
        defs += [(name, node) for node in tree.body if isinstance(node, functions)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            methods = [node for node in cls.body if isinstance(node, functions)]
            defs += [(name, node) for node in methods]
            # a class runs its dunders (__init__, operators) implicitly
            implicit = [node for node in cls.body if node not in methods or node.name.startswith("__")]
            bodies.setdefault(cls.name, []).extend(implicit)
    for _, node in defs:
        bodies.setdefault(node.name, []).append(node)
    reached, todo = set(), [n for root in roots if root in trees for n in names(trees[root])]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for node in bodies.get(name, ()) for n in names(node)]
    return [
        f"{name} line {node.lineno}: {node.name}"
        for name, node in defs
        if not node.name.startswith("_") and node.name not in reached
    ]


def test_checker_flags_an_unreached_public_function():
    sources = {
        "cli.py": "from a import run\nrun()\n",
        "a.py": (
            "def run():\n    return Box().used()\n"
            "def spare():\n    pass\n"
            "class Box:\n"
            "    def __init__(self):\n        self.v = made()\n"
            "    def used(self):\n        return helper()\n"
            "    def unused(self):\n        return 1\n"
            "def helper():\n    return 0\n"
            "def made():\n    return 0\n"
        ),
    }
    assert unreached_publics(sources) == ["a.py line 3: spare", "a.py line 10: unused"]


def test_every_public_function_is_reached_or_listed():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unreached = {entry.rsplit(": ", 1)[1] for entry in unreached_publics(sources)}
    # a listed name that becomes reached, or is deleted, leaves the list
    assert unreached == set(PUBLIC_UNREACHED)


def test_runtime_imports_no_rational_arithmetic():
    # the package computes in integers only; fractions (which pulls in
    # decimal) is not loaded by any module the CLI imports
    code = "import sys, chebcm.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
