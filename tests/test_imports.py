"""Every name a doldseq module imports is used in that module, and the CLI imports stay light.

The package's ``__init__`` is exempt from the first check: it imports
names to re-export them.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "doldseq"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in `source` that nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = _names(tree)
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):  # a quoted annotation
                used |= _names(ast.parse(node.value, mode="eval"))
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import NamedTuple, Optional\n"
        "from .polyring import IntPoly, mul\n"
        "def f(x: 'IntPoly | None') -> Optional[int]:\n"
        "    return mul(x, x)\n"
    )
    assert unused_imports(source) == ["NamedTuple", "os", "osp"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # each CLI call is a fresh process; dataclasses pulls in inspect, ast, dis and tokenize
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import doldseq.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
