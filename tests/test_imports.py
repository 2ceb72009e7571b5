"""Every import in src/fuzzformer/, tests/ and perfbench/ is used in the
module that makes it.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by ``import``/``from ... import``
must be read somewhere in the same module (``__future__`` imports are
compiler directives and are skipped).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# directory -> a module that must be found in it
DIRS = {
    ROOT / "src" / "fuzzformer": "autodiff.py",
    ROOT / "tests": "test_imports.py",
    ROOT / "perfbench": "run.py",
}
MODULES = sorted(path for directory in DIRS for path in directory.rglob("*.py"))


def unused_imports(source: str):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("directory", DIRS, ids=lambda d: str(d.relative_to(ROOT)))
def test_modules_found(directory):
    assert directory / DIRS[directory] in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom dataclasses import dataclass, field\n"
        "x = np.zeros(1)\n@dataclass\nclass A:\n    pass\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "field")]
