"""Unused-import guard: every name an import binds is read in its file.

An AST scan of `src/`, `tests/`, `demos/` and `tools/`: each name that an
`import` or `from ... import` binds must be read (loaded) somewhere in
the same file.  Left out: `from __future__ import ...`, and the package
`__init__`, whose imports are its public re-exports.  `KEPT` names each
import that stays unread on purpose, with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "demos", "tools")
PACKAGE_INIT = ROOT / "src" / "integrable_lab" / "__init__.py"

KEPT = {
    ("src/integrable_lab/baxter_q.py", "tbinom"):
        "perfbench's tracer wraps tbinom in every module that binds it, and "
        "perfbench's tests assert this binding",
}


def unread_imports(source: str) -> set:
    """The names the imports of `source` bind and the file never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_import_is_read():
    unread = set()
    for folder in DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path != PACKAGE_INIT:
                rel = path.relative_to(ROOT).as_posix()
                unread |= {(rel, name) for name in unread_imports(path.read_text())}
    assert unread == set(KEPT)
    assert all(KEPT.values())


def test_an_unread_import_is_named():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as j\n"
              "from math import gcd, lcm\n"
              "def f(x): return os.sep + j.dumps(lcm(x))\n")
    assert unread_imports(source) == {"gcd"}
