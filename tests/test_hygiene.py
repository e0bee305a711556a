"""Every import in the package modules and the tests is used.

No linter is a dependency of this project, so this walks the syntax tree of
each module: a name bound by an import must be referenced somewhere else in
the module as a plain name (an attribute access `linalg.rank` references
`linalg`). `__init__.py` is skipped, since its imports are the package's
exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "positroid").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused.extend(f"{path.relative_to(ROOT)}: {name}"
                      for name in _imported_names(tree) if name not in used)
    assert not unused, "unused imports:\n" + "\n".join(unused)
