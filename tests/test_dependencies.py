"""numpy stays the only runtime dependency of the package.

An AST scan of every import statement in ``src/weaksym``: each imported
module must be in the standard library, numpy, or the package itself.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weaksym"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "weaksym"}


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_numpy_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    outside = [(path.name, name) for path in sources for name in imported_modules(path) if name not in ALLOWED]
    assert outside == []
