"""numpy stays the only runtime dependency of the package, and one module solves eigenproblems.

An AST scan of every import statement in ``src/weaksym``: each imported
module must be in the standard library, numpy, or the package itself. A
second scan finds every use of numpy's non-Hermitian eigensolvers, ``eig``
and ``eigvals``: only ``numerics.py`` may make one, so every transfer
spectrum goes through its dense or Krylov path. ``eigvalsh`` (the oracle's
positivity check) is not one of them. A third scan counts the parameter and
dataclass-field defaults, each a value a caller may leave out.
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


NON_HERMITIAN = {"eig", "eigvals"}


def non_hermitian_eigensolves(path):
    """Lines of one source file that name ``eig`` or ``eigvals`` (an attribute or a numpy import)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in NON_HERMITIAN:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "numpy":
            yield from (node.lineno for alias in node.names if alias.name in NON_HERMITIAN)


def test_non_hermitian_eigensolves_only_in_numerics():
    outside = [
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "numerics.py"
        for line in non_hermitian_eigensolves(path)
    ]
    assert outside == []
    assert list(non_hermitian_eigensolves(PACKAGE / "numerics.py"))


# Defaults in src/weaksym: a new one is a decision the change log records
# when it raises this count.
MAX_DEFAULTS = 26


def defaults(path):
    """(owner, default) of every parameter default and dataclass-field default in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
                yield getattr(node, "name", "lambda"), ast.unparse(default)
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and statement.value is not None:
                    yield f"{node.name}.{ast.unparse(statement.target)}", ast.unparse(statement.value)


def test_defaults_do_not_grow():
    found = [(path.name, *default) for path in sorted(PACKAGE.glob("*.py")) for default in defaults(path)]
    assert len(found) <= MAX_DEFAULTS, found
