"""numpy stays the only runtime dependency of the package, and one module solves eigenproblems.

An AST scan of every import statement in ``src/weaksym``: each imported
module must be in the standard library, numpy, or the package itself. A
second scan finds every use of numpy's non-Hermitian eigensolvers, ``eig``
and ``eigvals``: only ``numerics.py`` may make one, so every transfer
spectrum goes through its dense or Krylov path. ``eigvalsh`` (the oracle's
positivity check) is not one of them. A third scan counts the parameter and
dataclass-field defaults, each a value a caller may leave out. A fourth keeps
the handling of a stack's errors behind one module: one function catches them,
and only ``cli.py`` asks whether a value is an exception. A fifth keeps the
per-tensor memo behind one function: only ``transfer._memoised`` reads or
writes an ``_memo`` attribute. A sixth keeps one path per value: every
function and method defined in the package is named somewhere else in it,
save the documented entry points of ``ENTRY_POINTS``.
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
MAX_DEFAULTS = 27


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


def _caught_names(node, constants):
    """Last components of the names an exception-type expression refers to, module
    constants (``_ROW_ERRORS = (...)``) expanded."""
    if isinstance(node, ast.Name) and node.id in constants:
        return _caught_names(constants[node.id], constants)
    if isinstance(node, (ast.Tuple, ast.List)):
        return set().union(*(_caught_names(e, constants) for e in node.elts))
    if isinstance(node, ast.Starred):
        return _caught_names(node.value, constants)
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _error_handling(path):
    """(functions with an ``except`` that catches what a stack raises because of one
    member, lines of ``isinstance(value, <exception type>)``) of one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    catchers, tests = set(), []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if {"WeaksymError", "LinAlgError"} <= _caught_names(node.type, constants):
                    catchers.add(function.name)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                names = _caught_names(node.args[1], constants)
                if any(name == "Exception" or name.endswith("Error") for name in names):
                    tests.append(node.lineno)
    return catchers, sorted(set(tests))


def test_one_function_isolates_a_failing_stack_member_and_only_cli_tests_for_errors():
    """A stacked function raises its first failing member's error; telling the
    members apart is ``cli._isolated``'s alone."""
    found = {path.name: _error_handling(path) for path in sorted(PACKAGE.glob("*.py"))}
    catchers = [(name, function) for name, (functions, _) in found.items() for function in sorted(functions)]
    assert catchers == [("cli.py", "_isolated")]
    outside = [(name, line) for name, (_, lines) in found.items() if name != "cli.py" for line in lines]
    assert outside == []
    assert found["cli.py"][1]


def _memo_users(path):
    """The innermost function around each ``._memo`` attribute of one source file
    (None outside any function); the ``LpdoTensor`` field declaration is a name, not one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    users = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "_memo":
            users.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return users


def test_one_function_reads_and_writes_the_memo():
    users = [(path.name, function) for path in sorted(PACKAGE.glob("*.py")) for function in sorted(_memo_users(path), key=str)]
    assert users == [("transfer.py", "_memoised")]


# Functions and methods that nothing in the package names: the documented
# entry points of the library (README) and the hook argparse calls.
ENTRY_POINTS = [
    "ScaledPowers.powers",
    "Spectrum.leading",
    "_Parser.error",
    "aklt_tensor",
    "conservation_check",
    "flux_response",
    "save_model",
    "transfer_eigenpair",
]


def unnamed_functions(package):
    """Qualified names of the functions and methods defined in ``package`` that no
    ``Name`` or ``Attribute`` node outside their own definition names, dunder
    methods left out (Python calls them)."""
    definitions, named = [], {}

    def visit(node, owner, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definitions.append((node, f"{owner}.{node.name}" if owner else node.name))
            owner, enclosing = None, enclosing | {node}
        elif isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.Name, ast.Attribute)):
            named.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, enclosing)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None, frozenset())
    return sorted(
        name
        for node, name in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and all(node in enclosing for enclosing in named.get(node.name, []))
    )


def test_every_function_is_named_elsewhere_in_the_package_or_is_an_entry_point():
    """A function only tests call is a second path to a value the package computes another way."""
    assert unnamed_functions(PACKAGE) == ENTRY_POINTS
