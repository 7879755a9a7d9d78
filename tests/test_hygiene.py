"""Source hygiene: no import, name or parameter in ``ledgerpack`` goes
unused.

Every module-level import must be used in its module, every import
inside a function must be used in that function, every module-level
private (``_name``) function or class must be referenced there, and
every parameter of a function must be read in its body (a method's
``self`` or ``cls`` excepted).  ``__init__.py`` is exempt: its imports
are the package's re-exports.  Every public module-level function,
class or alias must be loaded somewhere in the package, or be named in
``LIBRARY_API``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ledgerpack"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Public names that nothing in the package calls, kept on purpose as
# library API: the tests and the benchmark call them.  The set is exact.
LIBRARY_API = {
    "composition_for_block",  # analytics
    "gen_tx_corpus",  # fixture
    "decode_store_content",  # store
    "read_store",
    "minimize_block",  # strategies
    "slack_decode",
    "slack_encode",
    "verify_tx_in_minimized",
    "encode_transaction_legacy",  # wire
    "read_block_file",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported_names(stmts) -> list:
    names = []
    for stmt in stmts:
        if isinstance(stmt, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            names += [a.asname or a.name for a in stmt.names]
    return names


def _private_defs(tree) -> list:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, defs) and stmt.name.startswith("_") and not stmt.name.startswith("__")
    ]


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"wire.py", "chain.py", "strategies.py", "store.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    unused = sorted(set(_imported_names(tree.body)) - _used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_level_imports_are_used_in_their_function(path):
    unused = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imports = [node for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
            names = set(_imported_names(imports)) - _used_names(fn)
            unused += [f"{fn.name}: {name}" for name in sorted(names)]
    assert not unused, f"{path.name} imports names inside functions that never use them: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_functions_and_classes_have_a_reference(path):
    tree = _tree(path)
    unreferenced = sorted(set(_private_defs(tree)) - _used_names(tree))
    assert not unreferenced, f"{path.name} defines private names nothing references: {unreferenced}"


def _private_constants(tree) -> list:
    names = []
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        names += [
            t.id
            for t in targets
            if isinstance(t, ast.Name) and t.id.startswith("_") and not t.id.startswith("__")
        ]
    return names


def _read_names(tree) -> set:
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_constants_are_read(path):
    tree = _tree(path)
    unread = sorted(set(_private_constants(tree)) - _read_names(tree))
    assert not unread, f"{path.name} assigns private constants it never reads: {unread}"


def _unread_parameters(fn) -> list:
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = set().union(*(_read_names(stmt) for stmt in fn.body))
    return [name for name in params if name not in read and name not in ("self", "cls")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unread += [f"{fn.name}({name})" for name in _unread_parameters(fn)]
    assert not unread, f"{path.name} has function parameters their bodies never read: {unread}"


def _public_defs(tree) -> list:
    """Module-level functions, classes and aliases (``name = other``)."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, (ast.Name, ast.Attribute)):
            names += [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _loaded_names(tree) -> set:
    """Names read in a module, and names it imports from another module."""
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    return _read_names(tree) | imported


def test_every_public_name_has_a_caller_or_is_library_api():
    defined = {name for path in MODULES for name in _public_defs(_tree(path))}
    loaded = set().union(*(_loaded_names(_tree(path)) for path in SRC.glob("*.py")))
    uncalled = defined - loaded
    assert not uncalled - LIBRARY_API, f"public names nothing in ledgerpack loads: {sorted(uncalled - LIBRARY_API)}"
    stale = LIBRARY_API - uncalled
    assert not stale, f"LIBRARY_API names that are gone or now have a caller in ledgerpack: {sorted(stale)}"
