"""Source hygiene: no import, name, parameter or class member in
``ledgerpack`` goes unused.

Every module-level import must be used in its module, every import
inside a function must be used in that function, every module-level
private (``_name``) function or class must be referenced there, and
every parameter of a function must be read in its body (a method's
``self`` or ``cls`` excepted).  ``__init__.py`` re-exports nothing, so
it is checked like every other module.  Every public module-level
function, class or alias must be loaded somewhere in the package, or be
named in ``LIBRARY_API``, which the README's library-API paragraph lists
too.  Every field, method and property of a class, a named tuple's
fields included, must be read in the package or the benchmark, or be
named in ``UNREAD_MEMBERS`` with the tests that read it.  A named-tuple
field that shares its name with another class's member is read only
where ``TUPLE_FIELD_READERS`` says.
"""

import ast
import pathlib
import re
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ledgerpack"
MODULES = sorted(SRC.glob("*.py"))
README = SRC.parent.parent / "README.md"
PERFBENCH = SRC.parent.parent / "perfbench"

# Public names that nothing in the package calls, kept on purpose as
# library API: the tests and the benchmark call them.  The set is exact.
LIBRARY_API = {
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
    assert {p.name for p in MODULES} >= {"__init__.py", "wire.py", "chain.py", "strategies.py", "store.py", "cli.py"}


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


def test_readme_lists_exactly_the_library_api():
    text = README.read_text(encoding="utf-8")
    start = text.index("A few public functions have no caller inside the package")
    named = re.findall(r"`(\w+)\.(\w+)`", text[start : text.index("\n\n", start)])
    assert sorted(name for _, name in named) == sorted(LIBRARY_API)
    misplaced = [f"{module}.{name}" for module, name in named if name not in _public_defs(_tree(SRC / f"{module}.py"))]
    assert not misplaced, f"the README names these in the wrong module: {misplaced}"


# Class members that nothing in the package or the benchmark reads, kept
# on purpose, each with the tests that read it.  The set is exact.
_CRITERION_2 = "test_acceptance.py, criterion 2 (slack round-trip incl. every escape path)"
UNREAD_MEMBERS = {
    "SlackStats.version_escapes": _CRITERION_2,
    "SlackStats.locktime_escapes": _CRITERION_2,
    "SlackStats.sequence_escapes": _CRITERION_2,
    "SlackStats.prevout_coinbase": _CRITERION_2,
    "SlackStats.prevout_local": _CRITERION_2,
    "SlackStats.prevout_verbatim": _CRITERION_2,
    "SlackStats.prevout_bigindex_fallback": _CRITERION_2,
    "StorageReport.baseline_bytes": "test_store.py",
    "LifespanCdf.created_in": "test_analytics.py and test_strategies.py build a LifespanCdf positionally",
    "LifespanCdf.fraction_within": "test_analytics.py",
    "MinimizedBlock.raw_bytes": "test_strategies.py and test_minimize_serialize_once.py",
    "Block.raw_size_bytes": "test_wire.py, test_wire_reference.py and test_dedup_decoded_txs.py",
    "SpentRecord.outpoint": "test_chain.py",
}

# Named-tuple fields whose name is a member of another package class too,
# so a read of that attribute name does not show which class it reads:
# each with a function (module.qualname) that reads it from the tuple.  The
# set is exact.
TUPLE_FIELD_READERS = {
    "OutPoint.index": "wire.OutPoint.is_coinbase",
    "UtxoEntry.outpoint": "chain.ChainState.connect_links",  # the spend log's outpoint
    "UtxoEntry.creation_height": "analytics.dormancy_stats",
    "SpentRecord.creation_height": "analytics.lifespan_cdf",
}

_NAMING_CALLS = ("getattr", "hasattr", "attrgetter")


def _member_reads(tree) -> set:
    """Attribute names read in a module: by attribute, or named as a string
    to ``getattr``, ``hasattr`` or ``attrgetter``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _NAMING_CALLS:
            strings = [arg.value for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            names.update(part for string in strings for part in string.split("."))
    return names


def _read_through_fields(tree) -> set:
    """Classes some function reads every field of: it lists them with
    ``dataclasses.fields`` and reads each by ``getattr(obj, f.name)``.
    Listing fields only to add to each (``SlackStats.count``) or to name
    constructor arguments (``ChainPlan`` in the CLI) reads no value."""
    classes = set()
    for owner in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]:
        for fn in ast.iter_child_nodes(owner):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
            if not any(
                c.func.id == "getattr" and len(c.args) > 1 and getattr(c.args[1], "attr", None) == "name" for c in calls
            ):
                continue
            for c in calls:
                if c.func.id == "fields" and c.args and isinstance(c.args[0], ast.Name):
                    name = c.args[0].id
                    classes.add(owner.name if name == "self" and owner is not tree else name)
    return classes


def _class_members(tree) -> list:
    """(class, member) for every annotated field and every method or
    property, dunders excepted, of each class in a module."""
    members = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                members.append((cls.name, stmt.target.id))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("__"):
                members.append((cls.name, stmt.name))
    return members


def _tuple_fields(tree) -> list:
    """(class, field) for every field of each named tuple in a module,
    made as ``X = namedtuple("X", [...])`` or ``class X(namedtuple("X", [...]))``."""
    fields = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            name, calls = stmt.name, stmt.bases
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            name, calls = stmt.targets[0].id, [stmt.value]
        else:
            continue
        for call in calls:
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "namedtuple":
                fields += [(name, elt.value) for elt in call.args[1].elts]
    return fields


def _reads_attribute(qualname: str, attr: str) -> bool:
    """Whether the function ``module.qualname`` reads ``attr`` by attribute."""
    module, *names = qualname.split(".")
    node = _tree(SRC / f"{module}.py")
    for name in names:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return any(isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Load) for n in ast.walk(node))


def test_every_class_member_is_read_or_named_with_its_reader():
    readers = [_tree(path) for path in [*MODULES, *sorted(PERFBENCH.glob("*.py"))]]
    read = set().union(*map(_member_reads, readers))
    through_fields = set().union(*map(_read_through_fields, readers))
    assert {"Manifest", "StrategyConfig"} <= through_fields
    members = [member for path in MODULES for member in _class_members(_tree(path))]
    unread = {f"{cls}.{name}" for cls, name in members if name not in read and cls not in through_fields}
    fields = [field for path in MODULES for field in _tuple_fields(_tree(path))]
    assert {cls for cls, _ in fields} >= {"OutPoint", "UtxoEntry", "SpentRecord"}
    owners = Counter(name for _, name in set(members + fields))
    shared = {f"{cls}.{name}" for cls, name in fields if owners[name] > 1}
    assert shared >= TUPLE_FIELD_READERS.keys(), f"not shared: {sorted(TUPLE_FIELD_READERS.keys() - shared)}"
    unread |= {f"{cls}.{name}" for cls, name in fields if name not in read} | shared - TUPLE_FIELD_READERS.keys()
    unnamed = [key for key, reader in TUPLE_FIELD_READERS.items() if not _reads_attribute(reader, key.split(".")[1])]
    assert not unnamed, f"TUPLE_FIELD_READERS names functions that do not read these: {unnamed}"
    assert not unread - UNREAD_MEMBERS.keys(), f"class members nothing reads: {sorted(unread - UNREAD_MEMBERS.keys())}"
    stale = UNREAD_MEMBERS.keys() - unread
    assert not stale, f"UNREAD_MEMBERS names that are gone or now have a reader: {sorted(stale)}"
