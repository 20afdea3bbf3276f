"""The library has no runtime dependencies: every module of ``ledgerlab``
imports only its own modules (relatively) and the standard library."""
import ast
import re
import sys
import textwrap
from pathlib import Path

import pytest

import ledgerlab

MODULES = sorted(Path(ledgerlab.__file__).parent.rglob("*.py"))


def imported_names(tree):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "core.py", "cli.py"}


def test_public_names_exist():
    missing = [name for name in ledgerlab.__all__ if not hasattr(ledgerlab, name)]
    assert missing == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [(line, name) for line, name in imported_names(tree)
               if name not in sys.stdlib_module_names]
    assert outside == [], path.name


#: modules that reach the file system; only ``cli`` may use them, so every
#: read and write, and its exit-2 mapping, stays at one boundary
FILE_MODULES = {"os", "pathlib", "io", "shutil", "tempfile"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_file_io_only_in_cli(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(line, name) for line, name in imported_names(tree)
             if name in FILE_MODULES]
    found += [(node.lineno, "open") for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "open"]
    assert found == [], path.name


def test_collector_pause_only_in_cli():
    """``cli.main`` pauses the cycle collector for each command; no other
    module touches it, so the pause and its restore stay in one place."""
    found = [path.name for path in MODULES if path.name != "cli.py"
             for _, name in imported_names(ast.parse(path.read_text(encoding="utf-8")))
             if name == "gc"]
    assert found == []


#: every value derived once per instance: (module, class, attribute)
DERIVED_ONCE = {
    ("core.py", "Tx", "_hash"), ("core.py", "Tx", "_id"), ("core.py", "Tx", "_created"),
    ("core.py", "UtxoSet", "_hash"), ("core.py", "UtxoSet", "_items"),
    ("graphs.py", "SimpleGraph", "_succ"),
}


def is_once(node) -> bool:
    """Whether ``node`` is ``_once`` or ``core._once``."""
    return ((isinstance(node, ast.Name) and node.id == "_once")
            or (isinstance(node, ast.Attribute) and node.attr == "_once"))


def test_derived_values_are_declared_once():
    """Each per-instance cache is a ``core._once`` class attribute: no class
    keeps a ``= None`` cache default, nothing uses
    ``functools.cached_property`` (its first read takes a lock on Python
    3.11), and the only constant-key ``__dict__`` store is ``apply_tx``'s
    ``_items``, the order it derives from the parent's.  ``UtxoSet``'s
    cached hash and order are sound because after construction a state is
    edited only by ``apply_tx``, before it returns."""
    declared, none_defaults, cached_properties, stores = set(), [], [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for node in cls.body:
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                        and is_once(node.value.func):
                    declared.update((path.name, cls.name, t.id) for t in node.targets)
                elif isinstance(node, ast.FunctionDef) \
                        and any(map(is_once, node.decorator_list)):
                    declared.add((path.name, cls.name, node.name))
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                        and node.value.value is None:
                    none_defaults.append((path.name, cls.name, node.lineno))
        functions = {id(sub): f.name for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef) for sub in ast.walk(f)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "cached_property":
                cached_properties.append((path.name, node.lineno))
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "__dict__"
                    and isinstance(node.slice, ast.Constant)):
                stores.append((path.name, functions.get(id(node)), node.slice.value))
    assert declared == DERIVED_ONCE
    assert none_defaults == [] and cached_properties == []
    assert stores == [("core.py", "apply_tx", "_items")]


#: the dict methods that edit a dict in place
DICT_EDITS = {"pop", "popitem", "update", "setdefault", "clear"}


def entries_edits(trees):
    """(module, function, line) of every edit of a state's ``entries`` in
    ``trees``, a map from module name to its parsed source.

    A state's entries are ``<expr>.entries``, except a class's own
    ``self.entries`` outside ``UtxoSet``; a local bound from them; and a
    parameter that some call passes them to, matched by the callee's name.
    An edit is a subscript store or delete, an augmented assignment, or a
    call of one of ``DICT_EDITS``.
    """
    functions = []  # (module, class or None, def), a nested def part of its own
    for module, tree in trees.items():
        for cls in [None] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            body = tree.body if cls is None else cls.body
            functions += [(module, cls and cls.name, f) for f in body
                          if isinstance(f, ast.FunctionDef)]
    by_name = {}
    for _, _, f in functions:
        by_name.setdefault(f.name, []).append(f)
    aliases = {id(f): set() for _, _, f in functions}

    def holds_entries(node, cls, f) -> bool:
        if isinstance(node, ast.Name):
            return node.id in aliases[id(f)]
        return (isinstance(node, ast.Attribute) and node.attr == "entries"
                and not (isinstance(node.value, ast.Name) and node.value.id == "self"
                         and cls not in (None, "UtxoSet")))

    changed = True
    while changed:
        changed = False
        for _, cls, f in functions:
            for node in ast.walk(f):
                bound = []
                if isinstance(node, ast.Assign) and holds_entries(node.value, cls, f):
                    bound = [(f, t.id) for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.NamedExpr) and holds_entries(node.value, cls, f):
                    bound = [(f, node.target.id)]
                elif isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    for callee in by_name.get(name, ()):
                        params = [a.arg for a in callee.args.posonlyargs + callee.args.args]
                        if params[:1] in (["self"], ["cls"]):
                            params = params[1:]
                        passed = list(zip(params, node.args))
                        passed += [(k.arg, k.value) for k in node.keywords]
                        bound += [(callee, param) for param, arg in passed
                                  if holds_entries(arg, cls, f)]
                for target, name in bound:
                    if name not in aliases[id(target)]:
                        aliases[id(target)].add(name)
                        changed = True
    found = []
    for module, cls, f in functions:
        for node in ast.walk(f):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                edited = node.value
            elif isinstance(node, ast.AugAssign):
                edited = node.target
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DICT_EDITS):
                edited = node.func.value
            else:
                continue
            if holds_entries(edited, cls, f):
                found.append((module, f.name, node.lineno))
    return found


def test_state_entries_are_edited_only_by_apply_tx():
    """Outside ``core.apply_tx``, which edits the state it is building before
    it returns, no function under ``src/`` edits a state's ``entries``: the
    cached hash and order of a ``UtxoSet`` hold only while its entries stay
    as they were when it was returned."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    found = entries_edits(trees)
    assert {(module, name) for module, name, _ in found} == {("core.py", "apply_tx")}


def test_entries_edits_sees_aliases_and_parameters():
    """The guard's own cases: each edit below is found, in every shape."""
    source = textwrap.dedent("""
        def direct(u, ref):
            u.entries[ref] = 1
            del u.entries[ref]
            u.entries |= {}
            u.entries.clear()

        def alias(u):
            entries = u.entries
            entries.pop(1)
            if (held := u.entries):
                held.popitem()

        def caller(u):
            held = u.entries
            edit(held)
            edit_kw(table=u.entries)

        def edit(table):
            table.setdefault(1, 2)

        def edit_kw(table):
            table.update({})

        def plain(d, u):
            d.update(u.entries)
            d[1] = u.entries.get(1)

        class Writer:
            def spell(self):
                self.entries[1] = 2

        class UtxoSet:
            def spoil(self):
                self.entries[1] = 2
    """)
    found = entries_edits({"m.py": ast.parse(source)})
    assert sorted({(name, line) for _, name, line in found}) == [
        ("alias", 10), ("alias", 12), ("direct", 3), ("direct", 4), ("direct", 5),
        ("direct", 6), ("edit", 20), ("edit_kw", 23), ("spoil", 35)]


#: the ledger step, update and check; the successor relation written with them
SUCCESSOR_NAMES = {"step_ledger", "apply_tx", "check_tx"}


def test_ledger_successors_only_in_build_ledger_graph():
    """In ``graphs``, only ``build_ledger_graph`` steps or checks the ledger,
    so Λ′ and every other graph there are read off Λ's edges."""
    path = Path(ledgerlab.__file__).parent / "graphs.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    builder = {id(node) for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name == "build_ledger_graph"
               for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in SUCCESSOR_NAMES and id(node) not in builder:
            found.append((node.lineno, name))
    assert found == []


def test_an_input_is_a_ledger_entry():
    """A transaction input is the ``(OutputRef, Output)`` pair that a state
    holds: no module defines a second shape for it or reads its ref off an
    attribute."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "output_ref":
                found.append((path.name, node.lineno, "output_ref"))
            elif ((isinstance(node, ast.ClassDef) and node.name == "TxInput")
                  or (isinstance(node, ast.Name) and node.id == "TxInput"
                      and isinstance(node.ctx, ast.Store))):
                found.append((path.name, node.lineno, "TxInput"))
    assert found == []


DOMAIN_ERROR = "outside the tx_bytes domain"


def test_domain_errors_are_spelled_once():
    """A value outside the hash serialization's domain is refused only
    through ``core._in_domain``: a constructor that tests a type inline
    calls it on its failing branch, so no fast path spells the error a
    second way."""
    spelled = []
    for path in MODULES:
        text = path.read_text(encoding="utf-8")
        inside = set()
        for node in ast.parse(text).body:
            if (path.name, getattr(node, "name", None)) == ("core.py", "_in_domain"):
                inside = set(range(node.lineno, node.end_lineno + 1))
        spelled += [(path.name, n, n in inside)
                    for n, line in enumerate(text.splitlines(), 1) if DOMAIN_ERROR in line]
    assert [inside for _, _, inside in spelled] == [True], spelled


def declared_minimum_python():
    """The (major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_as_the_declared_minimum_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=declared_minimum_python())


#: public names that no command reaches but that stay in the library, each
#: as the object of a paper claim or as the writer of a file format
PAPER_OBJECTS = {
    "is_sieve": "a sieve: the domain of a partial sieve-defined hom",
    "check_hom": "the three invariants of a partial sieve-defined hom",
    "compose_homs": "composition of partial sieve-defined homs",
    "enumerate_paths": "the paths of a graph from its initial vertices",
    "build_contract_graphs": "a structured contract's own transition graphs",
    "has_truncated_lift": "truncated lifts: whether a run is realized by a source run",
    "dump_run": "the writer of the run format that `props check` reads",
}


def test_every_public_name_is_reached():
    """Each public top-level function or class under ``src/`` is used by
    another definition there, is a ``cmd_*`` handler, or is a paper object:
    code that only tests run belongs in ``tests/``."""
    defined = {}
    used_in = {}  # name -> the (module, top-level statement) pairs using it
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.name, getattr(node, "name", None))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = owner
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    name = sub.id if isinstance(sub, ast.Name) else sub.attr
                    used_in.setdefault(name, set()).add(owner)
    unreached = sorted(
        name for name, owner in defined.items()
        if not used_in.get(name, set()) - {owner}
        and not name.startswith("cmd_") and name not in PAPER_OBJECTS
    )
    assert unreached == []
    assert sorted(set(PAPER_OBJECTS) - set(defined)) == []
