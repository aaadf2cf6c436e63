"""``python -O`` cannot change what the package computes.

``-O`` strips ``assert`` statements and sets ``__debug__`` to False; with
neither in ``src/mfk`` the optimized and the plain interpreter run the same
code, so the suite does not need a second run under ``-O``.  A hand-written
``raise AssertionError`` is a self-check by another name and is refused too:
the tests are the verify layer.

No module imports ``dataclasses`` either: its import pulls ``inspect``,
``ast`` and ``dis`` into every CLI process, and each decorated class runs
generated code at import.  Records are ``typing.NamedTuple``s.  Nor does
any module import ``scipy``: numpy alone computes the amoeba distances,
and ``scipy.optimize`` cost each amoeba process about half a second.
``mfk.nested`` imports no elimination entry point of ``mfk.linalg`` (nor
the module itself): its cones decide membership from their nested sets.
``mfk.bergman`` imports none of the LP test oracles: its rays are the
lifted flacets of the components.

Every error type of ``errors.py`` is raised by some other module, so none
outlives its last raiser.  No module calls ``json.dumps`` or ``json.dump``:
every artifact is written by ``jsonio.dumps``, which ``test_jsonio.py``
checks byte for byte against ``json.dumps(sort_keys=True, indent=2)``.
No module defines or imports a ``determinant``: every maximal minor comes
from the one Bareiss walk of ``linalg.maximal_minors``.
"""

import ast
import os

import mfk
from mfk import errors

PACKAGE = os.path.dirname(os.path.abspath(mfk.__file__))


def _module_trees():
    """(file name, syntax tree) of every module of the package."""
    sources = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "cli.py" in sources
    for name in sources:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            yield name, ast.parse(handle.read(), filename=name)


def test_package_has_no_assert_and_no_debug_flag():
    found = []
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}: assert")
            elif isinstance(node, ast.Name) and node.id == "__debug__":
                found.append(f"{name}:{node.lineno}: __debug__")
            elif isinstance(node, ast.Raise) and "AssertionError" in {
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
                found.append(f"{name}:{node.lineno}: raise AssertionError")
    assert found == []


def _imports_of(root):
    """``(file:line, imported names)`` of every import of ``root`` or a
    submodule of it; a relative import is read as one from ``mfk``."""
    found = []
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = "mfk." + base if base else "mfk"
                modules = [base] + [f"{base}.{alias.name}"
                                    for alias in node.names]
            else:
                continue
            if any(m == root or m.startswith(root + ".") for m in modules):
                found.append((f"{name}:{node.lineno}",
                              {alias.name for alias in node.names}))
    return found


def test_package_does_not_import_dataclasses():
    assert _imports_of("dataclasses") == []


def test_package_does_not_import_scipy():
    assert _imports_of("scipy") == []


def test_nested_imports_no_elimination_entry_point():
    # a nested cone is read off the flag of the weight
    refused = {"rref", "rank", "nullspace", "solve", "lp_feasible",
               "linalg", "mfk.linalg"}
    found = [site for site, names in _imports_of("mfk.linalg")
             if site.startswith("nested.py:") and names & refused]
    assert found == []


def test_bergman_imports_no_lp_oracle():
    # the coarse rays are read off the flacets, connected input or not; a
    # whole-module import would reach the oracles by attribute
    refused = {"irredundant_rays", "cone_contains", "lp_feasible",
               "geometry", "linalg", "mfk.geometry", "mfk.linalg"}
    found = [site for root in ("mfk.geometry", "mfk.linalg")
             for site, names in _imports_of(root)
             if site.startswith("bergman.py:") and names & refused]
    assert found == []


def test_package_computes_no_minor_per_subset():
    # the walk shares each column prefix; a per-subset determinant beside
    # it would be a second path to the same minors
    found = []
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for alias in node.names
                         for part in (alias.name.rpartition(".")[2],
                                      alias.asname)}
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                names = {node.id}
            else:
                continue
            if "determinant" in names:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_every_error_type_is_raised_in_the_package():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.MfkError)
               and obj is not errors.MfkError}
    raised = set()
    for name, tree in _module_trees():
        if name == "errors.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                raised.update(n.id if isinstance(n, ast.Name) else n.attr
                              for n in ast.walk(node)
                              if isinstance(n, (ast.Name, ast.Attribute)))
    assert sorted(defined - raised) == []


def test_package_emits_through_jsonio_dumps_alone():
    writers = {"dumps", "dump"}
    found = [site for site, names in _imports_of("json") if names & writers]
    for name, tree in _module_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in writers
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "json"]
    assert found == []
