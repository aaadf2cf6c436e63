"""Every public routine takes the one structure it reads.

A matroid, its lattice of flats, a building set in that lattice and a fan
built from one of them form a chain: each later one carries the one it was
built from.  A routine that took two of them could be handed two that do
not belong together, and would answer for neither without an error; one
whose structure parameter defaults to None builds that structure again
behind the caller's back.  No public callable of ``mfk`` does either.  A
parameter's structure is read from its annotation, or from its name when
it has none.
"""

import importlib
import inspect
import pkgutil
import types
import typing

import mfk
from mfk.geometry import Fan
from mfk.lattice import FlatLattice
from mfk.matroid import Matroid
from mfk.nested import BuildingSet

STRUCTURES = (Matroid, FlatLattice, BuildingSet, Fan)
BY_NAME = {"matroid": Matroid, "lattice": FlatLattice,
           "building": BuildingSet, "fan": Fan}


def _public_callables():
    """(qualified name, callable): the functions and classes each module of
    mfk defines, and the public methods of those classes."""
    for info in pkgutil.iter_modules(mfk.__path__):
        module = importlib.import_module(f"mfk.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or (inspect.isclass(obj)
                        and issubclass(obj, BaseException))):
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def _kinds(parameter: inspect.Parameter) -> set[type]:
    """The structures a parameter's annotation (or name) admits."""
    annotation = parameter.annotation
    if annotation is inspect.Parameter.empty:
        annotation = BY_NAME.get(parameter.name.split("_")[0])
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        options = typing.get_args(annotation)
    else:
        options = (annotation,)
    return {kind for kind in STRUCTURES for option in options
            if isinstance(option, type) and issubclass(option, kind)}


def _faults(name: str, routine) -> list[str]:
    signature = inspect.signature(routine, eval_str=True)
    taken: set[type] = set()
    faults = []
    for parameter in signature.parameters.values():
        if parameter.name == "self":
            continue
        kinds = _kinds(parameter)
        taken |= kinds
        if kinds and parameter.default is None:
            faults.append(f"{name}: {parameter.name} defaults to None")
    if len(taken) > 1:
        faults.append(f"{name} takes "
                      + " and ".join(sorted(k.__name__ for k in taken)))
    return faults


def test_no_public_routine_takes_two_structures_or_a_none_default():
    routines = dict(_public_callables())
    assert {"mfk.bergman.bergman_fan", "mfk.lattice.moebius",
            "mfk.nested.nested_fan", "mfk.nested.NestedFan",
            "mfk.polytope.facets"} <= set(routines)
    found = [fault for name, routine in sorted(routines.items())
             for fault in _faults(name, routine)]
    assert found == []


def test_the_guard_sees_both_faults():
    def two(matroid: Matroid, lattice: FlatLattice | None = None):
        pass

    def unannotated(building, fan=None):
        pass

    assert _faults("two", two) == ["two: lattice defaults to None",
                                   "two takes FlatLattice and Matroid"]
    assert _faults("unannotated", unannotated) == [
        "unannotated: fan defaults to None",
        "unannotated takes BuildingSet and Fan"]
