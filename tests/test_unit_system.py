"""Each library layer computes in one unit system and takes no other.

``core`` and ``scenarios`` compute in ``core.SI`` and ``covariant`` in
reduced units with c = 1.  So no public function, method or dataclass field
of the three takes a unit system: nothing named ``constants`` or ``c``.
"""

import dataclasses
import inspect
import types

import pytest

from abmink import core, covariant, scenarios

UNIT_NAMES = {"constants", "c"}


def _public(module):
    """The module's public classes and functions: those it lists in
    ``__all__`` and those it defines without a leading underscore."""
    names = set(getattr(module, "__all__", ())) | {
        name for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__}
    return {name: getattr(module, name) for name in sorted(names)
            if inspect.isclass(getattr(module, name))
            or inspect.isfunction(getattr(module, name))}


def _unit_options(module):
    """'owner.name' for each parameter or field of the module's public
    surface that is named like a unit system."""
    found = []
    for name, obj in _public(module).items():
        callables = {name: obj}
        if inspect.isclass(obj):
            callables = {f"{name}.{attr}": member for attr, member in inspect.getmembers(obj)
                         if not attr.startswith("_")
                         and (inspect.isfunction(member) or inspect.ismethod(member))}
            fields = (dataclasses.fields(obj) if dataclasses.is_dataclass(obj)
                      else getattr(obj, "_fields", ()))
            found += [f"{name}.{getattr(f, 'name', f)}" for f in fields
                      if getattr(f, "name", f) in UNIT_NAMES]
        found += [f"{owner}({p})" for owner, fn in callables.items()
                  for p in inspect.signature(fn).parameters if p in UNIT_NAMES]
    return sorted(found)


@pytest.mark.parametrize("module", [core, scenarios, covariant],
                         ids=lambda m: m.__name__)
def test_no_public_name_takes_a_unit_system(module):
    assert _unit_options(module) == []


def test_medium_has_no_conductivity():
    # core's media are lossless; a mirror's metal keeps its own conductivity
    assert "conductivity" not in {f.name for f in dataclasses.fields(core.Medium)}


def test_the_walk_finds_unit_options():
    fake = types.ModuleType("fake")

    @dataclasses.dataclass(frozen=True)
    class Wave:
        omega: float
        c: float = 1.0

        @classmethod
        def rest(cls, c: float = 1.0):
            return cls(0.0, c)

        def field(self, t, constants=None):
            return t

    def flux(n, constants=None):
        return n

    def _hidden(c):
        return c

    for obj in (Wave, flux, _hidden):
        obj.__module__ = "fake"
        setattr(fake, obj.__name__, obj)
    assert _unit_options(fake) == ["Wave.c", "Wave.field(constants)", "Wave.rest(c)",
                                   "flux(constants)"]
