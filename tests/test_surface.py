"""The public surface held to its tracked size: a new export or option is an
edit to this file."""

from __future__ import annotations

import inspect

import growthcalc

EXPORTS = 76
OPTIONS = 61


def _options(obj) -> list[str]:
    """Parameters with a default (dataclass fields included), and for a class
    those of its public methods and classmethods too; exceptions take their
    messages positionally and count none."""
    if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
        return []
    params = inspect.signature(obj).parameters.values()
    names = [p.name for p in params if p.default is not inspect.Parameter.empty]
    if isinstance(obj, type):
        for attr in vars(obj):
            member = getattr(obj, attr)
            if not attr.startswith("_") and callable(member):
                names += [f"{attr}.{name}" for name in _options(member)]
    return names


def test_exports_are_sorted_unique_and_resolve():
    names = growthcalc.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    for name in names:
        assert hasattr(growthcalc, name), name


def test_public_surface_has_its_tracked_size():
    names = growthcalc.__all__
    options = {name: _options(getattr(growthcalc, name)) for name in names}
    assert len(names) == EXPORTS
    assert sum(map(len, options.values())) == OPTIONS, options
