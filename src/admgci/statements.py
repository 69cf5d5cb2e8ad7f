"""Conditional-independence statements.

A statement asserts that the variables in ``x`` are jointly independent of
the variables in ``y`` given the variables in ``z``. The symmetry axiom
identifies a statement with its x/y swap, so equality and hashing go through
a key that holds the two sides as an unordered pair; only display sorts. The
as-constructed orientation is preserved for display: producers put the
vertex a rule was applied to on the ``x`` side.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable

from .errors import InputError


class CiStatement:
    """A triple (x, z, y) of disjoint vertex sets, read "x independent of y given z".

    Immutable: its fields are set once, in the constructor.
    """

    __slots__ = ("x", "z", "y", "_key")

    x: frozenset[str]
    z: frozenset[str]
    y: frozenset[str]

    def __init__(self, x: Collection[str], z: Collection[str], y: Collection[str]):
        if isinstance(x, str) or isinstance(z, str) or isinstance(y, str):
            raise InputError("expected a collection of vertex names, got a bare string")
        fx, fz, fy = frozenset(x), frozenset(z), frozenset(y)
        if not fx or not fy:
            raise InputError("a CI statement needs non-empty sets on both independence sides")
        if not (fx.isdisjoint(fy) and fx.isdisjoint(fz) and fy.isdisjoint(fz)):
            raise InputError("the three sets of a CI statement must be pairwise disjoint")
        setter = object.__setattr__
        setter(self, "x", fx)
        setter(self, "z", fz)
        setter(self, "y", fy)
        setter(self, "_key", (frozenset((fx, fy)), fz))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable CiStatement")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable CiStatement")

    def __reduce__(self):
        return CiStatement, (self.x, self.z, self.y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CiStatement):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def render(self) -> str:
        """Text form, members in lexicographic order: ``I({a} ; {d} ; {e})``."""
        part = lambda s: "{" + ",".join(sorted(s)) + "}"
        return f"I({part(self.x)} ; {part(self.z)} ; {part(self.y)})"

    def __repr__(self) -> str:
        return self.render()

    def to_json_dict(self) -> dict:
        return {
            "x": sorted(self.x),
            "given": sorted(self.z),
            "indep": sorted(self.y),
        }


def dedupe(statements: Iterable[CiStatement]) -> list[CiStatement]:
    """Drop canonical duplicates, keeping first occurrences in order (a dict
    keeps the first of two equal keys)."""
    return list(dict.fromkeys(statements))
