"""Conditional-independence statements.

A statement asserts that the variables in ``x`` are jointly independent of
the variables in ``y`` given the variables in ``z``. It is a named tuple of
three frozensets. The symmetry axiom identifies a statement with its x/y
swap, so equality and hashing treat the two sides as an unordered pair, and
a statement never equals a plain tuple; tuple ``<`` is positional, so sort
statements with a key. Display keeps the as-constructed orientation:
producers put the vertex a rule was applied to on the ``x`` side.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection, Iterable

from .errors import InputError


class CiStatement(namedtuple("CiStatement", "x z y")):
    """A triple (x, z, y) of disjoint frozensets, read "x independent of y given z"."""

    __slots__ = ()

    def __new__(cls, x: Collection[str], z: Collection[str], y: Collection[str]):
        if isinstance(x, str) or isinstance(z, str) or isinstance(y, str):
            raise InputError("expected a collection of vertex names, got a bare string")
        fx, fz, fy = frozenset(x), frozenset(z), frozenset(y)
        if not fx or not fy:
            raise InputError("a CI statement needs non-empty sets on both independence sides")
        if not (fx.isdisjoint(fy) and fx.isdisjoint(fz) and fy.isdisjoint(fz)):
            raise InputError("the three sets of a CI statement must be pairwise disjoint")
        return tuple.__new__(cls, (fx, fz, fy))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, which would skip the checks
        return cls(*iterable)

    def __eq__(self, other: object) -> bool:
        # False, not NotImplemented: tuple's reflected == would compare fields
        if not isinstance(other, CiStatement):
            return False
        x, z, y = self
        ox, oz, oy = other
        return z == oz and (x == ox and y == oy or x == oy and y == ox)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        x, z, y = self
        return hash((hash(x) ^ hash(y), z))

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
