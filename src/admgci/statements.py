"""Conditional-independence statements.

A statement asserts that the variables in ``x`` are jointly independent of
the variables in ``y`` given the variables in ``z``. The symmetry axiom
identifies a statement with its x/y swap, so equality and hashing go through
a key that holds the two sides as an unordered pair; only display sorts. The
as-constructed orientation is preserved for display: producers put the
vertex a rule was applied to on the ``x`` side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable

from .errors import InputError


@dataclass(frozen=True, eq=False)
class CiStatement:
    """A triple (x, z, y) of disjoint vertex sets, read "x independent of y given z"."""

    x: frozenset[str]
    z: frozenset[str]
    y: frozenset[str]
    _key: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, x: Collection[str], z: Collection[str], y: Collection[str]):
        fx, fz, fy = frozenset(x), frozenset(z), frozenset(y)
        if not fx or not fy:
            raise InputError("a CI statement needs non-empty sets on both independence sides")
        if not (fx.isdisjoint(fy) and fx.isdisjoint(fz) and fy.isdisjoint(fz)):
            raise InputError("the three sets of a CI statement must be pairwise disjoint")
        object.__setattr__(self, "x", fx)
        object.__setattr__(self, "z", fz)
        object.__setattr__(self, "y", fy)
        object.__setattr__(self, "_key", (frozenset((fx, fy)), fz))

    @property
    def key(self) -> tuple:
        """Symmetry-canonical identity ``(frozenset({x, y}), z)``, never sorted."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CiStatement):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def flipped(self) -> "CiStatement":
        return CiStatement(self.y, self.z, self.x)

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
