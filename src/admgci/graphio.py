"""Text format for graphs, and bundled example fixtures.

One item per line: ``x -> y`` for a directed edge, ``x <-> y`` for a
bi-directed edge, a bare ``x`` to declare an isolated vertex. ``#`` starts a
comment; blank lines and surrounding whitespace are ignored. Duplicate edges
are errors.
"""

from __future__ import annotations

import errno

from .admg import Admg, _NAME_RE
from .errors import GraphParseError, InputError, file_error

FIXTURE_NAMES = ("figure1", "figure2", "figure3")


def parse_graph(text: str) -> Admg:
    """Parse the graph text format into an :class:`Admg`."""
    vertices: set[str] = set()
    # per arrow, each edge in input order, keyed so that a duplicate is found
    edges: dict[str, dict[tuple[str, str], tuple[str, str]]] = {"->": {}, "<->": {}}

    def name(token: str, lineno: int) -> str:
        token = token.strip()
        if not _NAME_RE.fullmatch(token):
            raise GraphParseError(
                f"invalid vertex name {token!r} (letters, digits, underscore)", lineno
            )
        return token

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        arrow = "<->" if "<->" in line else "->" if "->" in line else None
        if arrow is None:
            vertices.add(name(line, lineno))
            continue
        parts = line.split(arrow)
        if len(parts) != 2:
            raise GraphParseError(f"expected exactly one '{arrow}' per line", lineno)
        u, v = name(parts[0], lineno), name(parts[1], lineno)
        if u == v:
            raise GraphParseError(f"self-loop {u} {arrow} {v}", lineno)
        key = (u, v) if arrow == "->" else (min(u, v), max(u, v))
        if key in edges[arrow]:
            kind = "directed" if arrow == "->" else "bi-directed"
            raise GraphParseError(f"duplicate {kind} edge {key[0]} {arrow} {key[1]}", lineno)
        edges[arrow][key] = (u, v)
        vertices |= {u, v}

    return Admg(vertices, list(edges["->"].values()), list(edges["<->"].values()))


def format_graph(g: Admg) -> str:
    """Render a graph in the text format; ``parse_graph`` round-trips it."""
    lines = [f"{t} -> {h}" for t, h in sorted(g.directed_edges)]
    lines += [f"{u} <-> {v}" for u, v in sorted(tuple(sorted(e)) for e in g.bidirected_edges)]
    touched = {v for e in g.directed_edges for v in e}
    touched |= {v for e in g.bidirected_edges for v in e}
    lines += [v for v in g.vertices if v not in touched]
    return "\n".join(lines) + ("\n" if lines else "")


def fixture_text(name: str) -> str:
    """Source text of a bundled fixture graph (figure1, figure2, figure3)."""
    if name not in FIXTURE_NAMES:
        raise InputError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    from importlib import resources

    return resources.files(__package__).joinpath(f"fixtures/{name}.txt").read_text()


def fixture_graph(name: str) -> Admg:
    return parse_graph(fixture_text(name))


def load_graph(path_or_fixture: str) -> Admg:
    """Load a graph from a file path, falling back to bundled fixture names."""
    text = _read_text(path_or_fixture)
    if text is not None:
        return parse_graph(text)
    if path_or_fixture in FIXTURE_NAMES:
        return fixture_graph(path_or_fixture)
    raise InputError(
        f"no such file or bundled fixture: {path_or_fixture!r} "
        f"(fixtures: {', '.join(FIXTURE_NAMES)})"
    )


def _read_text(path: str) -> str | None:
    """The text of the file at ``path``, or ``None`` if no file is there."""
    try:
        fh = open(path)
    except (FileNotFoundError, NotADirectoryError, ValueError):
        return None  # ValueError: a NUL byte in the path
    except OSError as exc:
        if exc.errno == errno.ELOOP:
            return None
        raise file_error(path, exc) from None
    with fh:
        try:
            return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise file_error(path, exc) from None
