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
    directed: list[tuple[str, str]] = []
    directed_seen: set[tuple[str, str]] = set()
    bidirected: list[tuple[str, str]] = []
    bidirected_seen: set[frozenset[str]] = set()

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
        if "<->" in line:
            parts = line.split("<->")
            if len(parts) != 2:
                raise GraphParseError("expected exactly one '<->' per line", lineno)
            u, v = name(parts[0], lineno), name(parts[1], lineno)
            if u == v:
                raise GraphParseError(f"self-loop {u} <-> {v}", lineno)
            edge = frozenset((u, v))
            if edge in bidirected_seen:
                raise GraphParseError(f"duplicate bi-directed edge {min(u,v)} <-> {max(u,v)}", lineno)
            bidirected_seen.add(edge)
            bidirected.append((u, v))
            vertices |= {u, v}
        elif "->" in line:
            parts = line.split("->")
            if len(parts) != 2:
                raise GraphParseError("expected exactly one '->' per line", lineno)
            t, h = name(parts[0], lineno), name(parts[1], lineno)
            if t == h:
                raise GraphParseError(f"self-loop {t} -> {h}", lineno)
            if (t, h) in directed_seen:
                raise GraphParseError(f"duplicate directed edge {t} -> {h}", lineno)
            directed_seen.add((t, h))
            directed.append((t, h))
            vertices |= {t, h}
        else:
            vertices.add(name(line, lineno))

    return Admg(vertices, directed, bidirected)


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
