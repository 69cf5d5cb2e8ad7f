"""Property tests of the graph text format, of statement identity and of
the CSV data reader, with examples drawn by hypothesis."""

import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admgci import Admg, CiStatement, DataTable, InputError, dedupe, format_graph, parse_graph
from oracles import csv_by_rows, sorted_statement_key

# derandomized, so every run of the suite draws the same examples
examples = settings(max_examples=300, deadline=None, database=None, derandomize=True)

NAMES = st.text(alphabet="abxyz019_", min_size=1, max_size=3)


@st.composite
def admgs(draw) -> Admg:
    """Up to 8 vertices; directed edges follow a drawn order, so they never
    close a cycle, and bi-directed edges join any two vertices."""
    names = draw(st.lists(NAMES, max_size=8, unique=True))
    order = draw(st.permutations(names))
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    if not pairs:
        return Admg(names)
    directed = draw(st.lists(st.sampled_from(pairs), unique=True))
    bidirected = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Admg(
        names,
        [(order[i], order[j]) for i, j in directed],
        [(names[i], names[j]) for i, j in bidirected],
    )


# pieces of the format, mixed with arbitrary characters
FRAGMENTS = st.sampled_from(
    ["a", "b", "x_1", "9", " ", "\t", "->", "<->", "<-", "-", ">", "<", "#"]
    + ["\n", "\r", "\x85", "é"]
)
TEXT = st.one_of(st.lists(FRAGMENTS, max_size=40).map("".join), st.text(max_size=80))


@examples
@given(admgs())
def test_format_then_parse_round_trips(g):
    assert parse_graph(format_graph(g)) == g


@examples
@given(TEXT)
def test_random_text_parses_or_raises_input_error(text):
    try:
        g = parse_graph(text)
    except InputError:
        return
    assert parse_graph(format_graph(g)) == g


# a statement over the names a..f: each name is absent ("-") or on one side
SIDES = st.lists(st.sampled_from("-xzy"), min_size=6, max_size=6).filter(
    lambda sides: "x" in sides and "y" in sides
)
SWAP = str.maketrans("xy", "yx")


def statement(sides) -> CiStatement:
    part = lambda side: [n for n, s in zip("abcdef", sides) if s == side]
    return CiStatement(part("x"), part("z"), part("y"))


@st.composite
def statement_pairs(draw):
    """Two statements; the second is the first, possibly flipped, with up to
    two names moved, so equal and unequal pairs both occur often."""
    first = draw(SIDES)
    second = list("".join(first).translate(SWAP) if draw(st.booleans()) else first)
    for i in draw(st.lists(st.integers(0, 5), max_size=2)):
        second[i] = draw(st.sampled_from("-xzy"))
    if "x" not in second or "y" not in second:
        second = draw(SIDES)
    return statement(first), statement(second)


@examples
@given(statement_pairs())
def test_statement_identity_matches_the_sorted_key(pair):
    a, b = pair
    assert (a == b) == (sorted_statement_key(a) == sorted_statement_key(b))
    if a == b:
        assert hash(a) == hash(b)
    assert a == a.flipped() and hash(a) == hash(a.flipped())
    kept = dedupe([a, b.flipped(), a.flipped(), b])
    expected = [a] if a == b else [a, b.flipped()]
    assert [(s.x, s.z, s.y) for s in kept] == [(s.x, s.z, s.y) for s in expected]


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
# cells that float and loadtxt read alike after stripping or unquoting, and
# cells only one of them reads, or neither
ODD_CELLS = st.one_of(
    st.sampled_from(
        ["", " ", " 1.5 ", '"2.5"', '"1,5"', ' "4"', '"3"x', '1"2', '"7"" "', '"8\n"']
        + ["1_0", "１２", "nan", "NaN", "inf", "-inf", "1e999", "x", "0x1", "1\t", "1\x1c"]
    ),
    st.text(alphabet='0123456789.-+e_ "\t\x1f', max_size=4),
)


@st.composite
def csv_texts(draw) -> str:
    """A header of 1-3 names, then rows of the header's width or one off,
    blank and whitespace-only lines, with LF, CRLF or mixed line ends (lone
    CR among them). A row holds numbers and at most one odd cell."""
    width = draw(st.integers(1, 3))
    lines = [",".join(draw(st.sampled_from([n, f'"{n}"', f" {n}"])) for n in "abc"[:width])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "wrong", "blank", "space"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            n = width if kind == "row" else draw(st.sampled_from([width - 1, width + 1]))
            cells = draw(st.lists(NUMBERS, min_size=n, max_size=n))
            if n and draw(st.booleans()):
                cells[draw(st.integers(0, n - 1))] = draw(ODD_CELLS)
            lines.append(",".join(cells))
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = ""
    for line in lines:
        text += line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _read(read, path):
    try:
        return read(path)
    except InputError as exc:
        return f"InputError: {exc}"


@examples
@given(csv_texts())
@example("a,b\n1\x1c,2\n")  # loadtxt reads 1, float rejects the cell
@example("a,b\n \n\n")  # loadtxt would warn on the empty body
@example("a,b\n1_0,2\r\n 3,4\r\n")  # only float reads 1_0
@example("a,b\n1,2\n\n3,-inf\n")  # the error names line 4
@example('a,b\n1.0,2.0\n"' + "0" * 199_999 + '1",3.0\n')  # loadtxt reads 1.0, csv refuses
@example('a,b\n"1.5",2.0\n3.0,"-4"\n')  # quoted numbers
def test_csv_reader_matches_the_row_by_row_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _read(DataTable.from_csv, path)
        want = _read(csv_by_rows, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.variables == want[0]
        assert got.values.shape == want[1].shape and np.array_equal(got.values, want[1])
