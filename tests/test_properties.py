"""Property tests of the graph text format and of statement identity, with
examples drawn by hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from admgci import Admg, CiStatement, InputError, dedupe, format_graph, parse_graph
from oracles import sorted_statement_key

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
