"""Property tests of the graph text format, with examples drawn by hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from admgci import Admg, InputError, format_graph, parse_graph

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
