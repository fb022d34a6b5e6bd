"""Every text reader takes `#` comments the same way, and reads back
what its writer wrote."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holozeta.cli import parse_graph_script, parse_tietze_script
from holozeta.freegroup import Generator, Word
from holozeta.knot import parse_gauss, parse_pd, parse_rep
from holozeta.laurent import LaurentPoly, PolyMatrix, parse_laurent
from holozeta.presentation import BasedPresentation, format_presentation, parse_presentation
from holozeta.quandle import (
    dihedral_quandle,
    f_twisted_weights,
    format_pair_file,
    format_quandle,
    format_weights_file,
    parse_pair_file,
    parse_quandle,
    parse_weights_file,
    trivial_quandle,
)
from holozeta.wgraph import Edge, WeightedDigraph, format_graph, parse_graph, parse_matrix_literal
from holozeta import fixtures

from helpers import constant_pair, random_alexander_pair


R3 = dihedral_quandle(3)
PAIR = constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t"))

READERS = {
    "tietze-script": (parse_tietze_script, "invert 0\nconjugate 1 x y^-1\nmultiply 0 1\n"),
    "graph-script": (parse_graph_script, "null_add z1 u v\nchange_basis u [[1,t],[0,1]]\n"),
    "presentation": (parse_presentation, "gens: x y\nrel: x y x^-1 y^-1  base: x@0\n"),
    "graph": (parse_graph, "vertex u dim=1\nvertex v dim=1\nedge e1 u -> v weight=[[t]]\n"),
    "rep": (lambda text: vars(parse_rep(text, {"x1": 0, "x2": 1})),
            "x1: [[0,1],[1,0]] exp=1\nall: [[1/2,0],[0,2]]\n"),
    "quandle": (parse_quandle, format_quandle(R3)),
    "pair": (lambda text: parse_pair_file(text, R3), format_pair_file(PAIR)),
    "weights": (parse_weights_file, format_weights_file(f_twisted_weights(PAIR, R3))),
    "pd": (parse_pd, fixtures.TREFOIL_PD),
    "gauss": (parse_gauss, fixtures.BRAID_SLIDE_GAUSS_BEFORE),
}


def _commented(text: str) -> str:
    # the trailing comment holds tokens that PD and Gauss readers would take
    lines = ["# a comment line"]
    lines += [line + "  # was O4+ U4+ X[1,4,2,5]" for line in text.splitlines() if line.strip()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("reader", sorted(READERS))
def test_comments_leave_the_parse_unchanged(reader):
    parse, text = READERS[reader]
    assert parse(_commented(text)) == parse(text)


# -- format then parse gives back what was written ------------------------

_ROUND_TRIP = settings(derandomize=True, database=None, max_examples=100, deadline=None)
_POLYS = st.dictionaries(
    st.integers(-6, 6), st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=4
).map(LaurentPoly)
# ids the graph format can hold: no space, `#`, `-`, `>` or `=`
_IDS = st.text("abuvxz019_.*", min_size=1, max_size=4)
_QUANDLES = [dihedral_quandle(n) for n in range(3, 8)] + [trivial_quandle(n) for n in (1, 2, 4)]


@st.composite
def _matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(1, 3)) if rows is None else rows
    cols = draw(st.integers(1, 3)) if cols is None else cols
    return PolyMatrix(rows, cols, draw(st.lists(_POLYS, min_size=rows * cols,
                                                max_size=rows * cols)))


@st.composite
def _graphs(draw):
    """A matrix-weighted graph, dimension-0 vertices included; its edges
    join vertices of dimension >= 1, as `WeightedDigraph` requires."""
    names = draw(st.lists(_IDS, unique=True, max_size=4))
    vertices = tuple((v, draw(st.integers(0, 2))) for v in names)
    ends = [v for v, dim in vertices if dim]
    edges = []
    if ends:
        dims = dict(vertices)
        for eid in draw(st.lists(_IDS, unique=True, max_size=5)):
            src, tgt = draw(st.sampled_from(ends)), draw(st.sampled_from(ends))
            edges.append(Edge(eid, src, tgt, draw(_matrices(dims[src], dims[tgt]))))
    return WeightedDigraph("matrix", vertices, tuple(edges))


@st.composite
def _presentations(draw):
    name = st.tuples(st.sampled_from("xyXY_"), st.text("ab_09", max_size=2)).map("".join)
    names = draw(st.lists(name, unique=True, min_size=1, max_size=4))
    letters = st.tuples(st.integers(0, len(names) - 1), st.sampled_from((1, -1)))
    words = st.lists(letters, min_size=1, max_size=6).map(Word)
    relations = draw(st.lists(words.filter(lambda w: not w.is_identity()), max_size=4))
    base, used = {}, set()
    for i, r in enumerate(relations):
        free = sorted({g for g, _ in r.letters} - used)
        if free and draw(st.booleans()):
            g = draw(st.sampled_from(free))
            base[i] = (g, draw(st.integers(0, len(r.occurrences(g)) - 1)))
            used.add(g)
    generators = tuple(Generator(i, name) for i, name in enumerate(names))
    return BasedPresentation(generators, tuple(relations), base)


@_ROUND_TRIP
@given(p=_POLYS)
def test_laurent_text_round_trips(p):
    assert parse_laurent(str(p)) == p


def test_empty_laurent_text_is_an_error():
    for text in ("", "  ", "\t"):
        with pytest.raises(ValueError):
            parse_laurent(text)


@st.composite
def _laurent_texts(draw):
    """Text written term by term from the README's cell grammar, and the
    polynomial its terms add up to, built without the reader."""
    pieces, total = [], LaurentPoly()
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(("+", "-", "−") if k else ("", "+", "-", "−")))
        value = -1 if sign in ("-", "−") else 1
        coeff = draw(st.sampled_from(("", "n", "a/b")))
        power = draw(st.sampled_from(("", "t", "t^e", "t^{e}") if coeff else ("t", "t^e", "t^{e}")))
        text = sign + draw(st.sampled_from(("", " ")))
        if coeff:
            if draw(st.booleans()):  # the coefficient's own sign: `+ -2`
                text += "-"
                value = -value
            num = draw(st.integers(0, 99))
            den = draw(st.integers(1, 9)) if coeff == "a/b" else 1
            text += str(num) if coeff == "n" else "%d/%d" % (num, den)
            value *= Fraction(num, den)
            if power:
                text += draw(st.sampled_from(("*", " * ", " ", "")))
        e = draw(st.integers(-9, 9))
        text += power.replace("e", str(e))
        total = total + LaurentPoly({{"": 0, "t": 1}.get(power, e): value})
        pieces.append(text)
    sep = draw(st.sampled_from(("", " ", "\t")))
    return sep.join(pieces), total


@_ROUND_TRIP
@given(case=_laurent_texts())
def test_laurent_text_reads_as_written(case):
    text, p = case
    assert parse_laurent(text) == p


@pytest.mark.parametrize("text", ["1/0", "2*-1", "t t", "1 +", "--t", "t^", "2 3",
                                  "t^{2", "t^2}", "2*", "1 + 2*", "*t", "+ * t"])
def test_malformed_laurent_text_is_an_error(text):
    with pytest.raises(ValueError):
        parse_laurent(text)


@pytest.mark.parametrize("text, message", [
    ("1 − 2/0*t", "zero denominator in '1 − 2/0*t'"),
    ("t −− t", "bad Laurent term '-' in 't −− t'"),
    ("1 + 2*", "unexpected text at column 6: '*'"),
    ("t ×− 1", "unexpected text at column 3: '×- 1'"),
    ("t^2}", "unexpected text at column 4: '}'"),
])
def test_malformed_laurent_text_names_the_text(text, message):
    # a term names the text as written, `−` included; a column names the
    # text as scanned, where `−` reads as `-`
    with pytest.raises(ValueError) as err:
        parse_laurent(text)
    assert str(err.value) == message


@_ROUND_TRIP
@given(m=_matrices())
def test_matrix_literal_round_trips(m):
    assert parse_matrix_literal(str(m)) == m


@_ROUND_TRIP
@given(g=_graphs())
def test_graph_text_round_trips(g):
    assert parse_graph(format_graph(g)) == g


@_ROUND_TRIP
@given(p=_presentations())
def test_presentation_text_round_trips(p):
    assert parse_presentation(format_presentation(p)) == p


@_ROUND_TRIP
@given(q=st.sampled_from(_QUANDLES), rng=st.randoms(use_true_random=False))
def test_quandle_pair_and_weight_text_round_trip(q, rng):
    assert parse_quandle(format_quandle(q)) == q
    f = random_alexander_pair(q, rng)
    assert parse_pair_file(format_pair_file(f), q) == f
    g = f_twisted_weights(f, q)
    assert parse_weights_file(format_weights_file(g)) == g
