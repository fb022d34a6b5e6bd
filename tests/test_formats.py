"""Every text reader takes `#` comments the same way."""
import pytest

from holozeta.cli import parse_graph_script, parse_tietze_script
from holozeta.knot import parse_gauss, parse_pd, parse_rep
from holozeta.laurent import parse_laurent
from holozeta.presentation import parse_presentation
from holozeta.quandle import (
    constant_pair,
    dihedral_quandle,
    f_twisted_weights,
    format_pair_file,
    format_quandle,
    format_weights_file,
    parse_pair_file,
    parse_quandle,
    parse_weights_file,
)
from holozeta.wgraph import parse_graph
from holozeta import fixtures


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
