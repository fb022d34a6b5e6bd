"""Shipped worked examples: the crossing-slide presentation pair with its
move script, the matching graph reduction scripts, knot diagrams, and the
rebase demonstration presentations."""
from __future__ import annotations

from .freegroup import Generator, GroupRingElt, Word
from .presentation import BasedPresentation, TietzeMove, build_group_weighted_graph
from .wgraph import Edge, TransformStep, WeightedDigraph
from .knot import (
    KnotDiagram, Crossing, ReidemeisterMove, parse_gauss, parse_pd, reidemeister_apply,
)


# generator indices for the slide fixtures
XI, XI1, XI2, XJ, XJ1, XK = range(6)
_SLIDE_GENS = tuple(
    Generator(i, n) for i, n in enumerate(("xi", "xi1", "xi2", "xj", "xj1", "xk"))
)


def _w(*letters) -> Word:
    return Word(letters)


def slide_presentation_before() -> BasedPresentation:
    """Three conjugation relations around a crossing slide:
    xi = xj xi1 xj^-1, xi1 = xk xi2 xk^-1, xj = xk xj1 xk^-1."""
    r1 = _w((XI, 1), (XJ, 1), (XI1, -1), (XJ, -1))
    r2 = _w((XI1, 1), (XK, 1), (XI2, -1), (XK, -1))
    r3 = _w((XJ, 1), (XK, 1), (XJ1, -1), (XK, -1))
    return BasedPresentation(
        _SLIDE_GENS, (r1, r2, r3), {0: (XI, 0), 1: (XI1, 0), 2: (XJ, 0)}
    )


def slide_presentation_after() -> BasedPresentation:
    """The slid configuration:
    xi = xk xi1 xk^-1, xi1 = xj1 xi2 xj1^-1, xj = xk xj1 xk^-1."""
    r1 = _w((XI, 1), (XK, 1), (XI1, -1), (XK, -1))
    r2 = _w((XI1, 1), (XJ1, 1), (XI2, -1), (XJ1, -1))
    r3 = _w((XJ, 1), (XK, 1), (XJ1, -1), (XK, -1))
    return BasedPresentation(
        _SLIDE_GENS, (r1, r2, r3), {0: (XI, 0), 1: (XI1, 0), 2: (XJ, 0)}
    )


def slide_tietze_script():
    """Moves carrying slide_presentation_before to slide_presentation_after
    (up to relation order and generator reindexing)."""
    w_mid = _w((XK, 1), (XJ1, 1), (XI2, 1), (XK, -1), (XJ, -1))
    return (
        # fold relation 2 into relation 1, removing xi1 from it
        TietzeMove("conjugate", i=1, w=Word.gen(XJ)),
        TietzeMove("multiply", i=0, k=1),
        TietzeMove("conjugate", i=1, w=Word.gen(XJ, -1)),
        # xi1 now occurs only in its own defining relation; drop it
        TietzeMove("remove_generator", name="xi1"),
        # rewrite relation 1 through the surviving conjugation relation
        TietzeMove("multiply", i=0, k=1),
        TietzeMove("conjugate", i=1, w=w_mid),
        TietzeMove("multiply_inv", i=0, k=1),
        TietzeMove("conjugate", i=1, w=w_mid.inv()),
        # reintroduce xi1 with its slid defining word
        TietzeMove(
            "add_generator", name="xi1", w=_w((XJ1, 1), (XI2, 1), (XJ1, -1))
        ),
        TietzeMove("conjugate", i=2, w=Word.gen(XK)),
        TietzeMove("multiply_inv", i=0, k=2),
        TietzeMove("conjugate", i=2, w=Word.gen(XK, -1)),
    )


def slide_gen_map() -> dict:
    return {g.display_name: g.index for g in _SLIDE_GENS}


def slide_graph_before() -> WeightedDigraph:
    return build_group_weighted_graph(slide_presentation_before())


def slide_graph_after() -> WeightedDigraph:
    return build_group_weighted_graph(slide_presentation_after())


def slide_common_graph() -> WeightedDigraph:
    """The graph both slide graphs reduce to: xi feeds xi2, xj1, xk
    directly and the xj row is untouched."""
    one = GroupRingElt.one()
    w_xjxk = GroupRingElt.from_word(_w((XJ, 1), (XK, 1)))
    w_1mxi_xk = GroupRingElt.from_word(Word.gen(XK)) - GroupRingElt.from_word(
        _w((XI, 1), (XK, 1))
    )
    w_1mxi = one - GroupRingElt.from_word(Word.gen(XI))
    w_xk = GroupRingElt.from_word(Word.gen(XK))
    w_1mxj = one - GroupRingElt.from_word(Word.gen(XJ))
    vertices = (("xi", 1), ("xi2", 1), ("xj", 1), ("xj1", 1), ("xk", 1))
    edges = (
        Edge("ci2", "xi", "xi2", w_xjxk),
        Edge("cj1", "xi", "xj1", w_1mxi_xk),
        Edge("ck", "xi", "xk", w_1mxi),
        Edge("dj1", "xj", "xj1", w_xk),
        Edge("dk", "xj", "xk", w_1mxj),
    )
    return WeightedDigraph("group", vertices, edges)


def slide_graph_script_before():
    """Reduce slide_graph_before to slide_common_graph."""
    gm = slide_gen_map()
    f1 = _w((XK, 1), (XI2, 1), (XK, -1))
    return (
        TransformStep("hub_resolve", edge="e0_xi1"),
        TransformStep("eliminate", vertex="xi1", witness=f1, gen_map=gm),
        TransformStep("hub_resolve", edge="e0_xj"),
        TransformStep("merge", src="xi", tgt="xk", new_ids=("ck",)),
    )


def slide_graph_script_after():
    """Reduce slide_graph_after to slide_common_graph."""
    gm = slide_gen_map()
    f1 = _w((XJ1, 1), (XI2, 1), (XJ1, -1))
    return (
        TransformStep("hub_resolve", edge="e0_xi1"),
        TransformStep("eliminate", vertex="xi1", witness=f1, gen_map=gm),
    )


# -- knot diagram fixtures ----------------------------------------------

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIGURE_EIGHT_PD = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"

# closure of the positive braid s1 s2 s1 s2, which contains a slide site;
# `r3_pair` slides it with `reidemeister_apply`
BRAID_SLIDE_GAUSS_BEFORE = "O1+ O2+ U4+ U1+ O3+ O4+ U2+ U3+"


def trefoil() -> KnotDiagram:
    return parse_pd(TREFOIL_PD)


def figure_eight() -> KnotDiagram:
    return parse_pd(FIGURE_EIGHT_PD)


def unknot() -> KnotDiagram:
    return parse_pd("unknot")


def r3_pair():
    """A diagram with an all-positive triangle site and the result of
    sliding it; both are closures of conjugate positive braid words."""
    before = parse_gauss(BRAID_SLIDE_GAUSS_BEFORE)
    after = reidemeister_apply(before, ReidemeisterMove("R3", crossings=(1, 2, 3)))
    return before, after


def reidemeister_fixture_pairs():
    """(label, before, after) pairs for each move kind."""
    tre = trefoil()
    pairs = []
    for kind in ("R1_1", "R1_2"):
        for sign in (1, -1):
            after = reidemeister_apply(
                tre, ReidemeisterMove(kind, arc="a1", sign=sign)
            )
            pairs.append(("%s%+d" % (kind, sign), tre, after))
    after = reidemeister_apply(
        tre, ReidemeisterMove("R2", arc="a1", over_arc="a3", sign=1)
    )
    pairs.append(("R2", tre, after))
    before, after = r3_pair()
    pairs.append(("R3", before, after))
    return pairs


# -- rebase fixtures -----------------------------------------------------

def rebase_fixtures():
    """Presentations whose based relation has several occurrences of the
    base generator, so the base point can be moved; every relation has
    zero total exponent sum, keeping the one-variable abelianization a
    genuine representation.

    Returns (presentation, relation index, alternative occurrence)."""
    x, y, z = 0, 1, 2
    gens = (Generator(x, "x"), Generator(y, "y"), Generator(z, "z"))

    # x = y x z^-1 y^-1 z, based at the leading x, other occurrence inside
    r_a = _w((x, 1), (z, -1), (y, 1), (z, 1), (x, -1), (y, -1))
    p_a = BasedPresentation(gens, (r_a,), {0: (x, 0)})

    # x = y x^-1 z: the base generator appears twice with sign +1
    r_b = _w((x, 1), (z, -1), (x, 1), (y, -1))
    p_b = BasedPresentation(gens, (r_b,), {0: (x, 0)})

    # same first relation plus a second conjugation relation y = z y z^-1
    r_c2 = _w((y, 1), (z, 1), (y, -1), (z, -1))
    p_c = BasedPresentation(gens, (r_a, r_c2), {0: (x, 0), 1: (y, 0)})

    return (
        (p_a, 0, (x, 1)),
        (p_b, 0, (x, 1)),
        (p_c, 0, (x, 1)),
    )
