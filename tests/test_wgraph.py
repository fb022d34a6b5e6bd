import re
from fractions import Fraction

import pytest

from holozeta import fixtures
from holozeta.freegroup import GroupRingElt, Word, apply_phi
from holozeta.knot import Representation
from holozeta.laurent import LaurentPoly, PolyMatrix, parse_laurent, series_det_inverse
from holozeta.wgraph import (
    Edge,
    InvalidStep,
    TransformStep,
    WeightedDigraph,
    adjacency_matrix,
    apply_step,
    cycle_classes,
    euler_product_oracle,
    export_dot,
    format_graph,
    parse_graph,
    phi_image,
    prime_cycle_classes,
    verify_equivalence,
    zeta_reciprocal,
)

from helpers import (
    cycle_classes_by_walks,
    random_laurent,
    random_matrix,
    random_matrix_graph,
    seeded_rng,
)


def _scalar_graph(edges):
    """edges: (id, src, tgt, poly text) with all dims 1."""
    vs = sorted({e[1] for e in edges} | {e[2] for e in edges})
    return WeightedDigraph(
        "matrix",
        tuple((v, 1) for v in vs),
        tuple(
            Edge(i, s, t, PolyMatrix.from_rows([[parse_laurent(w)]]))
            for i, s, t, w in edges
        ),
    )


def test_zeta_of_single_loop():
    g = _scalar_graph([("a", "u", "u", "t")])
    assert zeta_reciprocal(g) == parse_laurent("1 - t")


def test_zeta_of_two_cycle():
    g = _scalar_graph([("a", "u", "v", "t"), ("b", "v", "u", "t")])
    assert zeta_reciprocal(g) == parse_laurent("1 - t^2")


def test_cycle_classes_counts():
    g = _scalar_graph([("a", "u", "v", "1"), ("b", "v", "u", "1"),
                       ("c", "u", "u", "1")])
    classes = cycle_classes(g, 4)
    primes = prime_cycle_classes(g, 4)
    # every class is a rotation orbit; primes are not proper powers
    assert all(c.edges == min(c.edges[i:] + c.edges[:i]
                              for i in range(len(c.edges))) for c in classes)
    assert {c.edges for c in primes if c.length == 1} == {("c",)}
    assert ("a", "b") in {c.edges for c in primes}
    assert ("a", "b", "a", "b") in {c.edges for c in classes if not c.prime}
    # mixed walks like c then a b are prime
    assert ("a", "b", "c") in {c.edges for c in primes}


def test_cycle_classes_of_a_deep_walk():
    # one class per length and only the single loop is prime; the walk is
    # 1100 edges deep, past Python's default recursion limit
    g = _scalar_graph([("a", "u", "u", "t")])
    classes = cycle_classes(g, 1100)
    assert [c.length for c in classes] == list(range(1, 1101))
    assert [c.edges for c in classes if c.prime] == [("a",)]


def test_cycle_classes_match_the_closed_walks():
    # ids are drawn in random order, so z17 may come before z3 in g.edges:
    # a class is its least rotation by edge position, not by id
    rng = seeded_rng(32)
    for _ in range(40):
        nv = rng.randint(1, 3)
        ids = rng.sample(range(1, 40), rng.randint(1, 6))
        g = _scalar_graph([("z%d" % i, "v%d" % rng.randrange(nv), "v%d" % rng.randrange(nv), "1")
                           for i in ids])
        for max_len in (0, 1, 3, 6):
            classes = cycle_classes(g, max_len)
            assert all(c.length == len(c.edges) for c in classes)
            assert [(c.edges, c.prime) for c in classes] == cycle_classes_by_walks(g, max_len)


def test_euler_product_matches_determinant_fixed():
    g = _scalar_graph([("a", "u", "v", "t"), ("b", "v", "u", "1"),
                       ("c", "u", "u", "1 - t"), ("d", "v", "v", "2")])
    assert euler_product_oracle(g, max_len=8) == series_det_inverse(
        adjacency_matrix(g), 8
    )


def test_euler_product_matches_determinant_random():
    rng = seeded_rng(30)
    for _ in range(25):
        g = random_matrix_graph(rng)
        assert euler_product_oracle(g, max_len=6) == series_det_inverse(
            adjacency_matrix(g), 6
        )


def test_euler_product_matches_determinant_at_dimension_3():
    # weights up to 3 x 3, so Newton's identities run up to e_3
    rng = seeded_rng(31)
    for _ in range(12):
        g = random_matrix_graph(rng, max_vertices=3, max_dim=3)
        assert euler_product_oracle(g, max_len=6) == series_det_inverse(
            adjacency_matrix(g), 6
        )


def test_series_det_inverse_recovers_the_determinant():
    # det(I - uA) has degree n = dim A <= L, so the inverse of the series is
    # that polynomial, and at u = 1 it is zeta_reciprocal's det(I - A)
    rng = seeded_rng(33)
    for _ in range(20):
        g = random_matrix_graph(rng)
        a = adjacency_matrix(g)
        poly = series_det_inverse(a, a.rows + rng.randint(0, 2)).inverse()
        assert all(c.is_zero() for c in poly.coeffs[a.rows + 1:])
        total = LaurentPoly.zero()
        for c in poly.coeffs:
            total = total + c
        assert total == zeta_reciprocal(g)


def test_euler_factor_of_a_3x3_cycle_weight():
    # the prime class (a, b) has w = A*B, 3 x 3 with nonzero det, whose
    # e_3 term lands at u^6; the loop c adds a class of length 1
    a = PolyMatrix.from_rows([[parse_laurent(x) for x in row] for row in
                              (("t", "1", "0"), ("0", "1", "t"), ("1", "0", "2"))])
    b = PolyMatrix.from_rows([[parse_laurent(x) for x in row] for row in
                              (("1", "0", "t^-1"), ("2", "t", "0"), ("0", "1", "1"))])
    c = PolyMatrix.from_rows([[parse_laurent(x) for x in row] for row in
                              (("0", "0", "0"), ("0", "t", "0"), ("0", "0", "0"))])
    g = WeightedDigraph("matrix", (("u", 3), ("v", 3)),
                        (Edge("a", "u", "v", a), Edge("b", "v", "u", b),
                         Edge("c", "u", "u", c)))
    assert not (a * b).det().is_zero()
    for order in (6, 7):
        assert euler_product_oracle(g, max_len=order) == series_det_inverse(
            adjacency_matrix(g), order
        )


def _base_graph():
    return _scalar_graph([
        ("a", "u", "v", "t"), ("b", "v", "u", "1"),
        ("c", "u", "u", "1 - t"), ("d", "v", "w", "t^2"),
        ("e", "w", "u", "-1"),
    ])


def test_change_basis_preserves_zeta():
    g = _base_graph()
    p = PolyMatrix.from_rows([[parse_laurent("2*t")]])
    h = apply_step(g, TransformStep("change_basis", vertex="v", matrix=p))
    assert zeta_reciprocal(h) == zeta_reciprocal(g)


def test_null_add_remove_roundtrip():
    g = _base_graph()
    h = apply_step(g, TransformStep("null_add", edge="z", src="u", tgt="w"))
    assert zeta_reciprocal(h) == zeta_reciprocal(g)
    back = apply_step(h, TransformStep("null_remove", edge="z"))
    assert back == g
    with pytest.raises(InvalidStep):
        apply_step(g, TransformStep("null_remove", edge="a"))


def test_split_merge_roundtrip():
    g = _base_graph()
    w = g.edge("a").weight
    w1 = PolyMatrix.from_rows([[parse_laurent("1")]])
    s = TransformStep("split", edge="a", summands=(w1, w - w1), new_ids=("a1", "a2"))
    h = apply_step(g, s)
    assert zeta_reciprocal(h) == zeta_reciprocal(g)
    back = apply_step(h, TransformStep("merge", src="u", tgt="v", new_ids=("a",)))
    assert sorted(e.id for e in back.edges) == sorted(e.id for e in g.edges)
    assert zeta_reciprocal(back) == zeta_reciprocal(g)


def test_an_edge_at_a_dimension_0_vertex_is_rejected():
    for src, tgt, w in (("w", "u", PolyMatrix.zeros(0, 1)), ("u", "w", PolyMatrix.zeros(1, 0)),
                        ("w", "w", PolyMatrix.zeros(0, 0))):
        with pytest.raises(ValueError, match="'z' touches the dimension-0 vertex 'w'"):
            WeightedDigraph("matrix", (("u", 1), ("w", 0)), (Edge("z", src, tgt, w),))


def test_split_rejects_wrong_sum():
    g = _base_graph()
    w1 = PolyMatrix.from_rows([[parse_laurent("1")]])
    with pytest.raises(InvalidStep):
        apply_step(g, TransformStep("split", edge="a", summands=(w1, w1),
                                    new_ids=("a1", "a2")))


def test_insert_eliminate_roundtrip():
    g = _base_graph()
    w = PolyMatrix.from_rows([[parse_laurent("t - 1")]])
    s = TransformStep("insert", vertex="s0", dim=1,
                      edges=(("f", "s0", "u", w),))
    h = apply_step(g, s)
    assert zeta_reciprocal(h) == zeta_reciprocal(g)
    back = apply_step(h, TransformStep("eliminate", vertex="s0"))
    assert back == g
    with pytest.raises(InvalidStep):
        apply_step(g, TransformStep("eliminate", vertex="u"))


def test_hub_resolve_preserves_zeta():
    g = _base_graph()
    h = apply_step(g, TransformStep("hub_resolve", edge="a"))
    assert zeta_reciprocal(h) == zeta_reciprocal(g)
    assert not any(e.id == "a" for e in h.edges)
    # undo it
    pairs = tuple((("a*%s" % f), f) for f in ("b", "d"))
    back = apply_step(h, TransformStep(
        "hub_unresolve", edge="a", src="u", tgt="v",
        weight=g.edge("a").weight, pairs=pairs))
    assert sorted(e.id for e in back.edges) == sorted(e.id for e in g.edges)
    assert zeta_reciprocal(back) == zeta_reciprocal(g)


def test_reverse_all_preserves_zeta():
    rng = seeded_rng(31)
    for _ in range(20):
        g = random_matrix_graph(rng)
        h = apply_step(g, TransformStep("reverse_all"))
        assert zeta_reciprocal(h) == zeta_reciprocal(g)


def test_group_level_rejections():
    g = fixtures.slide_graph_before()
    gm = fixtures.slide_gen_map()
    resolved = apply_step(g, TransformStep("hub_resolve", edge="e0_xi1"))
    one = GroupRingElt.one()
    cases = (
        (g, TransformStep("null_add", edge="z", src="xk", tgt="xi"), "is a sink"),
        (g, TransformStep("eliminate", vertex="xi1", witness=Word.gen(0), gen_map=gm),
         "is not a source"),
        (resolved, TransformStep("eliminate", vertex="xi1", witness=Word.gen(0), gen_map=gm),
         "witness fails at generator 0"),
        (g, TransformStep("change_basis", vertex="xi", matrix=PolyMatrix.identity(1)),
         "unsupported group-level step"),
        (g, TransformStep("reverse_all"), "unsupported group-level step"),
        (g, TransformStep("insert", vertex="s", dim=1, edges=(("f", "xi", "s", one),),
                          witness=Word.gen(0), gen_map=gm), "must be a source"),
    )
    for h, step, message in cases:
        with pytest.raises(InvalidStep, match=message):
            apply_step(h, step)
    pair = WeightedDigraph("group", (("a", 1), ("b", 1)),
                           (Edge("z", "a", "b", GroupRingElt.zero()),))
    with pytest.raises(InvalidStep, match="would become a sink"):
        apply_step(pair, TransformStep("null_remove", edge="z"))



def test_group_level_round_trips():
    g = fixtures.slide_graph_before()
    gm = fixtures.slide_gen_map()
    # (G1): a null edge out of xi, which has other out-edges
    h = apply_step(g, TransformStep("null_add", edge="n0", src="xi", tgt="xk"))
    assert h.edge("n0").weight == GroupRingElt.zero()
    assert apply_step(h, TransformStep("null_remove", edge="n0")) == g
    # (G3): a source whose one out-weight is d(x0)/dx0 = 1
    s = apply_step(g, TransformStep("insert", vertex="s", dim=1,
                                    edges=(("f", "s", "xi", GroupRingElt.one()),),
                                    witness=Word.gen(0), gen_map=gm))
    assert s.has_vertex("s") and s.out_edges("s") == [Edge("f", "s", "xi", GroupRingElt.one())]
    assert apply_step(s, TransformStep("eliminate", vertex="s", witness=Word.gen(0),
                                       gen_map=gm)) == g


# kind -> the fields a step needs on a matrix graph, on a group graph (None:
# the group ring has no basis change and no transpose)
_STEP_FIELDS = {
    "change_basis": (("vertex", "matrix"), None),
    "null_add": (("edge", "src", "tgt"), ("edge", "src", "tgt")),
    "null_remove": (("edge",), ("edge",)),
    "merge": (("src", "tgt"), ("src", "tgt")),
    "split": (("edge", "summands"), ("edge", "summands")),
    "eliminate": (("vertex",), ("vertex", "witness")),
    "insert": (("vertex",), ("vertex", "witness")),
    "hub_resolve": (("edge",), ("edge",)),
    "hub_unresolve": (("edge", "src", "tgt", "weight"), ("edge", "src", "tgt", "weight")),
    "reverse_all": ((), None),
}


def test_a_missing_step_field_is_a_rejected_step():
    one = PolyMatrix.identity(1)
    value = dict(vertex="v", edge="a", src="u", tgt="v", matrix=one, summands=(one, one),
                 weight=one, witness=Word.gen(0))
    # each graph with a valid first step, so the bad step is step 1
    rings = ((_base_graph(), TransformStep("null_add", edge="n0", src="u", tgt="v")),
             (fixtures.slide_graph_before(),
              TransformStep("null_add", edge="n0", src="xi", tgt="xk")))
    for kind, needs in _STEP_FIELDS.items():
        for (g, first), fields in zip(rings, needs):
            if fields is None:
                with pytest.raises(InvalidStep, match="unsupported group-level step"):
                    apply_step(g, TransformStep(kind))
                continue
            for name in fields:
                step = TransformStep(kind, **{f: value[f] for f in fields if f != name})
                message = "%s needs field %r" % (kind, name)
                with pytest.raises(InvalidStep, match="^%s$" % re.escape(message)):
                    apply_step(g, step)
                report = verify_equivalence(g, (first, step), g)
                assert (report.ok, report.failing_step, report.message) == (
                    False, 1, "step 1 rejected: " + message)


def test_verify_equivalence_reports():
    g = _base_graph()
    script = (TransformStep("null_add", edge="z", src="u", tgt="w"),
              TransformStep("null_remove", edge="z"))
    rep = verify_equivalence(g, script, g)
    assert rep.ok and rep.message == "verified"
    other = _scalar_graph([("a", "u", "v", "t"), ("b", "v", "u", "t")])
    rep2 = verify_equivalence(g, (), other)
    assert not rep2.ok
    bad = (TransformStep("null_remove", edge="a"),)
    rep3 = verify_equivalence(g, bad, g)
    assert not rep3.ok and rep3.failing_step == 0


def test_zeta_layer_rejects_group_graphs():
    g = fixtures.slide_graph_before()
    for fn in (adjacency_matrix, zeta_reciprocal, euler_product_oracle):
        with pytest.raises(ValueError, match="phi_image"):
            fn(g)


def test_phi_image_replaces_each_weight():
    g = fixtures.slide_graph_before()
    rep = Representation.abelianization(fixtures.slide_presentation_before())
    h = phi_image(g, rep)
    assert h.kind == "matrix" and h.vertices == g.vertices
    assert [(e.id, e.src, e.tgt) for e in h.edges] == [(e.id, e.src, e.tgt) for e in g.edges]
    assert all(f.weight == apply_phi(e.weight, rep) for e, f in zip(g.edges, h.edges))
    with pytest.raises(ValueError, match="group-weighted"):
        phi_image(h, rep)


def test_parse_format_roundtrip():
    rng = seeded_rng(32)
    for _ in range(20):
        g = random_matrix_graph(rng)
        h = parse_graph(format_graph(g))
        assert h == g


def test_export_dot_mentions_everything():
    g = _base_graph()
    dot = export_dot(g)
    assert dot.startswith("digraph")
    for v in ("u", "v", "w"):
        assert '"%s"' % v in dot
