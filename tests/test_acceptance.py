"""End-to-end acceptance gate: one test per criterion, one pass/fail
line each in the verbose report."""
from fractions import Fraction

from holozeta.laurent import LaurentPoly, PolyMatrix, parse_laurent, series_det
from holozeta.freegroup import GroupRingElt, Word, fox_derivative
from holozeta.knot import Representation, twisted_alexander
from holozeta.presentation import (
    build_group_weighted_graph,
    check_assumption,
    presentations_equal,
    rebase,
    tietze_apply,
)
from holozeta.wgraph import (
    Edge,
    TransformStep,
    WeightedDigraph,
    adjacency_matrix,
    apply_step,
    euler_product_oracle,
    phi_image,
    verify_equivalence,
    zeta_reciprocal,
)
from holozeta.quandle import (
    dihedral_quandle,
    f_twisted_weights,
    holonomy_check,
    recover_pair,
    trivial_quandle,
)
from holozeta import fixtures

from helpers import (
    abelianization,
    constant_pair,
    perturbed,
    random_alexander_pair,
    random_laurent,
    random_matrix,
    random_word,
    rep_direct_sum,
    seeded_rng,
)


def _random_graph_bounded(rng, max_vertices=5, max_dim=2, max_outdeg=2):
    """Random matrix-weighted graph with bounded out-degree so the cycle
    enumeration at length 8 stays small."""
    nv = rng.randint(1, max_vertices)
    vertices = tuple(("v%d" % i, rng.randint(1, max_dim)) for i in range(nv))
    dims = dict(vertices)
    edges = []
    k = 0
    for vid, _ in vertices:
        for _ in range(rng.randint(0, max_outdeg)):
            tgt = rng.choice(vertices)[0]
            edges.append(Edge("e%d" % k, vid, tgt,
                              random_matrix(rng, dims[vid], dims[tgt])))
            k += 1
    return WeightedDigraph("matrix", vertices, tuple(edges))


def _random_unimodular(rng, d):
    m = PolyMatrix.identity(d)
    for _ in range(3):
        e = [[LaurentPoly({0: 1}) if i == j else LaurentPoly()
              for j in range(d)] for i in range(d)]
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            c = Fraction(rng.choice([1, -1, 2]))
            e[i][i] = LaurentPoly({rng.randint(-1, 1): c})
        else:
            e[i][j] = random_laurent(rng, 1)
        m = m * PolyMatrix.from_rows(e)
    return m


def test_criterion_1_determinant_formula():
    rng = seeded_rng(101)
    for _ in range(200):
        g = _random_graph_bounded(rng)
        # 1/zeta: the Euler product and det(I - uA), truncated at u^8
        lhs = euler_product_oracle(g, max_len=8)
        rhs = series_det(adjacency_matrix(g), 8)
        assert lhs == rhs
    print("criterion 1 (determinant formula): PASS")


def test_criterion_2_rewrite_invariance():
    rng = seeded_rng(102)
    counts = dict.fromkeys(
        ("change_basis", "null", "split_merge", "insert_eliminate",
         "hub_resolve", "reverse_all"), 0)
    while min(counts.values()) < 200:
        g = _random_graph_bounded(rng, max_vertices=4)
        z = zeta_reciprocal(g)
        dims = g.dims()

        if counts["change_basis"] < 200:
            v = rng.choice(g.vertices)[0]
            p = _random_unimodular(rng, dims[v])
            h = apply_step(g, TransformStep("change_basis", vertex=v, matrix=p))
            assert zeta_reciprocal(h) == z
            counts["change_basis"] += 1

        if counts["null"] < 200:
            a = rng.choice(g.vertices)[0]
            b = rng.choice(g.vertices)[0]
            h = apply_step(g, TransformStep("null_add", edge="nz", src=a, tgt=b))
            assert zeta_reciprocal(h) == z
            h2 = apply_step(h, TransformStep("null_remove", edge="nz"))
            assert h2 == g
            counts["null"] += 1

        if counts["split_merge"] < 200 and g.edges:
            e = rng.choice(g.edges)
            w1 = random_matrix(rng, e.weight.rows, e.weight.cols)
            s = TransformStep("split", edge=e.id, summands=(w1, e.weight - w1),
                              new_ids=(e.id + ".a", e.id + ".b"))
            h = apply_step(g, s)
            assert zeta_reciprocal(h) == z
            back = apply_step(h, TransformStep("merge", src=e.src, tgt=e.tgt))
            assert zeta_reciprocal(back) == z
            counts["split_merge"] += 1

        if counts["insert_eliminate"] < 200:
            d = rng.randint(1, 2)
            outs = tuple(
                ("sx%d" % i, "s_new", t, random_matrix(rng, d, dims[t]))
                for i, t in enumerate(
                    rng.sample([v for v, _ in g.vertices],
                               rng.randint(0, len(g.vertices))))
            )
            h = apply_step(g, TransformStep("insert", vertex="s_new", dim=d,
                                            edges=outs))
            assert zeta_reciprocal(h) == z
            back = apply_step(h, TransformStep("eliminate", vertex="s_new"))
            assert back == g
            counts["insert_eliminate"] += 1

        hub = [e for e in g.edges if e.src != e.tgt]
        if counts["hub_resolve"] < 200 and hub:
            e = rng.choice(hub)
            h = apply_step(g, TransformStep("hub_resolve", edge=e.id))
            assert zeta_reciprocal(h) == z
            counts["hub_resolve"] += 1

        if counts["reverse_all"] < 200:
            h = apply_step(g, TransformStep("reverse_all"))
            assert zeta_reciprocal(h) == z
            counts["reverse_all"] += 1
    print("criterion 2 (rewrite invariance): PASS")


def test_criterion_3_tietze_to_graph_equivalence():
    before = fixtures.slide_presentation_before()
    after = fixtures.slide_presentation_after()
    cur = before
    for m in fixtures.slide_tietze_script():
        cur = tietze_apply(cur, m)
    assert presentations_equal(cur, after)

    rep = abelianization(before)
    common = fixtures.slide_common_graph()
    r1 = verify_equivalence(fixtures.slide_graph_before(),
                            fixtures.slide_graph_script_before(), common, rep=rep)
    assert r1.ok, r1.message
    r2 = verify_equivalence(fixtures.slide_graph_after(),
                            fixtures.slide_graph_script_after(), common, rep=rep)
    assert r2.ok, r2.message
    zb = zeta_reciprocal(phi_image(fixtures.slide_graph_before(), rep))
    za = zeta_reciprocal(phi_image(fixtures.slide_graph_after(), rep))
    assert zb.unit_normalize() == za.unit_normalize()
    print("criterion 3 (Tietze script and graph reduction): PASS")


def test_criterion_4_twisted_alexander_desk_values():
    cases = (
        (fixtures.trefoil(), "1 - t + t^2"),
        (fixtures.figure_eight(), "1 - 3*t + t^2"),
    )
    for d, expect in cases:
        rep = Representation.trivial(range(len(d.arcs)))
        for route in ("graph", "direct"):
            res = twisted_alexander(d, rep, route)
            assert res.numerator == parse_laurent(expect), (route, expect)
    print("criterion 4 (twisted Alexander desk values): PASS")


def test_criterion_5_route_agreement_and_product_law():
    r3_before, r3_after = fixtures.r3_pair()
    diagrams = (fixtures.unknot(), fixtures.trefoil(), fixtures.figure_eight(),
                r3_before, r3_after)
    for d in diagrams:
        rep = Representation.trivial(range(len(d.arcs)))
        a = twisted_alexander(d, rep, "graph")
        b = twisted_alexander(d, rep, "direct")
        assert a.numerator == b.numerator
        assert a.denominator == b.denominator

    # direct sum of two trivial representations: zeta multiplies exactly
    d = fixtures.trefoil()
    r1 = Representation.trivial(range(3))
    rsum = rep_direct_sum(r1, r1)
    one = twisted_alexander(d, r1, "graph")
    two = twisted_alexander(d, rsum, "graph")
    assert two.raw_numerator == one.raw_numerator * one.raw_numerator
    assert twisted_alexander(d, rsum, "direct").numerator == two.numerator
    print("criterion 5 (route agreement and product law): PASS")


def test_criterion_6_reidemeister_invariance():
    for label, before, after in fixtures.reidemeister_fixture_pairs():
        rb = Representation.trivial(range(len(before.arcs)))
        ra = Representation.trivial(range(len(after.arcs)))
        resb = twisted_alexander(before, rb, "graph")
        resa = twisted_alexander(after, ra, "graph")
        assert resb.numerator == resa.numerator, label
        if label.startswith("R1_2"):
            assert resa.raw_numerator.divexact(resb.raw_numerator).is_unit()
    print("criterion 6 (Reidemeister invariance): PASS")


def test_criterion_7_pair_weight_equivalence():
    rng = seeded_rng(107)
    for q in (dihedral_quandle(3), trivial_quandle(4)):
        pairs = [
            constant_pair(q, LaurentPoly({0: 1}), LaurentPoly()),
            constant_pair(q, parse_laurent("t"), parse_laurent("1 - t")),
        ] + [random_alexander_pair(q, rng) for _ in range(20)]
        for f in pairs:
            g = f_twisted_weights(f, q)
            assert holonomy_check(q, g) == []
            back = recover_pair(q, g)
            assert back.f1 == f.f1 and back.f2 == f.f2
            assert f_twisted_weights(back, q) == g
        g = f_twisted_weights(pairs[1], q)
        names = ("g1_pos", "g2_pos", "g1_neg", "g2_neg")
        for _ in range(50):
            which = rng.choice(names)
            a, b = rng.randrange(q.n), rng.randrange(q.n)
            c = Fraction(rng.choice([1, 2, -1]))
            delta = LaurentPoly({rng.randint(0, 1): c})
            assert holonomy_check(q, perturbed(g, which, a, b, delta))
    print("criterion 7 (pair and weight equivalence): PASS")


def test_criterion_8_base_choice_independence():
    for p, i, bp in fixtures.rebase_fixtures():
        q = rebase(p, i, bp)
        rep = abelianization(p)
        assert all(ok for _, ok, _ in check_assumption(p, rep))
        assert all(ok for _, ok, _ in check_assumption(q, rep))
        zp = zeta_reciprocal(phi_image(build_group_weighted_graph(p), rep))
        zq = zeta_reciprocal(phi_image(build_group_weighted_graph(q), rep))
        assert zp.unit_normalize() == zq.unit_normalize()
    print("criterion 8 (base-choice independence): PASS")


def test_criterion_9_fox_fundamental_identity():
    rng = seeded_rng(109)
    n_gens = 4
    for _ in range(1000):
        w = random_word(rng, n_gens, 12)
        total = GroupRingElt()
        for j in range(n_gens):
            xj = GroupRingElt({Word.gen(j): 1})
            total = total + fox_derivative(w, j) * (xj - GroupRingElt({Word(): 1}))
        assert total == GroupRingElt({w: 1}) - GroupRingElt({Word(): 1})
    print("criterion 9 (Fox fundamental identity): PASS")
