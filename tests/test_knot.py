import re
from fractions import Fraction

import pytest

from holozeta.freegroup import GroupRingElt, Word, apply_phi, fox_derivative
from holozeta.laurent import LaurentPoly, PolyMatrix, parse_laurent
from holozeta.knot import (
    KnotDiagram,
    MoveMismatch,
    ReidemeisterMove,
    Representation,
    alexander_setup,
    fox_matrix,
    parse_gauss,
    parse_pd,
    parse_rep,
    reidemeister_apply,
    rep_conjugate,
    rep_direct_sum,
    twisted_alexander,
    wirtinger_presentation,
)
from holozeta.presentation import build_group_weighted_graph
from holozeta.wgraph import adjacency_matrix, phi_image
from holozeta import fixtures

from helpers import apply_phi_by_products, seeded_rng, torus_gauss


TREFOIL_GAUSS = "O1+ U2+ O3+ U1+ O2+ U3+"


def test_parse_pd_trefoil():
    d = fixtures.trefoil()
    assert len(d.arcs) == 3
    assert len(d.crossings) == 3
    assert all(c.sign == 1 for c in d.crossings)
    # every arc goes under exactly once and continues into the next arc
    for c in d.crossings:
        assert c.under_out == d.next_arc(c.under_in)


def test_parse_gauss_matches_pd_invariant():
    d1 = parse_gauss(TREFOIL_GAUSS)
    r1 = twisted_alexander(d1, Representation.trivial(range(3)))
    d2 = fixtures.trefoil()
    r2 = twisted_alexander(d2, Representation.trivial(range(3)))
    assert r1.numerator == r2.numerator


def test_parse_pd_rejects_bad_codes():
    with pytest.raises(ValueError):
        parse_pd("X[1,2,3,4]")
    with pytest.raises(ValueError):
        parse_pd("")
    with pytest.raises(ValueError):
        parse_pd("hello")
    with pytest.raises(ValueError):
        parse_gauss("O1+ U1-")


def test_codes_take_any_run_of_separators():
    pd = fixtures.TREFOIL_PD.split()
    gauss = TREFOIL_GAUSS.split()
    for sep in (",", ";", "\t", "", ", ", " ;\t,"):
        assert parse_pd(sep.join(pd)) == fixtures.trefoil(), sep
        assert parse_gauss(sep.join(gauss)) == parse_gauss(TREFOIL_GAUSS), sep


def test_unknot_diagram():
    d = fixtures.unknot()
    assert d.arcs == ("a1",)
    assert d.crossings == ()


def test_wirtinger_presentation_shape():
    d = fixtures.trefoil()
    p = wirtinger_presentation(d)
    assert len(p.generators) == 3
    assert len(p.relations) == 2  # one relation omitted
    assert set(p.base) == {0, 1}
    # each relation is a conjugation relation of length four
    for r in p.relations:
        assert len(r.letters) == 4


def test_trefoil_alexander_both_routes():
    d = fixtures.trefoil()
    rep = Representation.trivial(range(3))
    for route in ("graph", "direct"):
        res = twisted_alexander(d, rep, route)
        assert res.numerator == parse_laurent("1 - t + t^2")
        assert res.denominator == parse_laurent("1 - t")


def test_figure_eight_alexander_both_routes():
    d = fixtures.figure_eight()
    rep = Representation.trivial(range(4))
    for route in ("graph", "direct"):
        res = twisted_alexander(d, rep, route)
        assert res.numerator == parse_laurent("1 - 3*t + t^2")


def test_unknot_alexander():
    d = fixtures.unknot()
    rep = Representation.trivial(range(1))
    res = twisted_alexander(d, rep, "direct")
    assert res.numerator.is_one()
    assert res.denominator == parse_laurent("1 - t")


def _s3_rep_text(n: int) -> str:
    """The dihedral S3 rep of T(2,n), 3 | n: arc i goes to reflection i mod 3."""
    reflections = ("[[0,1],[1,0]]", "[[-1,0],[-1,1]]", "[[1,-1],[0,-1]]")
    return "".join("x%d: %s exp=1\n" % (i + 1, reflections[i % 3]) for i in range(n))


def test_apply_phi_multiplies_no_laurent_matrices(monkeypatch):
    # rho(w) is a product of constant matrices and alpha(w) an exponent
    # sum, so an S3 Fox derivative needs no Laurent product
    p = wirtinger_presentation(parse_gauss(torus_gauss(9)))
    s3 = parse_rep(_s3_rep_text(9), p.name_to_index())
    assert not s3.rho_is_identity
    derivs = [fox_derivative(r, g) for r in p.relations for g in sorted(r.generators())]
    expected = [apply_phi_by_products(e, s3) for e in derivs]

    def forbidden(*args):
        raise AssertionError("Laurent product in apply_phi")

    monkeypatch.setattr(PolyMatrix, "__mul__", forbidden)
    monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
    got = [apply_phi(e, s3) for e in derivs]
    monkeypatch.undo()
    assert got == expected


def test_knot_determinants_match_laurent_bareiss():
    # the T(2,15) Fox minor, trivial rep: 14 x 14
    p = wirtinger_presentation(parse_gauss(torus_gauss(15)))
    minor = fox_matrix(p, Representation.trivial(range(15)))
    assert minor.rows == 14
    assert minor.det() == minor.det_bareiss()
    # the graph-route det(I - A) of T(2,9) with the S3 rep: 18 x 18
    p = wirtinger_presentation(parse_gauss(torus_gauss(9)))
    rep = parse_rep(_s3_rep_text(9), p.name_to_index())
    a = adjacency_matrix(phi_image(build_group_weighted_graph(p), rep))
    i_minus_a = PolyMatrix.identity(a.rows) - a
    assert i_minus_a.rows == 18
    assert i_minus_a.det() == i_minus_a.det_bareiss()


def test_shared_setup_gives_the_same_answer():
    d = parse_gauss(torus_gauss(9))
    p = wirtinger_presentation(d)
    rep = parse_rep(_s3_rep_text(9), p.name_to_index())
    setup = alexander_setup(p, rep)
    for route in ("graph", "direct"):
        assert twisted_alexander(d, rep, route, setup=setup) == twisted_alexander(d, rep, route)


def test_library_calls_reject_a_non_representation():
    # rho(x1) = 2 with the others 1 breaks the first trefoil relation; the
    # check runs in alexander_setup, so no caller gets a polynomial
    d = fixtures.trefoil()
    p = wirtinger_presentation(d)
    rep = parse_rep("x1: [[2]] exp=1\nall: [[1]] exp=1\n", p.name_to_index())
    with pytest.raises(ValueError, match=re.escape("rep violates relation 0 (")):
        alexander_setup(p, rep)
    for route in ("graph", "direct"):
        with pytest.raises(ValueError, match="Phi\\(r\\) != I"):
            twisted_alexander(d, rep, route)


def test_identity_rho_checks_relations_by_exponent_sums(monkeypatch):
    # every rho(x_i) = I: Phi(r) = t^alpha(r) I, so alexander_setup checks
    # exponent sums and multiplies no matrices
    import holozeta.knot as knot

    def no_product(*args):
        raise AssertionError("apply_phi called for an identity rep")

    p = wirtinger_presentation(fixtures.trefoil())
    names = p.name_to_index()
    monkeypatch.setattr(knot, "apply_phi", no_product)
    assert Representation.trivial(range(3)).rho_is_identity
    alexander_setup(p, Representation.trivial(range(3)))
    two_dim = parse_rep("all: [[1,0],[0,1]] exp=1\n", names)
    assert two_dim.rho_is_identity
    alexander_setup(p, two_dim)
    # consecutive arcs with different exp= break the first relation
    uneven = parse_rep("x1: [[1]] exp=1\nall: [[1]] exp=2\n", names)
    with pytest.raises(ValueError, match=r"rep violates relation 0 \(.*\): Phi\(r\) != I"):
        alexander_setup(p, uneven)
    # any other rho keeps the matrix check, which still rejects x1: [[2]]
    monkeypatch.undo()
    scaled = parse_rep("x1: [[2]] exp=1\nall: [[1]] exp=1\n", names)
    assert not scaled.rho_is_identity
    with pytest.raises(ValueError, match=re.escape("rep violates relation 0 (")):
        alexander_setup(p, scaled)


def test_t2_101_by_both_routes():
    # T(2,101), trivial rep: Delta = sum_(k < 101) (-t)^k on both routes;
    # the unit-pivot phase of det() takes the 101-row I - A and the
    # 100-row Fox minor down to one row each
    d = parse_gauss(torus_gauss(101))
    rep = Representation.trivial(range(101))
    setup = alexander_setup(wirtinger_presentation(d), rep)
    delta = LaurentPoly({k: (-1) ** k for k in range(101)})
    for route in ("graph", "direct"):
        assert twisted_alexander(d, rep, route, setup=setup).numerator == delta


def test_rep_direct_sum_and_conjugate():
    r1 = Representation.trivial(range(3))
    r2 = Representation.trivial(range(3))
    rs = rep_direct_sum(r1, r2)
    assert rs.dim == 2
    rc = rep_conjugate(rs, [[1, 1], [0, 1]])
    d = fixtures.trefoil()
    a = twisted_alexander(d, rs, "direct")
    b = twisted_alexander(d, rc, "direct")
    assert a.numerator == b.numerator
    with pytest.raises(ValueError):
        rep_conjugate(rs, [[1]])
    # a rep that is not a scalar: P rho P^-1 differs from rho, the numerators do not
    d9 = parse_gauss(torus_gauss(9))
    p9 = wirtinger_presentation(d9)
    s3 = parse_rep(_s3_rep_text(9), p9.name_to_index())
    s3c = rep_conjugate(s3, [[1, 1], [0, 1]])
    t = parse_laurent("t")
    x1 = GroupRingElt.from_word(Word.gen(0))
    assert apply_phi(x1, s3c) == PolyMatrix.from_rows([[t, LaurentPoly.zero()], [t, -t]])
    for route in ("graph", "direct"):
        assert twisted_alexander(d9, s3c, route).numerator == twisted_alexander(d9, s3, route).numerator
    # the raw numerator multiplies over a direct sum, by both routes
    triv = Representation.trivial(range(9))
    s3_triv = rep_direct_sum(s3, triv)
    assert s3_triv.dim == 3
    for route in ("graph", "direct"):
        assert (twisted_alexander(d9, s3_triv, route).raw_numerator
                == twisted_alexander(d9, s3, route).raw_numerator
                * twisted_alexander(d9, triv, route).raw_numerator)


def test_parse_rep():
    p = wirtinger_presentation(fixtures.trefoil())
    rep = parse_rep("all: [[1]] exp=1", p.name_to_index())
    assert rep.dim == 1
    res = twisted_alexander(fixtures.trefoil(), rep)
    assert res.numerator == parse_laurent("1 - t + t^2")
    rep2 = parse_rep("x1: [[0,1],[1,0]]\nall: [[1,0],[0,1]]", p.name_to_index())
    assert rep2.dim == 2
    with pytest.raises(ValueError):
        parse_rep("x9: [[1]]", p.name_to_index())
    # four cells are not a 2 x 2 matrix unless they are written as one
    for literal, shape in (("[[1,0,0,1]]", "[4]"), ("[[1],[0],[0],[1]]", "[1, 1, 1, 1]"),
                           ("[[1,0],[0]]", "[2, 1]")):
        with pytest.raises(ValueError, match="not square: row lengths " + re.escape(shape)):
            parse_rep("all: %s" % literal, p.name_to_index())


def test_r1_roundtrip():
    d = fixtures.trefoil()
    for kind in ("R1_1", "R1_2"):
        for sign in (1, -1):
            e = reidemeister_apply(d, ReidemeisterMove(kind, arc="a1", sign=sign))
            assert len(e.crossings) == len(d.crossings) + 1
            back = reidemeister_apply(
                e, ReidemeisterMove(kind, forward=False, crossing=len(e.crossings) - 1)
            )
            assert back == d


def test_r1_on_bare_unknot():
    d = fixtures.unknot()
    e = reidemeister_apply(d, ReidemeisterMove("R1_1", arc="a1", sign=1))
    assert len(e.crossings) == 1
    back = reidemeister_apply(e, ReidemeisterMove("R1_1", forward=False, crossing=0))
    assert back == d


def test_r2_roundtrip():
    d = fixtures.trefoil()
    e = reidemeister_apply(d, ReidemeisterMove("R2", arc="a1", over_arc="a3", sign=1))
    assert len(e.crossings) == len(d.crossings) + 2
    back = reidemeister_apply(
        e,
        ReidemeisterMove(
            "R2", forward=False, crossings=(len(e.crossings) - 2, len(e.crossings) - 1)
        ),
    )
    assert back == d


def test_move_chains_undone_last_first_give_back_the_diagram():
    # each move appends its crossings, so a removal made last first finds
    # its own at the end of the list
    rng = seeded_rng(44)
    for d in (fixtures.unknot(), fixtures.trefoil(), parse_gauss(torus_gauss(5))):
        rep = Representation.trivial(range(len(d.arcs)))
        delta = twisted_alexander(d, rep, "direct").numerator
        for _ in range(6):
            e, undo = d, []
            for _ in range(rng.randint(1, 30)):
                kind = rng.choice(("R1_1", "R1_2", "R2") if len(e.arcs) > 1 else ("R1_1", "R1_2"))
                a, sign, n = rng.choice(e.arcs), rng.choice((1, -1)), len(e.crossings)
                if kind == "R2":
                    c = rng.choice([x for x in e.arcs if x != a])
                    e = reidemeister_apply(e, ReidemeisterMove("R2", arc=a, over_arc=c, sign=sign))
                    undo.append(ReidemeisterMove("R2", forward=False, crossings=(n, n + 1)))
                else:
                    e = reidemeister_apply(e, ReidemeisterMove(kind, arc=a, sign=sign))
                    undo.append(ReidemeisterMove(kind, forward=False, crossing=n))
            rep = Representation.trivial(range(len(e.arcs)))
            assert twisted_alexander(e, rep, "direct").numerator == delta
            for m in reversed(undo):
                e = reidemeister_apply(e, m)
            assert e == d


def test_r3_roundtrip():
    before, after = fixtures.r3_pair()
    assert before != after
    back = reidemeister_apply(
        after, ReidemeisterMove("R3", forward=False, crossings=(1, 2, 3))
    )
    assert back == before


def test_r3_rejects_wrong_site():
    before, _ = fixtures.r3_pair()
    with pytest.raises(MoveMismatch):
        reidemeister_apply(before, ReidemeisterMove("R3", crossings=(0, 1, 2)))


def test_crossing_indices_are_checked():
    d = fixtures.trefoil()
    e = reidemeister_apply(d, ReidemeisterMove("R2", arc="a1", over_arc="a3", sign=1))
    before, _ = fixtures.r3_pair()
    cases = (
        (e, ReidemeisterMove("R2", forward=False, crossings=(5, 6))),
        (e, ReidemeisterMove("R2", forward=False, crossings=(-2, -1))),
        (e, ReidemeisterMove("R2", forward=False, crossings=(3, 3))),
        (e, ReidemeisterMove("R1_1", forward=False, crossing=-1)),
        (before, ReidemeisterMove("R3", crossings=(-3, -2, -1))),
        (before, ReidemeisterMove("R3", crossings=(1, 2, 4))),
    )
    for diagram, move in cases:
        with pytest.raises(MoveMismatch, match="distinct crossing indices in range"):
            reidemeister_apply(diagram, move)


def test_every_reidemeister_rejection_is_named():
    d = fixtures.trefoil()
    e = reidemeister_apply(d, ReidemeisterMove("R2", arc="a1", over_arc="a3", sign=1))
    # a second clasp passes over e's middle arc b1, so e's clasp cannot be undone
    tangled = reidemeister_apply(e, ReidemeisterMove("R2", arc="a2", over_arc="b1", sign=1))
    before, after = fixtures.r3_pair()
    cases = (
        (d, ReidemeisterMove("R1_1", arc="zz"), "no arc 'zz'"),
        (d, ReidemeisterMove("R1_1", forward=False, crossing=0), "crossing is not an R1_1 kink"),
        (d, ReidemeisterMove("R1_2", forward=False, crossing=0), "crossing is not an R1_2 kink"),
        (d, ReidemeisterMove("R2", arc="a1", over_arc="zz"), "R2 needs two existing arcs"),
        (d, ReidemeisterMove("R2", arc="a1", over_arc="a1"), "R2 strands must be distinct arcs"),
        (d, ReidemeisterMove("R2", forward=False, crossings=(0, 1)),
         "crossings do not form an R2 pair"),
        (parse_gauss("O1+ O2- U1+ U2-"), ReidemeisterMove("R2", forward=False, crossings=(0, 1)),
         "over strand entangled with the R2 site"),
        (tangled, ReidemeisterMove("R2", forward=False, crossings=(3, 4)),
         "middle arc is not free"),
        (fixtures.figure_eight(), ReidemeisterMove("R3", crossings=(0, 1, 2)),
         "only the all-positive R3 pattern is implemented"),
        (d, ReidemeisterMove("R3", crossings=(0, 2, 1)), "under strand must pass c1 then c2"),
        (after, ReidemeisterMove("R3", crossings=(1, 2, 3)),
         "site does not match the R3 before-pattern"),
        (before, ReidemeisterMove("R3", forward=False, crossings=(1, 2, 3)),
         "site does not match the R3 after-pattern"),
    )
    for diagram, move, message in cases:
        with pytest.raises(MoveMismatch, match="^%s$" % message):
            reidemeister_apply(diagram, move)


def test_reidemeister_invariance_of_alexander():
    for label, before, after in fixtures.reidemeister_fixture_pairs():
        rep_b = Representation.trivial(range(len(before.arcs)))
        rep_a = Representation.trivial(range(len(after.arcs)))
        nb = twisted_alexander(before, rep_b).numerator
        na = twisted_alexander(after, rep_a).numerator
        assert nb == na, label


def test_diagram_validation():
    with pytest.raises(ValueError):
        KnotDiagram(("a1", "a2"), ())
    with pytest.raises(ValueError):
        KnotDiagram(("a1", "a1"), ())


def test_each_distinct_rho_is_inverted_once(monkeypatch):
    calls = []
    invert = PolyMatrix.inverse_unit_det

    def counted(m):
        calls.append(m)
        return invert(m)

    monkeypatch.setattr(PolyMatrix, "inverse_unit_det", counted)
    Representation.trivial(range(25))
    assert len(calls) == 1
    mixed = Representation(1, {i: (Fraction(1),) for i in range(3)}, {0: 1, 1: 2, 2: 0})
    s3 = parse_rep(_s3_rep_text(9), wirtinger_presentation(parse_gauss(torus_gauss(9))).name_to_index())
    for rep in (mixed, s3):
        one = PolyMatrix.identity(rep.dim)
        for i in rep.rho:
            phi = apply_phi(GroupRingElt.from_word(Word.gen(i)), rep)
            phi_inv = apply_phi(GroupRingElt.from_word(Word.gen(i, -1)), rep)
            assert phi * phi_inv == one and phi_inv * phi == one
