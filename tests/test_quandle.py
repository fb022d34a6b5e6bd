import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from holozeta.laurent import LaurentCells, LaurentPoly, PackedCells, parse_laurent
from holozeta.wgraph import zeta_reciprocal
from holozeta.quandle import (
    WEIGHT_TABLES,
    CrossingWeights,
    PairConditionError,
    QuandleError,
    QuandleColoring,
    alexander_pair_check,
    derived_star,
    dihedral_quandle,
    enumerate_colorings,
    f_twisted_weights,
    format_pair_file,
    format_quandle,
    format_weights_file,
    holonomy_check,
    holonomy_failures,
    parse_pair_file,
    parse_quandle,
    parse_weights_file,
    perturbations_rejected,
    quandle_check,
    quandle_weighted_graph,
    recover_pair,
    trivial_quandle,
)
from holozeta.quandle import _coloring_plan
from holozeta.knot import Crossing, KnotDiagram, ReidemeisterMove, parse_gauss, reidemeister_apply
from holozeta import fixtures, quandle

from helpers import (
    braid_gauss,
    colorings_by_sweep,
    constant_pair,
    pack_width_limit,
    perturbed,
    random_alexander_pair,
    random_unit,
    seeded_rng,
    torus_gauss,
)


R3 = dihedral_quandle(3)
T4 = trivial_quandle(4)
# Alexander quandles a * b = ta + (1 - t)b on Z/p.  Neither is involutory,
# so a crossing's sign decides which table applies: on Z/5 with t = 2,
# a *^-1 b = 3(a + b).  Z/7 with t = 3 colors the trefoil nontrivially.
Z5 = quandle_check([[(2 * a - b) % 5 for b in range(5)] for a in range(5)])
Z7 = quandle_check([[(3 * a - 2 * b) % 7 for b in range(7)] for a in range(7)])


def _pairs(q):
    return [
        constant_pair(q, LaurentPoly({0: 1}), LaurentPoly()),
        constant_pair(q, parse_laurent("t"), parse_laurent("1 - t")),
    ]


def test_quandle_axioms_hold_for_fixtures():
    for q in (R3, T4, dihedral_quandle(5), trivial_quandle(1)):
        quandle_check([list(row) for row in q.table])


def test_quandle_check_rejects_non_quandles():
    # not idempotent
    with pytest.raises(QuandleError):
        quandle_check([[1, 0], [0, 1]])
    # rows must be permutations of columns (right translations bijective)
    with pytest.raises(QuandleError):
        quandle_check([[0, 0], [1, 1], [2, 2]])
    # idempotent with bijective translations but not self-distributive
    with pytest.raises(QuandleError):
        quandle_check([[0, 0, 1], [2, 1, 0], [1, 2, 2]])


def test_star_inverse():
    for a in range(3):
        for b in range(3):
            assert R3.inv_star(R3.star(a, b), b) == a
            assert R3.star(R3.inv_star(a, b), b) == a


def test_alexander_pair_conditions_reject_bad_tables():
    n = R3.n
    one, zero = LaurentPoly({0: 1}), LaurentPoly()
    with pytest.raises(PairConditionError) as e:
        alexander_pair_check(
            R3, [[one] * n for _ in range(n)], [[one] * n for _ in range(n)]
        )
    assert e.value.condition == "1"
    t = parse_laurent("t")
    f1 = [[one] * n for _ in range(n)]
    f2 = [[zero] * n for _ in range(n)]
    f2[0][1] = t
    with pytest.raises(PairConditionError):
        alexander_pair_check(R3, f1, f2)


def test_alexander_pair_check_rejects_wrong_shape():
    one = LaurentPoly({0: 1})
    full = [[one] * 3 for _ in range(3)]
    for short in ([[one] * 3] * 2, [[one] * 3, [one] * 3, [one] * 2]):
        with pytest.raises(ValueError, match="f1 table must be 3x3"):
            alexander_pair_check(R3, short, full)


def test_derived_star_gives_a_quandle():
    rng = seeded_rng(40)
    f = constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t"))
    pts = [
        (rng.randrange(3), parse_laurent(rng.choice(["1", "t", "1 - t", "t^-1"])))
        for _ in range(6)
    ]
    for p in pts:
        assert derived_star(p, p, f, R3) == p  # idempotence
    for p in pts:
        for r in pts:
            for s in pts:
                lhs = derived_star(derived_star(p, r, f, R3), s, f, R3)
                rhs = derived_star(
                    derived_star(p, s, f, R3), derived_star(r, s, f, R3), f, R3
                )
                assert lhs == rhs  # right self-distributivity


def test_f_twisted_weights_preserve_holonomy():
    for q in (R3, T4):
        for f in _pairs(q):
            assert holonomy_check(q, f_twisted_weights(f, q)) == []


def test_identity_weights_preserve_holonomy():
    # all-ones g1 and all-zero g2 tables: the weights of the constant pair (1, 0)
    one, zero = LaurentPoly({0: 1}), LaurentPoly()
    for q in (trivial_quandle(1), R3, T4, dihedral_quandle(5)):
        ones, zeros = ((one,) * q.n,) * q.n, ((zero,) * q.n,) * q.n
        g = CrossingWeights(q.n, ones, zeros, ones, zeros)
        assert f_twisted_weights(constant_pair(q, one, zero), q) == g
        assert holonomy_check(q, g) == []


def test_recover_pair_roundtrip():
    rng = seeded_rng(41)
    for q in (R3, T4):
        cands = _pairs(q) + [random_alexander_pair(q, rng) for _ in range(5)]
        for f in cands:
            g = f_twisted_weights(f, q)
            back = recover_pair(q, g)
            assert back.f1 == f.f1 and back.f2 == f.f2
            assert f_twisted_weights(back, q) == g


def test_perturbed_weights_fail_holonomy():
    rng = seeded_rng(42)
    f = constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t"))
    g = f_twisted_weights(f, R3)
    names = ("g1_pos", "g2_pos", "g1_neg", "g2_neg")
    for _ in range(20):
        which = rng.choice(names)
        a, b = rng.randrange(3), rng.randrange(3)
        bad = perturbed(g, which, a, b, LaurentPoly({0: 1}))
        assert holonomy_check(R3, bad)


def _weights_from_positive(q, g1p, g2p):
    """Complete positive tables to weights that pass (A), (B-1) and (B-2):
    g1-(a*b,b) = g1+(a,b)^-1 and g2-(a*b,b) = -g1+(a,b)^-1 g2+(a,b).  They
    pass (A) when g2+(a,a) = 1 - g1+(a,a); (C) is left to the tables."""
    n = q.n
    g1n = [[None] * n for _ in range(n)]
    g2n = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            inv = g1p[a][b].unit_inverse()
            g1n[q.star(a, b)][b] = inv
            g2n[q.star(a, b)][b] = -(inv * g2p[a][b])
    return CrossingWeights(n, *(tuple(map(tuple, t)) for t in (g1p, g2p, g1n, g2n)))


def _c_only_weights(q, rng):
    """Random unit g1+ and g2+ with g2+(a,a) = 1 - g1+(a,a): weights that
    fail only (C)."""
    n = q.n
    g1p = [[random_unit(rng) for _ in range(n)] for _ in range(n)]
    g2p = [[LaurentPoly({0: 1}) - g1p[a][a] if a == b else random_unit(rng) for b in range(n)]
           for a in range(n)]
    return _weights_from_positive(q, g1p, g2p)


@st.composite
def weights_cases(draw):
    """(quandle, weights, kind) over D3, D5 and T3.  kind "pass": the weights
    of a random Alexander pair, perhaps with 0 added to one entry;
    "perturbed": those weights with 1, -1 or t added to one entry of one
    table; "C": weights that fail only (C)."""
    q = draw(st.sampled_from((R3, dihedral_quandle(5), trivial_quandle(3))))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("pass", "perturbed", "C")))
    if kind == "C":
        return q, _c_only_weights(q, rng), kind
    g = f_twisted_weights(random_alexander_pair(q, rng), q)
    if kind == "perturbed":
        delta = draw(st.sampled_from(("1", "-1", "t", "0")))
        which = draw(st.sampled_from(WEIGHT_TABLES))
        a, b = draw(st.integers(0, q.n - 1)), draw(st.integers(0, q.n - 1))
        g = perturbed(g, which, a, b, parse_laurent(delta))
        kind = "pass" if delta == "0" else kind
    return q, g, kind


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(weights_cases())
def test_holonomy_failures_stream_the_exhaustive_check(case):
    """The lazy stream that `holonomy-check --perturb` stops at its first item
    says what the exhaustive check says, failure for failure and in order."""
    q, g, kind = case
    failures = holonomy_check(q, g)
    assert (next(holonomy_failures(q, g), None) is None) == (failures == [])
    assert list(holonomy_failures(q, g)) == failures
    conditions = [cond for cond, _, _ in failures]
    if kind == "pass":
        assert failures == []
    elif kind == "perturbed":
        # (B-1) and (B-2) read every entry of all four tables, so a changed
        # entry of passing weights fails before the n^3 loop of (C)
        assert conditions and conditions[0] != "C"
    else:
        assert conditions and set(conditions) == {"C"}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(weights_cases())
def test_the_ring_route_equals_the_rational_route(case):
    """The holonomy check says the same, failure for failure with the same
    `detail` text, whichever ring `cell_ring` picks: packed integers or the
    rational cells.  In each, `perturbations_rejected` counts exactly the
    perturbed tables that a fresh check rejects, with every swapped cell put
    back."""
    q, g, _ = case
    # the diagonal, which (A) reads, and one entry off it in each row
    edits = [(which, a, b) for which in WEIGHT_TABLES
             for a in range(q.n) for b in sorted({a, (a + 1) % q.n})]
    one = LaurentPoly({0: 1})
    bumped = [getattr(g, which)[a][b] + one for which, a, b in edits]
    with pack_width_limit(0):
        expect = list(holonomy_failures(q, g))
    verdicts = [next(holonomy_failures(q, perturbed(g, *edit, one)), None) is not None
                for edit in edits]
    assert [perturbations_rejected(q, g, [edit]) for edit in edits] == verdicts
    for limit, kind in ((10 ** 9, PackedCells), (0, LaurentCells)):
        with pack_width_limit(limit):
            assert isinstance(quandle._holonomy_ring(g, bumped)[0], kind)
            assert list(holonomy_failures(q, g)) == expect
            assert perturbations_rejected(q, g, edits) == sum(verdicts)


def test_cell_ring_scales_every_denominator_away():
    """den is the lcm of the denominators in all four tables, and every
    packed cell is an integer; cells whose packed values would be wider than
    PACK_WIDTH_BITS stay rational."""
    g = f_twisted_weights(constant_pair(R3, parse_laurent("2/3*t"), parse_laurent("1 - 2/3*t")), R3)
    ring, _, tables, _ = quandle._holonomy_ring(g, ())
    assert isinstance(ring, PackedCells) and ring.den == 6  # g1+ = 3/2*t^-1 and g1- = 2/3*t
    assert ring.unpack(tables[0][0][0], 1) == g.g1_pos[0][0]
    assert all(type(x) is int for t in tables for row in t for x in row)
    integer = f_twisted_weights(constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t")), R3)
    assert quandle._holonomy_ring(integer, ())[0].den == 1
    # the cells span t^-1..t, so a value at power 2 is 5 digits wide
    wide = perturbed(g, "g2_neg", 1, 2, LaurentPoly({0: Fraction(1, 2 ** 600)}))
    ring = quandle._holonomy_ring(wide, ())[0]
    assert isinstance(ring, PackedCells) and ring.den == 3 * 2 ** 600
    with pack_width_limit(5 * ring.bits):
        assert isinstance(quandle._holonomy_ring(wide, ())[0], PackedCells)
    with pack_width_limit(5 * ring.bits - 1):
        ring, _, tables, _ = quandle._holonomy_ring(wide, ())
    assert isinstance(ring, LaurentCells)
    assert tables[0][0][0] == g.g1_pos[0][0]


def test_weights_without_a_constant_term_are_checked():
    """Cells that all lie at t^1 or above: 1 is among the ring's cells, so
    the constant 1 of (A) and (B-1) still packs."""
    t = parse_laurent("t")
    g = CrossingWeights(1, ((t,),), ((t,),), ((t,),), ((t,),))
    assert holonomy_check(trivial_quandle(1), g) == [
        ("A", (0,), "2*t != 1"),
        ("B-1", (0, 0), "t + t^2 != 0"), ("B-1", (0, 0), "t^2 != 1"),
        ("B-1", (0, 0), "t + t^2 != 0"), ("B-1", (0, 0), "t^2 != 1"),
        ("B-2", (0, 0), "t + t^2 != 0"), ("B-2", (0, 0), "t^2 != 1"),
        ("C", (0, 0, 0), "2*t^2 != t"),
    ]
    assert perturbations_rejected(trivial_quandle(1), g, [("g1_pos", 0, 0)]) == 1


def test_each_identity_of_c_is_checked():
    """Three weight systems, each failing just one of the three identities
    of (C); dropping any identity lets one of them pass."""
    one, zero = LaurentPoly({0: 1}), LaurentPoly()

    def tables(n, g1p_entries, g2p_entries):
        g1p = [[g1p_entries.get((a, b), one) for b in range(n)] for a in range(n)]
        g2p = [[g2p_entries.get((a, b), zero) for b in range(n)] for a in range(n)]
        return g1p, g2p

    T3 = trivial_quandle(3)
    cases = [
        # g1+(a,b) g1+(a*b,c) = g1+(a,c) g1+(a*c,b*c) fails at six triples
        (R3, tables(3, {(0, 1): parse_laurent("2")}, {}),
         [(0, 1, 0), (0, 1, 2), (0, 2, 0), (0, 2, 1), (1, 0, 2), (1, 2, 1)]),
        # g2+(a,b) g1+(b,c) = g1+(a,c) g2+(a*c,b*c) fails at (0,1,2)
        (T3, tables(3, {(1, 2): parse_laurent("2")}, {(0, 1): one}), [(0, 1, 2)]),
        # g1+(a,b) g2+(a*b,c) + g2+(a,b) g2+(b,c) = g2+(a,c) fails at (0,1,0)
        (T3, tables(3, {(0, 0): parse_laurent("t"), (0, 1): parse_laurent("2")},
                    {(0, 0): parse_laurent("1 - t")}), [(0, 1, 0)]),
    ]
    for q, (g1p, g2p), witnesses in cases:
        failures = holonomy_check(q, _weights_from_positive(q, g1p, g2p))
        assert [(cond, witness) for cond, witness, _ in failures] == [("C", w) for w in witnesses]


def test_trefoil_coloring_count():
    assert len(enumerate_colorings(R3, fixtures.trefoil())) == 9
    assert len(enumerate_colorings(T4, fixtures.trefoil())) == 4
    assert len(enumerate_colorings(R3, fixtures.unknot())) == 3


SIGNS = st.sampled_from((1, -1))


@st.composite
def small_diagrams(draw, max_arcs=7):
    """The unknot, T(2,n) or its mirror, or a 3-braid closure, then up to
    three R1/R2 moves of either sign, keeping at most max_arcs arcs."""
    start = draw(st.sampled_from(("unknot", "torus", "braid")))
    if start == "unknot":
        d = KnotDiagram(("a1",), ())
    elif start == "torus":
        d = parse_gauss(torus_gauss(draw(st.sampled_from((1, 3, 5, 7))), draw(st.sampled_from("+-"))))
    else:
        code = braid_gauss(draw(st.lists(st.tuples(st.integers(1, 2), SIGNS), min_size=2, max_size=6)))
        assume(code is not None)
        d = parse_gauss(code)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("R1_1", "R1_2", "R2")))
        a = draw(st.sampled_from(d.arcs))
        if kind != "R2" and len(d.arcs) < max_arcs:
            d = reidemeister_apply(d, ReidemeisterMove(kind, arc=a, sign=draw(SIGNS)))
        elif kind == "R2" and 2 <= len(d.arcs) <= max_arcs - 2:
            c = draw(st.sampled_from([x for x in d.arcs if x != a]))
            d = reidemeister_apply(d, ReidemeisterMove("R2", arc=a, over_arc=c, sign=draw(SIGNS)))
    return d


@st.composite
def quandle_and_diagram(draw):
    """A quandle and a diagram small enough for the sweep: at most 7 arcs
    and at most 50000 assignments."""
    q = draw(st.sampled_from([dihedral_quandle(n) for n in (3, 4, 5, 6)] + [trivial_quandle(3), Z5, Z7]))
    return q, draw(small_diagrams(max(k for k in range(1, 8) if q.n ** k <= 50000)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(quandle_and_diagram())
def test_colorings_match_the_sweep(case):
    q, d = case
    assert [c.colors for c in enumerate_colorings(q, d)] == colorings_by_sweep(q, d)


def test_torus_knots_branch_on_two_arcs():
    """The next branch arc is the over arc of a crossing whose under arc
    is known, and then every other arc of T(2,n) is forced."""
    for n in (3, 21, 51):
        assert len(_coloring_plan(Z7, parse_gauss(torus_gauss(n)))) == 2


def test_long_kink_chain_colors():
    """1600 R1 kinks of both kinds and signs in a row: only the constant
    colorings, found without recursing once per arc."""
    m = 1600
    arcs = tuple("a%d" % k for k in range(m))
    d = KnotDiagram(arcs, tuple(
        Crossing(1 if k % 3 else -1, arcs[k], arcs[(k + 1) % m], arcs[(k + 1) % m] if k % 2 else arcs[k])
        for k in range(m)))
    for q in (R3, Z5):
        want = [tuple((a, x) for a in arcs) for x in range(q.n)]
        assert [c.colors for c in enumerate_colorings(q, d)] == want


def test_quandle_graph_validates_the_coloring():
    d = fixtures.trefoil()
    g = f_twisted_weights(constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t")), R3)
    quandle_weighted_graph(d, QuandleColoring((("a1", 0), ("a2", 1), ("a3", 2))), g, R3)
    with pytest.raises(ValueError, match="crossing constraint"):
        quandle_weighted_graph(d, QuandleColoring((("a1", 0), ("a2", 1), ("a3", 1))), g, R3)
    with pytest.raises(ValueError, match="diagram arcs"):
        quandle_weighted_graph(d, QuandleColoring((("a1", 0),)), g, R3)
    # the least coloring in the lexicographic order, which the tests below
    # take, is the all-zero one
    for k in (fixtures.trefoil(), fixtures.figure_eight(), fixtures.unknot()):
        assert enumerate_colorings(R3, k)[0].colors == tuple((a, 0) for a in k.arcs)


def test_coloring_count_reidemeister_invariant():
    for label, before, after in fixtures.reidemeister_fixture_pairs():
        nb = len(enumerate_colorings(R3, before))
        na = len(enumerate_colorings(R3, after))
        assert nb == na, label


def test_quandle_graph_reproduces_alexander_numerator():
    d = fixtures.trefoil()
    f = constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t"))
    g = f_twisted_weights(f, R3)
    c = enumerate_colorings(R3, d)[0]
    graph = quandle_weighted_graph(d, c, g, R3)
    z = zeta_reciprocal(graph)
    assert z.unit_normalize() == parse_laurent("1 - t + t^2").unit_normalize()


def test_quandle_graph_unknot():
    d = fixtures.unknot()
    f = constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t"))
    g = f_twisted_weights(f, R3)
    c = enumerate_colorings(R3, d)[0]
    graph = quandle_weighted_graph(d, c, g, R3)
    assert len(graph.vertices) == 1 and not graph.edges
    assert zeta_reciprocal(graph) == LaurentPoly({0: 1})


def test_quandle_graph_r1_kink_unit_factor():
    from holozeta.knot import ReidemeisterMove, reidemeister_apply

    d = fixtures.trefoil()
    e = reidemeister_apply(d, ReidemeisterMove("R1_2", arc="a1", sign=-1))
    f = constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t"))
    g = f_twisted_weights(f, R3)
    cd = enumerate_colorings(R3, d)[0]
    ce = enumerate_colorings(R3, e)[0]
    zd = zeta_reciprocal(quandle_weighted_graph(d, cd, g, R3))
    ze = zeta_reciprocal(quandle_weighted_graph(e, ce, g, R3))
    assert zd.unit_normalize() == ze.unit_normalize()
    assert ze.divexact(zd).is_unit()


def test_quandle_graph_zeta_reidemeister_up_to_units():
    f = constant_pair(R3, parse_laurent("t"), parse_laurent("1 - t"))
    g = f_twisted_weights(f, R3)
    for label, before, after in fixtures.reidemeister_fixture_pairs():
        cb = enumerate_colorings(R3, before)[0]
        ca = enumerate_colorings(R3, after)[0]
        zb = zeta_reciprocal(quandle_weighted_graph(before, cb, g, R3))
        za = zeta_reciprocal(quandle_weighted_graph(after, ca, g, R3))
        assert zb.unit_normalize() == za.unit_normalize(), label


def test_text_roundtrips():
    rng = seeded_rng(43)
    assert parse_quandle(format_quandle(R3)).table == R3.table
    f = random_alexander_pair(R3, rng)
    back = parse_pair_file(format_pair_file(f), R3)
    assert back.f1 == f.f1 and back.f2 == f.f2
    g = f_twisted_weights(f, R3)
    assert parse_weights_file(format_weights_file(g)) == g
