import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from holozeta import fixtures, wgraph
from holozeta.freegroup import GroupRingElt, Word, apply_phi
from holozeta.laurent import (
    LaurentCells,
    LaurentPoly,
    PackedCells,
    PolyMatrix,
    TruncatedSeries,
    cell_ring,
    parse_laurent,
    series_det,
    series_det_inverse,
)
from holozeta.wgraph import (
    CycleSearchTooLarge,
    Edge,
    InvalidStep,
    TransformStep,
    WeightedDigraph,
    adjacency_matrix,
    apply_step,
    cycle_classes,
    euler_check,
    euler_product_oracle,
    export_dot,
    format_graph,
    parse_graph,
    phi_image,
    verify_equivalence,
    zeta_reciprocal,
)

from helpers import (
    abelianization,
    assert_canonical,
    cycle_classes_by_walks,
    det_one_minus_x_by_laurent,
    euler_product_by_laurent,
    pack_width_limit,
    packing_cells,
    packing_graphs,
    prime_cycle_classes,
    random_laurent,
    random_matrix,
    random_matrix_graph,
    seeded_rng,
    WIDE_GRAPHS,
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
    assert {c.edges for c in primes if len(c.edges) == 1} == {("c",)}
    assert ("a", "b") in {c.edges for c in primes}
    assert ("a", "b", "a", "b") in {c.edges for c in classes if not c.prime}
    # mixed walks like c then a b are prime
    assert ("a", "b", "c") in {c.edges for c in primes}


def test_cycle_classes_of_a_deep_walk():
    # one class per length and only the single loop is prime; the walk is
    # 1100 edges deep, past Python's default recursion limit
    g = _scalar_graph([("a", "u", "u", "t")])
    classes = cycle_classes(g, 1100)
    assert [len(c.edges) for c in classes] == list(range(1, 1101))
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
            assert [(c.edges, c.prime) for c in classes] == cycle_classes_by_walks(g, max_len)


def test_euler_product_matches_determinant_fixed():
    g = _scalar_graph([("a", "u", "v", "t"), ("b", "v", "u", "1"),
                       ("c", "u", "u", "1 - t"), ("d", "v", "v", "2")])
    s = euler_product_oracle(g, max_len=8)
    assert s == series_det(adjacency_matrix(g), 8)
    # and as zeta itself, the series the check compared before
    assert s.inverse() == series_det_inverse(adjacency_matrix(g), 8)


def test_euler_product_matches_determinant_random():
    rng = seeded_rng(30)
    for _ in range(25):
        g = random_matrix_graph(rng)
        assert euler_product_oracle(g, max_len=6) == series_det(adjacency_matrix(g), 6)


def test_euler_product_matches_determinant_at_dimension_3():
    # weights up to 3 x 3, so Newton's identities run up to e_3
    rng = seeded_rng(31)
    for _ in range(12):
        g = random_matrix_graph(rng, max_vertices=3, max_dim=3)
        assert euler_product_oracle(g, max_len=6) == series_det(adjacency_matrix(g), 6)


@settings(max_examples=75, deadline=None)
@given(g=packing_graphs(), order=st.integers(1, 5))
def test_euler_product_matches_the_laurent_route(g, order):
    expect = euler_product_by_laurent(g, order)
    assert expect == series_det(adjacency_matrix(g), order)
    # packed cells, then the same loop on LaurentPoly cells
    for limit in (10 ** 9, 0):
        with pack_width_limit(limit):
            s = euler_product_oracle(g, max_len=order)
        assert s == expect
        for c in s.coeffs:
            assert_canonical(c.terms.values())


def test_euler_product_packs_narrow_weights(monkeypatch):
    # weights of span 1: every product and factor, and the multiply-in of the
    # factors, run on packed integers, and no series is inverted
    def refuse(*args):
        raise AssertionError("Laurent cells, Laurent products or a series inverse"
                             " on a narrow graph")

    rng = seeded_rng(34)
    graphs = [random_matrix_graph(rng, max_vertices=4, max_dim=2, extra_edges=3)
              for _ in range(10)]
    expect = [euler_product_by_laurent(g, 8) for g in graphs]
    monkeypatch.setattr(PolyMatrix, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(TruncatedSeries, "inverse", refuse)
    monkeypatch.setattr(LaurentCells, "pack", refuse)
    assert [euler_product_oracle(g, max_len=8) for g in graphs] == expect


def _two_loop_graph(span: int):
    """One vertex of dim 2 and two loops whose cells all have positive
    coefficients and 1-norm 3, t standing for t^span: no entry of a weight
    product cancels, and the classes are the 71 Lyndon words of length <= 8
    in two letters."""
    def weight(rows):
        return PolyMatrix.from_rows([[parse_laurent(x.replace("t", "t^%d" % span)) for x in row]
                                     for row in rows])

    return WeightedDigraph("matrix", (("u", 2),), (
        Edge("a", "u", "u", weight([["1 + 2*t", "3"], ["3*t", "2 + t"]])),
        Edge("b", "u", "u", weight([["3", "2 + t"], ["1 + 2*t", "3*t"]]))))


def _euler_ring(g, order: int):
    dims = g.dims()
    return cell_ring([p for e in g.edges for p in e.weight.entries], order,
                     [len(c.edges) for c in prime_cycle_classes(g, order)], max(dims.values()))


def test_euler_product_bound_covers_a_cancellation_free_product(monkeypatch):
    g = _two_loop_graph(1)
    classes = prime_cycle_classes(g, 8)
    assert len(classes) == 71
    # nu = 3 and d = 2; the ways w_8 to pick degrees summing to 8 from the
    # classes are the 2^8 words of length 8, each one product of Lyndon words
    # (Chen, Fox and Lyndon): bits = bitlen(256) + 8 bitlen(6) + 1 = 9 + 24 + 1
    ring = _euler_ring(g, 8)
    assert isinstance(ring, PackedCells) and ring.bits == 34
    # the product the bound is proved for, with every coefficient of every
    # term c_j of every factor replaced by its absolute value: its u^8
    # coefficient outgrows the digits of one det(I - uM), cycle_lengths (1,), and
    # stays inside those of the 71 factors
    weight = {e.id: e.weight for e in g.edges}
    majorant = [1] + [0] * 8
    for c in classes:
        w = weight[c.edges[0]]
        for eid in c.edges[1:]:
            w = w * weight[eid]
        n = len(c.edges)
        factor = [(n * j, sum([abs(x) for x in cj.terms.values()]))
                  for j, cj in enumerate(det_one_minus_x_by_laurent(w, min(2, 8 // n))) if j]
        for k in range(8, 0, -1):
            majorant[k] += sum([v * majorant[k - m] for m, v in factor if m <= k])
    one_factor = cell_ring([p for e in g.edges for p in e.weight.entries], 8, (1,), 2).bits
    assert 2 ** (one_factor - 1) <= majorant[8] < 2 ** (ring.bits - 1)
    expect = euler_product_by_laurent(g, 8)
    assert expect == series_det(adjacency_matrix(g), 8)
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda *args: pytest.fail("Laurent product"))
    assert euler_product_oracle(g, max_len=8) == expect


def test_euler_product_packs_up_to_the_width_limit(monkeypatch):
    # the 71 classes keep bits = 34 at every span, so the packed width
    # (8 span + 1) 34 is 6290 bits at span 23 and 6018 at span 22, on the
    # two sides of PACK_WIDTH_BITS = 6144
    wide = _two_loop_graph(23)
    assert isinstance(_euler_ring(wide, 8), LaurentCells)
    assert euler_product_oracle(wide, max_len=8) == euler_product_by_laurent(wide, 8)
    narrow = _two_loop_graph(22)
    ring = _euler_ring(narrow, 8)
    assert isinstance(ring, PackedCells) and ring.bits == 34
    expect = euler_product_by_laurent(narrow, 8)
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda *args: pytest.fail("Laurent product"))
    assert euler_product_oracle(narrow, max_len=8) == expect


@contextmanager
def _euler_sides():
    """Within the block, `euler_check` leaves in the yielded dict, under
    "euler" and "det", each side's (packed coefficients, ring)."""
    seen, saved = {}, {"euler": wgraph._euler_product, "det": wgraph._adjacency_det}

    def spy(side):
        def run(*args):
            coeffs = saved[side](*args)
            seen[side] = (coeffs, args[-1])
            return coeffs
        return run

    wgraph._euler_product, wgraph._adjacency_det = spy("euler"), spy("det")
    try:
        yield seen
    finally:
        wgraph._euler_product, wgraph._adjacency_det = saved["euler"], saved["det"]


def _core_by_reachability(g):
    """(the edges e with e.src reachable from e.tgt, in g.edges order, the
    vertices they touch, in g.vertices order): the cyclic core, by a search
    from each edge's target."""
    edges = []
    for e in g.edges:
        seen, todo = {e.tgt}, [e.tgt]
        while todo:
            v = todo.pop()
            for x in g.edges:
                if x.src == v and x.tgt not in seen:
                    seen.add(x.tgt)
                    todo.append(x.tgt)
        if e.src in seen:
            edges.append(e)
    touched = {v for e in edges for v in (e.src, e.tgt)}
    return edges, [(v, d) for v, d in g.vertices if v in touched]


def _check_both_sides(g, order: int):
    """euler_check(g, order) agrees and returns `zeta_reciprocal`'s det(I - A),
    and each side, read back, is the public route on the whole of g: the
    Euler side `euler_product_oracle(g, order)`, and the det side, which stops
    at min(dim core, order) (the core's det(I - uA) is g's), padded with
    zeros to `series_det` on g's A.  Returns the ring."""
    with _euler_sides() as seen:
        det_one_minus_a, agrees = euler_check(g, order)
    assert agrees is True
    assert det_one_minus_a == zeta_reciprocal(g)
    (euler, ring), (det, same) = seen["euler"], seen["det"]
    assert same is ring
    assert [ring.unpack(x, n) for n, x in enumerate(euler)] == list(
        euler_product_oracle(g, order).coeffs)
    core = sum([d for _, d in _core_by_reachability(g)[1]])
    assert len(det) == min(core, order) + 1
    unpacked = [ring.unpack(x, n) for n, x in enumerate(det)]
    assert TruncatedSeries(order, unpacked + [LaurentPoly()] * (order + 1 - len(det))) \
        == series_det(adjacency_matrix(g), order)
    return ring


@st.composite
def euler_graphs(draw):
    """Matrix-weighted graphs of 1-3 vertices of dims 0-2 and up to 2 edges
    between the vertices of positive dim, with `packing_cells` weights
    (rational cells, exponents -40..90), and in one draw of two a third edge
    parallel to the first."""
    dims = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    live = ["v%d" % i for i, d in enumerate(dims) if d]
    pairs = draw(st.lists(st.tuples(st.sampled_from(live), st.sampled_from(live)),
                          max_size=2)) if live else []
    if pairs and draw(st.booleans()):
        pairs.append(pairs[0])
    vertices = tuple([("v%d" % i, d) for i, d in enumerate(dims)])
    dim = dict(vertices)
    return WeightedDigraph("matrix", vertices, tuple([
        Edge("e%d" % k, a, b, PolyMatrix(dim[a], dim[b], draw(packing_cells(dim[a] * dim[b]))))
        for k, (a, b) in enumerate(pairs)]))


@settings(max_examples=60, deadline=None)
@given(g=euler_graphs(), data=st.data())
def test_euler_check_sides_match_the_public_routes(g, data):
    n = sum([d for _, d in g.vertices])
    order = data.draw(st.integers(0, n + 2))
    # packed cells, then the same check on LaurentPoly cells
    for limit, ring in ((10 ** 9, PackedCells), (0, LaurentCells)):
        with pack_width_limit(limit):
            assert isinstance(_check_both_sides(g, order), ring)


@pytest.mark.parametrize("name", sorted(WIDE_GRAPHS))
def test_euler_check_sides_on_wide_graphs(name):
    g = parse_graph(WIDE_GRAPHS[name][0])
    n = adjacency_matrix(g).rows
    # at order 0 the values are constants, which pack at any span
    for order in (0, 1, n, n + 2):
        assert isinstance(_check_both_sides(g, order), LaurentCells if order else PackedCells)


def test_euler_check_drops_a_cell_of_a_that_cancels(monkeypatch):
    # the loops [[t]] and [[-t]] sum to a zero cell of A, which the det side
    # does not store; the Euler side still meets both loops and their words
    g = _scalar_graph([("a", "u", "u", "t"), ("b", "u", "u", "-t"), ("c", "u", "v", "1"),
                       ("d", "v", "u", "t^-1")])
    seen = []

    def spy(m, top, ring, det=wgraph.det_one_minus_x_cells):
        if len(m) == 2:  # A: the cycle weights are 1 x 1
            seen.append(m)
        return det(m, top, ring)

    monkeypatch.setattr(wgraph, "det_one_minus_x_cells", spy)
    for order in range(5):
        seen.clear()
        for limit in (10 ** 9, 0):
            with pack_width_limit(limit):
                _check_both_sides(g, order)
        assert len(seen) == 2
        for a in seen:
            assert [sorted(row) for row in a] == [[1], [0]]
            assert all(c for row in a for c in row.values())


@st.composite
def core_graphs(draw):
    """Matrix-weighted graphs of 1-4 drawn vertices of dims 0-2 (so some of
    dim 0, and some with no edge) and up to 6 edges, loops and parallel
    edges among them, between vertices of positive dim, with cells of at most
    2 terms; in one draw of two, also two 2-cycles joined by a 2-edge path."""
    cells = st.builds(LaurentPoly, st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                                                   max_size=2))
    dims = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    vertices = [("v%d" % i, d) for i, d in enumerate(dims)]
    live = [v for v, d in vertices if d]
    pairs = draw(st.lists(st.tuples(st.sampled_from(live), st.sampled_from(live)),
                          max_size=6)) if live else []
    if draw(st.booleans()):
        vertices += [(v, 1) for v in ("a", "b", "p", "c", "d")]
        pairs += [("a", "b"), ("b", "a"), ("b", "p"), ("p", "c"), ("c", "d"), ("d", "c")]
    dim = dict(vertices)
    return WeightedDigraph("matrix", tuple(vertices), tuple([
        Edge("e%d" % k, a, b, PolyMatrix(dim[a], dim[b], draw(st.lists(
            cells, min_size=dim[a] * dim[b], max_size=dim[a] * dim[b]))))
        for k, (a, b) in enumerate(pairs)]))


@settings(max_examples=80, deadline=None)
@given(g=core_graphs())
def test_the_core_keeps_the_edges_on_a_cycle(g):
    # the core holds the edges whose source is reachable from their target,
    # and the vertices they touch, in g's order; it has g's zeta and g's
    # cycle classes
    core = wgraph._cyclic_core(g)
    edges, vertices = _core_by_reachability(g)
    assert (list(core.edges), list(core.vertices)) == (edges, vertices)
    assert zeta_reciprocal(core) == zeta_reciprocal(g)
    for max_len in range(5):
        assert cycle_classes(core, max_len) == cycle_classes(g, max_len)


def _prenecklace_walks(g, max_len: int) -> int:
    """The walks of 1..max_len edges whose edge positions form a prenecklace,
    a prefix of a necklace (a word least among its rotations) of at most
    twice its length: by brute force over the words that extend it."""
    edges = g.edges
    letters = range(len(edges))

    def prenecklace(w):
        return any(all(x <= x[i:] + x[:i] for i in range(len(x)))
                   for m in range(len(w) + 1) for v in product(letters, repeat=m)
                   for x in [w + v])

    count, walks = 0, [(i,) for i in letters]
    for _ in range(max_len):
        count += sum([prenecklace(w) for w in walks])
        walks = [w + (j,) for w in walks for j in letters if edges[j].src == edges[w[-1]].tgt]
    return count


def test_the_search_takes_one_step_per_prenecklace(monkeypatch):
    # the search meets each prenecklace walk once, each one search step: with
    # the budget at their number the check runs, one below it is rejected
    g = _scalar_graph([("e1", "u", "v", "t"), ("e2", "v", "u", "1"), ("e3", "u", "u", "2")])
    steps = _prenecklace_walks(g, 6)
    assert steps == 31
    monkeypatch.setattr(wgraph, "CYCLE_SEARCH_BUDGET", steps)
    assert euler_check(g, 6) == (zeta_reciprocal(g), True)
    monkeypatch.setattr(wgraph, "CYCLE_SEARCH_BUDGET", steps - 1)
    with pytest.raises(CycleSearchTooLarge):
        euler_check(g, 6)


def _det_heavy_graphs():
    """(graph, order) pairs whose det(I - uA) bound is above the Euler one:
    eight parallel edges u -> v and one back, and two dense 3 x 3 blocks
    at an order of dim A, both with rational cells and negative exponents."""
    fan = WeightedDigraph("matrix", (("u", 1), ("v", 1)), tuple(
        [Edge("p%d" % k, "u", "v", PolyMatrix(1, 1, [parse_laurent("%d/2*t^-1 + t" % (k + 1))]))
         for k in range(8)] + [Edge("q", "v", "u", PolyMatrix(1, 1, [parse_laurent("1 - 2*t")]))]))
    rng = seeded_rng(36)

    def block():
        return PolyMatrix(3, 3, [random_laurent(rng, 1, -1).scale(Fraction(rng.choice([1, 3]), 2))
                                 for _ in range(9)])

    blocks = WeightedDigraph("matrix", (("u", 3), ("v", 3)),
                             (Edge("a", "u", "v", block()), Edge("b", "v", "u", block())))
    return [(fan, 2), (fan, 3), (blocks, 6)]


def _fits(p: LaurentPoly, ring, power: int) -> bool:
    """Whether den^power t^(-lo*power) p is an integer polynomial whose
    coefficients lie in the balanced digits of ring.bits."""
    half = 1 << (ring.bits - 1)
    scaled = [(e - ring.lo * power, c * ring.den ** power) for e, c in p.terms.items()]
    return all(e >= 0 and c.denominator == 1 and -half <= c < half for e, c in scaled)


def test_euler_check_ring_covers_the_det_side_bound():
    for g, order in _det_heavy_graphs():
        dims = g.dims()
        cells = [p for e in g.edges for p in e.weight.entries]
        a = adjacency_matrix(g)
        top = min(a.rows, order)
        ring = _check_both_sides(g, order)
        assert isinstance(ring, PackedCells)
        # each side's own bound: the Euler side's ring, and the det side's
        # 2 + top bitlen(n k nu), k the most parallel edges, nu the largest
        # 1-norm of a cell scaled to the ring's den and lo
        euler = _euler_ring(g, order)
        parallel = max(Counter([(e.src, e.tgt) for e in g.edges]).values())
        nu = max([sum([int(abs(c) * ring.den) for c in p.terms.values()]) for p in cells])
        assert ring.bits == 2 + top * (a.rows * parallel * nu).bit_length() > euler.bits
        assert ring.bits >= cell_ring(a.entries, top, (1,), a.rows).bits
        assert (ring.den, ring.lo) == (euler.den, euler.lo)
        # every coefficient of both sides, on Laurent cells, fits its digits
        for n, c in enumerate(euler_product_by_laurent(g, order).coeffs):
            assert _fits(c, ring, n)
        for j, c in enumerate(det_one_minus_x_by_laurent(a, top)):
            assert _fits(c, ring, j)
        # A's cells are the sums of the packed weights added into them
        offsets = {"u": 0, "v": dims["u"]}
        for e in g.edges:
            w = e.weight
            for k, p in enumerate(w.entries):
                i, j = offsets[e.src] + k // w.cols, offsets[e.tgt] + k % w.cols
                rest = a[i, j] - p
                assert ring.pack(rest) + ring.pack(p) == ring.pack(a[i, j])


@settings(max_examples=50, deadline=None)
@given(cells=packing_cells(4))
def test_packing_is_additive(cells):
    with pack_width_limit(10 ** 9):
        ring = cell_ring(cells, 2, (1,), 2)
    for p in cells:
        for q in cells:
            assert ring.pack(p) + ring.pack(q) == ring.pack(p + q)


def test_series_det_inverse_recovers_the_determinant():
    # det(I - uA) has degree n = dim A <= L, so the inverse of the series is
    # that polynomial, and at u = 1 it is zeta_reciprocal's det(I - A)
    rng = seeded_rng(33)
    for _ in range(20):
        g = random_matrix_graph(rng)
        a = adjacency_matrix(g)
        poly = series_det_inverse(a, a.rows + rng.randint(0, 2)).inverse()
        assert all(c.is_zero() for c in poly.coeffs[a.rows + 1:])
        total = LaurentPoly()
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
        assert euler_product_oracle(g, max_len=order) == series_det(adjacency_matrix(g), order)


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
    one = GroupRingElt({Word(): 1})
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
                           (Edge("z", "a", "b", GroupRingElt()),))
    with pytest.raises(InvalidStep, match="would become a sink"):
        apply_step(pair, TransformStep("null_remove", edge="z"))



def test_group_level_round_trips():
    g = fixtures.slide_graph_before()
    gm = fixtures.slide_gen_map()
    # (G1): a null edge out of xi, which has other out-edges
    h = apply_step(g, TransformStep("null_add", edge="n0", src="xi", tgt="xk"))
    assert h.edge("n0").weight == GroupRingElt()
    assert apply_step(h, TransformStep("null_remove", edge="n0")) == g
    # (G3): a source whose one out-weight is d(x0)/dx0 = 1
    s = apply_step(g, TransformStep("insert", vertex="s", dim=1,
                                    edges=(("f", "s", "xi", GroupRingElt({Word(): 1})),),
                                    witness=Word.gen(0), gen_map=gm))
    assert s.has_vertex("s") and s.out_edges("s") == [Edge("f", "s", "xi", GroupRingElt({Word(): 1}))]
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
    "eliminate": (("vertex",), ("vertex", "witness", "gen_map")),
    "insert": (("vertex",), ("vertex", "witness", "gen_map")),
    "hub_resolve": (("edge",), ("edge",)),
    "hub_unresolve": (("edge", "src", "tgt", "weight"), ("edge", "src", "tgt", "weight")),
    "reverse_all": ((), None),
}


def test_a_missing_step_field_is_a_rejected_step():
    one = PolyMatrix.identity(1)
    value = dict(vertex="v", edge="a", src="u", tgt="v", matrix=one, summands=(one, one),
                 weight=one, witness=Word.gen(0), gen_map=fixtures.slide_gen_map())
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


def test_an_edge_id_without_a_text_form_is_refused():
    g = parse_graph("vertex u dim=1\nedge e u -> u weight=[[t]]\n")
    for eid in ("", "a b", "a\tb", "e#1"):
        with pytest.raises(ValueError, match="edge id"):
            WeightedDigraph("matrix", g.vertices, (Edge(eid, "u", "u", PolyMatrix.identity(1)),))
        # a step that would build such a graph fails as one that repeats an id does
        with pytest.raises(ValueError, match="edge id"):
            apply_step(g, TransformStep("null_add", edge=eid, src="u", tgt="u"))
    # a vertex id obeys the same rule: each of these once formatted to text
    # that `parse_graph` rejects
    for vid in ("", "a b", "a#b"):
        with pytest.raises(ValueError, match="^vertex id %s is empty" % re.escape(repr(vid))):
            WeightedDigraph("matrix", ((vid, 1),), ())
        with pytest.raises(ValueError, match="vertex id"):
            apply_step(g, TransformStep("insert", vertex=vid, dim=1))


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
    # edges compare as a multiset: their order does not count, a parallel copy does
    shuffled = WeightedDigraph("matrix", g.vertices, g.edges[::-1])
    assert verify_equivalence(g, (), shuffled).message == "verified"
    copy = Edge("a2", "u", "v", g.edge("a").weight)
    doubled = WeightedDigraph("matrix", g.vertices, g.edges + (copy,))
    assert verify_equivalence(g, (), doubled).message == "graphs differ structurally"
    # equal group-ring weights whose terms were stored in other orders
    x0, x1, x3 = (GroupRingElt({Word.gen(i): 1}) for i in (0, 1, 3))
    vs = (("u", 1), ("v", 1))
    left = WeightedDigraph("group", vs, (Edge("p", "u", "v", x0 + x3), Edge("q", "u", "v", x1)))
    right = WeightedDigraph("group", vs, (Edge("p", "u", "v", x3 + x0), Edge("q", "u", "v", x1)))
    assert verify_equivalence(left, (), right).message == "verified"


def test_zeta_layer_rejects_group_graphs():
    g = fixtures.slide_graph_before()
    for fn in (adjacency_matrix, zeta_reciprocal, lambda g: euler_product_oracle(g, 8)):
        with pytest.raises(ValueError, match="phi_image"):
            fn(g)


def test_phi_image_replaces_each_weight():
    g = fixtures.slide_graph_before()
    rep = abelianization(fixtures.slide_presentation_before())
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
