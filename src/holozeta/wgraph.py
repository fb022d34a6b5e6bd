"""Weighted directed multigraphs and their zeta functions.

Weights are either PolyMatrix blocks (matrix-weighted) or free group
ring elements (group-weighted, all vertex dimensions 1), which
phi_image maps through Phi to matrix weights.  The zeta reciprocal of a
matrix-weighted graph is det(I - A); the Euler product over prime cycle
classes is kept as an independent oracle.  apply_step applies the
elementary rewrite rules that leave the zeta function fixed, looked up
in one table of step kinds with their fields and their rule per weight ring.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .laurent import (
    COUNT_LIMIT,
    LaurentPoly,
    PolyMatrix,
    TruncatedSeries,
    cell_ring,
    cell_rows,
    content_lines,
    det_one_minus_x_cells,
    parse_laurent,
    rational_matmul,
    split_matrix_literal,
)
from .freegroup import GroupRingElt, Word, fox_derivative, apply_phi

# tuples are built from lists: one grown from a generator is resized and kept on
# CPython's free list until a full collection, which peak memory then follows


class InvalidStep(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    tgt: str
    weight: object  # PolyMatrix or GroupRingElt


def _check_id(what: str, name: str):
    # one token of the text format: not empty, no whitespace, no comment
    if "#" in name or name.split() != [name]:
        raise ValueError("%s id %r is empty or has whitespace or '#'" % (what, name))


@dataclass(frozen=True)
class WeightedDigraph:
    kind: str  # "matrix" | "group"
    vertices: tuple  # of (id, dim)
    edges: tuple  # of Edge

    def __post_init__(self):
        if self.kind not in ("matrix", "group"):
            raise ValueError("kind must be matrix or group")
        dims = dict(self.vertices)
        if len(dims) != len(self.vertices):
            seen = set()
            for vid, _ in self.vertices:
                if vid in seen:
                    raise ValueError("duplicate vertex id %r" % vid)
                seen.add(vid)
        for vid, d in self.vertices:
            _check_id("vertex", vid)
            if d < 0:
                raise ValueError("vertex %r has negative dimension %d" % (vid, d))
        ids = set()
        for e in self.edges:
            _check_id("edge", e.id)
            if e.id in ids:
                raise ValueError("duplicate edge id %r" % e.id)
            ids.add(e.id)
            if e.src not in dims or e.tgt not in dims:
                raise ValueError("edge %r touches a missing vertex" % e.id)
            if self.kind == "matrix":
                w = e.weight
                if not isinstance(w, PolyMatrix):
                    raise ValueError("matrix graph needs PolyMatrix weights")
                # an empty weight has no matrix literal: no text form
                if not (dims[e.src] and dims[e.tgt]):
                    raise ValueError("edge %r touches the dimension-0 vertex %r"
                                     % (e.id, e.tgt if dims[e.src] else e.src))
                if (w.rows, w.cols) != (dims[e.src], dims[e.tgt]):
                    raise ValueError(
                        "edge %r weight shape %dx%d != %dx%d"
                        % (e.id, w.rows, w.cols, dims[e.src], dims[e.tgt])
                    )
            else:
                if not isinstance(e.weight, GroupRingElt):
                    raise ValueError("group graph needs GroupRingElt weights")
        if self.kind == "group" and any(d != 1 for _, d in self.vertices):
            raise ValueError("group-weighted graphs have all dimensions 1")

    def dims(self) -> dict:
        return dict(self.vertices)

    def edge(self, eid: str) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise InvalidStep("no edge %r" % eid)

    def out_edges(self, v: str):
        return [e for e in self.edges if e.src == v]

    def in_edges(self, v: str):
        return [e for e in self.edges if e.tgt == v]

    def has_vertex(self, v: str) -> bool:
        return any(vid == v for vid, _ in self.vertices)


@dataclass(frozen=True)
class CycleClass:
    edges: tuple  # edge ids, the least rotation in g.edges order
    prime: bool


@dataclass(frozen=True)
class TransformStep:
    kind: str
    vertex: Optional[str] = None
    edge: Optional[str] = None
    src: Optional[str] = None
    tgt: Optional[str] = None
    matrix: Optional[PolyMatrix] = None  # change_basis
    summands: Optional[tuple] = None  # split
    new_ids: Optional[tuple] = None
    dim: Optional[int] = None  # insert
    edges: Optional[tuple] = None  # insert: ((id, src, tgt, weight), ...)
    pairs: Optional[tuple] = None  # hub_unresolve: ((removed id, hub-out id), ...)
    weight: Optional[object] = None  # hub_unresolve hub weight
    witness: Optional[Word] = None  # group source elimination / insertion
    gen_map: Optional[dict] = None  # vertex id -> generator index for the witness

    def __post_init__(self):
        if self.kind not in _STEPS:
            raise ValueError("unknown transform kind %r" % self.kind)


# -- weight arithmetic shared between the two weight rings -------------

def _zero_weight(g: WeightedDigraph, src: str, tgt: str):
    if g.kind == "matrix":
        dims = g.dims()
        return PolyMatrix.zeros(dims[src], dims[tgt])
    return GroupRingElt()


# -- Phi image, adjacency matrix and zeta --------------------------------

def phi_image(g: WeightedDigraph, rep) -> WeightedDigraph:
    """The matrix-weighted graph Phi(G): the same vertices at dimension
    rep.dim, each group-ring weight w replaced by Phi(w)."""
    if g.kind != "group":
        raise ValueError("phi_image maps group-weighted graphs")
    edges = tuple([Edge(e.id, e.src, e.tgt, apply_phi(e.weight, rep)) for e in g.edges])
    return WeightedDigraph("matrix", tuple([(v, rep.dim) for v, _ in g.vertices]), edges)


def _matrix_only(g: WeightedDigraph):
    if g.kind != "matrix":
        raise ValueError("zeta needs matrix weights: map a group graph through phi_image")


def _block_offsets(g: WeightedDigraph):
    """({vertex: its first row and column in A}, the total dimension)."""
    offsets = {}
    total = 0
    for vid, dim in g.vertices:
        offsets[vid] = total
        total += dim
    return offsets, total


def _adjacency_cells(g: WeightedDigraph, cells):
    """(n, each stored weight cell as (row, column, cell) of the n x n matrix
    A): cells[k] holds the flat row-major cells of g.edges[k]'s weight in
    some ring (`LaurentPoly` cells, or the packed ones of a `cell_ring`),
    and A's cell (i,j) is the sum of the cells that fall in it."""
    offsets, n = _block_offsets(g)
    out = []
    for e, x in zip(g.edges, cells):
        i, j, cols = offsets[e.src], offsets[e.tgt], e.weight.cols
        out += [(i + k // cols, j + k % cols, c) for k, c in enumerate(x) if c]
    return n, out


def adjacency_matrix(g: WeightedDigraph) -> PolyMatrix:
    """Block matrix whose (i,j) block sums the weights of edges v_i -> v_j."""
    _matrix_only(g)
    n, cells = _adjacency_cells(g, [e.weight.entries for e in g.edges])
    a = [LaurentPoly()] * (n * n)
    for i, j, c in cells:
        a[i * n + j] += c
    return PolyMatrix(n, n, a)


def zeta_reciprocal(g: WeightedDigraph) -> LaurentPoly:
    """det(I - A(G,w)): the reciprocal of the weighted zeta function.  I - A
    is assembled straight from the edges, as term maps: the diagonal starts
    at 1, each stored weight cell is subtracted into its block, and each
    touched cell becomes a `LaurentPoly` once."""
    _matrix_only(g)
    offsets, n = _block_offsets(g)
    cells = {k: {0: 1} for k in range(0, n * n, n + 1)}
    for e in g.edges:
        w = e.weight
        at = offsets[e.src] * n + offsets[e.tgt]
        for k, x in enumerate(w.entries):
            if x.terms:
                cell = cells.setdefault(at + k // w.cols * n + k % w.cols, {})
                for ex, c in x.terms.items():
                    cell[ex] = cell.get(ex, 0) - c
    entries = [LaurentPoly()] * (n * n)
    for k, cell in cells.items():
        entries[k] = LaurentPoly._ring_result(cell)
    return PolyMatrix(n, n, entries).det()


# -- prime cycles and the Euler product oracle --------------------------

# DFS steps the prenecklace search (`_prenecklace_tree`) may take before it
# gives up: enough for the order-16 walks of a 4-vertex, 9-edge graph (about
# 330 000 steps), while order 18 on that graph (1.5 million) is rejected in a
# few seconds; also the longest walk it may be asked for.  `euler_check`
# searches the cyclic core only (`_cyclic_core`), so walks that can never
# close spend none of it
CYCLE_SEARCH_BUDGET = 500_000


class CycleSearchTooLarge(ValueError):
    """The walks up to the asked length outgrow CYCLE_SEARCH_BUDGET."""


def _search_too_large(max_len: int) -> CycleSearchTooLarge:
    return CycleSearchTooLarge(
        "cycle classes up to length %d need more than %d search steps;"
        " use a smaller order (--order)" % (max_len, CYCLE_SEARCH_BUDGET)
    )


def _prenecklace_tree(g: WeightedDigraph, max_len: int):
    """The search tree of `cycle_classes`, as (parent, last, necklaces).
    Node k is the walk that extends node parent[k] (-1 for none) by the edge
    g.edges[last[k]], numbered in the order the search meets them, so a
    parent comes before its children; necklaces lists (node, length, prime)
    for each walk that is a necklace, in that order.  The search keeps one
    path, cut back to each popped node's depth, so its memory is linear in
    the nodes and max_len."""
    if max_len > CYCLE_SEARCH_BUDGET:
        raise _search_too_large(max_len)
    parent, last, necklaces = [], [], []
    if max_len < 1:
        return parent, last, necklaces
    edges = g.edges
    out = {}
    for i, e in enumerate(edges):
        out.setdefault(e.src, []).append(i)
    src, tgt = [e.src for e in edges], [e.tgt for e in edges]
    path = []  # the edges of the walk at the node last popped
    # an entry is (parent node, edge, p, n): the walk of n edges that extends
    # the parent by the edge, p the length of its longest Lyndon prefix; on an
    # explicit stack so the walk length is not bounded by Python's recursion
    # limit, and pushed in reverse index order so walks pop in lexicographic order
    stack = [(-1, i, 1, 1) for i in range(len(edges) - 1, -1, -1)]
    while stack:
        node = len(parent)
        if node == CYCLE_SEARCH_BUDGET:
            raise _search_too_large(max_len)
        up, x, p, n = stack.pop()
        parent.append(up)
        last.append(x)
        del path[n - 1:]
        path.append(x)
        here = tgt[x]
        if n % p == 0 and here == src[path[0]]:
            necklaces.append((node, n, p == n))  # prime when it is Lyndon
        if n == max_len:
            continue
        # y extends the prenecklace only if y >= path[n - p]
        least = path[n - p]
        for y in reversed(out.get(here, ())):
            if y < least:
                break
            stack.append((node, y, p if y == least else n + 1, n + 1))
    return parent, last, necklaces


def cycle_classes(g: WeightedDigraph, max_len: int):
    """All cycle classes (rotation orbits of closed edge walks) up to max_len,
    each as its least rotation in g.edges order, in lexicographic order.
    One depth-first search over the walks that are prenecklaces meets each
    class once (the Fredricksen-Kessler-Maiorana search of Ruskey, Savage
    and Wang, "Generating necklaces", 1992); the classes are read off its
    tree (`_prenecklace_tree`).  Raises CycleSearchTooLarge past
    CYCLE_SEARCH_BUDGET search steps, and at once when max_len is above
    CYCLE_SEARCH_BUDGET: the series an order-max_len check builds grow with
    max_len outside the search."""
    parent, last, necklaces = _prenecklace_tree(g, max_len)
    ids = [e.id for e in g.edges]
    classes = []
    for node, n, prime in necklaces:
        walk = [None] * n
        for k in range(n - 1, -1, -1):
            walk[k] = ids[last[node]]
            node = parent[node]
        classes.append(CycleClass(tuple(walk), prime))
    return classes


def _cyclic_core(g: WeightedDigraph) -> WeightedDigraph:
    """The core of g: the edges whose two ends lie in one strongly connected
    component, in g.edges order, and the vertices they touch (g itself when
    that is all of it).  A closed walk never leaves a component, so g and its
    core have the same cycle classes, and I - A is block triangular over the
    components, with I on the diagonal for a vertex off the core, so they
    have the same det(I - uA).  The components are Tarjan's (SIAM J. Comput.
    1, 1972), on an explicit stack: one O(V + E) pass."""
    out = {}
    for e in g.edges:
        out.setdefault(e.src, []).append(e.tgt)
    index, low, root = {}, {}, {}  # root: a vertex's component, once closed
    path = []  # the vertices met whose component is still open
    for start in out:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        path.append(start)
        work = [(start, iter(out[start]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if w not in index:
                    index[w] = low[w] = len(index)
                    path.append(w)
                    work.append((w, iter(out.get(w, ()))))
                    break
                if w not in root and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = path.pop()
                        root[w] = v
                        if w == v:
                            break
    edges = [e for e in g.edges if root[e.src] == root[e.tgt]]
    touched = {e.src for e in edges}  # a core edge's target leaves by a core edge
    vertices = [(v, d) for v, d in g.vertices if v in touched]
    if len(edges) == len(g.edges) and len(vertices) == len(g.vertices):
        return g
    return WeightedDigraph(g.kind, tuple(vertices), tuple(edges))


def _euler_setup(g: WeightedDigraph, max_len: int, adjacency):
    """The prenecklace tree up to max_len as (parent, last, primes), primes
    the (node, length) of each prime class; the `cell_ring` of the weights'
    cells (`adjacency` as `cell_ring` takes it); and each edge's (rows,
    cols, cells packed once, a zero cell as the ring's zero), in g.edges
    order."""
    _matrix_only(g)
    parent, last, necklaces = _prenecklace_tree(g, max_len)
    primes = [(node, n) for node, n, prime in necklaces if prime]
    dims = g.dims()
    ring = cell_ring([p for e in g.edges for p in e.weight.entries], max_len,
                     [n for _, n in primes], max(dims.values(), default=0),
                     adjacency=adjacency)
    zero = ring.zero
    weight = [(dims[e.src], dims[e.tgt],
               [ring.pack(p) if p.terms else zero for p in e.weight.entries]) for e in g.edges]
    return (parent, last, primes), ring, weight


def _euler_product(tree, weight, max_len: int, ring) -> list:
    """The coefficients of u^0..u^max_len, in `ring`, of the product over the
    prime classes of det(I - u^|C| w(C)), `tree` and `weight` as
    `_euler_setup` gives them (see `euler_product_oracle`).  The weight
    product P of a node's walk is P(parent) w(last edge), formed once and
    only for the nodes a prime class reads and their ancestors."""
    parent, last, primes = tree
    zero = ring.zero
    traces = [zero] * (max_len + 1)  # traces[l] = S_l
    factors = []  # each a list of (degree in u, nonzero coefficient)
    products = {-1: None}  # node -> (rows, cells of P)
    for node, n in primes:
        whole = 2 * n <= max_len or n == 1  # a loop's trace needs no parent
        chain = []
        at = node if whole else parent[node]
        while at not in products:
            chain.append(at)
            at = parent[at]
        for at in reversed(chain):
            k, cols, w = weight[last[at]]
            up = products[parent[at]]
            products[at] = (k, w) if up is None else (
                up[0], rational_matmul(up[1], w, up[0], k, cols, zero))
        if whole:
            rows, p = products[node]
            poly = det_one_minus_x_cells(cell_rows(p, rows), min(rows, max_len // n), ring)
            factors.append([(n * j, cj) for j, cj in enumerate(poly) if j and cj])
        else:
            rows, p = products[parent[node]]
            k, _, w = weight[last[node]]
            traces[n] = traces[n] + sum([p[i * k + m] * w[m * rows + i]
                                         for i in range(rows) for m in range(k)], zero)
    factors.append([(n, -s) for n, s in enumerate(traces) if s])
    coeffs = [ring.one] + [zero] * max_len
    for factor in factors:
        # multiply in place, from the top so each coeffs[n - k] is still the old one
        for n in range(max_len, 0, -1):
            acc = coeffs[n]
            for k, f in factor:
                if k > n:
                    break
                if coeffs[n - k]:
                    acc = acc + f * coeffs[n - k]
            coeffs[n] = acc
    return coeffs


def euler_product_oracle(g: WeightedDigraph, max_len: int) -> TruncatedSeries:
    """Product over prime cycle classes C of det(I - u^|C| w(C)), truncated
    at u^max_len, where w(C) is the ordered product of the edge weights
    along C: the reciprocal 1/zeta of the Euler product, which the paper's
    determinant formula equates with det(I - uA).  The weight products, the
    factors and their product run in the `cell_ring` of the weights' cells:
    packed as integers, or as they are when too wide to pack.  A class with
    2|C| <= max_len gives the polynomial det(I - x w(C)), of degree at most
    dim w(C) (`det_one_minus_x_cells`).  A longer class gives only
    1 - u^|C| tr w(C), and the product of two of these lies past u^max_len,
    so they enter as one factor 1 - sum_l u^l S_l, S_l the sum of their
    traces for |C| = l; each trace is sum_(i,m) P_im w_mi over the product P
    of all weights but the last, w, so the last product is not formed.  Only
    the coefficient of u^n of the whole product is read back, once, at
    power n.  `euler_check` runs the same product and reads nothing back."""
    tree, ring, weight = _euler_setup(g, max_len, None)
    coeffs = _euler_product(tree, weight, max_len, ring)
    return TruncatedSeries(max_len, [ring.unpack(x, n) for n, x in enumerate(coeffs)])


def _adjacency_det(g: WeightedDigraph, weight, top: int, ring) -> list:
    """c_0..c_top of det(I - uA), in `ring`, `weight` as `_euler_setup`
    packs it: each cell of A is the sum of the packed weight cells that fall
    in it (packing is linear), kept in one row map per row of A and dropped
    when it cancels to zero, so A is never formed as a dense matrix."""
    n, cells = _adjacency_cells(g, [w for _, _, w in weight])
    rows = [{} for _ in range(n)]
    for i, j, c in cells:
        row = rows[i]
        row[j] = row[j] + c if j in row else c
    return det_one_minus_x_cells([{j: c for j, c in row.items() if c} for row in rows], top, ring)


def euler_check(g: WeightedDigraph, order: int) -> tuple:
    """(det(I - A), whether the Euler product over the prime cycle classes
    equals det(I - uA) up to u^order, as the paper's determinant formula
    says): the check of `zeta --check-euler` and the value it prints.  Both
    sides run on the cyclic core of g (`_cyclic_core`), which has the same
    prime classes and the same det(I - uA): an edge on no cycle changes
    neither side.  They run in one `cell_ring` of the core's cells, wide
    enough for each side's coefficients by a bound of its own (see
    `cell_ring`; k is the most core edges between one ordered pair of
    vertices), on the weight cells packed once: the Euler side as in
    `euler_product_oracle`, the det side as `series_det` on the core's A,
    whose cells are sums of the packed weights.  The coefficient lists are
    compared as packed values, the det side padded with zeros past top =
    min(dim core, order), since c_j of det(I - uA) is 0 for j > dim core.
    When order >= dim core the det side holds every c_j, and det(I - A) is
    their sum, read back from the values just compared; below that it is
    `zeta_reciprocal(g)` (running the det side up to dim core would cost
    O(dim core^4) and widen the ring)."""
    core = _cyclic_core(g)
    _, n = _block_offsets(core)
    parallel = max(Counter([(e.src, e.tgt) for e in core.edges]).values(), default=0)
    tree, ring, weight = _euler_setup(core, order, (n, parallel))
    top = min(n, order)
    det = _adjacency_det(core, weight, top, ring) + [ring.zero] * (order - top)
    agrees = _euler_product(tree, weight, order, ring) == det
    if top < n:
        return zeta_reciprocal(g), agrees
    total = Counter()
    for j, c in enumerate(det):
        if c:
            total.update(ring.unpack(c, j).terms)
    return LaurentPoly._ring_result(total), agrees


# -- transform engine ----------------------------------------------------

def _replace_edges(g: WeightedDigraph, edges) -> WeightedDigraph:
    return WeightedDigraph(g.kind, g.vertices, tuple(edges))


def apply_step(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    """Apply one elementary transformation: the matrix-level rules, or
    (G1)-(G4) on a group-weighted graph."""
    entry = _STEPS[s.kind][g.kind]
    if entry is None:
        raise InvalidStep("unsupported group-level step %r" % s.kind)
    fields, rule = entry
    for name in fields:
        if getattr(s, name) is None:
            raise InvalidStep("%s needs field %r" % (s.kind, name))
    return rule(g, s)


def _change_basis(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    v = s.vertex
    if not g.has_vertex(v):
        raise InvalidStep("no vertex %r" % v)
    a = g.dims()[v]
    p = s.matrix
    if (p.rows, p.cols) != (a, a):
        raise InvalidStep("basis matrix must be %dx%d" % (a, a))
    try:
        pinv = p.inverse_unit_det()
    except ValueError as exc:
        raise InvalidStep(str(exc))
    edges = []
    for e in g.edges:
        w = e.weight
        if e.tgt == v:
            w = w * pinv
        if e.src == v:
            w = p * w
        edges.append(Edge(e.id, e.src, e.tgt, w))
    return _replace_edges(g, edges)


def _null_add(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    if not (g.has_vertex(s.src) and g.has_vertex(s.tgt)):
        raise InvalidStep("null edge endpoints missing")
    w = _zero_weight(g, s.src, s.tgt)
    return _replace_edges(g, g.edges + (Edge(s.edge, s.src, s.tgt, w),))


def _null_remove(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    e = g.edge(s.edge)
    if not e.weight.is_zero():
        raise InvalidStep("edge %r has nonzero weight" % s.edge)
    return _replace_edges(g, [x for x in g.edges if x.id != s.edge])


def _merge(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    group = [e for e in g.edges if e.src == s.src and e.tgt == s.tgt]
    if len(group) < 2:
        raise InvalidStep("need at least two parallel edges %r -> %r" % (s.src, s.tgt))
    w = group[0].weight
    for e in group[1:]:
        w = w + e.weight
    eid = s.new_ids[0] if s.new_ids else group[0].id
    edges = [e for e in g.edges if e not in group]
    return _replace_edges(g, edges + [Edge(eid, s.src, s.tgt, w)])


def _split(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    e = g.edge(s.edge)
    if len(s.summands) < 2:
        raise InvalidStep("split needs at least two summands")
    total = s.summands[0]
    for w in s.summands[1:]:
        total = total + w
    if total != e.weight:
        raise InvalidStep("summands do not add up to the weight of %r" % s.edge)
    ids = s.new_ids or tuple(["%s.%d" % (e.id, k) for k in range(len(s.summands))])
    if len(ids) != len(s.summands):
        raise InvalidStep("need one id per summand")
    edges = [x for x in g.edges if x.id != s.edge]
    edges += [Edge(i, e.src, e.tgt, w) for i, w in zip(ids, s.summands)]
    return _replace_edges(g, edges)


def _eliminate(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    v = s.vertex
    if not g.has_vertex(v):
        raise InvalidStep("no vertex %r" % v)
    if g.in_edges(v) and g.out_edges(v):
        raise InvalidStep("vertex %r is neither a source nor a sink" % v)
    vertices = tuple([x for x in g.vertices if x[0] != v])
    edges = tuple([e for e in g.edges if v not in (e.src, e.tgt)])
    return WeightedDigraph(g.kind, vertices, edges)


def _insert(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    v = s.vertex
    if g.has_vertex(v):
        raise InvalidStep("vertex %r already exists" % v)
    dim = 1 if s.dim is None else s.dim
    vertices = g.vertices + ((v, dim),)
    new_edges = tuple([Edge(i, a, b, w) for (i, a, b, w) in (s.edges or ())])
    incoming = [e for e in new_edges if e.tgt == v]
    outgoing = [e for e in new_edges if e.src == v]
    if incoming and outgoing:
        raise InvalidStep("inserted vertex must be a source or a sink")
    for e in new_edges:
        if v not in (e.src, e.tgt):
            raise InvalidStep("inserted edge %r must touch the new vertex" % e.id)
    return WeightedDigraph(g.kind, vertices, g.edges + new_edges)


def _hub_resolve(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    e = g.edge(s.edge)
    if e.src == e.tgt:
        raise InvalidStep("hub resolution requires distinct endpoints")
    u = e.weight
    edges = [x for x in g.edges if x.id != e.id]
    added = []
    for f in g.out_edges(e.tgt):
        added.append(Edge("%s*%s" % (e.id, f.id), e.src, f.tgt, u * f.weight))
    return _replace_edges(g, edges + added)


def _hub_unresolve(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    """Inverse of hub resolution: the caller names the hub edge to restore
    (src -> tgt, weight) and pairs each edge to delete with the tgt
    out-edge it came from."""
    v1, v2, u = s.src, s.tgt, s.weight
    if v1 == v2:
        raise InvalidStep("hub edge endpoints must differ")
    out = {f.id: f for f in g.out_edges(v2)}
    pairs = s.pairs or ()
    if sorted(out) != sorted(fid for _, fid in pairs):
        raise InvalidStep("pairs must cover the out-edges of %r exactly" % v2)
    removed = set()
    for rid, fid in pairs:
        r = g.edge(rid)
        f = out[fid]
        if r.src != v1 or r.tgt != f.tgt:
            raise InvalidStep("edge %r does not run %r -> %r" % (rid, v1, f.tgt))
        if r.weight != u * f.weight:
            raise InvalidStep("edge %r is not the hub product for %r" % (rid, fid))
        removed.add(rid)
    edges = [x for x in g.edges if x.id not in removed]
    return _replace_edges(g, edges + [Edge(s.edge, v1, v2, u)])


def _reverse_all(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    """Reverse every edge; matrix weights are transposed so that the
    determinant of every cycle weight is preserved."""
    edges = [Edge(e.id, e.tgt, e.src, e.weight.transpose()) for e in g.edges]
    return _replace_edges(g, edges)


def _g1_null_add(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    """(G1) side condition: the origin of the null edge must not be a sink
    once the null edge is disregarded."""
    h = _null_add(g, s)
    if not g.out_edges(s.src):
        raise InvalidStep("null-edge origin %r is a sink" % s.src)
    return h


def _g1_null_remove(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    origin = g.edge(s.edge).src
    h = _null_remove(g, s)
    if not h.out_edges(origin):
        raise InvalidStep("null-edge origin %r would become a sink" % origin)
    return h


def _g3_eliminate(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    """(G3) remove a source vertex whose out-weights are the Fox
    derivatives of a witness word f: df = sum_j w_j dx_j."""
    v = s.vertex
    if not g.has_vertex(v):
        raise InvalidStep("no vertex %r" % v)
    if g.in_edges(v):
        raise InvalidStep("vertex %r is not a source" % v)
    _verify_witness(g, v, s)
    return _eliminate(g, s)


def _g3_insert(g: WeightedDigraph, s: TransformStep) -> WeightedDigraph:
    h = _insert(g, s)
    if h.in_edges(s.vertex):
        raise InvalidStep("inserted group vertex must be a source")
    _verify_witness(h, s.vertex, s)
    return h


def _verify_witness(g: WeightedDigraph, v: str, s: TransformStep):
    f = s.witness
    sums = {}
    for e in g.out_edges(v):
        j = s.gen_map.get(e.tgt)
        if j is None:
            raise InvalidStep("no generator for vertex %r" % e.tgt)
        sums[j] = sums.get(j, GroupRingElt()) + e.weight
    touched = set(sums) | f.generators()
    for j in sorted(touched):
        expect = fox_derivative(f, j)
        got = sums.get(j, GroupRingElt())
        if expect != got:
            raise InvalidStep(
                "witness fails at generator %d: df/dx = %r but edges sum to %r"
                % (j, expect, got)
            )


# kind -> for each weight ring, (fields the step needs, rule), or None where
# the ring has no rule: the group ring has no basis change and no transpose,
# and its source moves (G3) need a witness word and the generator of each vertex
_STEPS = {
    "change_basis": {"matrix": (("vertex", "matrix"), _change_basis), "group": None},
    "null_add": {"matrix": (("edge", "src", "tgt"), _null_add),
                 "group": (("edge", "src", "tgt"), _g1_null_add)},
    "null_remove": {"matrix": (("edge",), _null_remove), "group": (("edge",), _g1_null_remove)},
    "merge": {"matrix": (("src", "tgt"), _merge), "group": (("src", "tgt"), _merge)},
    "split": {"matrix": (("edge", "summands"), _split), "group": (("edge", "summands"), _split)},
    "eliminate": {"matrix": (("vertex",), _eliminate),
                  "group": (("vertex", "witness", "gen_map"), _g3_eliminate)},
    "insert": {"matrix": (("vertex",), _insert),
               "group": (("vertex", "witness", "gen_map"), _g3_insert)},
    "hub_resolve": {"matrix": (("edge",), _hub_resolve), "group": (("edge",), _hub_resolve)},
    "hub_unresolve": {"matrix": (("edge", "src", "tgt", "weight"), _hub_unresolve),
                      "group": (("edge", "src", "tgt", "weight"), _hub_unresolve)},
    "reverse_all": {"matrix": ((), _reverse_all), "group": None},
}


# -- script verification -------------------------------------------------

@dataclass
class VerificationReport:
    ok: bool
    failing_step: Optional[int]
    message: str
    zeta_left: Optional[LaurentPoly] = None
    zeta_right: Optional[LaurentPoly] = None


def _edge_signature(g: WeightedDigraph) -> Counter:
    """Multiset of (src, tgt, weight), by hash: weights hash as they compare."""
    return Counter([(e.src, e.tgt, e.weight) for e in g.edges])


def verify_equivalence(g: WeightedDigraph, script, h: WeightedDigraph,
                       rep=None) -> VerificationReport:
    """Replay `script` on `g`, then compare the result with `h` edge by edge
    and zeta(g) with zeta(h); a `rep` maps all three through phi_image
    first, and without one group-weighted graphs compare structurally only."""
    cur = g
    for idx, step in enumerate(script):
        try:
            cur = apply_step(cur, step)
        except InvalidStep as exc:
            return VerificationReport(False, idx, "step %d rejected: %s" % (idx, exc))
    if rep is not None:
        g, cur, h = (phi_image(x, rep) for x in (g, cur, h))
    structural = sorted(cur.vertices) == sorted(h.vertices) and (
        _edge_signature(cur) == _edge_signature(h))
    zl = zr = None  # group-ring weights only become polynomials through a rep
    if g.kind == "matrix":
        zl, zr = zeta_reciprocal(g), zeta_reciprocal(h)
    ok = structural and zl == zr
    msg = "verified" if ok else (
        "graphs differ structurally" if not structural else "zeta mismatch"
    )
    return VerificationReport(ok, None, msg, zl, zr)


# -- text formats ---------------------------------------------------------

def parse_matrix_literal(text: str) -> PolyMatrix:
    return PolyMatrix.from_rows(
        [[parse_laurent(cell) for cell in row] for row in split_matrix_literal(text)]
    )


def parse_graph(text: str) -> WeightedDigraph:
    """Parse the `vertex <id> dim=<n>` / `edge <id> <src> -> <tgt> weight=...`
    matrix-weighted graph format."""
    vertices = []
    edges = []
    total = 0
    for line in content_lines(text):
        if line.startswith("vertex"):
            m = re.match(r"vertex\s+(\S+)\s+dim=([0-9]+)$", line)
            if not m:
                raise ValueError("bad vertex line %r" % line)
            dim = int(m.group(2))
            total += dim
            if total > COUNT_LIMIT:
                raise ValueError("vertex %r: dim=%d takes the total dimension above the limit of %d"
                                 % (m.group(1), dim, COUNT_LIMIT))
            vertices.append((m.group(1), dim))
        elif line.startswith("edge"):
            m = re.match(r"edge\s+(\S+)\s+(\S+)\s*->\s*(\S+)\s+weight=(.*)$", line)
            if not m:
                raise ValueError("bad edge line %r" % line)
            edges.append(
                Edge(m.group(1), m.group(2), m.group(3), parse_matrix_literal(m.group(4)))
            )
        else:
            raise ValueError("unrecognized line %r" % line)
    return WeightedDigraph("matrix", tuple(vertices), tuple(edges))


def format_graph(g: WeightedDigraph) -> str:
    if g.kind != "matrix":
        raise ValueError("text format covers matrix-weighted graphs")
    lines = ["vertex %s dim=%d" % (vid, d) for vid, d in g.vertices]
    lines += ["edge %s %s -> %s weight=%s" % (e.id, e.src, e.tgt, e.weight) for e in g.edges]
    return "\n".join(lines) + "\n"


def export_dot(g: WeightedDigraph) -> str:
    """GraphViz output with weights as edge labels."""
    lines = ["digraph G {"]
    for vid, d in g.vertices:
        label = vid if d == 1 else "%s (dim %d)" % (vid, d)
        lines.append('  "%s" [label="%s"];' % (vid, label))
    for e in g.edges:
        label = repr(e.weight).replace('"', r"\"")
        lines.append('  "%s" -> "%s" [label="%s"];' % (e.src, e.tgt, label))
    lines.append("}")
    return "\n".join(lines) + "\n"
