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
from dataclasses import dataclass
from typing import Optional

from .laurent import (
    LaurentPoly,
    PolyMatrix,
    TruncatedSeries,
    content_lines,
    parse_laurent,
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
            raise ValueError("duplicate vertex ids")
        for vid, d in self.vertices:
            if d < 0:
                raise ValueError("vertex %r has negative dimension %d" % (vid, d))
        ids = set()
        for e in self.edges:
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
    length: int
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
    return GroupRingElt.zero()


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


def adjacency_matrix(g: WeightedDigraph) -> PolyMatrix:
    """Block matrix whose (i,j) block sums the weights of edges v_i -> v_j."""
    _matrix_only(g)
    offsets = {}
    total = 0
    for vid, dim in g.vertices:
        offsets[vid] = total
        total += dim
    rows = [[LaurentPoly.zero()] * total for _ in range(total)]
    for e in g.edges:
        w = e.weight
        r0, c0 = offsets[e.src], offsets[e.tgt]
        for i in range(w.rows):
            for j in range(w.cols):
                rows[r0 + i][c0 + j] = rows[r0 + i][c0 + j] + w[i, j]
    return PolyMatrix.from_rows(rows) if total else PolyMatrix(0, 0, [])


def zeta_reciprocal(g: WeightedDigraph) -> LaurentPoly:
    """det(I - A(G,w)): the reciprocal of the weighted zeta function."""
    a = adjacency_matrix(g)
    n, one = a.rows, LaurentPoly.one()
    # negate only the stored entries, then put 1 - a_ii on the diagonal
    entries = [-p if p.terms else p for p in a.entries]
    for k in range(0, n * n, n + 1):
        entries[k] = one - a.entries[k]
    return PolyMatrix(n, n, entries).det()


# -- prime cycles and the Euler product oracle --------------------------

# DFS steps `cycle_classes` may take before it gives up: enough for the
# order-16 walks of a 4-vertex, 9-edge graph (about 330 000 steps), while
# order 18 on that graph (1.5 million) is rejected in a few seconds; also
# the longest walk it may be asked for
CYCLE_SEARCH_BUDGET = 500_000


class CycleSearchTooLarge(ValueError):
    """The walks up to the asked length outgrow CYCLE_SEARCH_BUDGET."""


def _search_too_large(max_len: int) -> CycleSearchTooLarge:
    return CycleSearchTooLarge(
        "cycle classes up to length %d need more than %d search steps;"
        " use a smaller order (--order)" % (max_len, CYCLE_SEARCH_BUDGET)
    )


def cycle_classes(g: WeightedDigraph, max_len: int):
    """All cycle classes (rotation orbits of closed edge walks) up to max_len,
    each as its least rotation in g.edges order, in lexicographic order.
    One depth-first search over the walks that are prenecklaces meets each
    class once (the Fredricksen-Kessler-Maiorana search of Ruskey, Savage
    and Wang, "Generating necklaces", 1992).  Raises CycleSearchTooLarge
    past CYCLE_SEARCH_BUDGET search steps, and at once when max_len is
    above CYCLE_SEARCH_BUDGET: the series an order-max_len check builds
    grow with max_len outside the search."""
    if max_len > CYCLE_SEARCH_BUDGET:
        raise _search_too_large(max_len)
    if max_len < 1:
        return []
    edges = g.edges
    out = {}
    for i, e in enumerate(edges):
        out.setdefault(e.src, []).append(i)
    ids = [e.id for e in edges]
    classes = []
    # an entry is (vertex reached, path, p), p the length of the path's
    # longest Lyndon prefix; on an explicit stack so the walk length is not
    # bounded by Python's recursion limit, and pushed in reverse index order
    # so paths pop in lexicographic order
    stack = [(e.tgt, (i,), 1) for i, e in enumerate(edges)][::-1]
    steps = 0
    while stack:
        steps += 1
        if steps > CYCLE_SEARCH_BUDGET:
            raise _search_too_large(max_len)
        here, path, p = stack.pop()
        n = len(path)
        if n % p == 0 and here == edges[path[0]].src:
            # a necklace, prime when it is Lyndon; ids from a list, so the tuple
            # gets its exact size (from a generator: +3.7% zeta-euler peak RSS)
            classes.append(CycleClass(tuple([ids[i] for i in path]), n, p == n))
        if n == max_len:
            continue
        # x extends the prenecklace only if x >= path[n - p]
        least = path[n - p]
        for x in reversed(out.get(here, ())):
            if x < least:
                break
            stack.append((edges[x].tgt, path + (x,), p if x == least else n + 1))
    return classes


def prime_cycle_classes(g: WeightedDigraph, max_len: int):
    return [c for c in cycle_classes(g, max_len) if c.prime]


def euler_product_oracle(g: WeightedDigraph, max_len: int = 8) -> TruncatedSeries:
    """Product over prime cycle classes C of det(I - u^|C| w(C))^-1,
    truncated at u^max_len, where w(C) is the ordered product of the edge
    weights along C.  Each det(I - x W) is a polynomial of degree at most
    dim W (`PolyMatrix.det_one_minus_x`); the product of these polynomials
    is inverted once at the end."""
    _matrix_only(g)
    weight = {e.id: e.weight for e in g.edges}
    coeffs = [LaurentPoly.one()] + [LaurentPoly.zero()] * max_len
    prefix = []  # (edge id, weight product up to it) along the previous class
    for c in prime_cycle_classes(g, max_len):
        # the classes come sorted, so neighbours share a prefix of edges
        keep = 0
        while keep < min(len(prefix), c.length) and prefix[keep][0] == c.edges[keep]:
            keep += 1
        del prefix[keep:]
        for eid in c.edges[keep:]:
            prefix.append((eid, prefix[-1][1] * weight[eid] if prefix else weight[eid]))
        w = prefix[-1][1]
        poly = w.det_one_minus_x(min(w.rows, max_len // c.length))
        factor = [(c.length * j, cj) for j, cj in enumerate(poly) if j and cj.terms]
        # multiply in place, from the top so each coeffs[n - k] is still the old one
        for n in range(max_len, 0, -1):
            acc = coeffs[n]
            for k, f in factor:
                if k > n:
                    break
                if coeffs[n - k].terms:
                    acc = acc + f * coeffs[n - k]
            coeffs[n] = acc
    return TruncatedSeries(max_len, coeffs).inverse()


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
        if f.id == e.id:
            continue
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
    gen_of = s.gen_map
    if gen_of is None:
        gen_of = {vid: i for i, (vid, _) in enumerate(g.vertices)}
    f = s.witness
    sums = {}
    for e in g.out_edges(v):
        j = gen_of.get(e.tgt)
        if j is None:
            raise InvalidStep("no generator for vertex %r" % e.tgt)
        sums[j] = sums.get(j, GroupRingElt.zero()) + e.weight
    touched = set(sums) | f.generators()
    for j in sorted(touched):
        expect = fox_derivative(f, j)
        got = sums.get(j, GroupRingElt.zero())
        if expect != got:
            raise InvalidStep(
                "witness fails at generator %d: df/dx = %r but edges sum to %r"
                % (j, expect, got)
            )


# kind -> for each weight ring, (fields the step needs, rule), or None where
# the ring has no rule: the group ring has no basis change and no transpose,
# and its source moves (G3) need a witness word
_STEPS = {
    "change_basis": {"matrix": (("vertex", "matrix"), _change_basis), "group": None},
    "null_add": {"matrix": (("edge", "src", "tgt"), _null_add),
                 "group": (("edge", "src", "tgt"), _g1_null_add)},
    "null_remove": {"matrix": (("edge",), _null_remove), "group": (("edge",), _g1_null_remove)},
    "merge": {"matrix": (("src", "tgt"), _merge), "group": (("src", "tgt"), _merge)},
    "split": {"matrix": (("edge", "summands"), _split), "group": (("edge", "summands"), _split)},
    "eliminate": {"matrix": (("vertex",), _eliminate),
                  "group": (("vertex", "witness"), _g3_eliminate)},
    "insert": {"matrix": (("vertex",), _insert), "group": (("vertex", "witness"), _g3_insert)},
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


def _edge_signature(g: WeightedDigraph):
    """Multiset of (src, tgt, weight)."""
    return sorted(((e.src, e.tgt, e.weight) for e in g.edges),
                  key=lambda x: (x[0], x[1], str(x[2])))


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
    for line in content_lines(text):
        if line.startswith("vertex"):
            m = re.match(r"vertex\s+(\S+)\s+dim=(\d+)$", line)
            if not m:
                raise ValueError("bad vertex line %r" % line)
            vertices.append((m.group(1), int(m.group(2))))
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
