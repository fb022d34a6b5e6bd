"""Finite quandles, Alexander pairs, and holonomy-preserving crossing weights.

An Alexander pair (f1, f2) on a finite quandle induces scalar crossing
weights (g1_pos, g2_pos, g1_neg, g2_neg); these are exactly the weight
systems passing the holonomy conditions (A), (B-1), (B-2), (C), and the
two directions are implemented as f_twisted_weights and recover_pair.
Weights are 1x1 Laurent polynomials; unit entries keep inversion exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .laurent import LaurentPoly, PolyMatrix, cell_ring, content_lines, parse_int, parse_laurent
from .wgraph import WeightedDigraph, Edge

# tuples are built from lists: one grown from a generator is resized and kept on
# CPython's free list until a full collection, which peak memory then follows


class QuandleError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PairConditionError(ValueError):
    def __init__(self, condition, witness):
        super().__init__("Alexander pair condition %s fails at %s" % (condition, witness))
        self.condition = condition
        self.witness = witness


@dataclass(frozen=True)
class FiniteQuandle:
    n: int
    table: tuple  # table[a][b] = a * b
    inv_table: tuple  # inv_table[a][b] = a *^{-1} b

    def star(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv_star(self, a: int, b: int) -> int:
        return self.inv_table[a][b]


def quandle_check(table) -> FiniteQuandle:
    """Validate the three quandle axioms exhaustively and build the
    inverse translation table."""
    table = tuple([tuple([int(x) for x in row]) for row in table])
    n = len(table)
    if any(len(row) != n for row in table):
        raise QuandleError("operation table must be square")
    for row in table:
        for x in row:
            if not (0 <= x < n):
                raise QuandleError("table entry %d out of range" % x)
    for a in range(n):
        if table[a][a] != a:
            raise QuandleError("idempotence fails", witness=(a,))
    inv = [[None] * n for _ in range(n)]
    for b in range(n):
        seen = set()
        for a in range(n):
            c = table[a][b]
            if c in seen:
                raise QuandleError("right translation by %d not injective" % b, witness=(a, b))
            seen.add(c)
            inv[c][b] = a
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[table[a][c]][table[b][c]]:
                    raise QuandleError("self-distributivity fails", witness=(a, b, c))
    return FiniteQuandle(n, table, tuple([tuple(row) for row in inv]))


def dihedral_quandle(n: int) -> FiniteQuandle:
    return quandle_check([[(2 * b - a) % n for b in range(n)] for a in range(n)])


def trivial_quandle(n: int) -> FiniteQuandle:
    return quandle_check([[a] * n for a in range(n)])


@dataclass(frozen=True)
class AlexanderPairTable:
    n: int
    f1: tuple  # n x n LaurentPoly, unit entries
    f2: tuple  # n x n LaurentPoly


def _as_poly_table(rows, n, what):
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("%s table must be %dx%d" % (what, n, n))
    return tuple([tuple(r) for r in rows])


def alexander_pair_check(q: FiniteQuandle, f1, f2) -> AlexanderPairTable:
    """Exhaustively verify the Alexander pair axioms and wrap the tables.

    (1) f1(a,a)+f2(a,a)=1; (2) every f1(a,b) is a unit; (3a)-(3c) the
    distributivity identities over all triples.
    """
    n = q.n
    f1 = _as_poly_table(f1, n, "f1")
    f2 = _as_poly_table(f2, n, "f2")
    one = LaurentPoly({0: 1})
    for a in range(n):
        if f1[a][a] + f2[a][a] != one:
            raise PairConditionError("1", (a,))
    for a in range(n):
        for b in range(n):
            if not f1[a][b].is_unit():
                raise PairConditionError("2", (a, b))
    for a, b, c in product(range(n), repeat=3):
        ab, ac, bc = q.star(a, b), q.star(a, c), q.star(b, c)
        acbc = q.star(ac, bc)
        if f1[ab][c] * f1[a][b] != f1[ac][bc] * f1[a][c]:
            raise PairConditionError("3a", (a, b, c))
        if f1[ab][c] * f2[a][b] != f2[ac][bc] * f1[b][c]:
            raise PairConditionError("3b", (a, b, c))
        if f2[ab][c] != f1[ac][bc] * f2[a][c] + f2[ac][bc] * f2[b][c]:
            raise PairConditionError("3c", (a, b, c))
    return AlexanderPairTable(n, f1, f2)


def derived_star(p, r, f: AlexanderPairTable, q: FiniteQuandle):
    """The quandle operation on Q x R:
    (a,x) star (b,y) = (a*b, f1(a,b)x + f2(a,b)y)."""
    a, x = p
    b, y = r
    return (q.star(a, b), f.f1[a][b] * x + f.f2[a][b] * y)


@dataclass(frozen=True)
class CrossingWeights:
    n: int
    g1_pos: tuple
    g2_pos: tuple
    g1_neg: tuple
    g2_neg: tuple


def f_twisted_weights(f: AlexanderPairTable, q: FiniteQuandle) -> CrossingWeights:
    """Crossing weights induced by an Alexander pair:
    g1+(a,b) = f1(a,b)^-1, g2+(a,b) = -f1(a,b)^-1 f2(a,b),
    g1-(a,b) = f1(a*'b, b), g2-(a,b) = f2(a*'b, b)  (*' the inverse op)."""
    n = q.n
    g1p, g2p, g1n, g2n = [], [], [], []
    for a in range(n):
        r1p, r2p, r1n, r2n = [], [], [], []
        for b in range(n):
            if not f.f1[a][b].is_unit():
                raise ValueError("f1(%d,%d) is not a unit" % (a, b))
            inv = f.f1[a][b].unit_inverse()
            r1p.append(inv)
            r2p.append(-(inv * f.f2[a][b]))
            c = q.inv_star(a, b)
            r1n.append(f.f1[c][b])
            r2n.append(f.f2[c][b])
        g1p.append(tuple(r1p))
        g2p.append(tuple(r2p))
        g1n.append(tuple(r1n))
        g2n.append(tuple(r2n))
    return CrossingWeights(n, tuple(g1p), tuple(g2p), tuple(g1n), tuple(g2n))


WEIGHT_TABLES = ("g1_pos", "g2_pos", "g1_neg", "g2_neg")


def _holonomy_ring(g: CrossingWeights, extra):
    """The ring in which the holonomy identities of g are decided, the four
    tables of g packed in it and the same four times pack(1), each as a list
    of rows of ring values.

    Multiplied by den^2, each side of (A), (B-1), (B-2) and (C) is a sum of
    at most two products of two cells once 1 is a cell: a lone cell x is
    x * 1, the constant 1 is 1 * 1, and 1 makes lo <= 0, so pack(1) is an
    integer.  xy + zw is c_2 of the 2 x 2 matrix [[x, -z], [w, y]] and the
    bound of `cell_ring` reads only the 1-norms of the cells, so
    cell_ring(cells, 2, (1,), 2) proves that each side, read at power 2, has
    its own balanced digits: two sides are equal exactly when their ring
    values are.  The cells `extra` are in the ring too, so this holds with
    any one cell of g replaced by one of them."""
    one = LaurentPoly({0: 1})
    cells = [p for which in WEIGHT_TABLES for row in getattr(g, which) for p in row]
    ring = cell_ring([*cells, one, *extra], 2, (1,), 2)
    tables = [[[ring.pack(p) for p in row] for row in getattr(g, which)]
              for which in WEIGHT_TABLES]
    one = ring.pack(one)
    # x * pack(1) is x itself when pack(1) is the ring's 1 (integer cells)
    lone = tables if one == ring.one else [[[x * one for x in row] for row in t] for t in tables]
    return ring, one, tables, lone


def _identities(q: FiniteQuandle, ring, one, tables, lone):
    """Yield each holonomy identity of the tables packed in `ring` as
    (condition, witness, lhs, rhs), both sides ring values at power 2, in
    the order (A), (B-1), (B-2), (C); `lone` holds each packed cell times
    pack(1).  A caller that only asks whether weights fail stops at the
    first failure; the n^3 loop of (C) runs only if everything before it
    holds."""
    n = q.n
    g1p, g2p, g1n, g2n = tables
    _, lone_g2p, lone_g1n, lone_g2n = lone
    unit, zero = one * one, ring.zero  # 1 and 0 at power 2
    # (A): the kink configuration, where the over arc equals the under arc
    for a in range(n):
        yield "A", (a,), lone_g1n[a][a] + lone_g2n[a][a], unit
    # (B-1): cancelling crossing pair met under-first; X_{j+1} = b *' a,
    # X_{i+1} = a * b
    for a in range(n):
        for b in range(n):
            jb = q.inv_star(b, a)
            yield "B-1", (a, b), lone_g2n[b][a] + g1n[b][a] * g2p[jb][a], zero
            yield "B-1", (a, b), g1n[b][a] * g1p[jb][a], unit
            ia = q.star(a, b)
            yield "B-1", (a, b), lone_g2p[a][b] + g1p[a][b] * g2n[ia][b], zero
            yield "B-1", (a, b), g1p[a][b] * g1n[ia][b], unit
    # (B-2): the opposite clasp; X_{i+1} = a *' b
    for a in range(n):
        for b in range(n):
            ia = q.inv_star(a, b)
            yield "B-2", (a, b), lone_g2n[a][b] + g1n[a][b] * g2p[ia][b], zero
            yield "B-2", (a, b), g1n[a][b] * g1p[ia][b], unit
    # (C): triangle slide; intermediate arcs a*b before, a*c and b*c after
    for a, b, c in product(range(n), repeat=3):
        ab, ac, bc = q.star(a, b), q.star(a, c), q.star(b, c)
        yield "C", (a, b, c), g1p[a][b] * g1p[ab][c], g1p[a][c] * g1p[ac][bc]
        yield "C", (a, b, c), g2p[a][b] * g1p[b][c], g1p[a][c] * g2p[ac][bc]
        # accumulated weight of the two routes from v_i to v_k before the
        # slide equals the single direct edge after it
        yield ("C", (a, b, c), g1p[a][b] * g2p[ab][c] + g2p[a][b] * g2p[b][c],
               lone_g2p[a][c])


def holonomy_failures(q: FiniteQuandle, g: CrossingWeights):
    """Yield each failing holonomy identity of the weights g as (condition,
    witness, "lhs != rhs"), lazily and in the order (A), (B-1), (B-2), (C),
    checked in the ring of `_holonomy_ring`; `detail` reads both sides back."""
    ring, *packed = _holonomy_ring(g, ())
    for cond, witness, lhs, rhs in _identities(q, ring, *packed):
        if lhs != rhs:
            yield cond, witness, "%s != %s" % (ring.unpack(lhs, 2), ring.unpack(rhs, 2))


def holonomy_check(q: FiniteQuandle, g: CrossingWeights) -> list:
    """Exhaustively check the holonomy conditions on the weights g: every
    failure of `holonomy_failures`, empty when the weights preserve holonomy."""
    return list(holonomy_failures(q, g))


def perturbations_rejected(q: FiniteQuandle, g: CrossingWeights, edits) -> int:
    """How many edits fail the holonomy check, each edit (table name, a, b)
    the weights g with 1 added to that cell.  The ring, built once, holds
    each edited cell + 1; an edit swaps its packed cell and its lone value
    in, runs the identities to the first failure, formatting nothing, and
    swaps them back."""
    bumped = [getattr(g, which)[a][b] + LaurentPoly({0: 1}) for which, a, b in edits]
    ring, one, tables, lone = _holonomy_ring(g, bumped)
    rejected = 0
    for (which, a, b), cell in zip(edits, bumped):
        k = WEIGHT_TABLES.index(which)
        row, lone_row = tables[k][a], lone[k][a]
        kept = row[b], lone_row[b]
        row[b] = ring.pack(cell)
        lone_row[b] = row[b] * one
        rejected += any(lhs != rhs for _, _, lhs, rhs in _identities(q, ring, one, tables, lone))
        row[b], lone_row[b] = kept
    return rejected


def recover_pair(q: FiniteQuandle, g: CrossingWeights) -> AlexanderPairTable:
    """Read the Alexander pair back off holonomy-preserving weights:
    f1(a,b) = g1-(a*b, b), f2(a,b) = g2-(a*b, b)."""
    failures = list(islice(holonomy_failures(q, g), 3))
    if failures:
        raise ValueError("weights do not preserve holonomy: %s" % failures)
    n = q.n
    f1 = [[g.g1_neg[q.star(a, b)][b] for b in range(n)] for a in range(n)]
    f2 = [[g.g2_neg[q.star(a, b)][b] for b in range(n)] for a in range(n)]
    return alexander_pair_check(q, f1, f2)


# -- colorings and the quandle-weighted graph ---------------------------

@dataclass(frozen=True)
class QuandleColoring:
    colors: tuple  # ((arc id, element), ...) in diagram arc order


def _check_coloring(q: FiniteQuandle, d, colors: dict):
    for c in d.crossings:
        xi, xj = colors[c.under_in], colors[c.over]
        out = q.star(xi, xj) if c.sign == 1 else q.inv_star(xi, xj)
        if colors[c.under_out] != out:
            return c
    return None


def _coloring_plan(q: FiniteQuandle, d) -> list:
    """Compile the coloring search of d into levels [(arc, steps), ...].

    Right translation is a bijection, so a crossing fixes its under_out
    color once under_in and over are known, and under_in once under_out
    and over are.  Level j tries every color of its branch arc, then runs
    its steps (k, t, a, b, check) in order: a force sets color[k] to
    t[color[a]][color[b]]; a check rejects the branch unless they are
    equal.  Every crossing is either forced through or checked exactly
    once.  The next branch arc is the over arc of a crossing whose under
    arc is known, so on T(2,n) only 2 arcs branch."""
    index = {a: k for k, a in enumerate(d.arcs)}
    crossings = []
    touching = [[] for _ in d.arcs]
    for c in d.crossings:
        ui, uo, ov = index[c.under_in], index[c.under_out], index[c.over]
        fwd, back = (q.table, q.inv_table) if c.sign == 1 else (q.inv_table, q.table)
        for k in {ui, uo, ov}:
            touching[k].append(len(crossings))
        crossings.append((ui, uo, ov, fwd, back))
    known = [False] * len(d.arcs)
    done = [False] * len(crossings)
    candidates, first_free = [], 0
    plan = []
    while True:
        while candidates and known[candidates[-1]]:
            candidates.pop()
        if candidates:
            arc = candidates.pop()
        else:
            while first_free < len(known) and known[first_free]:
                first_free += 1
            if first_free == len(known):
                return plan
            arc = first_free
        steps = []
        plan.append((arc, steps))
        known[arc] = True
        fresh = [arc]
        while fresh:
            for j in touching[fresh.pop()]:
                if done[j]:
                    continue
                ui, uo, ov, fwd, back = crossings[j]
                if not known[ov]:
                    if known[ui] or known[uo]:
                        candidates.append(ov)
                    continue
                if known[ui] and known[uo]:
                    steps.append((uo, fwd, ui, ov, True))
                elif known[ui]:
                    steps.append((uo, fwd, ui, ov, False))
                    known[uo] = True
                    fresh.append(uo)
                elif known[uo]:
                    steps.append((ui, back, uo, ov, False))
                    known[ui] = True
                    fresh.append(ui)
                else:
                    continue
                done[j] = True


def enumerate_colorings(q: FiniteQuandle, d) -> list:
    """All quandle colorings of the diagram, in lexicographic order over
    the arcs: a backtracking run of the compiled plan, without recursion."""
    plan = _coloring_plan(q, d)
    colors = [0] * len(d.arcs)
    tried = [0] * len(plan)
    found = []
    level = 0
    while level >= 0:
        if level == len(plan):
            found.append(tuple(colors))
            level -= 1
            continue
        x = tried[level]
        if x == q.n:
            tried[level] = 0
            level -= 1
            continue
        tried[level] = x + 1
        arc, steps = plan[level]
        colors[arc] = x
        for k, t, a, b, check in steps:
            y = t[colors[a]][colors[b]]
            if not check:
                colors[k] = y
            elif colors[k] != y:
                break
        else:
            level += 1
    found.sort()
    return [QuandleColoring(tuple(list(zip(d.arcs, assign)))) for assign in found]


def quandle_weighted_graph(d, c: QuandleColoring, g: CrossingWeights, q: FiniteQuandle) -> WeightedDigraph:
    """One vertex per arc; each crossing (except the last arc's, whose
    relation is the omitted one) contributes the forward edge
    v_i -> v_{i+1} weighted g1 and the over edge v_i -> v_j weighted g2.
    The coloring is checked against the diagram in the quandle q."""
    colors = dict(c.colors)
    if set(colors) != set(d.arcs):
        raise ValueError("coloring does not match the diagram arcs")
    bad = _check_coloring(q, d, colors)
    if bad is not None:
        raise ValueError("coloring violates the crossing constraint at %r" % (bad,))
    vertices = tuple([(a, 1) for a in d.arcs])
    edges = []
    last = d.arcs[-1]
    for k, cr in enumerate(d.crossings):
        if cr.under_in == last:
            continue
        xi, xj = colors[cr.under_in], colors[cr.over]
        if cr.sign == 1:
            w1, w2 = g.g1_pos[xi][xj], g.g2_pos[xi][xj]
        else:
            w1, w2 = g.g1_neg[xi][xj], g.g2_neg[xi][xj]
        edges.append(
            Edge("c%d_f" % k, cr.under_in, cr.under_out, PolyMatrix(1, 1, [w1]))
        )
        edges.append(Edge("c%d_o" % k, cr.under_in, cr.over, PolyMatrix(1, 1, [w2])))
    return WeightedDigraph("matrix", vertices, tuple(edges))


# -- text formats -------------------------------------------------------

def _read_tables(text: str, what: str, blocks: int, read_row):
    """The size-prefixed table layout: first line n, then `blocks` tables
    of n rows each, every row read by `read_row(line, n)`.  Returns n and
    the tables, each a tuple of rows."""
    lines = list(content_lines(text))
    if not lines:
        raise ValueError("empty %s file" % what)
    n = parse_int(lines[0])
    if len(lines) != blocks * n + 1:
        raise ValueError("expected %d rows after the size line %r, got %d"
                         % (blocks * n, lines[0], len(lines) - 1))
    rows = [read_row(line, n) for line in lines[1:]]
    return n, [tuple(rows[k * n : (k + 1) * n]) for k in range(blocks)]


def _format_tables(n: int, tables, sep: str) -> str:
    lines = [str(n)]
    lines += [sep.join(str(x) for x in row) for table in tables for row in table]
    return "\n".join(lines) + "\n"


def _poly_row(line: str, n: int) -> tuple:
    row = tuple([parse_laurent(cell) for cell in line.split(",")])
    if len(row) != n:
        raise ValueError("expected %d comma-separated entries in %r" % (n, line))
    return row


def parse_quandle(text: str) -> FiniteQuandle:
    """First line n, then n rows of n integers (the 0-based table)."""
    _, (table,) = _read_tables(text, "quandle", 1,
                               lambda line, n: [parse_int(x) for x in line.split()])
    return quandle_check(table)


def format_quandle(q: FiniteQuandle) -> str:
    return _format_tables(q.n, [q.table], " ")


def parse_pair_file(text: str, q: FiniteQuandle) -> AlexanderPairTable:
    """First line n, then n comma-separated rows for f1, then n for f2."""
    n, (f1, f2) = _read_tables(text, "pair", 2, _poly_row)
    if n != q.n:
        raise ValueError("pair size %d does not match quandle size %d" % (n, q.n))
    return alexander_pair_check(q, f1, f2)


def format_pair_file(f: AlexanderPairTable) -> str:
    return _format_tables(f.n, [f.f1, f.f2], ", ")


def parse_weights_file(text: str) -> CrossingWeights:
    """First line n, then four n-row blocks: g1+, g2+, g1-, g2-."""
    n, blocks = _read_tables(text, "weights", 4, _poly_row)
    return CrossingWeights(n, *blocks)


def format_weights_file(g: CrossingWeights) -> str:
    return _format_tables(g.n, [g.g1_pos, g.g2_pos, g.g1_neg, g.g2_neg], ", ")
