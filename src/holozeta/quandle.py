"""Finite quandles, Alexander pairs, and holonomy-preserving crossing weights.

An Alexander pair (f1, f2) on a finite quandle induces scalar crossing
weights (g1_pos, g2_pos, g1_neg, g2_neg); these are exactly the weight
systems passing the holonomy conditions (A), (B-1), (B-2), (C), and the
two directions are implemented as f_twisted_weights and recover_pair.
Weights are 1x1 Laurent polynomials; unit entries keep inversion exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from .laurent import LaurentPoly, PolyMatrix, content_lines, parse_laurent
from .wgraph import WeightedDigraph, Edge


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
    table = tuple(tuple(int(x) for x in row) for row in table)
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
    return FiniteQuandle(n, table, tuple(tuple(row) for row in inv))


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
    return tuple(tuple(r) for r in rows)


def alexander_pair_check(q: FiniteQuandle, f1, f2) -> AlexanderPairTable:
    """Exhaustively verify the Alexander pair axioms and wrap the tables.

    (1) f1(a,a)+f2(a,a)=1; (2) every f1(a,b) is a unit; (3a)-(3c) the
    distributivity identities over all triples.
    """
    n = q.n
    f1 = _as_poly_table(f1, n, "f1")
    f2 = _as_poly_table(f2, n, "f2")
    one = LaurentPoly.one()
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


def constant_pair(q: FiniteQuandle, p1: LaurentPoly, p2: LaurentPoly) -> AlexanderPairTable:
    n = q.n
    return alexander_pair_check(
        q, [[p1] * n for _ in range(n)], [[p2] * n for _ in range(n)]
    )


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

    def perturbed(self, which: str, a: int, b: int, delta: LaurentPoly) -> "CrossingWeights":
        tables = {
            "g1_pos": self.g1_pos,
            "g2_pos": self.g2_pos,
            "g1_neg": self.g1_neg,
            "g2_neg": self.g2_neg,
        }
        t = [list(row) for row in tables[which]]
        t[a][b] = t[a][b] + delta
        tables[which] = tuple(tuple(row) for row in t)
        return CrossingWeights(self.n, **tables)


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


def identity_weights(n: int) -> CrossingWeights:
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    ones = tuple(tuple(one for _ in range(n)) for _ in range(n))
    zeros = tuple(tuple(zero for _ in range(n)) for _ in range(n))
    return CrossingWeights(n, ones, zeros, ones, zeros)


@dataclass
class HolonomyReport:
    failures: list  # (condition, witness, detail)

    @property
    def ok(self) -> bool:
        return not self.failures


def holonomy_failures(q: FiniteQuandle, g: CrossingWeights):
    """Yield each failing holonomy identity as (condition, witness,
    "lhs != rhs"), lazily and in the order (A), (B-1), (B-2), (C).

    A caller that only asks whether weights fail stops at the first
    failure; the n^3 loop of (C) runs only if everything before it holds."""
    n = q.n
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    g1p, g2p, g1n, g2n = g.g1_pos, g.g2_pos, g.g1_neg, g.g2_neg

    def identities():
        # (A): the kink configuration, where the over arc equals the under arc
        for a in range(n):
            yield "A", (a,), g1n[a][a] + g2n[a][a], one
        # (B-1): cancelling crossing pair met under-first; X_{j+1} = b *' a,
        # X_{i+1} = a * b
        for a in range(n):
            for b in range(n):
                jb = q.inv_star(b, a)
                yield "B-1", (a, b), g2n[b][a] + g1n[b][a] * g2p[jb][a], zero
                yield "B-1", (a, b), g1n[b][a] * g1p[jb][a], one
                ia = q.star(a, b)
                yield "B-1", (a, b), g2p[a][b] + g1p[a][b] * g2n[ia][b], zero
                yield "B-1", (a, b), g1p[a][b] * g1n[ia][b], one
        # (B-2): the opposite clasp; X_{i+1} = a *' b
        for a in range(n):
            for b in range(n):
                ia = q.inv_star(a, b)
                yield "B-2", (a, b), g2n[a][b] + g1n[a][b] * g2p[ia][b], zero
                yield "B-2", (a, b), g1n[a][b] * g1p[ia][b], one
        # (C): triangle slide; intermediate arcs a*b before, a*c and b*c after
        for a, b, c in product(range(n), repeat=3):
            ab, ac, bc = q.star(a, b), q.star(a, c), q.star(b, c)
            yield "C", (a, b, c), g1p[a][b] * g1p[ab][c], g1p[a][c] * g1p[ac][bc]
            yield "C", (a, b, c), g2p[a][b] * g1p[b][c], g1p[a][c] * g2p[ac][bc]
            # accumulated weight of the two routes from v_i to v_k before the
            # slide equals the single direct edge after it
            yield (
                "C",
                (a, b, c),
                g1p[a][b] * g2p[ab][c] + g2p[a][b] * g2p[b][c],
                g2p[a][c],
            )

    for cond, witness, lhs, rhs in identities():
        if lhs != rhs:
            yield cond, witness, "%s != %s" % (lhs, rhs)


def holonomy_check(q: FiniteQuandle, g: CrossingWeights) -> HolonomyReport:
    """Exhaustively check the holonomy conditions (A), (B-1), (B-2), (C)."""
    return HolonomyReport(list(holonomy_failures(q, g)))


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


def random_alexander_pair(q: FiniteQuandle, rng) -> AlexanderPairTable:
    """A random valid pair with unit f1 entries: pick a unit u and a
    unit-valued twist c on Q, then f1(a,b) = u c(a*b) c(a)^-1 and
    f2(a,b) = (1-u) c(a*b) c(b)^-1."""

    def unit():
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 2])
        return LaurentPoly.monomial(Fraction(num, den), rng.randint(-2, 2))

    u = unit()
    tw = [unit() for _ in range(q.n)]
    one = LaurentPoly.one()
    f1 = [
        [u * tw[q.star(a, b)] * tw[a].unit_inverse() for b in range(q.n)]
        for a in range(q.n)
    ]
    f2 = [
        [(one - u) * tw[q.star(a, b)] * tw[b].unit_inverse() for b in range(q.n)]
        for a in range(q.n)
    ]
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


def coloring_from_map(q: FiniteQuandle, d, colors: dict) -> QuandleColoring:
    if set(colors) != set(d.arcs):
        raise ValueError("coloring must assign every arc")
    bad = _check_coloring(q, d, colors)
    if bad is not None:
        raise ValueError("coloring violates the crossing constraint at %r" % (bad,))
    return QuandleColoring(tuple((a, colors[a]) for a in d.arcs))


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
    return [QuandleColoring(tuple(zip(d.arcs, assign))) for assign in found]


def quandle_weighted_graph(d, c: QuandleColoring, g: CrossingWeights, q: FiniteQuandle = None) -> WeightedDigraph:
    """One vertex per arc; each crossing (except the last arc's, whose
    relation is the omitted one) contributes the forward edge
    v_i -> v_{i+1} weighted g1 and the over edge v_i -> v_j weighted g2.

    Pass the quandle to re-validate the coloring against the diagram."""
    colors = dict(c.colors)
    if set(colors) != set(d.arcs):
        raise ValueError("coloring does not match the diagram arcs")
    if q is not None:
        bad = _check_coloring(q, d, colors)
        if bad is not None:
            raise ValueError("coloring violates the crossing constraint at %r" % (bad,))
    vertices = tuple((a, 1) for a in d.arcs)
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

def parse_quandle(text: str) -> FiniteQuandle:
    """First line n, then n rows of n integers (the 0-based table)."""
    lines = list(content_lines(text))
    if not lines:
        raise ValueError("empty quandle file")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError("expected %d table rows, got %d" % (n, len(lines) - 1))
    table = [[int(x) for x in row.split()] for row in lines[1:]]
    return quandle_check(table)


def format_quandle(q: FiniteQuandle) -> str:
    lines = [str(q.n)]
    for row in q.table:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _parse_poly_rows(lines, n):
    rows = []
    for line in lines:
        rows.append(tuple(parse_laurent(cell) for cell in line.split(",")))
        if len(rows[-1]) != n:
            raise ValueError("expected %d comma-separated entries in %r" % (n, line))
    return tuple(rows)


def parse_pair_file(text: str, q: FiniteQuandle) -> AlexanderPairTable:
    """First line n, then n comma-separated rows for f1, then n for f2."""
    lines = list(content_lines(text))
    if not lines:
        raise ValueError("empty pair file")
    n = int(lines[0])
    if n != q.n:
        raise ValueError("pair size %d does not match quandle size %d" % (n, q.n))
    if len(lines) != 2 * n + 1:
        raise ValueError("expected %d rows, got %d" % (2 * n, len(lines) - 1))
    f1 = _parse_poly_rows(lines[1 : n + 1], n)
    f2 = _parse_poly_rows(lines[n + 1 :], n)
    return alexander_pair_check(q, f1, f2)


def format_pair_file(f: AlexanderPairTable) -> str:
    lines = [str(f.n)]
    for table in (f.f1, f.f2):
        for row in table:
            lines.append(", ".join(str(p) for p in row))
    return "\n".join(lines) + "\n"


def parse_weights_file(text: str) -> CrossingWeights:
    """First line n, then four n-row blocks: g1+, g2+, g1-, g2-."""
    lines = list(content_lines(text))
    if not lines:
        raise ValueError("empty weights file")
    n = int(lines[0])
    if len(lines) != 4 * n + 1:
        raise ValueError("expected %d rows, got %d" % (4 * n, len(lines) - 1))
    blocks = [
        _parse_poly_rows(lines[1 + k * n : 1 + (k + 1) * n], n) for k in range(4)
    ]
    return CrossingWeights(n, *blocks)


def format_weights_file(g: CrossingWeights) -> str:
    lines = [str(g.n)]
    for table in (g.g1_pos, g.g2_pos, g.g1_neg, g.g2_neg):
        for row in table:
            lines.append(", ".join(str(p) for p in row))
    return "\n".join(lines) + "\n"
